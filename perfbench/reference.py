"""Values the workloads' outputs are checked against, computed apart from the
library: from the raw cells the benchmark generated, with numpy only.

A step function here is a pair (breakpoints, values): value v_k on the cell
(b_{k-1}, b_k] with b_{-1} = 0, and zero beyond the last breakpoint.
"""

from __future__ import annotations

import math

import numpy as np


def star_cells(breakpoints, values) -> tuple[np.ndarray, np.ndarray]:
    """Cells of the decreasing rearrangement f*: (right edges, values), zero
    cells dropped, levels sorted from the largest down."""
    bp = np.asarray(breakpoints, dtype=float)
    v = np.asarray(values, dtype=float)
    lengths = np.diff(bp, prepend=0.0)
    keep = v > 0.0
    order = np.argsort(-v[keep], kind="stable")
    return np.cumsum(lengths[keep][order]), v[keep][order]


def p_norm(breakpoints, values, p: float) -> float:
    """||f||_p = (sum of v^p times cell length)^(1/p)."""
    v = np.asarray(values, dtype=float)
    lengths = np.diff(np.asarray(breakpoints, dtype=float), prepend=0.0)
    return math.fsum(v**p * lengths) ** (1.0 / p)


def lpq_norm(breakpoints, values, p: float, q: float) -> float:
    """(integral of t^(q/p - 1) f*(t)^q dt)^(1/q), integrated cell by cell in
    closed form: v^q (p/q) (b^(q/p) - a^(q/p))."""
    edges, v = star_cells(breakpoints, values)
    lefts = np.concatenate([[0.0], edges[:-1]])
    r = q / p
    return math.fsum(v**q * (edges**r - lefts**r) / r) ** (1.0 / q)


def maximal_l2(breakpoints, values) -> float:
    """||f**||_2 with f**(t) = (1/t) integral_0^t f*, in closed form per cell.

    On a cell (a, b] of f* with level v, f** = v + c/t where c = F(a) - v a, so
    the cell contributes c^2 (1/a - 1/b) + 2 c v ln(b/a) + v^2 (b - a); the
    head cell has c = 0, and beyond the support T the tail is F(T)^2 / T.
    """
    edges, v = star_cells(breakpoints, values)
    if not len(v):
        return 0.0
    lefts = np.concatenate([[0.0], edges[:-1]])
    F = np.concatenate([[0.0], np.cumsum(v * (edges - lefts))])
    parts = [v[0] ** 2 * edges[0]]
    for a, b, vk, Fa in zip(lefts[1:], edges[1:], v[1:], F[1:-1]):
        c = Fa - vk * a
        parts.append(c * c * (1.0 / a - 1.0 / b) + 2.0 * c * vk * math.log(b / a) + vk * vk * (b - a))
    parts.append(F[-1] ** 2 / edges[-1])
    return math.sqrt(math.fsum(parts))


def weighted_lhs(breakpoints, values, q: float, w_support: float) -> float:
    """(integral of f*^q w)^(1/q) for w the indicator of (0, w_support]
    (w_support = inf for w = 1)."""
    edges, v = star_cells(breakpoints, values)
    lefts = np.concatenate([[0.0], edges[:-1]])
    inside = np.clip(np.minimum(edges, w_support) - lefts, 0.0, None)
    return math.fsum(v**q * inside) ** (1.0 / q)


def fundamental_function(atoms, sigma, ts) -> np.ndarray:
    """h(t) = sum over atoms (s, m) of m sigma(t) / (sigma(s) + sigma(t)); an
    atom at s = 0 (sigma(0) = 0) contributes its whole mass."""
    ts = np.asarray(ts, dtype=float)
    st = sigma(ts)
    out = np.zeros_like(ts)
    for s, m in atoms:
        out += m if s == 0.0 else m * st / (sigma(np.float64(s)) + st)
    return out


def rel_err(x: float, ref: float) -> float:
    if x == ref:
        return 0.0
    return abs(x - ref) / abs(ref) if ref != 0.0 else math.inf
