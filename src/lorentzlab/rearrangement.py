"""Distribution functions, decreasing rearrangements, and maximal averages.

The rearrangement of a step function is the stable descending sort of its
(value, length) cells laid end to end from 0. Stored cell lengths make the
rearrangement carry exactly the same length multiset as its source, so
distribution values agree bit-for-bit (fsum of identical multisets).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DegenerateU, NonRearrangeable
from .funcs import PiecewiseFn
from .weights import Weight, _cumulative_at, product_cumulative

__all__ = [
    "distribution",
    "DecreasingFn",
    "decreasing_rearrangement",
    "maximal",
    "weighted_maximal",
    "weak_norm",
    "cumulative_eval",
]

_INF = math.inf


def distribution(f: PiecewiseFn, alpha: float) -> float:
    """mu_f(alpha) = |{t : f(t) > alpha}| for alpha >= 0."""
    if math.isnan(alpha) or alpha < 0:
        raise ValueError("level must be a nonnegative real")
    if f.right_value > alpha:
        return _INF
    return math.fsum(f.lengths[f.values > alpha].tolist())


class DecreasingFn:
    """A PiecewiseFn certified nonincreasing (a rearrangement, typically)."""

    __slots__ = ("fn",)

    def __init__(self, fn: PiecewiseFn):
        if not fn.is_nonincreasing():
            raise NonRearrangeable("values must be nonincreasing with tail <= last value")
        self.fn = fn

    def __call__(self, t):
        return self.fn(t)

    @property
    def values(self):
        return self.fn.values

    @property
    def breakpoints(self):
        return self.fn.breakpoints

    def __len__(self):
        return len(self.fn)


def decreasing_rearrangement(f: PiecewiseFn) -> DecreasingFn:
    """f* : stable descending sort of cells, re-laid on (0, |supp f|].

    Functions with unbounded support are passed through only when already
    nonincreasing; otherwise the layout does not exist and we raise.
    """
    if f.right_value > 0:
        if f.is_nonincreasing():
            return DecreasingFn(f)
        raise NonRearrangeable(
            "unbounded support: rearrangement exists only for nonincreasing input"
        )
    sel = f.values > 0
    if not sel.any():
        return DecreasingFn(PiecewiseFn([f.t_max], [0.0]))
    order = np.argsort(-f.values[sel], kind="stable")
    return DecreasingFn(
        PiecewiseFn.from_cells(f.lengths[sel][order], f.values[sel][order])
    )


def _rearranged(f) -> PiecewiseFn:
    """The step function of f*, for f a PiecewiseFn or an already
    nonincreasing DecreasingFn."""
    if isinstance(f, DecreasingFn):
        return f.fn
    if isinstance(f, PiecewiseFn):
        return decreasing_rearrangement(f).fn
    raise ConfigError(f"expected a PiecewiseFn or DecreasingFn, got {type(f)!r}")


def cumulative_eval(fn: PiecewiseFn, t):
    """F(t) = integral_0^t fn, exact per cell (piecewise linear), vectorized."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    bp = fn.breakpoints
    m = len(bp)
    with np.errstate(invalid="ignore"):
        cums = np.concatenate([[0.0], np.cumsum(fn.values * fn.lengths)])
    idx = np.searchsorted(bp, t_arr, side="left")
    safe = np.minimum(idx, m - 1)
    left = fn.left_edges[safe]
    dt = t_arr - left
    with np.errstate(invalid="ignore"):
        within = cums[safe] + fn.values[safe] * dt
    within = np.where(dt == 0.0, cums[safe], within)  # inf slope * 0 := 0
    with np.errstate(invalid="ignore"):
        beyond = cums[m] + fn.right_value * (t_arr - bp[-1])
    beyond = np.where(t_arr == bp[-1], cums[m], beyond)
    out = np.where(idx >= m, beyond, within)
    return float(out[0]) if np.asarray(t).ndim == 0 else out


def maximal(f_star: DecreasingFn):
    """f**(t) = (1/t) integral_0^t f*; returns a callable."""

    fn = f_star.fn

    def f_double_star(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if (t_arr <= 0).any():
            raise ValueError("f** is defined for t > 0")
        out = cumulative_eval(fn, t_arr) / t_arr
        return float(out[0]) if np.asarray(t).ndim == 0 else out

    f_double_star.cumulative = lambda t: cumulative_eval(fn, t)
    return f_double_star


def weighted_maximal(f_star: DecreasingFn, u: Weight):
    """f**_u(t) = integral_0^t f* u / U(t) with U(t) = integral_0^t u; an array t
    takes one ``product_cumulative`` and one ``cumulative_pairs`` call."""

    fn = f_star.fn

    def f_u(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if (t_arr <= 0).any():
            raise ValueError("defined for t > 0")
        den = _cumulative_at(u, t_arr)
        bad = (den == 0.0) | (den == _INF)
        if bad.any():
            i = bad.argmax()
            raise DegenerateU(f"U({t_arr[i]}) = {den[i]}")
        out = product_cumulative(fn, u, 0.0, t_arr) / den
        return float(out[0]) if np.asarray(t).ndim == 0 else out

    return f_u


def weak_norm(f: PiecewiseFn, p: float) -> float:
    """sup_alpha alpha * mu_f(alpha)^{1/p} via levels of f itself.

    For a step function the sup is attained approaching some value v from
    below, where the level-set measure is |{f >= v}|.
    """
    if not 0 < p <= _INF:
        raise ValueError("p must be in (0, inf]")
    if p == _INF:
        return max(float(np.max(f.values)), f.right_value)
    if f.right_value > 0:
        return _INF
    best = 0.0
    for v in np.unique(f.values[f.values > 0]):
        m = math.fsum(f.lengths[f.values >= v].tolist())
        best = max(best, float(v) * m ** (1.0 / p))
    return best
