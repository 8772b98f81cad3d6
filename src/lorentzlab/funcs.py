"""Piecewise-constant functions on (0, infinity) with exact cell arithmetic.

A PiecewiseFn stores breakpoints b_0 < ... < b_{M-1} (all positive) and one
value per cell, where cell j is (b_{j-1}, b_j] with b_{-1} = 0; beyond the
last breakpoint the function equals a declared constant `right_value`
(0.0 for the zero-extension rule). Values are nonnegative extended reals
(+inf allowed, NaN never). Cell lengths are stored explicitly so that
rearranged functions carry exactly the same length multiset as their source.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConfigError, InvertedInterval
from .grid import GeometricGrid

__all__ = ["PiecewiseFn", "indicator", "integrate", "integrate_pairs", "p_norm", "pointwise_merge"]

_INF = math.inf


def _as_value_array(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) == 0:
        raise ConfigError("values must be a nonempty 1-d array")
    if np.isnan(v).any():
        raise ConfigError("NaN is not a legal function value")
    if (v < 0).any():
        raise ConfigError("function values must be nonnegative")
    return v


class PiecewiseFn:
    """Nonnegative step function: values[j] on (b_{j-1}, b_j], b_{-1} = 0."""

    __slots__ = ("breakpoints", "values", "lengths", "right_value")

    def __init__(self, breakpoints, values, right_value: float = 0.0, *, _lengths=None):
        bp = np.asarray(breakpoints, dtype=float)
        v = _as_value_array(values)
        if bp.ndim != 1 or len(bp) != len(v):
            raise ConfigError("breakpoints and values must have equal length")
        if not np.isfinite(bp).all() or bp[0] <= 0 or (np.diff(bp) <= 0).any():
            raise ConfigError("breakpoints must be finite, positive, strictly increasing")
        if math.isnan(right_value) or right_value < 0:
            raise ConfigError("right_value must be a nonnegative extended real")
        self.breakpoints = bp
        self.values = v
        if _lengths is None:
            self.lengths = np.diff(bp, prepend=0.0)
        else:
            self.lengths = np.asarray(_lengths, dtype=float)
        self.right_value = float(right_value)

    # -- constructors -------------------------------------------------------

    @classmethod
    def on_grid(
        cls,
        grid: GeometricGrid,
        cell_values,
        left_extension: str = "constant",
        right_extension: str = "zero",
    ) -> "PiecewiseFn":
        """Build from per-cell values on a geometric grid.

        cell_values has grid.n_cells entries for (t_{k-1}, t_k]; the head cell
        (0, t_min] takes cell_values[0] under the "constant" rule or 0 under
        "zero"; the tail (t_max, inf) is 0 or constant cell_values[-1].
        """
        cv = _as_value_array(cell_values)
        if len(cv) != grid.n_cells:
            raise ConfigError(
                f"expected {grid.n_cells} cell values, got {len(cv)}"
            )
        if left_extension == "constant":
            head = cv[0]
        elif left_extension == "zero":
            head = 0.0
        else:
            raise ConfigError(f"unknown left_extension {left_extension!r}")
        if right_extension == "zero":
            rv = 0.0
        elif right_extension == "constant":
            rv = cv[-1]
        else:
            raise ConfigError(f"unknown right_extension {right_extension!r}")
        return cls(grid.breakpoints, np.concatenate([[head], cv]), rv)

    @classmethod
    def from_cells(cls, lengths, values, right_value: float = 0.0) -> "PiecewiseFn":
        """Build from (length, value) cells laid end to end from 0.

        The given lengths are stored verbatim as the measure-authoritative
        view, so distribution functions of a rearrangement sum exactly the
        same float multiset as the original.
        """
        ln = np.asarray(lengths, dtype=float)
        if not np.isfinite(ln).all() or (ln <= 0).any():
            raise ConfigError("cell lengths must be finite and positive")
        bp = np.cumsum(ln)
        return cls(bp, values, right_value, _lengths=ln)

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if (t_arr <= 0).any():
            raise ValueError("PiecewiseFn is defined on (0, inf) only")
        idx = np.searchsorted(self.breakpoints, t_arr, side="left")
        out = np.where(
            idx < len(self.values),
            self.values[np.minimum(idx, len(self.values) - 1)],
            self.right_value,
        )
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out

    @property
    def left_edges(self) -> np.ndarray:
        return np.concatenate([[0.0], self.breakpoints[:-1]])

    @property
    def t_max(self) -> float:
        return float(self.breakpoints[-1])

    def support_measure(self) -> float:
        """Lebesgue measure of {f > 0}."""
        if self.right_value > 0:
            return _INF
        return math.fsum(self.lengths[self.values > 0])

    def is_nonincreasing(self) -> bool:
        ok = bool((np.diff(self.values) <= 0).all())
        return ok and self.right_value <= self.values[-1]

    # -- pointwise algebra ----------------------------------------------------

    def powered(self, p: float) -> "PiecewiseFn":
        """Pointwise f^p for p > 0 (0^p = 0, inf^p = inf)."""
        if not p > 0:
            raise ValueError("powered() requires p > 0")
        return PiecewiseFn(
            self.breakpoints,
            self.values ** p,
            self.right_value ** p,
            _lengths=self.lengths,
        )

    def scaled(self, c: float) -> "PiecewiseFn":
        if math.isnan(c) or c < 0:
            raise ValueError("scale factor must be nonnegative")
        if c == 0.0:
            vals = np.zeros_like(self.values)
            rv = 0.0
        else:
            vals = self.values * c
            rv = self.right_value * c
        return PiecewiseFn(self.breakpoints, vals, rv, _lengths=self.lengths)

    def to_json(self) -> dict:
        return {
            "breakpoints": [float(b) for b in self.breakpoints],
            "values": [float(v) for v in self.values],
            "right_value": float(self.right_value),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PiecewiseFn":
        if "grid" in obj and "breakpoints" not in obj:
            grid = GeometricGrid.from_json(obj["grid"])
            return cls.on_grid(
                grid,
                obj["values"],
                obj.get("left_extension", "constant"),
                obj.get("right_extension", "zero"),
            )
        try:
            return cls(
                obj["breakpoints"], obj["values"], float(obj.get("right_value", 0.0))
            )
        except KeyError as exc:
            raise ConfigError(f"function JSON missing field: {exc}") from exc


def indicator(a: float, b: float) -> PiecewiseFn:
    """Characteristic function of (a, b], a >= 0, b finite."""
    if not (0 <= a < b < _INF):
        raise ConfigError(f"indicator needs 0 <= a < b < inf, got ({a}, {b})")
    if a == 0:
        return PiecewiseFn([b], [1.0])
    return PiecewiseFn([a, b], [0.0, 1.0])


# -- integration -------------------------------------------------------------


def integrate_pairs(f: PiecewiseFn, lo, hi) -> np.ndarray:
    """Exact integrals of f over the pairs (lo_i, hi_i], 0 <= lo_i <= hi_i <= inf:
    one (pairs x cells) overlap matrix and a ``math.fsum`` per row."""
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    inverted = lo > hi
    if inverted.any():
        i = inverted.argmax()
        raise InvertedInterval(f"integrate over (a={lo[i]}, b={hi[i]}]")
    if (lo < 0).any():
        raise ValueError("integration bounds must be >= 0")
    ov = np.minimum(f.breakpoints, hi[:, None]) - np.maximum(f.left_edges, lo[:, None])
    cells = np.multiply(f.values, ov, out=np.zeros(ov.shape), where=ov > 0)
    out = cells.sum(axis=1)  # exact where a row has at most one nonzero entry
    multi = np.count_nonzero(cells, axis=1) > 1
    out[multi] = [math.fsum(row) for row in cells[multi].tolist()]
    if f.right_value > 0:
        tail = (hi > f.t_max) & (lo < hi)
        out[tail] += f.right_value * (hi[tail] - np.maximum(lo[tail], f.t_max))
    return out


def integrate(f: PiecewiseFn, a: float, b: float) -> float:
    """Exact integral of f over (a, b], 0 <= a <= b <= inf."""
    return float(integrate_pairs(f, [a], [b])[0])


def p_norm(f: PiecewiseFn, p: float, r: float = _INF) -> float:
    """||f||_{p,(0,r)} — the L_p (quasi)norm over (0, r], p in (0, inf]."""
    if p == _INF:
        values = np.append(f.values, f.right_value)  # the right value's cell is (t_max, inf)
        sel = np.append(f.left_edges, f.t_max) < r
        return float(np.max(values[sel])) if sel.any() else 0.0
    if not p > 0:
        raise ValueError("p must be positive")
    total = integrate(f.powered(p), 0.0, r)
    return total ** (1.0 / p)


def pointwise_merge(
    f: PiecewiseFn, g: PiecewiseFn, op: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> PiecewiseFn:
    """Apply a binary op cell-by-cell on the union breakpoint set."""
    bp = np.union1d(f.breakpoints, g.breakpoints)
    fv = f(bp)
    gv = g(bp)
    vals = op(np.asarray(fv), np.asarray(gv))
    rv = float(op(np.asarray(f.right_value), np.asarray(g.right_value)))
    return PiecewiseFn(bp, vals, rv)
