"""Weights on (0, infinity): symbolic power / power-log kinds and tabulated.

Every kind exposes pointwise evaluation w(t), an exact cumulative
W(a, b) = integral_a^b w decoupled from any grid, per-interval sups (for
weighted essential suprema), pointwise powers (symbolic kinds are closed
under them), and limits at 0+ and infinity. A cumulative-from-zero query on
a weight that is not locally integrable at the origin raises
NonIntegrableNearZero; divergence at infinity reports +inf.

``product_cumulative`` is the one way a step function is integrated against
any kind of weight; a tabulated weight's cell masses come from funcs.py's
overlap kernel ``integrate_pairs``.  A PowerLog is integrated on (0, 1] by
Gauss-Legendre panels in u = ln t, from a table of its integrals from 0 at
e^-j; mpmath is imported only below the deepest entry of that table.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InvertedInterval, NonIntegrableNearZero
from .funcs import PiecewiseFn, integrate, integrate_pairs

__all__ = [
    "Weight",
    "Power",
    "PowerLog",
    "Tabulated",
    "weight_from_json",
    "power_integral",
    "product_cumulative",
    "ess_sup_weighted",
    "WeightProfile",
]

_INF = math.inf


def power_integral(alpha: float, lo: float, hi: float) -> float:
    """integral_lo^hi t^alpha dt with extended-real conventions."""
    if lo > hi:
        raise InvertedInterval(f"power_integral over ({lo}, {hi}]")
    if lo < 0:
        raise ValueError("bounds must be >= 0")
    if lo == hi:
        return 0.0
    ap1 = alpha + 1.0
    if lo == 0.0 and ap1 <= 0.0:
        raise NonIntegrableNearZero(f"t^{alpha} is not integrable near 0")
    if hi == _INF and ap1 >= 0.0:
        return _INF
    if ap1 == 0.0:
        return math.log(hi / lo)
    try:
        if hi == _INF:
            return -(lo ** ap1) / ap1
        return (hi ** ap1 - lo ** ap1) / ap1
    except OverflowError:  # a power past the float range: the integral is +inf
        return _INF


# Gauss-Legendre nodes and weights of order 20 on [-1, 1], equal bit for bit
# to scipy.special.roots_legendre(20) and written out so that importing the
# package loads no scipy (numpy's leggauss weights differ by up to 1e-13)
_GL_X = np.array([
    -0.9931285991850949, -0.9639719272779137, -0.912234428251326, -0.8391169718222189,
    -0.7463319064601508, -0.6360536807265149, -0.510867001950827, -0.37370608871541955,
    -0.22778585114164504, -0.0765265211334973, 0.0765265211334973, 0.22778585114164504,
    0.37370608871541955, 0.510867001950827, 0.6360536807265149, 0.7463319064601508,
    0.8391169718222189, 0.912234428251326, 0.9639719272779137, 0.9931285991850949,
])
_GL_W = np.array([
    0.017614007139152687, 0.04060142980038748, 0.06267204833410933, 0.08327674157670427,
    0.10193011981724026, 0.11819453196151841, 0.13168863844917644, 0.14209610931838176,
    0.1491729864726036, 0.1527533871307256, 0.1527533871307256, 0.1491729864726036,
    0.14209610931838176, 0.13168863844917644, 0.11819453196151841, 0.10193011981724026,
    0.08327674157670427, 0.06267204833410933, 0.04060142980038748, 0.017614007139152687,
])

_KNOTS = 40  # PowerLog prefixes are tabulated at e^-j, j = 0.._KNOTS


def _log_ratio(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """ln(hi / lo) for 0 < lo <= hi <= inf, to full relative accuracy also
    when hi / lo is close to 1."""
    d = np.log(hi) - np.log(lo)
    near = hi <= 2.0 * lo  # hi - lo is exact there
    d[near] = np.log1p((hi[near] - lo[near]) / lo[near])
    return d


def _power_pairs(lam: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """integral over (lo, hi] of t^(lam - 1), 0 < lo <= hi <= inf: through
    expm1 when (hi / lo)^lam is within a factor e of 1, where the difference
    hi^lam - lo^lam would cancel."""
    d = _log_ratio(lo, hi)
    if lam == 0.0:
        return d
    near = lo ** lam * np.expm1(lam * d) / lam
    far = (hi ** lam - lo ** lam) / lam
    return np.where(np.abs(lam * d) < 1.0, near, far)


def _plog_panels(lam: float, beta: float, u0: np.ndarray, width: np.ndarray) -> np.ndarray:
    """integral over (u0, u0 + width] of e^(lam u) (1 - u)^beta du, the
    PowerLog density in u = ln t, for u0 + width <= 0.  Each interval takes
    ceil(width) equal 20-node Gauss-Legendre panels (at least one); a panel's
    nodes are summed in their row and an interval's panels in order, so each
    value depends on its own interval alone, whatever the batch."""
    n = np.maximum(np.ceil(width), 1.0).astype(np.intp)
    first = np.cumsum(n) - n
    pair = np.repeat(np.arange(len(n)), n)
    half = 0.5 * width[pair] / n[pair]
    mid = u0[pair] + (2.0 * (np.arange(len(pair)) - first[pair]) + 1.0) * half
    u = mid[:, None] + half[:, None] * _GL_X
    panels = half * (np.exp(lam * u) * (1.0 - u) ** beta * _GL_W).sum(axis=1)
    return np.add.reduceat(panels, first)


def _plog_deep(alpha: float, beta: float, u: float) -> float:
    """integral over (0, e^u] of t^alpha (1 - ln t)^beta, for u <= -_KNOTS and
    a density integrable near 0: with x = 1 - ln t, e^lam lam^-(beta+1)
    Gamma(beta+1, lam (1 - u)) when lam = alpha + 1 > 0, a power of x when
    lam = 0."""
    lam = alpha + 1.0
    if lam == 0.0:
        return -((1.0 - u) ** (beta + 1.0)) / (beta + 1.0)
    import mpmath

    g = mpmath.gammainc(beta + 1.0, lam * (1.0 - u))
    return float(mpmath.e ** lam * mpmath.mpf(lam) ** (-(beta + 1.0)) * g)


@lru_cache(maxsize=64)
def _plog_knots(alpha: float, beta: float) -> np.ndarray:
    """W(e^-j) = integral over (0, e^-j] of the PowerLog density for
    j = 0.._KNOTS: the deepest from ``_plog_deep``, each other one the exact
    sum of it and the unit panels above it.  Read-only."""
    units = _plog_panels(alpha + 1.0, beta, -np.arange(1.0, _KNOTS + 1.0), np.ones(_KNOTS)).tolist()
    deep = _plog_deep(alpha, beta, -float(_KNOTS))
    knots = np.array([math.fsum([deep, *units[j:]]) for j in range(_KNOTS + 1)])
    knots.setflags(write=False)
    return knots


def _plog_prefix(alpha: float, beta: float, t: np.ndarray) -> np.ndarray:
    """W(t) = integral over (0, t] of the PowerLog density for t in (0, 1]:
    the knot e^-j at or below t plus one panel from it up to t; below the
    deepest knot, ``_plog_deep`` point by point."""
    u = np.log(t)
    j = np.ceil(-u)
    out = np.empty(len(t))
    deep = j > _KNOTS
    near = ~deep
    if near.any():
        jn = j[near]
        knots = _plog_knots(alpha, beta)
        out[near] = knots[jn.astype(np.intp)] + _plog_panels(alpha + 1.0, beta, -jn, u[near] + jn)
    for k in np.flatnonzero(deep).tolist():
        out[k] = _plog_deep(alpha, beta, float(u[k]))
    return out


class Weight:
    """Base class; subclasses implement the per-kind exact pieces."""

    kind: str = "?"

    def __call__(self, t):
        raise NotImplementedError

    def cumulative(self, a: float, b: float) -> float:
        raise NotImplementedError

    def cumulative_pairs(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """W(lo_k, hi_k) for each pair, each equal to the float call."""
        raise NotImplementedError

    def pow(self, e: float) -> "Weight":
        raise NotImplementedError

    def cell_sup(self, lo: float, hi: float) -> float:
        """sup of w over (lo, hi], lo >= 0, hi <= inf."""
        raise NotImplementedError

    def limit_zero(self) -> float:
        """limsup of w(t) as t -> 0+."""
        raise NotImplementedError

    def limit_inf(self) -> float:
        raise NotImplementedError

    def head_power(self):
        """(alpha, beta) with w(t) ~ c t^alpha (1 + ln 1/t)^beta, c > 0, as t -> 0+;
        None when w vanishes near 0."""
        raise NotImplementedError

    def tail_power(self):
        """(coef, alpha) with w(s) = coef * s^alpha for s beyond some point,
        or None when no such form exists (tabulated with nonconstant tail is
        constant beyond its last breakpoint, so it always has one)."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class Power(Weight):
    """w(t) = t^alpha."""

    kind = "power"

    def __init__(self, alpha: float):
        if math.isnan(alpha) or math.isinf(alpha):
            raise ConfigError("alpha must be finite")
        self.alpha = float(alpha)

    def __call__(self, t):
        return np.asarray(t, dtype=float) ** self.alpha

    def cumulative(self, a, b):
        return power_integral(self.alpha, a, b)

    def cumulative_pairs(self, lo, hi):
        lo = np.asarray(lo, float)
        hi = np.asarray(hi, float)
        ap1 = self.alpha + 1.0
        if ap1 <= 0 and (lo == 0.0).any():
            raise NonIntegrableNearZero(f"t^{self.alpha} near 0")
        if ap1 == 0.0:
            return np.log(hi / lo)
        return (hi ** ap1 - lo ** ap1) / ap1

    def pow(self, e):
        return Power(self.alpha * e)

    def cell_sup(self, lo, hi):
        if self.alpha == 0.0:
            return 1.0
        if self.alpha > 0:
            return hi ** self.alpha if hi < _INF else _INF
        return lo ** self.alpha if lo > 0 else _INF

    def limit_zero(self):
        return 0.0 if self.alpha > 0 else (1.0 if self.alpha == 0 else _INF)

    def limit_inf(self):
        return _INF if self.alpha > 0 else (1.0 if self.alpha == 0 else 0.0)

    def tail_power(self):
        return (1.0, self.alpha)

    def head_power(self):
        return (self.alpha, 0.0)

    def to_json(self):
        return {"kind": "power", "alpha": self.alpha}


class PowerLog(Weight):
    """w(t) = t^alpha (1 + max(ln(1/t), 0))^beta; equals t^alpha for t >= 1."""

    kind = "powerlog"

    def __init__(self, alpha: float, beta: float):
        for x in (alpha, beta):
            if math.isnan(x) or math.isinf(x):
                raise ConfigError("alpha, beta must be finite")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        logplus = np.maximum(-np.log(t), 0.0)
        return t ** self.alpha * (1.0 + logplus) ** self.beta

    def cumulative(self, a, b):
        return float(self.cumulative_pairs(np.array([a], dtype=float), np.array([b], dtype=float))[0])

    def cumulative_pairs(self, lo, hi):
        """The head (0, 1] in u = ln t: from 0 by the knot table and one panel,
        otherwise directly over (ln lo, ln hi] (never as a difference of
        prefixes, which cancels on narrow cells); past 1 the power closed form."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        inverted = lo > hi
        if inverted.any():
            k = int(inverted.argmax())
            raise InvertedInterval(f"cumulative over ({lo.flat[k]}, {hi.flat[k]}]")
        if (lo < 0.0).any():
            raise ValueError("bounds must be >= 0")
        lam = self.alpha + 1.0
        out = np.zeros(lo.shape)
        far = (hi > 1.0) & (hi > lo)
        if far.any():
            out[far] = _power_pairs(lam, np.maximum(lo[far], 1.0), hi[far])
        head_hi = np.minimum(hi, 1.0)
        zero = (lo == 0.0) & (hi > 0.0)
        if zero.any():
            if not (lam > 0.0 or (lam == 0.0 and self.beta < -1.0)):
                raise NonIntegrableNearZero(
                    f"t^{self.alpha} (1 + ln 1/t)^{self.beta} is not integrable near 0"
                )
            out[zero] += _plog_prefix(self.alpha, self.beta, head_hi[zero])
        cell = (lo > 0.0) & (lo < head_hi)
        if cell.any():
            a, b = lo[cell], head_hi[cell]
            out[cell] += _plog_panels(lam, self.beta, np.log(a), _log_ratio(a, b))
        return out

    def pow(self, e):
        return PowerLog(self.alpha * e, self.beta * e)

    def cell_sup(self, lo, hi):
        cands = []
        if lo > 0:
            cands.append(float(self(lo)))
        else:
            cands.append(self.limit_zero())
        if hi < _INF:
            cands.append(float(self(hi)))
        else:
            cands.append(self.limit_inf())
        if lo < 1.0 <= hi:
            cands.append(1.0)  # w(1) = 1
        if self.alpha != 0.0:
            tc = math.exp(1.0 - self.beta / self.alpha)
            if lo < tc < min(hi, 1.0):
                cands.append(float(self(tc)))
        return max(cands)

    def limit_zero(self):
        if self.alpha > 0:
            return 0.0
        if self.alpha < 0:
            return _INF
        return _INF if self.beta > 0 else (1.0 if self.beta == 0 else 0.0)

    def limit_inf(self):
        a = self.alpha
        return _INF if a > 0 else (1.0 if a == 0 else 0.0)

    def tail_power(self):
        return (1.0, self.alpha)

    def head_power(self):
        return (self.alpha, self.beta)

    def to_json(self):
        return {"kind": "powerlog", "alpha": self.alpha, "beta": self.beta}


class Tabulated(Weight):
    """Weight backed by a piecewise-constant function.

    ``cumulative`` and ``cumulative_pairs`` are ``integrate`` and
    ``integrate_pairs`` of the step function, the one overlap kernel of
    funcs.py, so they agree bit for bit.
    """

    kind = "tabulated"

    def __init__(self, fn: PiecewiseFn):
        self.fn = fn

    def __call__(self, t):
        return self.fn(t)

    def cumulative(self, a, b):
        return integrate(self.fn, a, b)

    def cumulative_pairs(self, lo, hi):
        return integrate_pairs(self.fn, lo, hi)

    def pow(self, e):
        return Tabulated(self.fn.powered(e))

    def cell_sup(self, lo, hi):
        f = self.fn
        values = np.append(f.values, f.right_value)  # the right value's cell is (t_max, inf)
        sel = (np.append(f.left_edges, f.t_max) < hi) & (np.append(f.breakpoints, _INF) > lo)
        return float(np.max(values[sel])) if sel.any() else 0.0

    def limit_zero(self):
        return float(self.fn.values[0])

    def limit_inf(self):
        return self.fn.right_value

    def tail_power(self):
        rv = self.fn.right_value
        return (rv, 0.0) if rv > 0 else None

    def head_power(self):
        return (0.0, 0.0) if self.fn.values[0] > 0 else None

    def to_json(self):
        body = self.fn.to_json()
        return {"kind": "tabulated", "grid": {"breakpoints": body["breakpoints"]},
                "values": body["values"], "right_value": body["right_value"]}


def weight_from_json(obj: dict) -> Weight:
    try:
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise ConfigError("weight JSON needs a 'kind' field") from exc
    if kind == "power":
        return Power(float(obj["alpha"]))
    if kind == "powerlog":
        return PowerLog(float(obj["alpha"]), float(obj["beta"]))
    if kind == "tabulated":
        grid = obj.get("grid", {})
        if "breakpoints" in grid:
            fn = PiecewiseFn(grid["breakpoints"], obj["values"],
                             float(obj.get("right_value", 0.0)))
        else:
            fn = PiecewiseFn.from_json({"grid": grid, **obj})
        return Tabulated(fn)
    raise ConfigError(f"unknown weight kind {kind!r}")


# -- weighted integrals and sups ----------------------------------------------


def _cumulative_at(w: Weight, t) -> np.ndarray:
    """W(t) = integral_0^t w at each point of the array t."""
    t = np.asarray(t, dtype=float)
    return w.cumulative_pairs(np.zeros_like(t), t)


def product_cumulative(fn: PiecewiseFn, w: Weight, a: float, b):
    """Exact integral over (a, b] of fn(t) * w(t) dt, for every kind of weight.

    Each cell, the right value's (t_max, inf) among them, contributes
    value * W(cell); 0 * inf is treated as 0 (measure convention).  An array
    b gives one integral per point, each equal to the float call: the
    (points x cells) products come from one ``w.cumulative_pairs`` call and
    each point's value is the ``math.fsum`` of its row.
    """
    b_arr = np.asarray(b, dtype=float)
    bs = b_arr.reshape(-1)
    if (bs < a).any():
        raise InvertedInterval(f"product_cumulative over ({a}, {b}]")
    values = np.concatenate((fn.values, (fn.right_value,)))
    lo = np.maximum(np.concatenate(((0.0,), fn.breakpoints)), a)
    hi = np.minimum(np.concatenate((fn.breakpoints, (_INF,))), bs[:, None])
    rows, cols = ((hi > lo) & (values > 0)).nonzero()
    cells = np.zeros(hi.shape)
    if len(cols):
        dw = w.cumulative_pairs(lo[cols], hi[rows, cols])
        with np.errstate(invalid="ignore"):
            prod = values[cols] * dw
        cells[rows, cols] = np.where(np.isnan(prod), 0.0, prod)  # inf * 0 := 0
    out = np.array([math.fsum(row) for row in cells.tolist()])
    return out if b_arr.ndim else float(out[0])


def _cell_sups(w: Weight, edges: np.ndarray) -> np.ndarray:
    """sup of w over each cell (edges[k-1], edges[k]], the first from 0."""
    left = np.concatenate([[0.0], edges[:-1]])
    return np.array([w.cell_sup(float(a), float(b)) for a, b in zip(left, edges)])


def ess_sup_weighted(fn: PiecewiseFn, w: Weight, interval=(0.0, _INF)) -> float:
    """Essential sup of fn(t) * w(t) over (lo, hi]."""
    lo_b, hi_b = interval
    if lo_b > hi_b:
        raise InvertedInterval(f"ess_sup_weighted over ({lo_b}, {hi_b}]")
    if lo_b == hi_b:
        return 0.0
    values = np.append(fn.values, fn.right_value)  # the right value's cell is (t_max, inf)
    lo = np.maximum(np.append(fn.left_edges, fn.t_max), lo_b)
    hi = np.minimum(np.append(fn.breakpoints, _INF), hi_b)
    best = 0.0
    for j in np.nonzero((hi > lo) & (values > 0))[0]:
        ws = w.cell_sup(float(lo[j]), float(hi[j]))
        if ws > 0:
            best = max(best, values[j] * ws)
    return best


class WeightProfile:
    """Cached view of psi through the lens of the p-norm.

    big_p(t) = integral_0^t psi^p  (written Psi_p(t)^p), big(t) = Psi_p(t).
    Exact at any t: symbolic kinds use closed-form cumulatives, tabulated
    kinds integrate their step function.
    """

    def __init__(self, psi: Weight, p: float):
        if not 0 < p < _INF:
            raise ValueError("profile exponent must be in (0, inf)")
        self.psi = psi
        self.p = float(p)
        self.density = psi.pow(p)

    def big_p(self, t):
        out = _cumulative_at(self.density, np.atleast_1d(np.asarray(t, float)))
        return float(out[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else out

    def big(self, t):
        return np.asarray(self.big_p(t)) ** (1.0 / self.p)

    def big_p_inf(self) -> float:
        return self.density.cumulative(0.0, _INF)

    def __call__(self, t):
        """Psi_p(t) as a plain callable (admissible when psi^p is locally
        integrable and has divergent total mass)."""
        out = self.big(t)
        return float(out) if np.asarray(t).ndim == 0 else out
