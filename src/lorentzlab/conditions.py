"""Weight-derived functionals and growth/condition checks on a grid.

sigma(u, v) realizes sup_{0<s<t} U(s) * ess sup_{tau>s} v(tau)/U(tau) by an
exact per-cell scheme: cell sups of v pair with the cumulative U evaluated at
cell edges so that, for tabulated v or monotone-nonincreasing symbolic v, the
grid values coincide with the continuum sup (the sup over each cell is
approached at an edge). Tails beyond the grid are handled analytically from
the weights' power-tail form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateSigma, DegenerateU
from .grid import DEFAULT_GRID, GeometricGrid
from .reports import ConditionReport
from .weights import Power, PowerLog, Weight, WeightProfile, _cell_sups, _cumulative_at, product_cumulative

__all__ = [
    "SigmaFn",
    "sigma",
    "sigma_equivalent",
    "admissible_check",
    "quasiconcave_check",
    "delta2_check",
    "bp_check",
    "b1_check",
    "quasinorm_sufficient_check",
    "EPS_ADMISSIBLE",
]

_INF = math.inf
EPS_ADMISSIBLE = 1e-2


def _sup_ratio_tail(v: Weight, u: Weight, T: float, U_T: float, shift: float) -> float:
    """sup over s > T of v(s) / (U(s) + shift), using the weights' tail form."""
    tpv = v.tail_power()
    if tpv is None or tpv[0] == 0.0:
        return 0.0
    c_v, a_v = tpv
    d_T = U_T + shift
    tpu = u.tail_power()
    if tpu is None or tpu[0] == 0.0 or tpu[1] <= -1.0:
        # U stays bounded or grows like a log: any positive power of s beats it
        if a_v > 0:
            return _INF
        return c_v * T ** a_v / d_T
    c_u, a_u = tpu
    e = a_u + 1.0
    kappa = c_u / e
    if a_v <= 0:
        return c_v * T ** a_v / d_T
    if a_v > e:
        return _INF
    if a_v == e:
        return max(c_v * T ** a_v / d_T, c_v / kappa)
    dd = d_T - kappa * T ** e
    best = c_v * T ** a_v / d_T
    if dd > 0:
        se = a_v * dd / (kappa * (e - a_v))
        s_star = se ** (1.0 / e)
        if s_star > T:
            best = max(best, c_v * s_star ** a_v / (kappa * se + dd))
    return best


class SigmaFn:
    """sigma computed on a grid; callable, nondecreasing, U-quasiconcave."""

    def __init__(self, u: Weight, v: Weight, grid: GeometricGrid):
        bp = grid.breakpoints
        U = _cumulative_at(u, bp)
        if U[0] <= 0.0 or not np.all(np.isfinite(U)):
            raise DegenerateU("U must be positive and finite on the grid")
        V = _cell_sups(v, bp)  # V[k] over (bp[k-1], bp[k]], V[0] over (0, bp[0]]
        # inner suffix sup of v/U over tau > bp[k]; cells k+1..N plus the tail
        r_tail = _sup_ratio_tail(v, u, float(bp[-1]), float(U[-1]), 0.0)
        n = len(bp)
        r_cells = np.empty(n)  # r_cells[k] = sup over cell k (left edge U), k >= 1
        r_cells[0] = 0.0  # unused: head cell has U(0) = 0 and is covered by V terms
        with np.errstate(divide="ignore"):
            r_cells[1:] = V[1:] / U[:-1]
        suffix = np.empty(n + 1)
        suffix[n] = r_tail
        for k in range(n - 1, 0, -1):
            suffix[k] = max(r_cells[k], suffix[k + 1])
        suffix[0] = suffix[1]
        # sigma at bp[m] = max over s-cells k <= m of max(V_k, U(bp[k]) * suffix[k+1])
        terms = np.maximum(V, U * suffix[1:])
        self.values = np.maximum.accumulate(terms)
        self.breakpoints = bp
        self.u, self.v = u, v
        self.U = U
        if not np.any(self.values > 0):
            raise DegenerateSigma("sigma vanishes identically on the grid (v is zero)")
        if not np.any(np.isfinite(self.values)):
            raise DegenerateSigma(
                "sigma is infinite everywhere on the grid (v/U unbounded near zero)"
            )

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < 0):
            raise ValueError("sigma is defined for t >= 0")
        idx = np.clip(np.searchsorted(self.breakpoints, t_arr, side="left"),
                      0, len(self.values) - 1)
        out = np.where(t_arr == 0.0, 0.0, self.values[idx])
        return float(out[0]) if np.asarray(t).ndim == 0 else out


def sigma(u: Weight, v: Weight, grid: GeometricGrid = DEFAULT_GRID) -> SigmaFn:
    """sigma(t) = sup_{0<s<t} U(s) * ess sup_{s<tau} v(tau)/U(tau)."""
    return SigmaFn(u, v, grid)


class SigmaEquivalentFn:
    """The one-sup form: sup_{s>0} v(s) U(t) / (U(s) + U(t))."""

    def __init__(self, u: Weight, v: Weight, grid: GeometricGrid):
        bp = grid.breakpoints
        U = _cumulative_at(u, bp)
        if U[0] <= 0.0 or not np.all(np.isfinite(U)):
            raise DegenerateU("U must be positive and finite on the grid")
        self.V = _cell_sups(v, bp)
        self.U_left = np.concatenate([[0.0], U[:-1]])
        self.breakpoints = bp
        self.U = U
        self.u, self.v = u, v

    def _at_cumulative(self, Ut: float) -> float:
        if Ut == 0.0:
            return 0.0
        with np.errstate(invalid="ignore"):
            terms = self.V * (Ut / (self.U_left + Ut))
        terms = np.where(np.isnan(terms), 0.0, terms)
        best = float(np.max(terms))
        tail = _sup_ratio_tail(self.v, self.u, float(self.breakpoints[-1]),
                               float(self.U[-1]), Ut)
        return max(best, tail * Ut)

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        Ut = _cumulative_at(self.u, t_arr)
        out = np.array([self._at_cumulative(float(x)) for x in Ut])
        return float(out[0]) if np.asarray(t).ndim == 0 else out


def sigma_equivalent(u: Weight, v: Weight, grid: GeometricGrid = DEFAULT_GRID) -> SigmaEquivalentFn:
    return SigmaEquivalentFn(u, v, grid)


# -- condition checks ----------------------------------------------------------


def _callable_values(fn, ts: np.ndarray) -> np.ndarray:
    out = fn(ts)
    return np.atleast_1d(np.asarray(out, dtype=float))


def admissible_check(theta, grid: GeometricGrid = DEFAULT_GRID,
                     eps: float = EPS_ADMISSIBLE) -> ConditionReport:
    """theta strictly increasing with theta(0+) = 0 and theta(inf) = inf,
    proxied on the grid by theta(t_min) <= eps * theta(mid) and
    theta(t_max) >= theta(mid) / eps."""
    bp = grid.breakpoints
    th = _callable_values(theta, bp)
    if np.any(np.isnan(th)) or np.any(th < 0):
        raise ValueError("theta must be nonnegative and NaN-free")
    diffs = np.diff(th)
    increasing = bool(np.all(diffs > 0))
    witness = float(bp[int(np.argmin(diffs)) + 1]) if not increasing else float(bp[0])
    mid = th[len(th) // 2]
    vanishes = bool(mid > 0 and th[0] <= eps * mid)
    diverges = bool(mid > 0 and np.isfinite(mid) and (th[-1] >= mid / eps))
    holds = increasing and vanishes and diverges
    ratio = float(th[0] / mid) if mid > 0 else _INF
    return ConditionReport(
        condition="Admissible",
        holds=holds,
        best_constant=ratio,
        witness_t=witness,
        boundary_attained=not (vanishes and diverges),
        details={
            "strictly_increasing": increasing,
            "vanishes_at_zero": vanishes,
            "diverges_at_infinity": diverges,
            "eps": eps,
        },
    )


def quasiconcave_check(h, theta, grid: GeometricGrid = DEFAULT_GRID,
                       eps: float = EPS_ADMISSIBLE) -> ConditionReport:
    """h nondecreasing up to c1 and h/theta nonincreasing up to c2 on the grid.

    holds iff both constants are finite. Non-degeneracy (the four endpoint
    limits) is proxied scale-invariantly against the grid midpoint and
    reported in details, not gating `holds`.
    """
    bp = grid.breakpoints
    hv = _callable_values(h, bp)
    th = _callable_values(theta, bp)
    if np.any(np.isnan(hv)) or np.any(hv < 0):
        raise ValueError("h must be nonnegative and NaN-free")
    c1, w1 = _monotone_defect(hv, bp)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = hv / th
    g = np.where(np.isnan(g), 0.0, g)
    c2, w2 = _monotone_defect(g[::-1], bp[::-1])
    mid = len(bp) // 2
    hm, gm = hv[mid], g[mid]
    nondeg = {
        "h_vanishes_at_zero": bool(hm > 0 and hv[0] <= eps * hm),
        "h_diverges_at_infinity": bool(hm > 0 and np.isfinite(hm) and hv[-1] >= hm / eps),
        "ratio_vanishes_at_infinity": bool(gm > 0 and g[-1] <= eps * gm),
        "inverse_ratio_vanishes_at_zero": bool(
            hv[0] > 0 and th[0] / hv[0] <= eps * (th[mid] / hm) if hm > 0 else False
        ),
    }
    holds = bool(np.isfinite(c1) and np.isfinite(c2))
    return ConditionReport(
        condition="Quasiconcave",
        holds=holds,
        best_constant=float(max(c1, c2)),
        witness_t=float(w1 if c1 >= c2 else w2),
        boundary_attained=False,
        details={"c1": float(c1), "c2": float(c2),
                 "nondegenerate": bool(all(nondeg.values())), **nondeg, "eps": eps},
    )


def _monotone_defect(vals: np.ndarray, locs: np.ndarray):
    """Smallest c with vals[s] <= c * vals[t] for s before t; (c, witness)."""
    prefix = np.maximum.accumulate(vals)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = prefix / vals
    ratios = np.where(np.isnan(ratios), 1.0, ratios)  # 0/0: vacuous
    k = int(np.argmax(ratios))
    return float(ratios[k]), float(locs[k])


def delta2_check(w: Weight, grid: GeometricGrid = DEFAULT_GRID) -> ConditionReport:
    """Doubling of the cumulative: W(2t) <= C W(t) over grid t with 2t in range."""
    bp = grid.breakpoints
    ts = bp[2.0 * bp <= bp[-1]]
    if len(ts) == 0:
        raise ValueError("grid too short for a doubling check")
    W_t = _cumulative_at(w, ts)
    W_2t = _cumulative_at(w, 2.0 * ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = W_2t / W_t
    ratios = np.where(np.isnan(ratios), 1.0, ratios)
    k = int(np.argmax(ratios))
    best = float(ratios[k])
    spread = float(np.max(ratios) - np.min(ratios))
    at_edge = k >= len(ts) - 1 and spread > 1e-9 * max(1.0, best)
    return ConditionReport(
        condition="Delta2",
        holds=bool(np.isfinite(best) and not at_edge),
        best_constant=best,
        witness_t=float(ts[k]),
        boundary_attained=bool(at_edge),
    )


def bp_check(psi: Weight, p: float, grid: GeometricGrid = DEFAULT_GRID) -> ConditionReport:
    """B_p (p > 1): sup_t t^p * integral_t^inf x^-p psi(x)^p dx / integral_0^t psi^p."""
    if not p > 1:
        raise ValueError("B_p is defined for p > 1 (use b1_check for p = 1)")
    prof = WeightProfile(psi, p)
    bp_pts = grid.breakpoints
    den = _cumulative_at(prof.density, bp_pts)
    num = np.empty_like(bp_pts)
    for i, t in enumerate(bp_pts):
        num[i] = t ** p * _tail_integral(prof.density, p, float(t))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = num / den
    ratios = np.where(np.isnan(ratios), 0.0, ratios)
    k = int(np.argmax(ratios))
    best = float(ratios[k])
    if np.isfinite(best):
        spread = float(np.max(ratios) - np.min(ratios))
        at_edge = (k in (0, len(bp_pts) - 1)) and spread > 1e-9 * max(1.0, best)
    else:
        at_edge = False
    return ConditionReport(
        condition="Bp",
        holds=bool(np.isfinite(best) and not at_edge),
        best_constant=best,
        witness_t=float(bp_pts[k]),
        boundary_attained=bool(at_edge),
        details={"p": p},
    )


def _mul_power(w: Weight, alpha: float):
    """w(t) * t^alpha as a Weight when w is symbolic, else None (handled per cell)."""
    if isinstance(w, Power):
        return Power(w.alpha + alpha)
    if isinstance(w, PowerLog):
        return PowerLog(w.alpha + alpha, w.beta)
    return None


def _tail_integral(density: Weight, p: float, t: float) -> float:
    """integral_t^inf x^-p density(x) dx, exact: symbolic product or per-cell."""
    sym = _mul_power(density, -p)
    if sym is not None:
        return sym.cumulative(t, _INF)
    return product_cumulative(density.fn, Power(-p), t, _INF)  # type: ignore[attr-defined]


def b1_check(psi: Weight, grid: GeometricGrid = DEFAULT_GRID) -> ConditionReport:
    """B_1: the running average (1/t) integral_0^t psi is almost nonincreasing."""
    bp_pts = grid.breakpoints
    Psi1 = _cumulative_at(psi, bp_pts)
    avg = Psi1 / bp_pts
    c, w = _monotone_defect(avg[::-1], bp_pts[::-1])
    return ConditionReport(
        condition="B1",
        holds=bool(np.isfinite(c)),
        best_constant=float(c),
        witness_t=float(w),
        boundary_attained=False,
    )


def quasinorm_sufficient_check(psi: Weight, p: float,
                               grid: GeometricGrid = DEFAULT_GRID) -> ConditionReport:
    """Doubling of integral_0^t psi^p — the sufficient condition for the
    generalized classical Lorentz functional to be a quasinorm."""
    if not 0 < p < _INF:
        raise ValueError("p must be in (0, inf)")
    inner = delta2_check(psi.pow(p), grid)
    return ConditionReport(
        condition="QuasinormSufficient",
        holds=inner.holds,
        best_constant=inner.best_constant,
        witness_t=inner.witness_t,
        boundary_attained=inner.boundary_attained,
        details={"p": p, "doubling_of": "psi^p"},
    )
