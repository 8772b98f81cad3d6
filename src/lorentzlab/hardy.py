"""Reverse weighted Hardy inequalities on the half-line.

The inequality under study bounds (integral of f*^q w)^(1/q) by the essential
sup of f_u**(t) v(t), for nonincreasing f*.  Its optimal constant is
equivalent to A(1) (q >= 1) or A(2) (q < 1), both integrals against a
representation measure nu of U^q/sigma^q with respect to U^q.  This module
evaluates both sides directly, computes A(1)/A(2) with analytic head/tail
handling, provides the zeta functional and its smoothed form zeta1 together
with the integration-by-parts identity connecting them, and verifies the
equivalence empirically over seeded trial families.

The integral against nu behind A(1) also gives the associate norms and the
embedding criterion in ``associate``, so it exists once, in ``_nu_integral``:
the suffix sup (exponent P <= 1) or the suffix P'-integral (P > 1) of a
ratio N/D^e, integrated against nu.  Its kernels: the limit rule at 0+ and
infinity (``_limit``: exponent algebra on ``_head_growth`` and
``_tail_growth``, with a probe read only on a tie), the ratio of two
integrals from zero with its integrands (``_Ratio``), the edge merge
(``_merged_edges``), the suffix sup (``_suffix_sup``), and the suffix
integral (``_SuffixIntegral``: Gauss-Legendre panels from ``_gl_cells``, one
batched integrand call per build, plus a tail).  ``_Ratio.suffix_integral``
holds the one closed tail: past the support end T of a numerator constant
there, over its own denominator, the integral of (N(T)/D)^{P'} dD is
(P - 1) N(T)^{P'} (D(t)^{1 - P'} - D(inf)^{1 - P'}); zeta1 and the P > 1
branch share it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .conditions import sigma as sigma_of
from .errors import (
    BranchMismatch,
    DegenerateProblem,
    DegenerateU,
    NonRearrangeable,
)
from .funcs import PiecewiseFn, indicator
from .grid import DEFAULT_GRID, GeometricGrid
from .measures import (
    DiscreteMeasure,
    fit_representation_measure,
    nondegeneracy_check,
)
from .rearrangement import _rearranged, cumulative_eval
from .reports import EquivReport
from .sampling import random_decreasing
from .weights import (
    _GL_W,
    _GL_X,
    Power,
    Tabulated,
    Weight,
    WeightProfile,
    _cumulative_at,
    product_cumulative,
    weight_from_json,
)

__all__ = [
    "HardyProblem",
    "lhs_rhs",
    "ZetaFn",
    "zeta",
    "Zeta1Fn",
    "zeta1",
    "parts_identity_sides",
    "envelope_ratio",
    "a1_constant",
    "a2_constant",
    "verify_reverse_hardy",
]

_INF = math.inf
_SLACK = 1e-12  # growth exponents closer than this tie
_HEAD_PROBES = np.array([1e-9, 1e-8])  # where a tie at 0+ is read


def _gl_cells(fn, lefts, rights) -> np.ndarray:
    """Gauss-Legendre integrals of a vectorized fn over the cells [a, b] of
    ``lefts`` and ``rights``, from one call of fn on all the nodes.  A cell
    gets one 20-node panel, split geometrically at six panels per decade when
    a > 0 so wide cells keep full accuracy (a single panel loses digits
    across decades); an empty cell (b <= a) integrates to 0."""
    lo, hi, counts = [], [], []
    for a, b in zip(lefts, rights):
        n = 0 if not b > a else 1 if a <= 0.0 else max(1, math.ceil(6 * math.log10(b / a)))
        cuts = np.geomspace(a, b, n + 1) if n > 1 else (a, b) if n else ()
        lo.extend(cuts[:-1])
        hi.extend(cuts[1:])
        counts.append(n)
    if not lo:
        return np.zeros(len(counts))
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = np.asarray(fn((mid[:, None] + half[:, None] * _GL_X).ravel()), dtype=float)
    sums = (half * np.array([np.dot(_GL_W, row) for row in vals.reshape(len(lo), -1)])).tolist()
    cells = [sums[e - n:e] for n, e in zip(counts, np.cumsum(counts).tolist())]
    return np.array([c[0] if len(c) == 1 else math.fsum(c) for c in cells])


def _order(a: float, b: float = 0.0) -> int:
    """Sign of the growth of x^a (1 + ln x)^b as x -> inf: 1 or -1 by the
    first exponent beyond the slack, 0 (a tie) when both lie within it."""
    for e in (a, b):
        if abs(e) > _SLACK:
            return 1 if e > 0.0 else -1
    return 0


def _head_growth(w: Weight, e: float = 1.0, cumulative: bool = True):
    """(a, b) with (integral of w over (0, t])^e, or w(t)^e when not
    cumulative, ~ c (1/t)^a (1 + ln 1/t)^b as t -> 0+, c > 0; None when w
    vanishes near 0.  Integrating t^-1 (1 + ln 1/t)^beta raises only the log
    power."""
    hp = w.head_power()
    if hp is None:
        return None
    a, b = hp
    if cumulative:
        a += 1.0
        b += 1.0 if _order(a) == 0 else 0.0
    return -e * a, e * b


def _tail_growth(w: Weight, e: float = 1.0, cumulative: bool = True):
    """(a, 0) with (integral of w over (0, s])^e, or w(s)^e when not
    cumulative, ~ c s^a as s -> inf; None when w vanishes beyond a point,
    which its integral never does.  Logs are not tracked there: an integral
    that stays bounded and one that grows like ln s both give a = 0."""
    tp = w.tail_power()
    if tp is None or tp[0] == 0.0:
        return (0.0, 0.0) if cumulative else None
    a = max(tp[1] + 1.0, 0.0) if cumulative else tp[1]
    return e * a, 0.0


def _limit(num, den, probe) -> float:
    """The limit rule: the limit at 0+ or inf of a ratio num/den >= 0 whose
    terms grow like the pairs num and den of ``_head_growth`` or
    ``_tail_growth`` there (None: vanishes near the end).  It is +inf or 0
    when one term outgrows the other, and ``probe()``, the ratio read at
    probe points, only when their exponents tie."""
    if num is None:
        return 0.0
    if den is None:
        return _INF
    order = _order(num[0] - den[0], num[1] - den[1])
    return probe() if order == 0 else _INF if order > 0 else 0.0


class _Ratio:
    """s -> N(s) / D(s)^e, vectorized, with 0/0 := 0, where N and D integrate
    num and den over (0, s].  num is a Weight or a step function such as f*,
    whose integral comes from ``cumulative_eval``; den is a Weight.  Its
    limits at 0+ and infinity follow the limit rule."""

    def __init__(self, num, den: Weight, e: float = 1.0):
        self.fn = num if isinstance(num, PiecewiseFn) else None
        self.num = num if self.fn is None else Tabulated(num)
        self.den, self.e = den, e

    def _numerator(self, s):
        return _cumulative_at(self.num, s) if self.fn is None else cumulative_eval(self.fn, s)

    def _quotient(self, s):
        return self._numerator(s) / _cumulative_at(self.den, s) ** self.e

    def __call__(self, s):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.nan_to_num(self._quotient(s), nan=0.0)

    def integrand(self, power: float, density):
        """s -> (N/D^e)^power * density(s), vectorized; 0/0 and 0 * inf := 0."""

        def integrand(s):
            s = np.asarray(s, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = self._quotient(s) ** power * np.asarray(density(s), dtype=float)
            return np.nan_to_num(out, nan=0.0)

        return integrand

    def limit_zero(self, probes: np.ndarray) -> float:
        """The limit at 0+; a tie takes the max of the ratio at ``probes``."""
        probe = lambda: float(max(self(probes)))  # noqa: E731
        return _limit(_head_growth(self.num), _head_growth(self.den, self.e), probe)

    def limit_inf(self, far: float) -> float:
        """The limit at infinity; a tie takes the ratio at ``far``."""
        probe = lambda: float(self(np.array([far]))[0])  # noqa: E731
        return _limit(_tail_growth(self.num), _tail_growth(self.den, self.e), probe)

    def suffix_integral(self, power: float, density: Weight, edges: np.ndarray,
                        P: Optional[float] = None) -> _SuffixIntegral:
        """t -> integral over (t, infinity) of ratio^power * density.

        The closed tail: a caller whose density is the denominator D (e = 1)
        passes P, the conjugate exponent of power.  When the numerator is then
        constant past its support end T (a step function, or a tabulated
        weight, with zero right value), the edges are cut at T and past it
        the integral of (N(T)/D)^power dD is exact,
        (P - 1) N(T)^power (D(t)^(1 - power) - D(inf)^(1 - power)).
        Otherwise, beyond the last edge, the tail is zero when the density
        vanishes there (the last edge must lie past its support) and +inf
        when, by the limit rule, the integrand decays no faster than 1/s;
        else mpmath.quad integrates it, one point at a time."""
        integrand = self.integrand(power, density)
        step = self.num.fn if isinstance(self.num, Tabulated) else None
        if P is not None and step is not None and step.right_value == 0.0:
            T = float(step.breakpoints[-1])
            N_T = float(self._numerator(np.array([T]))[0])
            D_inf = density.cumulative(0.0, _INF)
            at_inf = D_inf ** (1.0 - power) if D_inf != _INF else 0.0

            def closed_tail(t: float) -> float:
                if N_T == 0.0:
                    return 0.0
                D_t = float(_cumulative_at(density, np.array([t]))[0])
                if D_t <= 0.0:
                    return _INF
                return (P - 1.0) * N_T**power * (D_t ** (1.0 - power) - at_inf)

            return _SuffixIntegral(integrand, np.append(edges[edges < T], T), closed_tail)
        dens = _tail_growth(density, cumulative=False)
        a = power * (_tail_growth(self.num)[0] - _tail_growth(self.den, self.e)[0])
        diverges = dens is not None and _order(a + dens[0] + 1.0) >= 0

        def tail(t: float) -> float:
            if dens is None or diverges:
                return 0.0 if dens is None else _INF
            import mpmath

            point = lambda s: float(integrand(np.array([float(s)]))[0])  # noqa: E731
            return float(mpmath.quad(point, [t, mpmath.inf]))

        return _SuffixIntegral(integrand, edges, tail)


def _merged_edges(grid: GeometricGrid, *fns, nu: Optional[DiscreteMeasure] = None) -> np.ndarray:
    """The grid's breakpoints merged with those of each step function or
    tabulated weight in fns (None and weights without breakpoints are
    skipped) and with nu's atoms past the origin, so that a suffix sup or
    integral read at an atom starts exactly there."""
    parts = [grid.breakpoints]
    for fn in fns:
        bp = getattr(getattr(fn, "fn", fn), "breakpoints", None)
        if bp is not None and len(bp):
            parts.append(np.asarray(bp, dtype=float))
    if nu is not None:
        parts.append(nu.locations[nu.locations > 0.0])
    return np.unique(np.concatenate(parts))


def _suffix_sup(ratio: _Ratio, edges: np.ndarray, probes: np.ndarray):
    """Lookup t -> sup over (t, infinity) of a continuous ratio >= 0.

    A cell (edges[k-1], edges[k]] (the first starts at 0) takes the max of
    its left limit, midpoint and right edge; the first cell's left limit is
    the ratio's limit at 0+, a tie read at ``probes``.  The sup beyond the
    last edge also covers a 16-point ladder over four decades and the limit
    at infinity, a tie read at 1e8 times the last edge.  A t exactly at an
    edge starts from the next cell, whose sup already includes the limit from
    the right there; off-edge t conservatively include their covering cell.
    The lookup at t = inf is the sup beyond the last edge."""
    head = ratio.limit_zero(probes)
    tail = ratio.limit_inf(float(edges[-1]) * 1e8)
    lefts = np.concatenate([[0.0], edges[:-1]])
    E = ratio(edges)
    M = ratio(0.5 * (lefts + edges))
    cell_sups = np.maximum(np.maximum(np.concatenate([[head], E[:-1]]), M), E)
    ladder = float(edges[-1]) * 10.0 ** (np.arange(1, 17) / 4.0)
    tail_sup = max(float(E[-1]), float(np.max(ratio(ladder))), tail)
    suffix = np.maximum.accumulate(np.append(cell_sups, tail_sup)[::-1])[::-1]

    def sup_after(t: float) -> float:
        k = 0 if t <= 0.0 else int(np.searchsorted(edges, t, side="right"))
        return float(suffix[min(k, len(edges))])

    return sup_after


class _SuffixIntegral:
    """t -> integral over (t, infinity) of a vectorized integrand.

    The build makes one integrand call, on the panel nodes of every cell of
    ``edges`` (the first starts at 0), and sums the cells into a suffix table;
    a query adds its partial cell, the suffix after it, and the tail.  ``tail(t)``
    integrates over (t, inf) for t >= the last edge; ``tail_end`` is its value there."""

    def __init__(self, integrand, edges: np.ndarray, tail):
        self.integrand, self.edges, self.tail = integrand, edges, tail
        lefts = np.concatenate([[0.0], edges[:-1]])
        cells = _gl_cells(integrand, lefts, edges)
        self.suffix = np.concatenate([np.cumsum(cells[::-1])[::-1], [0.0]])
        self.tail_end = tail(float(edges[-1]))

    def __call__(self, t: float) -> float:
        t = float(t)
        if t >= self.edges[-1]:
            return self.tail(t)
        k = int(np.searchsorted(self.edges, t, side="left"))
        partial = float(_gl_cells(self.integrand, [t], [float(self.edges[k])])[0])
        return partial + float(self.suffix[k + 1]) + self.tail_end


def _nu_integral(P: float, e: float, num, den: Weight, nu: DiscreteMeasure, grid: GeometricGrid):
    """(integral of B against nu, whether B is +inf past the last edge) for
    the branch formula's B, with N and D the integrals of num (a step
    function or a weight) and den over (0, s]:

      P <= 1:  B(t) = sup_{s>t} N(s)/D(s)^e
      P > 1:   B(t) = (integral_t^inf (N/D)^{P'} dD)^{1/P'},  P' = P/(P-1)

    The edges are the grid's and num's and den's breakpoints, with nu's atoms
    past the origin for the sup, whose tie at 0+ is read at ``_HEAD_PROBES``
    scaled below the first edge; the integral has the closed tail past the
    support of a numerator constant there."""
    if P <= 1.0:
        edges = _merged_edges(grid, num, den, nu=nu)
        sup = _suffix_sup(_Ratio(num, den, e), edges, _HEAD_PROBES * min(1.0, float(edges[0])))
        return nu.integrate(sup), not math.isfinite(sup(_INF))
    Pp = P / (P - 1.0)
    inner = _Ratio(num, den).suffix_integral(Pp, den, _merged_edges(grid, num, den), P)
    return nu.integrate(lambda t: inner(max(t, 0.0)) ** (1.0 / Pp)), inner.tail_end == _INF


class _PowerOfCumulative:
    """Callable t -> (cumulative of w on (0, t])^q, vectorized."""

    def __init__(self, w: Weight, q: float):
        self.w = w
        self.q = q

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        vals = _cumulative_at(self.w, t_arr) ** self.q
        return float(vals[0]) if np.asarray(t).ndim == 0 else vals


class HardyProblem:
    """A reverse Hardy problem: exponent q, weights u, v, w, and the measure nu.

    nu plays the representation-measure role for U^q/sigma^q with respect to
    U^q; pass it explicitly or let ``with_fitted_measure`` construct it.
    """

    def __init__(
        self,
        q: float,
        u: Weight,
        v: Weight,
        w: Weight,
        nu: DiscreteMeasure,
        grid: GeometricGrid = DEFAULT_GRID,
    ):
        if not (q > 0.0) or not math.isfinite(q):
            raise ValueError("q must be a positive finite real")
        self.q = float(q)
        self.u, self.v, self.w = u, v, w
        self.nu = nu
        self.grid = grid
        U = _cumulative_at(u, grid.breakpoints)
        if U[0] <= 0.0 or not np.all(np.isfinite(U)):
            raise DegenerateU("U must be positive and finite on the grid")
        self.fit_report: Optional[EquivReport] = None

    @classmethod
    def with_fitted_measure(
        cls,
        q: float,
        u: Weight,
        v: Weight,
        w: Weight,
        grid: GeometricGrid = DEFAULT_GRID,
    ) -> "HardyProblem":
        sig = sigma_of(u, v, grid)
        u_q = _PowerOfCumulative(u, q)

        def target(t):
            t_arr = np.atleast_1d(np.asarray(t, dtype=float))
            vals = u_q(t_arr) / np.asarray(sig(t_arr), dtype=float) ** q
            return float(vals[0]) if np.asarray(t).ndim == 0 else vals

        nu, report = fit_representation_measure(target, u_q, grid)
        prob = cls(q, u, v, w, nu, grid)
        prob.fit_report = report
        return prob

    @property
    def branch(self) -> int:
        return 1 if self.q >= 1.0 else 2

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "u": self.u.to_json(),
            "v": self.v.to_json(),
            "w": self.w.to_json(),
            "nu": self.nu.to_json(),
            "grid": self.grid.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "HardyProblem":
        return cls(
            data["q"],
            weight_from_json(data["u"]),
            weight_from_json(data["v"]),
            weight_from_json(data["w"]),
            DiscreteMeasure.from_json(data["nu"]),
            GeometricGrid.from_json(data["grid"]) if "grid" in data else DEFAULT_GRID,
        )


def a1_constant(problem: HardyProblem) -> float:
    """A(1): the nu-integral of the suffix sup of W/U^q, to the power 1/q."""
    if problem.q < 1.0:
        raise BranchMismatch("A(1) requires q >= 1")
    nu = problem.nu
    if len(nu) == 0 and nu.tail is None:
        return 0.0
    q = problem.q
    return _nu_integral(1.0 / q, q, problem.w, problem.u, nu, problem.grid)[0] ** (1.0 / q)


class ZetaFn:
    """zeta(t) = W(t) + U(t)^q * (integral over (t, inf) of (W/U)^(q/(1-q)) w)^(1-q)."""

    def __init__(self, problem: HardyProblem):
        if problem.q >= 1.0:
            raise BranchMismatch("zeta requires 0 < q < 1")
        self.problem = problem
        q = problem.q
        self.expo = q / (1.0 - q)
        w = problem.w
        self.edges = _merged_edges(problem.grid, w)
        # inner_integral(t): integral over (t, infinity) of (W/U)^(q/(1-q)) w
        self.inner_integral = _Ratio(w, problem.u).suffix_integral(self.expo, w, self.edges)
        self.tail_divergent = self.inner_integral.tail_end == _INF

    def __call__(self, t: float) -> float:
        t = float(t)
        if t <= 0.0:
            return 0.0
        q = self.problem.q
        W_t = self.problem.w.cumulative(0.0, t)
        U_t = self.problem.u.cumulative(0.0, t)
        inner = self.inner_integral(t)
        if inner == _INF:
            return _INF
        return W_t + U_t**q * inner ** (1.0 - q)


def zeta(problem: HardyProblem) -> ZetaFn:
    return ZetaFn(problem)


def a2_constant(problem: HardyProblem, with_flags: bool = False):
    """A(2): the nu-integral of zeta/U^q, to the power 1/q (0 < q < 1 only).

    An atom at the origin is evaluated at t_min as a proxy for the t -> 0+
    limit; the returned flags record that boundary substitution.
    """
    if problem.q >= 1.0:
        raise BranchMismatch("A(2) requires 0 < q < 1")
    z = ZetaFn(problem)
    q, nu = problem.q, problem.nu
    flags = {
        "origin_atom_at_t_min": bool(len(nu) and nu.locations[0] == 0.0),
        "tail_divergent": z.tail_divergent,
    }

    def ratio(t: float) -> float:
        t = t or problem.grid.t_min
        zv = z(t)
        return _INF if zv == _INF else zv / problem.u.cumulative(0.0, t) ** q

    total = nu.integrate(ratio)
    value = total ** (1.0 / q) if total != _INF else _INF
    return (value, flags) if with_flags else value


def lhs_rhs(problem: HardyProblem, f) -> tuple[float, float]:
    """Both sides of the reverse inequality for one nonincreasing f.

    LHS = (integral of f*^q w)^(1/q), exact per cell; RHS = ess sup of
    f_u**(t) v(t) over breakpoints, cell midpoints, and the analytic limits
    at zero and infinity.  The prefix integrals of f* u at all candidate
    points come from one ``product_cumulative`` call.
    """
    fn = _rearranged(f)
    q, u, v, w = problem.q, problem.u, problem.v, problem.w
    lhs_q = product_cumulative(fn.powered(q), w, 0.0, _INF)
    lhs = lhs_q ** (1.0 / q) if lhs_q not in (0.0, _INF) else lhs_q

    candidates = np.unique(
        np.concatenate(
            [
                problem.grid.breakpoints,
                fn.breakpoints,
                0.5 * (fn.breakpoints + np.concatenate([[0.0], fn.breakpoints[:-1]])),
            ]
        )
    )
    P = product_cumulative(fn, u, 0.0, candidates)
    U = _cumulative_at(u, candidates)
    vv = np.asarray(v(candidates), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.nan_to_num(P / U * vv, nan=0.0, posinf=_INF)
    rhs = float(np.max(vals)) if len(vals) else 0.0

    # head limit: f_u** -> f*(0+), v -> its limit at zero
    f0 = float(fn.values[0]) if len(fn.values) else fn.right_value
    v0 = v.limit_zero()
    if f0 > 0.0 and v0 > 0.0:
        rhs = max(rhs, f0 * v0 if v0 != _INF else _INF)
    # tail limit: numerator P saturates for compactly supported f*, and then
    # f_u** v -> P_inf times the limit of v/U
    P_inf = product_cumulative(fn, u, 0.0, _INF)
    v_tail = _tail_growth(v, cumulative=False)
    far = problem.grid.t_max * 1e8
    if P_inf == _INF and f0 == _INF:
        rhs = _INF if v_tail is not None else rhs  # f_u** = +inf from some point on
    elif P_inf == _INF:
        # P ~ f*(inf) U, so f_u** v -> f*(inf) times the limit of v
        rhs = max(rhs, fn.right_value * _limit(v_tail, (0.0, 0.0), lambda: float(v(far))))
    elif P_inf > 0.0:
        probe = lambda: P_inf * float(v(far)) / u.cumulative(0.0, far)  # noqa: E731
        rhs = max(rhs, _limit(v_tail, _tail_growth(u), probe))
    return lhs, rhs


class Zeta1Fn:
    """zeta1(t) = Psi_p(t) * (integral over (t,inf) of (s f**/Psi_p^p)^{p'} psi^p)^{1/p'}.

    The specialization with w = f*, U = Psi_p^p, q = 1/p; past the support
    of f* the inner integral is the closed tail of ``_Ratio.suffix_integral``.
    """

    def __init__(
        self,
        f,
        psi: Weight,
        p: float,
        grid: GeometricGrid = DEFAULT_GRID,
    ):
        if not p > 1.0:
            raise BranchMismatch("zeta1 requires 1 < p < infinity")
        self.fn = fn = _rearranged(f)
        if fn.right_value > 0.0:
            raise NonRearrangeable(
                "zeta1 requires compactly supported f* (zero right tail)"
            )
        self.psi = psi
        self.p = float(p)
        self.pp = p / (p - 1.0)
        self.profile = WeightProfile(psi, p)
        self.density = self.profile.density  # psi^p as a Weight
        self.grid = grid
        ratio = _Ratio(fn, self.density)
        edges = _merged_edges(grid, fn, self.density)
        self.inner_integral = ratio.suffix_integral(self.pp, self.density, edges, self.p)
        self.edges = self.inner_integral.edges  # cut at the support end of f*

    def __call__(self, t: float) -> float:
        t = float(t)
        if t <= 0.0:
            return 0.0
        inner = self.inner_integral(t)
        if inner == _INF:
            return _INF
        return self.profile.big(t) * inner ** (1.0 / self.pp)


def zeta1(f, psi: Weight, p: float, grid: GeometricGrid = DEFAULT_GRID) -> Zeta1Fn:
    return Zeta1Fn(f, psi, p, grid)


def zeta_specialized(
    f, psi: Weight, p: float, grid: GeometricGrid = DEFAULT_GRID
) -> ZetaFn:
    """zeta with q = 1/p, w = f* (tabulated), u = psi^p: the comparison partner
    of zeta1."""
    if not p > 1.0:
        raise BranchMismatch("the specialization requires 1 < p < infinity")
    fn = _rearranged(f)
    problem = HardyProblem(
        1.0 / p,
        WeightProfile(psi, p).density,
        Power(0.0),
        Tabulated(fn),
        DiscreteMeasure([], []),
        grid,
    )
    return ZetaFn(problem)


def parts_identity_sides(
    f, psi: Weight, p: float, t: float, grid: GeometricGrid = DEFAULT_GRID
) -> tuple[float, float]:
    """Both sides of the integration-by-parts identity linking the two zeta
    integrands, each computed by an independent quadrature route.

    With F(s) = integral of f* on (0,s] and Phi = Psi_p^p:

        integral over (t,inf) of (F/Phi)^{1/(p-1)} f* ds
          = (1/p') * [ F(t)^{p'} Phi(t)^{-1/(p-1)} evaluated as a boundary term
                       + lim_{R->inf} F(R)^{p'} Phi(R)^{-1/(p-1)}
                       + (1/(p-1)) * integral over (t,inf) of (F/Phi)^{p'} psi^p ].

    (The boundary term at t enters with a minus sign; the limit term vanishes
    whenever Psi_p is unbounded.)
    """
    if not p > 1.0:
        raise BranchMismatch("the identity requires 1 < p < infinity")
    z1 = Zeta1Fn(f, psi, p, grid)
    fn = z1.fn
    pp = z1.pp
    e = 1.0 / (p - 1.0)
    density = z1.density
    lhs_integrand = _Ratio(fn, density).integrand(e, fn)

    t = float(t)
    edges = [float(b) for b in z1.edges if b > t]  # z1.edges end at supp f*
    lhs = 0.0
    for cell in _gl_cells(lhs_integrand, [t] + edges[:-1], edges):
        lhs += float(cell)

    F_t = cumulative_eval(fn, t)
    Phi_t = density.cumulative(0.0, t)
    boundary = -(F_t**pp) * Phi_t ** (-e) if F_t > 0.0 else 0.0
    phi_inf = z1.profile.big_p_inf()
    if phi_inf == _INF:
        at_inf = 0.0
    else:
        at_inf = cumulative_eval(fn, float(z1.edges[-1])) ** pp * phi_inf ** (-e)
    rhs = (boundary + at_inf + e * z1.inner_integral(t)) / pp
    return lhs, rhs


def envelope_ratio(f, psi: Weight, p: float, ts, grid: GeometricGrid = DEFAULT_GRID):
    """Pointwise ratio t f**(t) (p-1)^{1/p'} / zeta1(t) (should be <= 1)."""
    z1 = Zeta1Fn(f, psi, p, grid)
    fn = z1.fn
    pp = z1.pp
    out = []
    for t in np.atleast_1d(np.asarray(ts, dtype=float)):
        F_t = cumulative_eval(fn, float(t))
        if F_t == 0.0:
            out.append(0.0)
            continue
        z = z1(float(t))
        out.append((p - 1.0) ** (1.0 / pp) * F_t / z if z > 0.0 else _INF)
    return np.asarray(out)


def verify_reverse_hardy(
    problem: HardyProblem,
    n_trials: int = 100,
    seed: int = 0,
) -> EquivReport:
    """Empirical check that the optimal constant matches A(1) or A(2).

    Trials are half random nonincreasing step functions, half indicators
    chi_(0,a] with a sweeping the grid geometrically; C_emp is the max of
    LHS/RHS over trials (0/0 skipped).
    """
    rng = np.random.default_rng(seed)
    n_random = n_trials // 2
    trials: list[tuple[str, PiecewiseFn]] = []
    for i in range(n_random):
        trials.append((f"random[{i}]", random_decreasing(rng)))
    n_ind = n_trials - n_random
    sweep = np.geomspace(problem.grid.t_min, problem.grid.t_max, n_ind)
    for a in sweep:
        trials.append((f"indicator[a={float(a)!r}]", indicator(0.0, float(a))))

    c_emp = 0.0
    witness = ""
    witness_t = 0.0
    any_rhs = False
    for tag, f in trials:
        lhs, rhs = lhs_rhs(problem, f)
        if rhs == 0.0:
            if lhs == 0.0:
                continue
            c_emp, witness = _INF, tag
            witness_t = float(f.breakpoints[-1])
            any_rhs = True
            break
        any_rhs = True
        ratio = lhs / rhs
        if ratio > c_emp:
            c_emp = ratio
            witness = tag
            witness_t = float(f.breakpoints[-1])
    if not any_rhs:
        raise DegenerateProblem("RHS vanished for every trial function")

    flags = {}
    if problem.branch == 1:
        a_val = a1_constant(problem)
    else:
        a_val, flags = a2_constant(problem, with_flags=True)
    ratio = c_emp / a_val if a_val > 0.0 else _INF

    u_q = _PowerOfCumulative(problem.u, problem.q)
    stamp = nondegeneracy_check(problem.nu, u_q)
    return EquivReport(
        lower=ratio,
        upper=ratio,
        lower_witness=witness_t,
        upper_witness=witness_t,
        details={
            "c_emp": c_emp,
            "a_value": a_val,
            "branch": problem.branch,
            "n_trials": n_trials,
            "seed": seed,
            "witness": witness,
            "nondegenerate_measure": stamp.holds,
            **flags,
        },
    )
