"""Norm evaluators for the Lorentz-type families, closed-form associate norms,
a brute-force duality oracle, and embedding criteria between the families.

Six norm families share one dispatcher: L_{p,q}, its maximal-function variant
L*_{p,q}, the classical Lorentz norm ||psi f*||_p, the generalized forms with
an outer sup over truncations weighted by phi, and the Marcinkiewicz norm.
The associate (Koethe-dual) norm of the generalized classical Lorentz space
has a closed form: an integral against the representation measure nu of 1/phi
of either a suffix sup (0 < p <= 1) or an inner p'-integral (1 < p < infinity)
built from the ratio s f**(s) / Psi_p(s).  The duality oracle maximizes the
pairing integral f* g* over candidate nonincreasing g divided by ||g||,
certifying a lower bound on the same associate value by an independent route.

One normalization serves every closed form: in the p > 1 branch the inner
ratio divides by Psi_p(s)^p (Psi_p^p(s) = s for constant psi turns the ratio
into f**, which reproduces L_p self-duality), and the outer exponent 1/p'
makes the value positively homogeneous of degree 1 in f.  The classical
Lorentz space is the case nu = the unit atom at 0 of the same formula.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInput,
    HypothesisViolated,
    NonIntegrableNearZero,
    NonRearrangeable,
)
from .funcs import PiecewiseFn, indicator
from .grid import DEFAULT_GRID, GeometricGrid
from .hardy import _gl_cells, _head_growth, _merged_edges, _nu_integral, _order
from .measures import DiscreteMeasure, fit_representation_measure
from .rearrangement import DecreasingFn, _rearranged, cumulative_eval
from .reports import EquivReport
from .sampling import random_decreasing
from .weights import (
    Power,
    Weight,
    WeightProfile,
    _cell_sups,
    ess_sup_weighted,
    product_cumulative,
    weight_from_json,
)

_INF = float("inf")

__all__ = [
    "NormSpec",
    "Lpq",
    "LpqStar",
    "ClassicalLorentz",
    "GenLorentz",
    "GenClassicalLorentz",
    "Marcinkiewicz",
    "norm",
    "lpq_star_norm",
    "assoc_classical",
    "assoc_generalized",
    "AssociateResult",
    "duality_oracle",
    "EmbeddingResult",
    "embedding_criterion",
    "empirical_embedding_check",
    "verify_duality",
    "norm_spec_from_json",
]


# -- norm family descriptors --------------------------------------------------


def _check_exponent(name: str, value: float) -> float:
    value = float(value)
    if value == _INF:
        return value
    if not (value > 0.0) or not math.isfinite(value):
        raise ConfigError(f"{name} must lie in (0, inf], got {value!r}")
    return value


def _inv(p: float) -> float:
    return 0.0 if p == _INF else 1.0 / p


class NormSpec:
    """Base descriptor for the six norm families; see the subclasses."""

    family: str = "?"

    def to_json(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_json()!r})"


def _num_to_json(x: float):
    return "inf" if x == _INF else float(x)


def _num_from_json(x) -> float:
    return _INF if x == "inf" else float(x)


@dataclass(frozen=True, repr=False)
class Lpq(NormSpec):
    """||t^{1/p - 1/q} f*(t)||_{q,(0,inf)}."""

    p: float
    q: float
    family = "lpq"

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent("p", self.p))
        object.__setattr__(self, "q", _check_exponent("q", self.q))

    def to_json(self):
        return {"family": "lpq", "p": _num_to_json(self.p), "q": _num_to_json(self.q)}


@dataclass(frozen=True, repr=False)
class LpqStar(NormSpec):
    """||t^{1/p - 1/q} f**(t)||_{q,(0,inf)} — the maximal-function variant."""

    p: float
    q: float
    family = "lpq_star"

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent("p", self.p))
        object.__setattr__(self, "q", _check_exponent("q", self.q))

    def to_json(self):
        return {
            "family": "lpq_star",
            "p": _num_to_json(self.p),
            "q": _num_to_json(self.q),
        }


@dataclass(frozen=True, repr=False)
class ClassicalLorentz(NormSpec):
    """||psi f*||_{p,(0,inf)}."""

    p: float
    psi: Weight
    family = "classical_lorentz"

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent("p", self.p))

    def to_json(self):
        return {
            "family": "classical_lorentz",
            "p": _num_to_json(self.p),
            "psi": self.psi.to_json(),
        }


@dataclass(frozen=True, repr=False)
class GenLorentz(NormSpec):
    """sup_{r>0} phi(r) ||t^{1/p - 1/q} f*(t)||_{q,(0,r)}."""

    p: float
    q: float
    phi: Weight
    family = "gen_lorentz"

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent("p", self.p))
        object.__setattr__(self, "q", _check_exponent("q", self.q))

    def to_json(self):
        return {
            "family": "gen_lorentz",
            "p": _num_to_json(self.p),
            "q": _num_to_json(self.q),
            "phi": self.phi.to_json(),
        }


@dataclass(frozen=True, repr=False)
class GenClassicalLorentz(NormSpec):
    """sup_{r>0} phi(r) ||psi f*||_{p,(0,r)}."""

    p: float
    psi: Weight
    phi: Weight
    family = "gen_classical_lorentz"

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent("p", self.p))

    def to_json(self):
        return {
            "family": "gen_classical_lorentz",
            "p": _num_to_json(self.p),
            "psi": self.psi.to_json(),
            "phi": self.phi.to_json(),
        }


@dataclass(frozen=True, repr=False)
class Marcinkiewicz(NormSpec):
    """sup_{t>0} phi(t) ||f*||_{p,(0,t)}."""

    p: float
    phi: Weight
    family = "marcinkiewicz"

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent("p", self.p))

    def to_json(self):
        return {
            "family": "marcinkiewicz",
            "p": _num_to_json(self.p),
            "phi": self.phi.to_json(),
        }


def norm_spec_from_json(obj: dict) -> NormSpec:
    fam = obj.get("family")
    if fam == "lpq":
        return Lpq(_num_from_json(obj["p"]), _num_from_json(obj["q"]))
    if fam == "lpq_star":
        return LpqStar(_num_from_json(obj["p"]), _num_from_json(obj["q"]))
    if fam == "classical_lorentz":
        return ClassicalLorentz(_num_from_json(obj["p"]), weight_from_json(obj["psi"]))
    if fam == "gen_lorentz":
        return GenLorentz(
            _num_from_json(obj["p"]),
            _num_from_json(obj["q"]),
            weight_from_json(obj["phi"]),
        )
    if fam == "gen_classical_lorentz":
        return GenClassicalLorentz(
            _num_from_json(obj["p"]),
            weight_from_json(obj["psi"]),
            weight_from_json(obj["phi"]),
        )
    if fam == "marcinkiewicz":
        return Marcinkiewicz(_num_from_json(obj["p"]), weight_from_json(obj["phi"]))
    raise ConfigError(f"unknown norm family {fam!r}")


# -- shared plumbing ----------------------------------------------------------

def _is_zero(fstar: PiecewiseFn) -> bool:
    return _zero_values(fstar.values, fstar.right_value)


def _zero_values(values: np.ndarray, right_value: float) -> bool:
    return right_value == 0.0 and not (values > 0).any()


def _prefix_norm(fstar: PiecewiseFn, p: float, psi: Weight, r: float) -> float:
    """||psi f*||_{p,(0,r)}, exact for step data against a symbolic weight."""
    if p == _INF:
        return ess_sup_weighted(fstar, psi, (0.0, r))
    total = product_cumulative(fstar.powered(p), psi.pow(p), 0.0, r)
    if total == _INF:
        return _INF
    return total ** (1.0 / p)


def _head_diverges(phi: Weight, p: float, psi: Weight) -> bool:
    """Whether phi(r) ||psi||_{p,(0,r)} -> inf as r -> 0+, by the limit rule's
    exponent algebra: the norm grows like the integral of psi^p over (0, r] to
    the power 1/p, and like psi itself at p = inf."""
    norm = _head_growth(psi, cumulative=False) if p == _INF else _head_growth(psi.pow(p), 1.0 / p)
    weight = _head_growth(phi, cumulative=False)
    if norm is None or weight is None:
        return False
    return _order(norm[0] + weight[0], norm[1] + weight[1]) > 0


class _SupNorm:
    """g -> sup_r phi(r) ||psi g||_{p,(0,r)} for nonincreasing step g on fixed
    breakpoints, built once and then applied to any values on them.

    The probe set is the merged breakpoints of grid, data, and psi plus
    geometric ladders on both sides; the inner integral accumulates cell by
    cell across the probes, so one application is one vectorized pass.  The
    build keeps everything that depends on the breakpoints only: phi at each
    probe, the psi^p mass of each probe cell up to the last breakpoint (one
    ``cumulative_pairs`` call), the probe-to-cell index map, and the psi^p
    masses of the head (0, first probe] and of each cell for the total (psi
    sups at p = inf), for every kind of psi.  A right value > 0 adds its
    cells' masses as ``product_cumulative`` does.  With g(0+) > 0, a head
    r -> 0+ that blows up (by exponent algebra) gives +inf.
    """

    def __init__(self, phi: Weight, p: float, psi: Weight, shape: PiecewiseFn, grid: GeometricGrid):
        bp = shape.breakpoints
        edges = _merged_edges(grid, shape, psi)
        lo, hi = float(edges[0]), float(edges[-1])
        rs = np.unique(
            np.concatenate(
                [
                    lo * 10.0 ** (-np.arange(1, 9) / 2.0),
                    edges,
                    hi * 10.0 ** (np.arange(1, 9) / 2.0),
                ]
            )
        )
        self.p = p
        self.bp = bp
        self.head_diverges = _head_diverges(phi, p, psi)
        self.phi_vals = np.asarray(phi(rs), dtype=float)
        self.phi_inf = phi.limit_inf()
        self.cell = bp.searchsorted(rs)  # probe k lies in cell k; len(bp) = beyond
        if p == _INF:
            self.probe_sup = _cell_sups(psi, rs)
            self.cell_sup = _cell_sups(psi, np.append(bp, _INF))  # the last cell is the right value's
            return
        self.dens = dens = psi.pow(p)
        # probe cells beyond the last breakpoint see only the right value, which
        # is 0 unless g has unbounded support; their masses wait until needed
        self.rs = rs
        self.inside = n = int((rs[1:] <= bp[-1]).sum())
        self.probe_mass = dens.cumulative_pairs(rs[:n], rs[1 : n + 1])
        # (0, rs[0]] lies inside the first cell, so the head is cell 0's alone
        rest = dens.cumulative_pairs(bp[:-1], bp[1:])
        try:
            self.head_mass, first = dens.cumulative_pairs(np.zeros(2), np.array([rs[0], bp[0]]))
        except NonIntegrableNearZero:
            self.head_mass, first = None, 0.0  # a nonzero head value gives +inf
        self.cell_mass = np.concatenate([[first], rest])

    def __call__(self, values: np.ndarray, right_value: float) -> float:
        if self.head_diverges and not _zero_values(values, right_value):
            return _INF
        p = self.p
        with np.errstate(invalid="ignore"):  # inf * 0 := 0 throughout
            if p == _INF:
                ext = np.concatenate((values, (right_value,)))
                at = ext[self.cell]
                inner = np.maximum.accumulate(np.where(at > 0.0, at * self.probe_sup, 0.0))
                # the ess sup of psi g over (0, inf)
                cells = np.where((ext > 0) & (self.cell_sup > 0), ext * self.cell_sup, 0.0)
                inner_inf = max(0.0, cells.max())
            else:
                vp = values**p
                rvp = right_value**p
                if vp[0] > 0.0 and self.head_mass is None:
                    return _INF  # nonzero head value against a non-integrable weight
                head = float(vp[0] * self.head_mass) if vp[0] > 0.0 else 0.0
                head = 0.0 if math.isnan(head) else head
                cells = np.where(vp > 0.0, vp * self.cell_mass, 0.0)
                cells = np.where(np.isnan(cells), 0.0, cells).tolist()
                if rvp > 0:  # the cell (last breakpoint, inf), as in product_cumulative
                    cells.append(rvp * self.dens.cumulative_pairs(self.bp[-1:], np.array([_INF]))[0])
                total = math.fsum(cells)
                n, rs = self.inside, self.rs
                fv = vp[self.cell[1 : n + 1]]
                masses = np.zeros(len(rs) - 1)
                masses[:n] = np.where(fv > 0.0, fv * self.probe_mass, 0.0)
                if rvp > 0:
                    masses[n:] = rvp * self.dens.cumulative_pairs(rs[n:-1], rs[n + 1 :])
                I = head + np.concatenate(((0.0,), np.cumsum(masses)))
                if total != _INF:
                    # each truncation is bounded by the exact full integral; clamping
                    # removes prefix-rounding overshoot so reductions hold exactly
                    I = np.minimum(I, total)
                inner = I ** (1.0 / p)
                inner_inf = total ** (1.0 / p) if total != _INF else _INF
            phi_vals = self.phi_vals
            prods = np.where((phi_vals == 0.0) | (inner == 0.0), 0.0, phi_vals * inner)
        best = float(prods.max())
        if inner_inf > 0.0 and self.phi_inf > 0.0:
            best = max(best, self.phi_inf * inner_inf)
        return best


# -- the six norms ------------------------------------------------------------


def norm(spec: NormSpec, f, grid: GeometricGrid = DEFAULT_GRID) -> float:
    """Evaluate the family norm of f; rearranges f exactly once.

    The sup over truncation lengths r (generalized families) runs over the
    merged breakpoints of the grid and the data plus probe ladders beyond
    them — the inner norm is continuous and nondecreasing in r, so the
    breakpoint set carries the sup for step data up to the documented probes.
    """
    fstar = _rearranged(f)
    if isinstance(spec, Lpq):
        return _prefix_norm(fstar, spec.q, Power(_inv(spec.p) - _inv(spec.q)), _INF)
    if isinstance(spec, LpqStar):
        return lpq_star_norm(spec.p, spec.q, DecreasingFn(fstar))
    if isinstance(spec, ClassicalLorentz):
        return _prefix_norm(fstar, spec.p, spec.psi, _INF)
    sup = _sup_family(spec)
    if sup is not None:
        return _SupNorm(*sup, fstar, grid)(fstar.values, fstar.right_value)
    raise ConfigError(f"unknown norm spec {spec!r}")


def _sup_family(spec: NormSpec) -> Optional[tuple[Weight, float, Weight]]:
    """(phi, p, psi) of a family normed by sup_r phi(r) ||psi f*||_{p,(0,r)}."""
    if isinstance(spec, GenLorentz):
        return spec.phi, spec.q, Power(_inv(spec.p) - _inv(spec.q))
    if isinstance(spec, GenClassicalLorentz):
        return spec.phi, spec.p, spec.psi
    if isinstance(spec, Marcinkiewicz):
        return spec.phi, spec.p, Power(0.0)
    return None


def lpq_star_norm(p: float, q: float, f, grid: GeometricGrid = DEFAULT_GRID) -> float:
    """||t^{1/p - 1/q} f**(t)||_{q,(0,inf)} with f** = (1/t) * cumulative of f*.

    Piecewise-exact: on each cell of f* the maximal function is v + c/t, so
    the q = inf branch locates interior critical points in closed form, and
    the head cell and the tail beyond supp f* integrate in closed form; the
    middle cells use split Gauss-Legendre panels.
    """
    p = _check_exponent("p", p)
    q = _check_exponent("q", q)
    fstar = _rearranged(f)
    if _is_zero(fstar):
        return 0.0
    if fstar.right_value > 0.0:
        # f** >= right_value forever, so every weighted q-mean diverges and
        # the sup grows like t^{1/p} unless p is infinite
        if q == _INF and p == _INF:
            pass
        else:
            return _INF
    bp = fstar.breakpoints
    vals = fstar.values
    F_edges = np.concatenate([[0.0], np.cumsum(vals * fstar.lengths)])
    F_inf = float(F_edges[-1]) if fstar.right_value == 0.0 else _INF

    if q == _INF:
        beta = _inv(p) - 1.0
        best = 0.0
        for k in range(len(bp)):
            a = 0.0 if k == 0 else float(bp[k - 1])
            b = float(bp[k])
            v = float(vals[k])
            c = float(F_edges[k]) - v * a

            def g(t: float) -> float:
                return t**beta * (c + v * t) if t > 0 else 0.0

            if a > 0.0:
                best = max(best, g(a))
            elif beta + 1.0 == 0.0:
                best = max(best, v)  # p = inf head: sup f** = f*(0+)
            best = max(best, g(b))
            if v > 0.0 and beta + 1.0 != 0.0 and c != 0.0:
                denom = (beta + 1.0) * v
                # a subnormal v can underflow the product; c / v keeps the scale
                t_crit = -beta * c / denom if denom != 0.0 else -beta / (beta + 1.0) * (c / v)
                if a < t_crit < b:
                    best = max(best, g(t_crit))
        if F_inf > 0.0 and fstar.right_value == 0.0:
            T = float(bp[-1])
            if beta > 0.0:
                return _INF
            best = max(best, F_inf if beta == 0.0 else F_inf * T**beta)
        return best

    if p == _INF:
        return _INF  # integrand carries t^{-1}; any nonzero head diverges
    # head cell (0, bp[0]]: f** is the constant vals[0], integral in closed form
    total = float(vals[0]) ** q * float(bp[0]) ** (q / p) * p / q

    def integrand(t):
        return cumulative_eval(fstar, t) ** q * t ** (q / p - 1.0 - q)

    for cell in _gl_cells(integrand, bp[:-1], bp[1:]):
        total += float(cell)
    if F_inf > 0.0:
        T = float(bp[-1])
        e_tail = q / p - q  # integral of t^(e_tail - 1) beyond T
        if e_tail >= 0.0:
            return _INF
        total += F_inf**q * T**e_tail / (-e_tail)
    return total ** (1.0 / q)


# -- closed-form associate norms ----------------------------------------------


_ORIGIN = DiscreteMeasure([0.0], [1.0])  # the unit atom at 0


def assoc_classical(
    p: float, psi: Weight, f, grid: GeometricGrid = DEFAULT_GRID
) -> float:
    """Closed-form associate norm of the classical Lorentz space ||psi f*||_p:
    the branch formula of ``assoc_generalized`` with nu the unit atom at 0,
    integrated by ``hardy._nu_integral``.

    For 0 < p <= 1: sup_{t>0} t f**(t) / Psi_p(t).  For 1 < p < infinity:
    (integral of (t f**/Psi_p^p)^{p'} psi^p dt)^{1/p'}, the outer 1/p' making
    the value homogeneous of degree 1.
    """
    if not (0.0 < p < _INF):
        raise ConfigError("assoc_classical needs p in (0, inf)")
    fstar = _rearranged(f)
    if _is_zero(fstar):
        return 0.0
    return _nu_integral(p, 1.0 / p, fstar, psi.pow(p), _ORIGIN, grid)[0]


_FIT_CACHE: dict[str, tuple[DiscreteMeasure, EquivReport]] = {}


def _phi_hypotheses(phi: Weight, p: float, grid: GeometricGrid) -> None:
    """Raises HypothesisViolated unless phi is nonincreasing and phi(r) r^{1/p}
    nondecreasing on the grid."""
    t = grid.breakpoints
    pv = np.asarray(phi(t), dtype=float)
    slack = 1.0 + 1e-9
    noninc = bool(np.all(pv[1:] <= pv[:-1] * slack))
    rising = pv * t ** _inv(p)
    nondec = bool(np.all(rising[1:] * slack >= rising[:-1]))
    flags = {"phi_nonincreasing": noninc, "phi_times_root_nondecreasing": nondec}
    if not (noninc and nondec):
        raise HypothesisViolated(
            "phi must be nonincreasing with phi(r) r^{1/p} nondecreasing; "
            f"grid check gave {flags}"
        )


def _fit_nu_for_phi(
    phi: Weight, sig: Callable, cache_key: str, grid: GeometricGrid
) -> tuple[DiscreteMeasure, EquivReport]:
    hit = _FIT_CACHE.get(cache_key)
    if hit is not None:
        return hit

    def target(t):
        return 1.0 / np.asarray(phi(t), dtype=float)

    nu, report = fit_representation_measure(target, sig, grid)
    _FIT_CACHE.setdefault(cache_key, (nu, report))
    return nu, report


@dataclass
class AssociateResult:
    """Closed-form associate value with the measure that produced it."""

    value: float
    nu_used: DiscreteMeasure
    fit_report: EquivReport
    boundary_flags: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "nu_used": self.nu_used.to_json(),
            "fit_report": self.fit_report.to_json(),
            "boundary_flags": self.boundary_flags,
        }


def assoc_generalized(
    p: float,
    psi: Weight,
    phi: Weight,
    f,
    grid: GeometricGrid = DEFAULT_GRID,
) -> AssociateResult:
    """Closed-form associate norm of sup_r phi(r) ||psi f*||_{p,(0,r)}.

    Requires phi nonincreasing and phi(r) r^{1/p} nondecreasing; fits (and
    caches) the representation measure nu of 1/phi with respect to Psi_p,
    then integrates the branch formula against nu's atoms:

      0 < p <= 1:  integral of sup_{s>t} s f**(s)/Psi_p(s) dnu(t)
      1 < p:       integral of (integral_t^inf (s f**/Psi_p^p)^{p'} psi^p)^{1/p'} dnu(t)
    """
    if not (0.0 < p < _INF):
        raise ConfigError("assoc_generalized needs p in (0, inf)")
    _phi_hypotheses(phi, p, grid)
    key = json.dumps([phi.to_json(), psi.to_json(), p, grid.to_json()], sort_keys=True)
    nu, fit_report = _fit_nu_for_phi(phi, WeightProfile(psi, p), key, grid)
    flags = {"origin_atom": bool(len(nu.locations) and nu.locations[0] == 0.0)}
    fstar = _rearranged(f)
    value = 0.0 if _is_zero(fstar) else _nu_integral(p, 1.0 / p, fstar, psi.pow(p), nu, grid)[0]
    return AssociateResult(value, nu, fit_report, flags)


# -- brute-force duality oracle -----------------------------------------------

# Scored candidate pools, keyed by (spec, grid, seed, n_trials): the pool does
# not depend on f, and verify_duality asks for the same one for every function.
_POOL_CACHE: dict[str, tuple] = {}
_POOL_CACHE_SIZE = 16


def _pairing(fstar: PiecewiseFn, bp: np.ndarray) -> Callable[[np.ndarray, float], float]:
    """(values, right_value) -> integral of f* g over (0, inf) for the step
    function g on breakpoints bp; exact for step data, and the same terms and
    fsum as integrating the merged product f* g cell by cell."""
    u = np.union1d(fstar.breakpoints, bp)
    fv = np.concatenate((fstar.values, (fstar.right_value,)))[fstar.breakpoints.searchsorted(u)]
    at = bp.searchsorted(u)
    lengths = u - np.concatenate(((0.0,), u[:-1]))

    def pairing(values: np.ndarray, right_value: float) -> float:
        if fstar.right_value > 0.0 and right_value > 0.0:
            return _INF
        return math.fsum((fv * np.concatenate((values, (right_value,)))[at] * lengths).tolist())

    return pairing


def _quotient(den: Optional[float], pairing: Callable[[], float]) -> float:
    """The score pairing/den of a candidate with norm den (None when it is not
    nonincreasing, which scores 0, as does an infinite norm)."""
    if den is None or den == _INF:
        return 0.0
    if den == 0.0:
        return _INF if pairing() > 0.0 else 0.0
    return pairing() / den


def _norm_or_none(spec: NormSpec, g: PiecewiseFn, grid: GeometricGrid) -> Optional[float]:
    try:
        return norm(spec, DecreasingFn(g), grid)
    except NonRearrangeable:
        return None


def _norm_on(spec: NormSpec, shape: PiecewiseFn, grid: GeometricGrid) -> Callable:
    """(values, right_value) -> ||g||_spec for nonincreasing g on shape's
    breakpoints; one fixed-breakpoint operator for the sup families."""
    sup = _sup_family(spec)
    if sup is not None:
        return _SupNorm(*sup, shape, grid)
    bp = shape.breakpoints
    return lambda values, rv: norm(spec, DecreasingFn(PiecewiseFn(bp, values, rv)), grid)


def _scored_pool(spec, sampler, n_trials, seed, grid) -> tuple:
    """The indicator sweep chi_(0,a] across the grid, then n_trials seeded
    candidates, each with its norm; cached unless a sampler is passed."""
    key = None
    if sampler is None and isinstance(seed, (int, np.integer)):
        key = json.dumps([spec.to_json(), grid.to_json(), int(seed), int(n_trials)], sort_keys=True)
        hit = _POOL_CACHE.get(key)
        if hit is not None:
            return hit
    rng = np.random.default_rng(seed)
    pool = [indicator(0.0, float(a)) for a in np.geomspace(grid.t_min, grid.t_max, 33)]
    make = sampler if sampler is not None else random_decreasing
    pool.extend(make(rng) for _ in range(n_trials))
    scored = tuple((g, _norm_or_none(spec, g, grid)) for g in pool)
    if key is not None:
        if len(_POOL_CACHE) >= _POOL_CACHE_SIZE:
            del _POOL_CACHE[next(iter(_POOL_CACHE))]  # the oldest pool
        _POOL_CACHE[key] = scored
    return scored


def duality_oracle(
    spec: NormSpec,
    f,
    sampler: Optional[Callable] = None,
    n_trials: int = 60,
    local_search_steps: int = 200,
    seed: int = 0,
    grid: GeometricGrid = DEFAULT_GRID,
) -> float:
    """Best pairing quotient integral(f* g*)/||g||_spec over candidate g.

    Candidates: the indicator sweep chi_(0,a] across the grid, g = f* itself,
    and seeded random nonincreasing step functions; the best candidate then
    gets coordinate-wise multiplicative local search (step 1.1, re-projected
    to nonincreasing, budgeted passes).  The returned value is a certified
    lower bound on the associate norm — a budget, not a convergence claim.

    The candidates other than f* do not depend on f, so their norms are
    computed once per (spec, grid, seed, n_trials) and kept in a small
    bounded cache; a custom ``sampler`` is called afresh on every call and
    nothing is cached.  Local search keeps the best candidate's breakpoints,
    so for the sup families (GenLorentz, GenClassicalLorentz, Marcinkiewicz)
    one fixed-breakpoint norm operator, built once, scores every step.
    """
    fstar = _rearranged(f)
    if _is_zero(fstar):
        return 0.0
    pool = _scored_pool(spec, sampler, n_trials, seed, grid)
    own = PiecewiseFn(fstar.breakpoints, fstar.values, fstar.right_value)
    best_val = -1.0
    best_g: Optional[PiecewiseFn] = None
    any_norm_positive = False
    for g, den in (*pool[:33], (own, _norm_or_none(spec, own, grid)), *pool[33:]):
        if den is not None and den > 0.0:
            any_norm_positive = True
        val = _quotient(den, lambda: _pairing(fstar, g.breakpoints)(g.values, g.right_value))
        if val > best_val:
            best_val, best_g = val, g
        if val == _INF:
            return _INF
    if not any_norm_positive:
        raise DegenerateInput("every candidate had zero norm under the spec")
    if best_g is None or best_val <= 0.0:
        return max(best_val, 0.0)

    v = best_g.values.copy()
    rv = best_g.right_value
    size = _norm_on(spec, best_g, grid)
    pairing = _pairing(fstar, best_g.breakpoints)
    for _ in range(local_search_steps):
        improved = False
        for j in range(len(v)):
            for fac in (1.1, 1.0 / 1.1):
                w = v.copy()
                w[j] *= fac
                w = np.minimum.accumulate(w)  # keep it nonincreasing
                den = size(w, rv) if rv <= w[-1] else None
                val = _quotient(den, lambda: pairing(w, rv))
                if val > best_val * (1.0 + 1e-12):
                    best_val = val
                    v = w
                    improved = True
        if not improved:
            break
    return best_val


# -- embedding criteria ---------------------------------------------------------


@dataclass
class EmbeddingResult:
    criterion_value: float
    holds: bool
    nu_used: DiscreteMeasure
    fit_report: EquivReport
    boundary_flags: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "criterion_value": self.criterion_value,
            "holds": bool(self.holds),
            "nu_used": self.nu_used.to_json(),
            "fit_report": self.fit_report.to_json(),
            "boundary_flags": self.boundary_flags,
        }


def embedding_criterion(
    p: float,
    q: float,
    psi: Weight,
    phi: Weight,
    w: Weight,
    grid: GeometricGrid = DEFAULT_GRID,
) -> EmbeddingResult:
    """Criterion value for embedding the generalized classical Lorentz space
    (exponent p, weights psi, phi) into the classical Lorentz space with
    exponent q and weight w.

    Powers reduce the question to exponent P = p/q acting on psi^q with outer
    weight phi^q against the cumulative W_q = integral of w^q (a decreasing
    function stays decreasing under positive powers, so the reduction is
    exact).  nu is the representation measure of 1/phi with respect to
    Psi_{p/q}(t) = (integral_0^t psi^p)^{q/p}; the criterion is then

      P <= 1:  integral of sup_{s>t} W_q(s)/Psi_{p/q}(s) dnu(t)
      P > 1:   integral of (integral_t^inf (W_q/Phi)^{P'} psi^p ds)^{1/P'} dnu(t)

    with Phi = Psi_{p/q}^{p/q} = integral of psi^p (the same pth-power
    denominator normalization as assoc_generalized).  The embedding holds iff
    the criterion is finite.
    """
    for name, val in (("p", p), ("q", q)):
        if not (0.0 < val < _INF):
            raise ConfigError(f"{name} must lie in (0, inf)")
    _phi_hypotheses(phi, p, grid)
    P = p / q
    prof = WeightProfile(psi, p)  # big_p = Phi = integral psi^p
    expo = q / p

    def sig(t):
        return np.asarray(prof.big_p(t), dtype=float) ** expo

    key = json.dumps(
        ["embed", phi.to_json(), psi.to_json(), p, q, grid.to_json()], sort_keys=True
    )
    nu, fit_report = _fit_nu_for_phi(phi, sig, key, grid)
    value, tail_divergent = _nu_integral(P, expo, w.pow(q), prof.density, nu, grid)
    flags = {
        "reduced_exponent": P,
        "origin_atom": bool(len(nu.locations) and nu.locations[0] == 0.0),
        "tail_divergent": tail_divergent,
    }
    return EmbeddingResult(value, math.isfinite(value), nu, fit_report, flags)


def empirical_embedding_check(
    p: float,
    q: float,
    psi: Weight,
    phi: Weight,
    w: Weight,
    n_trials: int = 60,
    seed: int = 0,
    grid: GeometricGrid = DEFAULT_GRID,
) -> EquivReport:
    """Sampled ratio norm_target(f)/norm_source(f) for the embedding above.

    The structured family chi_(0,a] sweeps the grid geometrically so a
    failing embedding shows its ratio growth along the sweep; random
    nonincreasing step functions fill in the rest.  Ratios 0/0 are skipped;
    positive/0 reports as inf.
    """
    src = GenClassicalLorentz(p, psi, phi)
    tgt = ClassicalLorentz(q, w)
    rng = np.random.default_rng(seed)
    sweep = np.geomspace(grid.t_min, grid.t_max, 17)
    trials: list[tuple[str, PiecewiseFn]] = [
        (f"indicator[a={float(a)!r}]", indicator(0.0, float(a))) for a in sweep
    ]
    trials.extend((f"random[{i}]", random_decreasing(rng)) for i in range(n_trials))

    lo, hi = _INF, 0.0
    lo_w = hi_w = None
    indicator_ratios: list[float] = []
    n_used = 0
    for name, fn in trials:
        den = norm(src, fn, grid)
        num = norm(tgt, fn, grid)
        if den == 0.0 and num == 0.0:
            if name.startswith("indicator"):
                indicator_ratios.append(float("nan"))
            continue
        ratio = _INF if den == 0.0 else num / den
        n_used += 1
        if name.startswith("indicator"):
            indicator_ratios.append(ratio)
        if ratio < lo:
            lo, lo_w = ratio, name
        if ratio > hi:
            hi, hi_w = ratio, name
    if n_used == 0:
        raise DegenerateInput("all sampled ratios were 0/0")
    finite = [r for r in indicator_ratios if r and math.isfinite(r)]
    growth = (max(finite) / min(finite)) if len(finite) >= 2 and min(finite) > 0 else _INF
    return EquivReport(
        lower=lo,
        upper=hi,
        lower_witness=lo_w,
        upper_witness=hi_w,
        details={
            "indicator_ratios": indicator_ratios,
            "indicator_growth": growth,
            "n_trials_used": n_used,
        },
    )


# -- oracle-vs-closed-form harness ---------------------------------------------


def verify_duality(
    p: float,
    psi: Weight,
    phi: Weight,
    n_functions: int = 50,
    seed: int = 0,
    grid: GeometricGrid = DEFAULT_GRID,
    oracle_trials: int = 40,
    local_search_steps: int = 25,
) -> EquivReport:
    """Two-sided comparison assoc_generalized vs duality_oracle over a seeded
    corpus (half indicators sweeping the grid, half random nonincreasing).

    Reports the smallest (lower) and largest (upper) ratio closed_form/oracle
    over the corpus, each with the function that attained it, so every oracle
    value lies in [closed_form/upper, closed_form/lower].  The oracle is a
    lower-bound device, so ratios above 1 are expected.  Every oracle call
    uses the same seed, so they all share one scored candidate pool.
    """
    spec = GenClassicalLorentz(p, psi, phi)
    rng = np.random.default_rng(seed)
    n_ind = n_functions // 2
    trials: list[tuple[str, PiecewiseFn]] = [
        (f"indicator[a={float(a)!r}]", indicator(0.0, float(a)))
        for a in np.geomspace(grid.t_min, grid.t_max, max(n_ind, 2))
    ]
    trials.extend(
        (f"random[{i}]", random_decreasing(rng)) for i in range(n_functions - n_ind)
    )
    lo, hi = _INF, 0.0
    lo_w = hi_w = None
    n_used = 0
    for name, fn in trials:
        closed = assoc_generalized(p, psi, phi, fn, grid).value
        oracle = duality_oracle(
            spec,
            fn,
            n_trials=oracle_trials,
            local_search_steps=local_search_steps,
            seed=seed,
            grid=grid,
        )
        if closed == 0.0 and oracle == 0.0:
            continue
        ratio = _INF if oracle == 0.0 else closed / oracle
        n_used += 1
        if ratio < lo:
            lo, lo_w = ratio, name
        if ratio > hi:
            hi, hi_w = ratio, name
    if n_used == 0:
        raise DegenerateInput("corpus produced only 0/0 comparisons")
    return EquivReport(
        lower=lo,
        upper=hi,
        lower_witness=lo_w,
        upper_witness=hi_w,
        details={"n_functions": n_used, "p": p},
    )
