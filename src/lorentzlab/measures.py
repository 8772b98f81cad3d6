"""Discrete Borel measures on [0, infinity) and their fundamental functions.

A DiscreteMeasure is a finite list of positive atoms, optionally extended by a
symbolic power-law tail density beyond its last atom so that integrals against
the measure can account for mass at infinity.  The fundamental function of a
measure with respect to an increasing function sigma,

    h(t) = sigma(t) * integral of d nu(s) / (sigma(s) + sigma(t)),

is sigma-quasiconcave by construction; fit_representation_measure solves the
inverse problem (find nu whose fundamental function matches a target) by
nonnegative least squares on relative residuals with Lawson-style sup-norm
reweighting.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .conditions import EPS_ADMISSIBLE, quasiconcave_check
from .errors import DegenerateSigma, FitFailed, NotQuasiconcave
from .grid import DEFAULT_GRID, GeometricGrid
from .reports import ConditionReport, EquivReport

__all__ = [
    "PowerTail",
    "DiscreteMeasure",
    "fundamental_function",
    "fundamental_equiv_forms",
    "nondegeneracy_check",
    "fit_representation_measure",
]

_INF = math.inf


class PowerTail(NamedTuple):
    """Tail density ``coef * s**alpha`` beyond the measure's last atom."""

    alpha: float
    coef: float


class DiscreteMeasure:
    """Nonnegative atomic measure: strictly increasing locations, positive masses.

    An atom may sit at the origin.  ``tail``, when present, adds the density
    ``coef * s**alpha`` on ``(cutoff, infinity)`` where ``cutoff`` is the last
    atom location (1.0 when no atom lies past the origin); this is the only way a
    measure can carry infinite mass.
    """

    __slots__ = ("locations", "masses", "tail")

    def __init__(
        self,
        locations: Sequence[float],
        masses: Sequence[float],
        tail: Optional[PowerTail] = None,
    ):
        loc = np.asarray(locations, dtype=float)
        mas = np.asarray(masses, dtype=float)
        if loc.ndim != 1 or loc.shape != mas.shape:
            raise ValueError("locations and masses must be 1-d of equal length")
        if loc.size and (not np.all(np.isfinite(loc)) or loc[0] < 0.0):
            raise ValueError("atom locations must be finite and nonnegative")
        if loc.size and not np.all(np.diff(loc) > 0.0):
            raise ValueError("atom locations must be strictly increasing")
        if not np.all(np.isfinite(mas)) or (mas.size and not np.all(mas > 0.0)):
            raise ValueError("atom masses must be finite and strictly positive")
        if tail is not None:
            tail = PowerTail(float(tail[0]), float(tail[1]))
            if not (tail.coef > 0.0) or not math.isfinite(tail.coef):
                raise ValueError("tail coefficient must be positive and finite")
            if not math.isfinite(tail.alpha):
                raise ValueError("tail exponent must be finite")
        self.locations = loc
        self.locations.flags.writeable = False
        self.masses = mas
        self.masses.flags.writeable = False
        self.tail = tail

    def __len__(self) -> int:
        return int(self.locations.size)

    def __repr__(self) -> str:
        core = f"{len(self)} atoms, total mass {self.total_mass()!r}"
        return f"DiscreteMeasure({core})"

    @property
    def tail_cutoff(self) -> float:
        """Left endpoint of the tail density's support: the last atom, or 1.0
        when no atom lies past the origin."""
        return float(self.locations[-1]) if len(self) and self.locations[-1] > 0.0 else 1.0

    def tail_mass(self) -> float:
        if self.tail is None:
            return 0.0
        alpha, coef = self.tail.alpha, self.tail.coef
        cut = self.tail_cutoff
        if alpha >= -1.0:
            return _INF
        return coef * cut ** (alpha + 1.0) / (-alpha - 1.0)

    def total_mass(self) -> float:
        return math.fsum(self.masses) + self.tail_mass()

    def scaled(self, c: float) -> "DiscreteMeasure":
        """The measure c * nu, c > 0."""
        if not (c > 0.0) or not math.isfinite(c):
            raise ValueError("scale factor must be positive and finite")
        tail = None if self.tail is None else PowerTail(self.tail.alpha, c * self.tail.coef)
        return DiscreteMeasure(self.locations, c * self.masses, tail)

    def tail_integral(self, g: Callable[[float], float]) -> float:
        """Integral of g(s) * coef * s**alpha over the tail region (0 if no tail)."""
        if self.tail is None:
            return 0.0
        alpha, coef = self.tail.alpha, self.tail.coef
        cut = self.tail_cutoff
        import mpmath

        val = mpmath.quad(lambda s: g(float(s)) * coef * float(s) ** alpha, [cut, mpmath.inf])
        return float(val)

    def integrate(self, g: Callable[[float], float]) -> float:
        """Integral of g against the measure: the fsum of m * g(t) over the
        atoms, plus the tail integral when that sum is finite."""
        total = math.fsum(
            float(m) * g(float(t)) for t, m in zip(self.locations, self.masses)
        )
        if self.tail is not None and total != _INF:
            total += self.tail_integral(g)
        return total

    def to_json(self) -> dict:
        return {
            "atoms": [
                {"t": float(t), "m": float(m)}
                for t, m in zip(self.locations, self.masses)
            ],
            "tail": None
            if self.tail is None
            else {"alpha": self.tail.alpha, "coef": self.tail.coef},
        }

    @classmethod
    def from_json(cls, data: dict) -> "DiscreteMeasure":
        atoms = data.get("atoms", [])
        tail = data.get("tail")
        return cls(
            [a["t"] for a in atoms],
            [a["m"] for a in atoms],
            None if tail is None else PowerTail(tail["alpha"], tail["coef"]),
        )


def _sigma_at(sig: Callable, ts: np.ndarray) -> np.ndarray:
    """Evaluate sigma at an array of points, tolerating scalar-only callables."""
    ts = np.asarray(ts, dtype=float)
    try:
        out = np.asarray(sig(ts), dtype=float)
        if out.shape == ts.shape:
            return out
    except (TypeError, ValueError):
        pass
    return np.array([float(sig(float(t))) for t in ts])


class FundamentalFn:
    """h(t) = sigma(t) * sum of m_i / (sigma(t_i) + sigma(t)), plus any tail term."""

    def __init__(self, nu: DiscreteMeasure, sig: Callable):
        self.nu = nu
        self.sig = sig
        self._sig_atoms = _sigma_at(sig, nu.locations) if len(nu) else np.empty(0)
        if len(nu):
            interior = nu.locations > 0.0
            bad = interior & ~(self._sig_atoms > 0.0)
            if np.any(bad):
                raise DegenerateSigma("sigma vanishes at a positive atom location")

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        sig_t = _sigma_at(self.sig, t_arr)
        if np.any((t_arr > 0.0) & ~(sig_t > 0.0)):
            raise DegenerateSigma("sigma must be positive for t > 0")
        out = np.zeros_like(t_arr)
        finite = np.isfinite(sig_t)
        if len(self.nu):
            st = sig_t[finite]
            with np.errstate(divide="ignore"):
                terms = self.nu.masses[None, :] / (self._sig_atoms[None, :] + st[:, None])
            out[finite] = st * np.sum(terms, axis=1)
        if np.any(~finite):
            # sigma(t) = inf: every kernel factor sigma(t)/(sigma(s)+sigma(t)) -> 1
            out[~finite] = self.nu.total_mass()
        if self.nu.tail is not None:
            for j in np.nonzero(finite)[0]:
                st = float(sig_t[j])
                out[j] += st * self.nu.tail_integral(
                    lambda s: 1.0 / (float(self.sig(s)) + st)
                )
        out[t_arr == 0.0] = 0.0
        return float(out[0]) if np.asarray(t).ndim == 0 else out


def fundamental_function(nu: DiscreteMeasure, sig: Callable) -> FundamentalFn:
    """The fundamental function of nu with respect to sigma (sigma(0) = 0 convention:
    an atom at the origin contributes its full mass at every t > 0)."""
    return FundamentalFn(nu, sig)


class _EquivForms:
    """The two closed forms equivalent to the fundamental function.

    Form A:  nu([0, t]) + sigma(t) * integral over (t, infinity) of d nu / sigma,
    with atoms exactly at t assigned to the left term.
    Form B:  integral of G d sigma over (0, t], G(s) = nu-integral of 1/sigma over
    [s, infinity); computed exactly as a sum over the atom partition (G is constant
    between consecutive atoms), with any tail segment summed over grid increments.
    """

    def __init__(self, nu: DiscreteMeasure, sig: Callable, grid: GeometricGrid):
        self.nu = nu
        self.sig = sig
        self.grid = grid
        self._sig_atoms = _sigma_at(sig, nu.locations) if len(nu) else np.empty(0)
        # G restricted to positive atoms: suffix sums of m_i / sigma(t_i)
        pos = nu.locations > 0.0
        self._pos_loc = nu.locations[pos]
        self._pos_sig = self._sig_atoms[pos]
        with np.errstate(divide="ignore"):
            contrib = nu.masses[pos] / self._pos_sig
        self._suffix = np.concatenate(
            [np.cumsum(contrib[::-1])[::-1], [0.0]]
        ) if contrib.size else np.array([0.0])
        self._tail_G = (
            nu.tail_integral(lambda s: 1.0 / float(sig(s))) if nu.tail is not None else 0.0
        )

    def __call__(self, t):
        t = float(t)
        if t <= 0.0:
            return (0.0, 0.0)
        sig_t = float(self.sig(t))
        left = math.fsum(self.nu.masses[self.nu.locations <= t])
        right = 0.0
        after = self.nu.locations > t
        if np.any(after):
            with np.errstate(divide="ignore"):
                right += float(np.sum(self.nu.masses[after] / self._sig_atoms[after]))
        if self.nu.tail is not None:
            cut = self.nu.tail_cutoff
            if t <= cut:
                right += self._tail_G
            else:
                import mpmath

                alpha, coef = self.nu.tail
                right += float(
                    mpmath.quad(
                        lambda s: coef * float(s) ** alpha / float(self.sig(float(s))),
                        [t, mpmath.inf],
                    )
                )
                if alpha >= -1.0:
                    left = _INF
                else:
                    left += coef * (
                        cut ** (alpha + 1.0) - t ** (alpha + 1.0)
                    ) / (-alpha - 1.0)
        form_a = left + sig_t * right
        form_b = self._form_b(t)
        return (form_a, form_b)

    def _form_b(self, t: float) -> float:
        total = 0.0
        prev = 0.0
        prev_sig = 0.0
        for i, y in enumerate(self._pos_loc):
            hi = min(float(y), t)
            if hi <= prev:
                break
            g_here = float(self._suffix[i]) + self._tail_G
            sig_hi = float(self.sig(hi))
            total += g_here * (sig_hi - prev_sig)
            prev, prev_sig = hi, sig_hi
        if self.nu.tail is not None and t > prev:
            # beyond the last atom G varies continuously; Stieltjes sum on the grid
            edges = [prev] + [
                float(b) for b in self.grid.breakpoints if prev < b < t
            ] + [t]
            for a, b in zip(edges[:-1], edges[1:]):
                g_b = self.nu.tail_integral(
                    lambda s, b=b: (1.0 / float(self.sig(s))) if s >= b else 0.0
                )
                total += g_b * (float(self.sig(b)) - float(self.sig(a)))
        return total


def fundamental_equiv_forms(
    nu: DiscreteMeasure, sig: Callable, grid: GeometricGrid = DEFAULT_GRID
) -> _EquivForms:
    """Both closed forms that bracket the fundamental function two-sidedly."""
    return _EquivForms(nu, sig, grid)


def nondegeneracy_check(
    nu: DiscreteMeasure, sig: Callable, eps: float = EPS_ADMISSIBLE
) -> ConditionReport:
    """Proxy test of the two divergence requirements on a truncated domain.

    The continuum conditions (nu-integral of 1/sigma near zero and nu-mass near
    infinity both infinite) cannot hold for a finite atom list, so each is
    replaced by a mass threshold 1/eps; an origin atom or an infinite-mass tail
    satisfies the corresponding requirement exactly.
    """
    sig_atoms = _sigma_at(sig, nu.locations) if len(nu) else np.empty(0)
    low = nu.locations <= 1.0
    origin = len(nu) > 0 and nu.locations[0] == 0.0
    if origin:
        near_zero = _INF
    else:
        with np.errstate(divide="ignore"):
            near_zero = float(np.sum(nu.masses[low] / np.maximum(sig_atoms[low], 0.0))) \
                if np.any(low) else 0.0
    upper = math.fsum(nu.masses[~low]) + nu.tail_mass()
    thr = 1.0 / eps
    ok_zero = near_zero >= thr
    ok_inf = upper >= thr
    holds = bool(ok_zero and ok_inf)
    binding = min(near_zero, upper)
    witness = 0.0 if near_zero <= upper else _INF
    return ConditionReport(
        condition="nondegenerate_measure",
        holds=holds,
        best_constant=binding,
        witness_t=witness,
        boundary_attained=not holds,
        details={
            "near_zero_inverse_sigma_mass": near_zero,
            "mass_above_one": upper,
            "threshold": thr,
            "first_integral_finite": True,
            "truncated_domain": True,
        },
    )


_INTERIOR = (1e-2, 1e2)  # where a fit's quality is judged


def _collocation_points(grid: GeometricGrid, per_decade: int) -> np.ndarray:
    """Log-spaced evaluation points, excluding half a decade at each end."""
    lo = math.log10(grid.t_min) + 0.5
    hi = math.log10(grid.t_max) - 0.5
    n = max(int(round((hi - lo) * per_decade)) + 1, 2)
    return 10.0 ** np.linspace(lo, hi, n)


def fit_representation_measure(
    h_target: Callable,
    sig: Callable,
    support_grid: GeometricGrid = DEFAULT_GRID,
    include_origin_atom: bool = True,
    *,
    max_log_ratio: float = math.log(1.1),
) -> tuple[DiscreteMeasure, EquivReport]:
    """Fit a discrete measure whose fundamental function matches h_target.

    The collocation points are 4 per decade, log-spaced from half a decade
    inside the grid's t_min to half a decade inside its t_max.  The fit
    approximates the minimax fit, the smallest sup over the interior points
    of |log(h_nu/h_target)|, by 40 rounds of Lawson-reweighted NNLS on
    relative residuals; it does not solve the minimax exactly.  Acceptance
    criterion 06 measures its gap to the linear-programming floor over the
    same support and points (tests/test_acceptance.py).  Masses below 1e-12
    of the total are pruned.  The quality bound is judged on the collocation
    points inside the interior [1e-2, 1e2] (truncation pollutes the outer
    decades; the kernel family is too rigid there to track targets it cannot
    extrapolate); points outside it keep a small weight.
    Raises NotQuasiconcave when the target fails the sigma-quasiconcavity
    precondition and FitFailed when the achieved interior sup-log-ratio
    exceeds max_log_ratio.
    """
    from scipy.optimize import nnls  # here, not at module level: it adds ~0.2 s to every import

    pre = quasiconcave_check(h_target, sig, support_grid)
    if not pre.holds:
        raise NotQuasiconcave(
            "target is not sigma-quasiconcave on the grid "
            f"(defect constant {pre.best_constant!r})"
        )
    t_eval = _collocation_points(support_grid, 4)
    inner = (t_eval >= _INTERIOR[0]) & (t_eval <= _INTERIOR[1])
    if not np.any(inner):
        inner = np.ones(len(t_eval), dtype=bool)
    h_vals = _sigma_at(h_target, t_eval)
    if not np.all(np.isfinite(h_vals)) or not np.all(h_vals > 0.0):
        raise NotQuasiconcave("target must be positive and finite at collocation points")

    support = support_grid.breakpoints
    sig_sup = _sigma_at(sig, support)
    sig_t = _sigma_at(sig, t_eval)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = sig_t[:, None] / (sig_sup[None, :] + sig_t[:, None])
    kernel = np.nan_to_num(kernel, nan=1.0, posinf=1.0)
    if include_origin_atom:
        kernel = np.hstack([np.ones((len(t_eval), 1)), kernel])
        locations = np.concatenate([[0.0], support])
    else:
        locations = support.copy()

    rel = kernel / h_vals[:, None]
    weights = np.where(inner, 1.0, 0.05)
    best_m = None
    best_sup = _INF
    for _ in range(40):
        a_mat = rel * weights[:, None]
        try:
            m, _ = nnls(a_mat, weights)
        except RuntimeError:
            # active-set iteration cap inside the solver; keep the best
            # iterate found so far rather than leaking an untyped error
            break
        h_fit = kernel @ m
        if np.all(h_fit > 0.0):
            logr = np.abs(np.log(h_fit / h_vals))
            sup = float(np.max(logr[inner]))
            if sup < best_sup:
                best_sup = sup
                best_m = m
        else:
            logr = np.full(len(t_eval), 1.0)
        # Lawson reweighting toward the sup-norm minimizer on interior points
        weights = weights * (np.abs(logr) + 1e-6)
        weights = np.where(inner, weights, np.minimum(weights, 0.05))
        weights = weights / np.max(weights)
    if best_m is None:
        raise FitFailed("no iterate produced a positive fit")

    total = float(np.sum(best_m))
    keep = best_m > 1e-12 * total
    loc_kept = locations[keep]
    mass_kept = best_m[keep]
    order = np.argsort(loc_kept)
    nu = DiscreteMeasure(loc_kept[order], mass_kept[order])

    h_final = fundamental_function(nu, sig)(t_eval)
    ratios = h_final / h_vals
    r_in = ratios[inner]
    t_in = t_eval[inner]
    i_lo, i_hi = int(np.argmin(r_in)), int(np.argmax(r_in))
    report = EquivReport(
        lower=float(r_in[i_lo]),
        upper=float(r_in[i_hi]),
        lower_witness=float(t_in[i_lo]),
        upper_witness=float(t_in[i_hi]),
        details={
            "n_atoms": len(nu),
            "collocation_range": [float(t_eval[0]), float(t_eval[-1])],
            "interior": list(_INTERIOR),
            "sup_log_ratio": float(np.max(np.abs(np.log(r_in)))),
            "sup_log_ratio_full_range": float(np.max(np.abs(np.log(ratios)))),
        },
    )
    if report.sup_log_ratio > max_log_ratio:
        raise FitFailed(
            f"interior sup log-ratio {report.sup_log_ratio:.6f} "
            f"exceeds bound {max_log_ratio:.6f}",
            report.sup_log_ratio,
        )
    return nu, report
