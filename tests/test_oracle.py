"""The fixed-breakpoint sup-norm operator and the duality oracle, each against
a reference: the per-call algorithms they replaced, kept here verbatim."""

import math

import numpy as np
import pytest

import lorentzlab.associate as A
from lorentzlab import (
    DEFAULT_GRID,
    GenClassicalLorentz,
    GenLorentz,
    Lpq,
    Marcinkiewicz,
    PiecewiseFn,
    Power,
    PowerLog,
    Tabulated,
    duality_oracle,
    indicator,
    integrate,
    norm,
    pointwise_merge,
    random_decreasing,
)
from lorentzlab.errors import DegenerateInput, NonIntegrableNearZero, NonRearrangeable
from lorentzlab.rearrangement import DecreasingFn, _rearranged
from lorentzlab.sampling import random_step
from lorentzlab.weights import ess_sup_weighted, product_cumulative

ONE = Power(0.0)
_INF = math.inf

# criterion 10's six families, then GenLorentz, Marcinkiewicz at p = 2 and
# p = inf, and a tabulated psi at p = 2 and p = inf
SPECS = [
    GenClassicalLorentz(2.0, ONE, ONE),
    GenClassicalLorentz(1.5, ONE, Power(-1.0 / 3.0)),
    GenClassicalLorentz(3.0, Power(0.2), Power(-0.25)),
    GenClassicalLorentz(0.5, Power(-1.0), ONE),
    GenClassicalLorentz(1.0, ONE, Power(-0.5)),
    GenClassicalLorentz(2.0, PowerLog(0.0, 1.0), ONE),
    GenLorentz(2.0, 1.0, Power(-0.5)),
    GenLorentz(1.5, _INF, Power(-0.2)),
    Marcinkiewicz(2.0, Power(-0.5)),
    Marcinkiewicz(_INF, Power(-0.5)),
    GenClassicalLorentz(2.0, Tabulated(PiecewiseFn([0.01, 0.3, 2.0], [3.0, 2.0, 1.0], 0.5)), ONE),
    GenClassicalLorentz(_INF, Tabulated(PiecewiseFn([0.01, 0.3, 2.0], [3.0, 2.0, 1.0], 0.5)), ONE),
]


def reference_sup_norm(phi, p, psi, fstar, grid):
    """sup_r phi(r) ||psi f*||_{p,(0,r)} as one sweep over f* alone."""
    if not A._is_zero(fstar) and A._head_diverges(phi, p, psi):
        return _INF
    edges = A._merged_edges(grid, fstar, getattr(psi, "fn", None))
    lo, hi = float(edges[0]), float(edges[-1])
    rs = np.unique(
        np.concatenate(
            [lo * 10.0 ** (-np.arange(1, 9) / 2.0), edges, hi * 10.0 ** (np.arange(1, 9) / 2.0)]
        )
    )
    phi_vals = np.asarray(phi(rs), dtype=float)
    if p == _INF:
        cell_vals = np.asarray(fstar(rs), dtype=float)
        lefts = np.concatenate([[0.0], rs[:-1]])
        sups = np.array(
            [
                v * psi.cell_sup(float(a), float(b)) if v > 0.0 else 0.0
                for v, a, b in zip(cell_vals, lefts, rs)
            ]
        )
        inner = np.maximum.accumulate(sups)
        inner_inf = ess_sup_weighted(fstar, psi, (0.0, _INF))
    else:
        fpow = fstar.powered(p)
        dens = psi.pow(p)
        try:
            head = product_cumulative(fpow, dens, 0.0, float(rs[0]))
        except NonIntegrableNearZero:
            return _INF
        fv = np.asarray(fpow(rs[1:]), dtype=float)
        pos = fv > 0.0
        masses = np.zeros(len(rs) - 1)
        if pos.any():
            dw = dens.cumulative_pairs(rs[:-1][pos], rs[1:][pos])
            masses[pos] = fv[pos] * dw
        I = head + np.concatenate([[0.0], np.cumsum(masses)])
        total = product_cumulative(fpow, dens, 0.0, _INF)
        if total != _INF:
            I = np.minimum(I, total)
        with np.errstate(invalid="ignore"):
            inner = I ** (1.0 / p)
        inner_inf = total ** (1.0 / p) if total != _INF else _INF
    with np.errstate(invalid="ignore"):
        prods = np.where((phi_vals == 0.0) | (inner == 0.0), 0.0, phi_vals * inner)
    best = float(np.max(prods)) if len(prods) else 0.0
    phi_inf = phi.limit_inf()
    if inner_inf > 0.0 and phi_inf > 0.0:
        best = max(best, phi_inf * inner_inf)
    return best


def reference_norm(spec, g, grid):
    sup = A._sup_family(spec)
    if sup is None:
        return norm(spec, g, grid)
    return reference_sup_norm(*sup, _rearranged(g), grid)


def reference_oracle(spec, f, sampler=None, n_trials=60, local_search_steps=200, seed=0, grid=DEFAULT_GRID):
    """The oracle scoring every candidate with its own norm and merged pairing."""
    fstar = _rearranged(f)
    if A._is_zero(fstar):
        return 0.0
    rng = np.random.default_rng(seed)
    candidates = [indicator(0.0, float(a)) for a in np.geomspace(grid.t_min, grid.t_max, 33)]
    candidates.append(PiecewiseFn(fstar.breakpoints, fstar.values, fstar.right_value))
    make = sampler if sampler is not None else random_decreasing
    candidates.extend(make(rng) for _ in range(n_trials))

    def pairing(g):
        if fstar.right_value > 0.0 and g.right_value > 0.0:
            return _INF
        return integrate(pointwise_merge(fstar, g, lambda a, b: a * b), 0.0, _INF)

    def quotient(g):
        try:
            den = reference_norm(spec, DecreasingFn(g), grid)
        except NonRearrangeable:
            return 0.0, 0.0
        if den == 0.0:
            return (_INF if pairing(g) > 0.0 else 0.0), den
        if den == _INF:
            return 0.0, den
        return pairing(g) / den, den

    best_val, best_g, any_norm_positive = -1.0, None, False
    for g in candidates:
        val, den = quotient(g)
        if den > 0.0:
            any_norm_positive = True
        if val > best_val:
            best_val, best_g = val, g
        if val == _INF:
            return _INF
    if not any_norm_positive:
        raise DegenerateInput("every candidate had zero norm under the spec")
    if best_g is None or best_val <= 0.0:
        return max(best_val, 0.0)
    v, bp, rv = best_g.values.copy(), best_g.breakpoints, best_g.right_value
    for _ in range(local_search_steps):
        improved = False
        for j in range(len(v)):
            for fac in (1.1, 1.0 / 1.1):
                w = v.copy()
                w[j] *= fac
                w = np.minimum.accumulate(w)
                val, _ = quotient(PiecewiseFn(bp, w, rv))
                if val > best_val * (1.0 + 1e-12):
                    best_val, v, improved = val, w, True
        if not improved:
            break
    return best_val


def _shapes(seed: int, n: int) -> list[PiecewiseFn]:
    rng = np.random.default_rng(seed)
    fns = [random_decreasing(rng) for _ in range(n)]
    fns += [indicator(0.0, a) for a in (1e-5, 0.37, 1.0, 2e3)]
    fns += [PiecewiseFn([0.5, 2.0], [2.0, 0.5], 0.25), PiecewiseFn([1.0], [0.0])]
    return fns


class TestSupOperator:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: repr(s)[:60])
    def test_equals_the_reference_on_its_own_breakpoints(self, spec):
        sup = A._sup_family(spec)
        for g in _shapes(17, 12):
            op = A._SupNorm(*sup, g, DEFAULT_GRID)
            assert op(g.values, g.right_value) == reference_sup_norm(*sup, g, DEFAULT_GRID)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: repr(s)[:60])
    def test_equals_the_reference_for_other_values_on_the_same_breakpoints(self, spec):
        sup = A._sup_family(spec)
        rng = np.random.default_rng(23)
        for g in _shapes(29, 6)[:8]:
            op = A._SupNorm(*sup, g, DEFAULT_GRID)
            for _ in range(4):
                w = np.minimum.accumulate(g.values * rng.uniform(0.5, 2.0, len(g.values)))
                h = PiecewiseFn(g.breakpoints, w, g.right_value)
                assert op(w, g.right_value) == reference_sup_norm(*sup, h, DEFAULT_GRID)

    def test_a_tabulated_psi_is_applied_from_its_build_masses(self, monkeypatch):
        def per_application(*args):
            raise AssertionError("an application integrated the step function again")

        monkeypatch.setattr(A, "product_cumulative", per_application)
        sup = A._sup_family(SPECS[10])
        for g in _shapes(37, 4):
            A._SupNorm(*sup, g, DEFAULT_GRID)(g.values, g.right_value)

    def test_is_the_norm_of_the_sup_families(self):
        for spec in SPECS:
            for g in _shapes(31, 4):
                assert norm(spec, g) == reference_norm(spec, g, DEFAULT_GRID)


def test_pairing_equals_the_merged_integral():
    rng = np.random.default_rng(41)
    for _ in range(40):
        fstar = _rearranged(random_step(rng))
        g = random_decreasing(rng)
        merged = integrate(pointwise_merge(fstar, g, lambda a, b: a * b), 0.0, _INF)
        assert A._pairing(fstar, g.breakpoints)(g.values, g.right_value) == merged


class TestDualityOracle:
    @pytest.mark.parametrize("spec", SPECS[:6], ids=lambda s: repr(s)[:60])
    def test_equals_the_reference_on_a_seeded_corpus(self, spec):
        rng = np.random.default_rng(7)
        corpus = [random_step(rng) for _ in range(3)] + [indicator(0.0, 0.2)]
        for f in corpus:
            for seed in (13, 2):
                got = duality_oracle(spec, f, n_trials=6, local_search_steps=4, seed=seed)
                want = reference_oracle(spec, f, n_trials=6, local_search_steps=4, seed=seed)
                assert got == want

    def test_equals_the_reference_for_other_families_and_a_sampler(self):
        f = random_step(np.random.default_rng(3))
        spec = Lpq(2.0, 1.5)
        assert duality_oracle(spec, f, n_trials=4, local_search_steps=3) == reference_oracle(
            spec, f, n_trials=4, local_search_steps=3
        )
        spec = SPECS[1]
        got = duality_oracle(spec, f, sampler=random_step, n_trials=6, local_search_steps=3, seed=4)
        want = reference_oracle(spec, f, sampler=random_step, n_trials=6, local_search_steps=3, seed=4)
        assert got == want

    def test_a_second_call_with_the_same_key_makes_one_norm_call(self, monkeypatch):
        monkeypatch.setattr(A, "_POOL_CACHE", {})
        calls = {"norm": 0, "apply": 0}
        real_norm, real_apply = A.norm, A._SupNorm.__call__

        def counting_norm(*args, **kwargs):
            calls["norm"] += 1
            return real_norm(*args, **kwargs)

        def counting_apply(self, *args):
            calls["apply"] += 1
            return real_apply(self, *args)

        monkeypatch.setattr(A, "norm", counting_norm)
        monkeypatch.setattr(A._SupNorm, "__call__", counting_apply)
        spec = SPECS[2]
        rng = np.random.default_rng(5)
        duality_oracle(spec, random_decreasing(rng), n_trials=10, local_search_steps=5, seed=13)
        assert calls["norm"] == 33 + 10 + 1
        calls.update(norm=0, apply=0)
        duality_oracle(spec, random_decreasing(rng), n_trials=10, local_search_steps=5, seed=13)
        assert calls["norm"] == 1  # f* itself; the pool's norms are reused
        assert calls["apply"] > 1  # local search ran, on the operator alone

    def test_a_custom_sampler_is_called_on_every_call(self, monkeypatch):
        monkeypatch.setattr(A, "_POOL_CACHE", {})
        drawn = []

        def sampler(rng):
            drawn.append(1)
            return random_decreasing(rng)

        for _ in range(3):
            duality_oracle(SPECS[0], indicator(0.0, 1.0), sampler=sampler, n_trials=4, local_search_steps=1)
        assert len(drawn) == 12
        assert A._POOL_CACHE == {}

    def test_the_pool_cache_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(A, "_POOL_CACHE", {})
        f = indicator(0.0, 1.0)
        for seed in range(A._POOL_CACHE_SIZE + 5):
            duality_oracle(SPECS[0], f, n_trials=1, local_search_steps=0, seed=seed)
            assert len(A._POOL_CACHE) <= A._POOL_CACHE_SIZE
        assert len(A._POOL_CACHE) == A._POOL_CACHE_SIZE
