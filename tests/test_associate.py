"""Norm families, associate-norm formulas, and the duality oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import step_functions
from lorentzlab import (
    DEFAULT_GRID,
    ClassicalLorentz,
    GeometricGrid,
    GenClassicalLorentz,
    GenLorentz,
    Lpq,
    LpqStar,
    Marcinkiewicz,
    PiecewiseFn,
    Power,
    PowerLog,
    Tabulated,
    assoc_classical,
    assoc_generalized,
    duality_oracle,
    indicator,
    lpq_star_norm,
    norm,
    norm_spec_from_json,
    p_norm,
    random_decreasing,
    verify_duality,
)
from lorentzlab.errors import HypothesisViolated

one = Power(0.0)
chi01 = indicator(0.0, 1.0)


class TestNormPins:
    def test_lpq(self):
        assert norm(Lpq(2.0, 2.0), chi01) == 1.0
        assert norm(Lpq(2.0, 1.0), chi01) == 2.0
        assert norm(Lpq(2.0, math.inf), chi01) == 1.0

    def test_lpq_star(self):
        assert lpq_star_norm(2.0, 1.0, chi01) == 4.0
        assert norm(LpqStar(2.0, 1.0), chi01) == 4.0
        assert lpq_star_norm(math.inf, math.inf, chi01) == 1.0

    def test_classical_lorentz(self):
        got = norm(ClassicalLorentz(1.5, Power(-0.25)), chi01)
        assert got == pytest.approx((8.0 / 5.0) ** (2.0 / 3.0), rel=1e-12)

    def test_generalized_families(self):
        assert norm(GenLorentz(2.0, 1.0, Power(-0.5)), chi01) == pytest.approx(2.0, rel=1e-12)
        assert norm(GenClassicalLorentz(2.0, one, one), chi01) == 1.0
        assert norm(Marcinkiewicz(2.0, Power(-0.5)), chi01) == pytest.approx(1.0, rel=1e-12)

    def test_zero_function(self):
        zero = PiecewiseFn([1.0], [0.0])
        assert norm(Lpq(2.0, 2.0), zero) == 0.0


class TestHeadAtZero:
    """sup_r phi(r) ||f*||_{p,(0,r)} near r = 0 goes like r^(alpha + 1/p) for
    phi = t^alpha and f*(0+) > 0, whatever the grid."""

    grids = [DEFAULT_GRID, GeometricGrid(1e-8, 1e4, 32)]

    @pytest.mark.parametrize("spec", [Marcinkiewicz(1.0, Power(-2.0)), Marcinkiewicz(math.inf, Power(-0.5))])
    def test_divergent_head_is_infinite_on_every_grid(self, spec):
        for grid in self.grids:
            assert norm(spec, chi01, grid) == math.inf

    def test_convergent_head_keeps_its_value(self):
        # sup_r r^{-1/2} min(r, 1) = 1 at r = 1; pinned bit for bit
        values = [norm(Marcinkiewicz(1.0, Power(-0.5)), chi01, grid) for grid in self.grids]
        assert values == [1.0, 0.9999999999999999]

    def test_critical_head_with_a_log_factor(self):
        # phi(r) r^{1/2} = (1 + ln 1/r)^{1/2} near 0: a log blow-up, still +inf
        assert norm(Marcinkiewicz(2.0, PowerLog(-0.5, 0.5)), chi01) == math.inf
        assert norm(Marcinkiewicz(2.0, PowerLog(-0.5, -0.5)), chi01) < math.inf


def test_spec_json_round_trip():
    specs = [
        Lpq(2.0, math.inf),
        LpqStar(3.0, 1.0),
        ClassicalLorentz(1.0, Power(-0.5)),
        GenLorentz(0.5, 1.0, Power(-2.0)),
        GenClassicalLorentz(2.0, PowerLog(0.0, 1.0), one),
        Marcinkiewicz(2.0, Power(-0.5)),
    ]
    for spec in specs:
        j = spec.to_json()
        back = norm_spec_from_json(j)
        assert type(back) is type(spec)
        assert back.to_json() == j
    assert Lpq(2.0, math.inf).to_json()["q"] == "inf"


@given(step_functions(), st.sampled_from([(2.0, 2.0), (2.0, 1.0), (3.0, math.inf)]))
def test_maximal_form_sandwich(f, pq):
    p, q = pq
    a = norm(Lpq(p, q), f)
    b = lpq_star_norm(p, q, f)
    if a == 0.0:
        assert b == 0.0
        return
    assert b >= a * (1.0 - 1e-9)
    assert b <= (p / (p - 1.0)) * a * (1.0 + 1e-9)


class TestIdentityRoutes:
    """The same norm computed through two independent code paths."""

    @given(step_functions(), st.sampled_from([0.5, 1.0, 2.0]))
    def test_flat_generalized_family_is_the_p_norm(self, f, p):
        got = norm(GenClassicalLorentz(p, one, one), f)
        assert got == pytest.approx(p_norm(f, p), rel=1e-12)

    @given(step_functions(), st.sampled_from([(2.0, -0.25), (3.0, -1.0 / 3.0)]))
    def test_flat_psi_reduces_to_marcinkiewicz(self, f, p_beta):
        p, beta = p_beta
        phi = Power(beta)
        got = norm(GenClassicalLorentz(p, one, phi), f)
        assert got == pytest.approx(norm(Marcinkiewicz(p, phi), f), rel=1e-12)

    @given(step_functions(), st.sampled_from([(2.0, 1.0), (3.0, 2.0)]))
    def test_power_weight_reduces_to_lpq(self, f, pq):
        p, q = pq
        spec = ClassicalLorentz(q, Power(1.0 / p - 1.0 / q))
        assert norm(spec, f) == pytest.approx(norm(Lpq(p, q), f), rel=1e-12)


class TestAssociateClassical:
    def test_pinned_values(self):
        assert assoc_classical(2.0, one, chi01) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert assoc_classical(1.0, one, chi01) == 1.0

    def test_sup_branch_can_diverge(self):
        assert assoc_classical(0.5, one, chi01) == math.inf

    def test_a_log_blow_up_at_zero_is_infinite(self):
        # F/Psi_1 ~ (1 + ln 1/s)^(1e-8) as s -> 0+: too slow for any two probes
        assert assoc_classical(1.0, PowerLog(0.0, -1e-8), chi01) == math.inf

    @pytest.mark.parametrize("p, exact", [(2.0, 0.8109785394444589), (3.0, 1.1582971772155293)])
    def test_a_tabulated_psi_off_the_grid_gives_one_value_on_every_grid(self, p, exact):
        # psi = 2 on (0, 0.37], 1 beyond: the edges take 0.37 from psi^p, not
        # from the grid; exact is (integral of (F/Psi_p^p)^{p'} psi^p)^{1/p'}
        # to 30 digits, with F = min(s, 1) and the closed tail past 1
        psi = Tabulated(PiecewiseFn([0.37, 5.0], [2.0, 1.0], right_value=1.0))
        coarse = assoc_classical(p, psi, chi01)
        fine = assoc_classical(p, psi, chi01, GeometricGrid(1e-4, 1e4, 256))
        assert fine == pytest.approx(coarse, rel=1e-13, abs=0.0)
        assert coarse == pytest.approx(exact, rel=1e-13, abs=0.0)


class TestAssociateGeneralized:
    def test_flat_case_reduces_to_an_origin_atom(self):
        res = assoc_generalized(2.0, one, one, chi01)
        assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert len(res.nu_used) == 1
        assert res.nu_used.locations[0] == 0.0
        # the phi hypotheses raise when they fail, so they carry no flag
        assert res.boundary_flags == {"origin_atom": True}
        assert sorted(res.to_json().keys()) == [
            "boundary_flags",
            "fit_report",
            "nu_used",
            "value",
        ]

    def test_flat_p2_is_the_maximal_function_norm(self):
        # psi = phi = 1, p = 2: the associate norm is ||f**||_2 exactly, and
        # wide f* cells below the grid's t_min need split panels to match it
        rng = np.random.default_rng(13)
        for _ in range(60):
            f = random_decreasing(rng)
            got = assoc_generalized(2.0, one, one, f).value
            assert got == pytest.approx(lpq_star_norm(2.0, 2.0, f), rel=1e-13)

    def test_rejects_inadmissible_phi(self):
        with pytest.raises(HypothesisViolated):
            assoc_generalized(2.0, one, Power(1.0), chi01)  # increasing
        with pytest.raises(HypothesisViolated):
            assoc_generalized(2.0, one, Power(-0.75), chi01)  # decays too fast

    def test_zero_function_gives_zero(self):
        zero = PiecewiseFn([1.0], [0.0])
        assert assoc_generalized(2.0, one, one, zero).value == 0.0

    def test_homogeneous_of_degree_one(self):
        f = PiecewiseFn([0.5, 2.0], [2.0, 0.5])
        base = assoc_generalized(2.0, one, Power(-0.25), f).value
        scaled = assoc_generalized(2.0, one, Power(-0.25), f.scaled(5.0)).value
        assert scaled == pytest.approx(5.0 * base, rel=1e-12)


class TestDualityOracle:
    def test_self_dual_pins(self):
        assert duality_oracle(Lpq(2.0, 2.0), chi01) == 1.0
        assert duality_oracle(GenClassicalLorentz(2.0, one, one), chi01) == 1.0

    def test_zero_function(self):
        assert duality_oracle(Lpq(2.0, 2.0), PiecewiseFn([1.0], [0.0])) == 0.0

    def test_seeded_equivalence_window(self):
        rep = verify_duality(2.0, one, one, n_functions=6, seed=3)
        assert rep.lower == pytest.approx(math.sqrt(2.0), rel=1e-9)
        assert rep.upper == pytest.approx(1.5602460361504824, rel=1e-9)
        assert rep.details["n_functions"] == 6
