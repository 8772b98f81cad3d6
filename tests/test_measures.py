"""Atomic measures, fundamental functions, and representation fits."""

import math

import numpy as np
import pytest

from lorentzlab import DiscreteMeasure, Power, fit_representation_measure
from lorentzlab.errors import FitFailed
from lorentzlab.measures import (
    PowerTail,
    fundamental_equiv_forms,
    fundamental_function,
    nondegeneracy_check,
)


class TestDiscreteMeasure:
    def test_total_and_tail_mass(self):
        nu = DiscreteMeasure([0.0, 1.0], [0.5, 1.0], tail=PowerTail(-2.0, 1.0))
        assert nu.tail_mass() == 1.0
        assert nu.total_mass() == 2.5

    def test_tail_after_an_origin_atom_starts_at_one(self):
        nu = DiscreteMeasure([0.0], [0.5], tail=PowerTail(-2.0, 1.0))
        assert nu.tail_cutoff == 1.0
        assert nu.tail_mass() == 1.0

    def test_slow_tail_has_infinite_mass(self):
        nu = DiscreteMeasure([1.0], [1.0], tail=PowerTail(-1.0, 1.0))
        assert nu.tail_mass() == math.inf

    @pytest.mark.parametrize(
        "loc,mas",
        [
            ([1.0, 1.0], [1.0, 1.0]),  # duplicate locations
            ([2.0, 1.0], [1.0, 1.0]),  # unsorted
            ([-1.0], [1.0]),  # negative location
            ([1.0], [0.0]),  # zero mass
            ([1.0], [-1.0]),  # negative mass
        ],
    )
    def test_rejects_malformed(self, loc, mas):
        with pytest.raises(ValueError):
            DiscreteMeasure(loc, mas)

    def test_json_round_trip(self):
        nu = DiscreteMeasure([0.0, 2.0], [1.0, 3.0], tail=PowerTail(-1.5, 0.5))
        nu2 = DiscreteMeasure.from_json(nu.to_json())
        np.testing.assert_array_equal(nu2.locations, nu.locations)
        np.testing.assert_array_equal(nu2.masses, nu.masses)
        assert nu2.tail == nu.tail

    def test_scaled(self):
        nu = DiscreteMeasure([1.0], [2.0]).scaled(3.0)
        assert nu.total_mass() == 6.0
        with pytest.raises(ValueError):
            nu.scaled(0.0)


class TestFundamentalFunction:
    def test_single_atom_harmonic_form(self):
        h = fundamental_function(DiscreteMeasure([1.0], [1.0]), Power(1.0))
        assert h(1.0) == 0.5
        assert h(3.0) == 0.75
        assert h(0.0) == 0.0

    def test_origin_atom_contributes_full_mass(self):
        h = fundamental_function(DiscreteMeasure([0.0], [2.0]), Power(1.0))
        for t in (1e-6, 1.0, 1e6):
            assert h(t) == 2.0

    def test_form_a_pinned_single_atom(self):
        forms = fundamental_equiv_forms(DiscreteMeasure([1.0], [1.0]), Power(1.0))
        assert forms(0.5)[0] == 0.5  # sigma(t) * (mass / sigma(atom))
        assert forms(2.0)[0] == 1.0  # atom now inside [0, t]

    def test_forms_bracket_the_fundamental_function(self):
        nu = DiscreteMeasure([0.1, 1.0, 30.0], [1.0, 0.5, 2.0])
        sig = Power(0.5)
        h = fundamental_function(nu, sig)
        forms = fundamental_equiv_forms(nu, sig)
        for t in np.geomspace(1e-3, 1e3, 25):
            a, b = forms(float(t))
            hv = h(float(t))
            assert hv * (1.0 - 1e-12) <= a <= 2.0 * hv * (1.0 + 1e-12)
            assert 0.45 * hv <= b <= 2.05 * hv


def test_nondegeneracy_flags():
    good = DiscreteMeasure([0.0], [1.0], tail=PowerTail(-1.0, 1.0))
    assert nondegeneracy_check(good, Power(1.0)).holds
    bad = DiscreteMeasure([1.0], [1.0])
    assert not nondegeneracy_check(bad, Power(1.0)).holds


class TestRepresentationFit:
    def test_constant_target_is_an_origin_atom(self):
        nu, rep = fit_representation_measure(
            lambda t: np.ones_like(np.asarray(t, float)), Power(1.0)
        )
        assert len(nu) == 1
        assert nu.locations[0] == 0.0
        assert nu.masses[0] == pytest.approx(1.0, rel=1e-9)
        assert rep.details["sup_log_ratio"] <= 1e-12

    def test_harmonic_target_recovers_its_atom(self):
        target = lambda t: np.asarray(t, float) / (1.0 + np.asarray(t, float))
        nu, rep = fit_representation_measure(target, Power(1.0))
        assert rep.details["sup_log_ratio"] <= 1e-12
        assert len(nu) == 1
        assert nu.locations[0] == pytest.approx(1.0, rel=0.05)
        assert nu.masses[0] == pytest.approx(1.0, rel=1e-6)

    def test_kinked_target_fails_honestly(self):
        with pytest.raises(FitFailed):
            fit_representation_measure(
                lambda t: np.minimum(1.0, np.asarray(t, float)), Power(1.0)
            )

    def test_refit_is_idempotent(self):
        target = lambda t: np.sqrt(np.asarray(t, float))
        nu, rep = fit_representation_measure(target, Power(1.0))
        achieved = fundamental_function(nu, Power(1.0))
        nu2, rep2 = fit_representation_measure(achieved, Power(1.0))
        assert rep2.details["sup_log_ratio"] <= 1e-9

    def test_report_carries_the_collocation_window(self):
        nu, rep = fit_representation_measure(
            lambda t: np.ones_like(np.asarray(t, float)), Power(1.0)
        )
        lo, hi = rep.details["interior"]
        assert lo == pytest.approx(1e-2) and hi == pytest.approx(1e2)
        assert "sup_log_ratio_full_range" in rep.details
