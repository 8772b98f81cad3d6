"""Decreasing rearrangement, distribution function, maximal function."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import step_functions
from lorentzlab import PiecewiseFn, indicator, p_norm, rearrangement
from lorentzlab.errors import DegenerateU, NonRearrangeable
from lorentzlab.rearrangement import (
    DecreasingFn,
    cumulative_eval,
    decreasing_rearrangement,
    distribution,
    maximal,
    weak_norm,
    weighted_maximal,
)
from lorentzlab.weights import Power, PowerLog, Tabulated

chi01 = indicator(0.0, 1.0)


def test_rearrangement_pinned_example():
    f = PiecewiseFn.from_cells([1.0, 1.0, 2.0], [1.0, 3.0, 2.0])
    fs = decreasing_rearrangement(f).fn
    np.testing.assert_array_equal(fs.values, [3.0, 2.0, 1.0])
    np.testing.assert_array_equal(fs.lengths, [1.0, 2.0, 1.0])
    np.testing.assert_array_equal(fs.breakpoints, [1.0, 3.0, 4.0])


def test_distribution_pinned():
    f = PiecewiseFn.from_cells([1.0, 1.0, 2.0], [1.0, 3.0, 2.0])
    assert distribution(f, 0.0) == 4.0
    assert distribution(f, 1.0) == 3.0
    assert distribution(f, 2.0) == 1.0
    assert distribution(f, 2.5) == 1.0
    assert distribution(f, 3.0) == 0.0


def test_distribution_diverges_below_the_tail_value():
    f = PiecewiseFn([1.0], [2.0], right_value=1.0)
    assert distribution(f, 0.5) == math.inf
    assert distribution(f, 1.0) == 1.0


def test_distribution_rejects_bad_levels():
    with pytest.raises(ValueError):
        distribution(chi01, -1.0)
    with pytest.raises(ValueError):
        distribution(chi01, math.nan)


def test_decreasing_fn_validates_monotonicity():
    with pytest.raises(NonRearrangeable):
        DecreasingFn(PiecewiseFn([1.0, 2.0], [1.0, 2.0]))
    ok = DecreasingFn(PiecewiseFn([1.0, 2.0], [2.0, 1.0]))
    assert ok.fn(1.5) == 1.0


@given(step_functions())
def test_rearrangement_is_equimeasurable(f):
    fs = decreasing_rearrangement(f).fn
    levels = np.unique(np.concatenate([[0.0], f.values, 0.5 * f.values]))
    for a in levels:
        assert distribution(f, float(a)) == distribution(fs, float(a))


@given(step_functions(), st.sampled_from([0.5, 1.0, 2.0, math.inf]))
def test_rearrangement_preserves_p_norms(f, p):
    fs = decreasing_rearrangement(f).fn
    assert p_norm(f, p) == pytest.approx(p_norm(fs, p), rel=1e-12)


class TestMaximal:
    def test_pinned_values(self):
        m = maximal(decreasing_rearrangement(chi01))
        assert m(0.5) == 1.0
        assert m(2.0) == 0.5
        assert m.cumulative(3.0) == 1.0
        with pytest.raises(ValueError):
            m(0.0)

    def test_dominates_and_decreases(self):
        fs = decreasing_rearrangement(PiecewiseFn([1.0, 2.0], [3.0, 1.0]))
        m = maximal(fs)
        ts = np.geomspace(1e-3, 1e3, 40)
        vals = m(ts)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals >= fs.fn(ts) * (1.0 - 1e-15))


def test_cumulative_eval_exact():
    f = PiecewiseFn([1.0, 2.0], [2.0, 1.0])
    got = cumulative_eval(f, [0.5, 1.0, 1.5, 4.0])
    np.testing.assert_array_equal(got, [1.0, 2.0, 2.5, 3.0])


class TestWeightedMaximal:
    def test_flat_weight_matches_plain_maximal(self):
        fs = decreasing_rearrangement(PiecewiseFn([0.5, 2.0], [2.0, 0.5]))
        m = maximal(fs)
        mu = weighted_maximal(fs, Power(0.0))
        for t in (0.1, 1.0, 10.0):
            assert mu(t) == pytest.approx(m(t), rel=1e-14)

    def test_degenerate_weight_raises(self):
        fs = decreasing_rearrangement(chi01)
        mu = weighted_maximal(fs, Tabulated(indicator(1.0, 2.0)))
        with pytest.raises(DegenerateU):
            mu(0.5)

    @pytest.mark.parametrize(
        "u",
        [Power(0.0), Power(0.5), Power(-0.5), PowerLog(0.2, 1.0), Tabulated(PiecewiseFn([0.3, 5.0], [2.0, 0.5], 0.25))],
        ids=["flat", "power", "singular", "powerlog", "tabulated"],
    )
    def test_an_array_t_equals_the_float_calls(self, u):
        t = np.array([1e-3, 0.05, 0.5, 1.0, 1.7, 3.0, 40.0, 1e3])
        for f in (chi01, PiecewiseFn([0.5, 2.0], [3.0, 1.0]), PiecewiseFn([0.1, 2.0], [3.0, 1.0], 0.5)):
            mu = weighted_maximal(decreasing_rearrangement(f), u)
            assert mu(t).tolist() == [mu(float(x)) for x in t]

    def test_an_array_t_takes_one_call_for_each_integral(self, monkeypatch):
        calls = []

        def counted(name):
            real = getattr(rearrangement, name)
            return lambda *args: calls.append(name) or real(*args)

        for name in ("product_cumulative", "_cumulative_at"):
            monkeypatch.setattr(rearrangement, name, counted(name))
        mu = weighted_maximal(decreasing_rearrangement(chi01), Power(0.5))
        mu(np.geomspace(1e-3, 1e3, 50))
        assert sorted(calls) == ["_cumulative_at", "product_cumulative"]

    def test_u_zero_or_infinite_at_any_point_raises(self):
        fs = decreasing_rearrangement(chi01)
        for u, t in (
            (Tabulated(indicator(1.0, 2.0)), [1.5, 0.5, 3.0]),  # U(0.5) = 0
            (Tabulated(PiecewiseFn([1.0, 2.0], [1.0, math.inf])), [0.5, 1.5]),  # U(1.5) = inf
        ):
            mu = weighted_maximal(fs, u)
            with pytest.raises(DegenerateU):
                mu(np.array(t))


def test_weak_norm_pinned():
    assert weak_norm(chi01, 2.0) == 1.0
    f = PiecewiseFn([1.0, 3.0], [2.0, 1.0])
    assert weak_norm(f, 1.0) == 3.0
