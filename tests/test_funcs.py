"""Step functions: cell semantics, exact integrals, p-norms, merges."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import decreasing_functions, step_functions
from lorentzlab import (
    ConfigError,
    GeometricGrid,
    PiecewiseFn,
    indicator,
    integrate,
    p_norm,
    pointwise_merge,
)
from lorentzlab.errors import InvertedInterval


class TestCellSemantics:
    def test_cells_are_left_open_right_closed(self):
        f = indicator(1.0, 2.0)
        assert f(1.0) == 0.0
        assert f(1.5) == 1.0
        assert f(2.0) == 1.0
        assert f(2.5) == 0.0

    def test_origin_indicator_is_a_single_cell(self):
        f = indicator(0.0, 1.0)
        assert len(f) == 1
        assert f(1.0) == 1.0
        assert f(1.0 + 1e-9) == 0.0

    def test_right_value_extends_beyond_support(self):
        f = PiecewiseFn([1.0], [2.0], right_value=0.5)
        assert f(100.0) == 0.5
        assert f.support_measure() == math.inf

    def test_vectorized_evaluation(self):
        f = indicator(0.0, 1.0)
        np.testing.assert_array_equal(f(np.array([0.5, 1.0, 2.0])), [1.0, 1.0, 0.0])

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            indicator(0.0, 1.0)(0.0)


class TestValidation:
    @pytest.mark.parametrize(
        "bp,vals",
        [
            ([2.0, 1.0], [1.0, 1.0]),  # decreasing breakpoints
            ([0.0, 1.0], [1.0, 1.0]),  # first breakpoint at zero
            ([1.0], [-1.0]),  # negative value
            ([1.0], [math.nan]),  # NaN value
            ([1.0, 2.0], [1.0]),  # length mismatch
            ([], []),  # empty
        ],
    )
    def test_rejects_malformed(self, bp, vals):
        with pytest.raises(ConfigError):
            PiecewiseFn(bp, vals)

    def test_rejects_negative_right_value(self):
        with pytest.raises(ConfigError):
            PiecewiseFn([1.0], [1.0], right_value=-0.5)

    def test_rejects_inverted_indicator(self):
        with pytest.raises(ConfigError):
            indicator(3.0, 2.0)

    def test_infinite_values_allowed(self):
        f = PiecewiseFn([1.0], [math.inf])
        assert f(0.5) == math.inf


def test_json_round_trip():
    f = PiecewiseFn([0.5, 2.0, 8.0], [3.0, 1.0, 0.25], right_value=0.1)
    g = PiecewiseFn.from_json(f.to_json())
    np.testing.assert_array_equal(g.breakpoints, f.breakpoints)
    np.testing.assert_array_equal(g.values, f.values)
    assert g.right_value == f.right_value


def test_on_grid_extension_rules():
    grid = GeometricGrid(0.1, 10.0, 1)
    vals = np.arange(1.0, grid.n_cells + 1.0)
    f = PiecewiseFn.on_grid(grid, vals, right_extension="constant")
    assert f(0.05) == vals[0]
    assert f(100.0) == vals[-1]
    g = PiecewiseFn.on_grid(grid, vals, left_extension="zero")
    assert g(0.05) == 0.0
    assert g(100.0) == 0.0
    with pytest.raises(ConfigError):
        PiecewiseFn.on_grid(grid, vals[:-1])


def test_from_cells_keeps_lengths_verbatim():
    lengths = [0.3, 0.3, 0.4]
    f = PiecewiseFn.from_cells(lengths, [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(f.lengths, lengths)
    assert f.t_max == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        PiecewiseFn.from_cells([1.0, 0.0], [1.0, 1.0])


class TestIntegrate:
    def test_exact_on_cells(self):
        f = indicator(0.0, 1.0)
        assert integrate(f, 0.0, 1.0) == 1.0
        assert integrate(f, 0.25, 0.75) == 0.5
        assert integrate(f, 1.0, 5.0) == 0.0

    def test_inverted_interval_raises(self):
        with pytest.raises(InvertedInterval):
            integrate(indicator(0.0, 1.0), 2.0, 1.0)

    def test_positive_tail_diverges(self):
        f = PiecewiseFn([1.0], [1.0], right_value=0.5)
        assert integrate(f, 0.0, math.inf) == math.inf
        assert integrate(f, 0.0, 3.0) == 2.0

    @given(step_functions())
    def test_additive_in_the_interval(self, f):
        mid = float(f.breakpoints[len(f) // 2])
        total = integrate(f, 0.0, f.t_max)
        parts = integrate(f, 0.0, mid) + integrate(f, mid, f.t_max)
        assert math.isclose(total, parts, rel_tol=1e-12)


class TestPNorm:
    def test_pinned_values(self):
        f = indicator(0.0, 2.0)
        assert p_norm(f, 1.0) == 2.0
        assert p_norm(f, 2.0) == math.sqrt(2.0)
        assert p_norm(f, 0.5) == 4.0
        assert p_norm(f, math.inf) == 1.0

    def test_restricted_interval(self):
        f = PiecewiseFn([1.0, 2.0], [3.0, 1.0])
        assert p_norm(f, 1.0, r=1.5) == 3.5
        assert p_norm(f, math.inf, r=0.5) == 3.0

    def test_sup_norm_sees_the_tail(self):
        f = PiecewiseFn([1.0], [1.0], right_value=2.0)
        assert p_norm(f, math.inf) == 2.0

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            p_norm(indicator(0.0, 1.0), 0.0)

    @given(decreasing_functions(), st.sampled_from([0.5, 1.0, 2.0]))
    @example(PiecewiseFn([6.369979911527222], [1.7275895e-317]), 0.5)
    def test_positively_homogeneous(self, f, p):
        # a subnormal norm carries only a few digits, so it is compared to
        # within a few of its units (4.9e-324 each); normal ones to rel 1e-12
        c = 3.5
        assert math.isclose(p_norm(f.scaled(c), p), c * p_norm(f, p), rel_tol=1e-12, abs_tol=1e-320)


def test_pointwise_merge_product():
    f = indicator(0.0, 2.0)
    g = PiecewiseFn([1.0, 3.0], [0.0, 2.0])
    prod = pointwise_merge(f, g, np.multiply)
    assert prod(0.5) == 0.0
    assert prod(1.5) == 2.0
    assert prod(2.5) == 0.0
    assert integrate(prod, 0.0, math.inf) == 2.0


def test_powered_and_scaled():
    f = PiecewiseFn([1.0, 2.0], [4.0, 1.0], right_value=0.25)
    sq = f.powered(0.5)
    assert sq(0.5) == 2.0 and sq(3.0) == 0.5
    tripled = f.scaled(3.0)
    assert tripled(0.5) == 12.0 and tripled.right_value == 0.75
    zeroed = f.scaled(0.0)
    assert zeroed.support_measure() == 0.0
    with pytest.raises(ValueError):
        f.powered(0.0)
    with pytest.raises(ValueError):
        f.scaled(-1.0)
