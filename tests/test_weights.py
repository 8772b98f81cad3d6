"""Weight kinds: exact cumulatives, powers, cell sups, serialization."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import lorentzlab.funcs
import lorentzlab.weights
from conftest import decreasing_corpus, step_corpus
from lorentzlab import (
    PiecewiseFn,
    Power,
    PowerLog,
    Tabulated,
    WeightProfile,
    ess_sup_weighted,
    indicator,
    integrate,
    pointwise_merge,
    power_integral,
    product_cumulative,
    weight_from_json,
)
from lorentzlab.errors import ConfigError, InvertedInterval, NonIntegrableNearZero


class TestPowerIntegral:
    def test_closed_forms(self):
        assert power_integral(1.0, 0.0, 2.0) == 2.0
        assert power_integral(-0.5, 0.0, 1.0) == 2.0
        assert power_integral(-1.0, 1.0, math.e) == 1.0
        assert power_integral(-2.0, 1.0, math.inf) == 1.0

    def test_divergences_and_guards(self):
        assert power_integral(0.0, 1.0, math.inf) == math.inf
        with pytest.raises(NonIntegrableNearZero):
            power_integral(-1.0, 0.0, 1.0)
        with pytest.raises(InvertedInterval):
            power_integral(1.0, 2.0, 1.0)

    def test_a_power_past_the_float_range_is_infinite(self):
        # hi^5 at hi = 1e300 and lo^-2 at lo = 1e-300 overflow a float; each
        # integral is +inf, as the numpy kinds give
        assert power_integral(4.0, 1.0, 1e300) == math.inf
        assert power_integral(-3.0, 1e-300, 1.0) == math.inf
        assert power_integral(-3.0, 1e-300, math.inf) == math.inf
        assert Power(4.0).cumulative(1.0, 1e300) == math.inf
        assert power_integral(4.0, 1.0, 1e60) == pytest.approx(2e299, rel=1e-15)


class TestPower:
    def test_pointwise_and_cumulative(self):
        w = Power(0.5)
        assert w(4.0) == 2.0
        assert w.cumulative(0.0, 4.0) == pytest.approx(16.0 / 3.0, rel=1e-15)

    def test_pow_composes_exponents(self):
        assert Power(0.5).pow(2.0).alpha == 1.0

    def test_cell_sup_by_monotonicity(self):
        assert Power(1.0).cell_sup(0.0, 2.0) == 2.0
        assert Power(-1.0).cell_sup(0.5, 2.0) == 2.0
        assert Power(-1.0).cell_sup(0.0, 1.0) == math.inf

    def test_limits_and_tail(self):
        assert Power(2.0).limit_zero() == 0.0
        assert Power(2.0).limit_inf() == math.inf
        assert Power(2.0).tail_power() == (1.0, 2.0)

    def test_rejects_nonfinite_exponent(self):
        with pytest.raises(ConfigError):
            Power(math.inf)


class TestPowerLog:
    def test_plain_power_above_one(self):
        assert PowerLog(2.0, 3.0)(5.0) == 25.0
        assert PowerLog(0.0, 1.0)(1.0) == 1.0

    def test_log_factor_below_one(self):
        w = PowerLog(0.0, 1.0)
        assert w(math.exp(-1.0)) == pytest.approx(2.0, rel=1e-14)

    def test_cumulative_is_additive(self):
        w = PowerLog(0.5, 2.0)
        whole = w.cumulative(0.0, 3.0)
        split = w.cumulative(0.0, 0.7) + w.cumulative(0.7, 3.0)
        assert whole == pytest.approx(split, rel=1e-12)

    def test_cumulative_matches_quadrature(self):
        w = PowerLog(-0.25, 1.5)
        exact = float(mpmath.quad(lambda t: float(w(float(t))), [0.0, 1.0]))
        assert w.cumulative(0.0, 1.0) == pytest.approx(exact, rel=1e-9)

    def test_nonintegrable_near_zero(self):
        with pytest.raises(NonIntegrableNearZero):
            PowerLog(-1.0, 0.5).cumulative(0.0, 1.0)

    @pytest.mark.parametrize(
        "alpha, beta, lo, hi",
        [(-1.5, 1.0, 1e-4, 1.0), (-2.0, 2.0, 1e-3, 1.0), (-1.2, -0.5, 1e-6, 0.3), (-3.0, 0.5, 0.01, 2.0)],
    )
    def test_cumulative_below_minus_one_matches_quadrature(self, alpha, beta, lo, hi):
        # alpha < -1: the head integral away from 0, against scipy's quad in
        # u = ln t, where the integrand is e^((alpha+1)u) (1 - u)^beta below 1
        w = PowerLog(alpha, beta)
        head, _ = quad(lambda u: math.exp((alpha + 1.0) * u) * (1.0 - u) ** beta,
                       math.log(lo), math.log(min(hi, 1.0)), epsabs=0.0, epsrel=1e-13)
        far = (hi ** (alpha + 1.0) - 1.0) / (alpha + 1.0) if hi > 1.0 else 0.0
        assert w.cumulative(lo, hi) == pytest.approx(head + far, rel=1e-10)

    @pytest.mark.parametrize("alpha, beta, lo, hi", [(0.2, -1.0, 0.4999, 0.5), (0.0, 1.0, 0.5 * (1.0 - 1e-9), 0.5)])
    def test_a_narrow_cell_matches_the_40_digit_quadrature(self, alpha, beta, lo, hi):
        # a difference of two incomplete gammas cancels on a narrow cell: it
        # raised NotImplementedError on the first and was 1.1e-7 off on the second
        want = _powerlog_reference(alpha, beta, lo, hi)
        assert PowerLog(alpha, beta).cumulative(lo, hi) == pytest.approx(want, rel=1e-13, abs=0.0)


def _powerlog_reference(alpha, beta, lo, hi):
    """integral over (lo, hi] of PowerLog(alpha, beta) to 40 digits.  Below 1,
    in u = ln t: from 0 the incomplete gamma e^lam lam^-(beta+1)
    Gamma(beta+1, lam (1 - u)) (a power of 1 - u when lam = alpha + 1 = 0),
    otherwise mpmath.quad of e^(lam u) (1 - u)^beta with e^(lam ln lo) taken
    out, since quad's tolerance is absolute.  Past 1, the power closed form."""
    with mpmath.workdps(40):
        lam = mpmath.mpf(alpha) + 1
        lo_m, hi_m = mpmath.mpf(lo), mpmath.mpf(hi)
        head_hi = min(hi_m, mpmath.mpf(1))
        total = mpmath.mpf(0)
        if lo_m < head_hi and lo == 0.0:
            x0 = 1 - mpmath.log(head_hi)
            if lam == 0:
                total += -x0 ** (beta + 1) / (beta + 1)
            else:
                total += mpmath.e ** lam * lam ** -(beta + 1) * mpmath.gammainc(beta + 1, lam * x0)
        elif lo_m < head_hi:
            a, width = mpmath.log(lo_m), mpmath.log(head_hi / lo_m)
            shifted = lambda v: mpmath.exp(lam * v) * (1 - a - v) ** beta  # noqa: E731
            pieces = mpmath.linspace(0, width, int(width) + 2)
            total += mpmath.exp(lam * a) * mpmath.quad(shifted, pieces, method="gauss-legendre")
        if hi_m > 1:
            a = max(lo_m, mpmath.mpf(1))
            total += mpmath.log(hi_m / a) if lam == 0 else (hi_m ** lam - a ** lam) / lam
        return float(total)


class TestPowerLogKernel:
    """cumulative_pairs: from 0 by a knot table at e^-j and one Gauss-Legendre
    panel in u = ln t, other cells directly, the power closed form past 1."""

    rng = np.random.default_rng(12)
    # (alpha, beta): the extremes, beta = -1, alpha + 1 = 0 and below, and seeded draws
    params = [(-0.99, -2.5), (3.0, 2.0), (0.2, -1.0), (-1.0, -2.0), (-1.5, 1.0)] + [
        (round(float(a), 3), round(float(b), 3)) for a, b in zip(rng.uniform(-0.9, 2.5, 3), rng.uniform(-2.5, 2.0, 3))
    ]
    points = np.geomspace(1e-14, 1e2, 8) * rng.uniform(0.8, 1.25, 8)

    @staticmethod
    def _from_zero(alpha, beta):
        return alpha > -1.0 or (alpha == -1.0 and beta < -1.0)

    @pytest.mark.parametrize("alpha, beta", params)
    def test_prefixes_match_the_40_digit_reference(self, alpha, beta):
        if not self._from_zero(alpha, beta):
            with pytest.raises(NonIntegrableNearZero):
                PowerLog(alpha, beta).cumulative_pairs(np.zeros(2), np.array([0.5, 2.0]))
            return
        points = np.append(self.points, 1e-20)  # below the deepest knot e^-40
        got = PowerLog(alpha, beta).cumulative_pairs(np.zeros(len(points)), points)
        for t, value in zip(points.tolist(), got.tolist()):
            assert value == pytest.approx(_powerlog_reference(alpha, beta, 0.0, t), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha, beta", params)
    def test_cells_match_the_40_digit_reference_down_to_relative_width_1e_9(self, alpha, beta):
        lo = np.repeat(self.points, 3)
        hi = lo * np.tile([1.0 + 1e-9, 1.5, 30.0], len(self.points))
        got = PowerLog(alpha, beta).cumulative_pairs(lo, hi)
        for a, b, value in zip(lo.tolist(), hi.tolist(), got.tolist()):
            assert value == pytest.approx(_powerlog_reference(alpha, beta, a, b), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("alpha, beta", params)
    def test_values_do_not_depend_on_the_batch(self, alpha, beta):
        rng = np.random.default_rng(31)
        hi = np.exp(rng.uniform(math.log(1e-20), math.log(1e2), 120))
        lo = hi * rng.uniform(0.0, 1.0, len(hi))
        if self._from_zero(alpha, beta):
            lo[::3] = 0.0
        w = PowerLog(alpha, beta)
        full = w.cumulative_pairs(lo, hi)
        order = rng.permutation(len(hi))
        assert w.cumulative_pairs(lo[order], hi[order]).tolist() == full[order].tolist()
        for n in (1, 5, 64):
            assert w.cumulative_pairs(lo[:n], hi[:n]).tolist() == full[:n].tolist()
        assert [w.cumulative(a, b) for a, b in zip(lo.tolist(), hi.tolist())] == full.tolist()


def _corpus_cells():
    """Seeded step functions, each also with a positive right value, plus a
    function with a +inf cell."""
    fns = decreasing_corpus(8, seed=3) + step_corpus(8, seed=4)
    fns += [PiecewiseFn(f.breakpoints, f.values, right_value=0.5) for f in fns[::3]]
    return fns + [PiecewiseFn([1.0, 2.0, 4.0], [math.inf, 3.0, 0.0], right_value=2.0)]


def _pairs(fn, rng):
    """Intervals with ends at breakpoints, 0, inf and random points, including
    empty ones (lo == hi)."""
    pts = np.concatenate([[0.0], fn.breakpoints, rng.uniform(0.0, 2.0 * fn.t_max, 6), [math.inf]])
    lo, hi = np.meshgrid(pts, pts)
    keep = lo <= hi
    return lo[keep], hi[keep]


class TestTabulated:
    def test_wraps_its_step_function(self):
        w = Tabulated(indicator(0.0, 1.0))
        assert w(0.5) == 1.0 and w(2.0) == 0.0
        assert w.cumulative(0.0, math.inf) == 1.0
        assert w.cell_sup(0.5, 3.0) == 1.0
        assert w.limit_zero() == 1.0
        assert w.limit_inf() == 0.0
        assert w.tail_power() is None

    def test_constant_tail_is_a_power(self):
        w = Tabulated(PiecewiseFn([1.0], [2.0], right_value=0.5))
        assert w.tail_power() == (0.5, 0.0)

    def test_cumulative_pairs_equals_integrate_in_one_pass(self, monkeypatch):
        rng = np.random.default_rng(21)
        cases = [(Tabulated(f), *_pairs(f, rng)) for f in _corpus_cells()]
        wants = [[integrate(w.fn, a, b) for a, b in zip(lo, hi)] for w, lo, hi in cases]
        assert any(math.inf in want for want in wants)

        def per_pair(*args):
            raise AssertionError("cumulative_pairs fell back to one integrate per pair")

        monkeypatch.setattr(lorentzlab.weights, "integrate", per_pair)
        for (w, lo, hi), want in zip(cases, wants):
            assert w.cumulative_pairs(lo, hi).tolist() == want
        # the same errors as integrate
        w = Tabulated(indicator(0.0, 1.0))
        with pytest.raises(InvertedInterval):
            w.cumulative_pairs(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            w.cumulative_pairs(np.array([-1.0]), np.array([1.0]))
        assert w.cumulative_pairs(np.array([]), np.array([])).tolist() == []


def test_head_power_of_each_kind():
    assert Power(-0.5).head_power() == (-0.5, 0.0)
    assert PowerLog(0.5, -2.0).head_power() == (0.5, -2.0)
    assert Tabulated(indicator(0.0, 1.0)).head_power() == (0.0, 0.0)
    assert Tabulated(indicator(1.0, 2.0)).head_power() is None  # zero near 0


def test_json_round_trip_all_kinds():
    ts = np.array([0.25, 0.75, 1.5, 3.0])
    for w in (Power(-0.5), PowerLog(1.0, -2.0), Tabulated(indicator(0.5, 2.0))):
        w2 = weight_from_json(w.to_json())
        np.testing.assert_array_equal(np.asarray(w2(ts)), np.asarray(w(ts)))


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        weight_from_json({"kind": "gaussian"})
    with pytest.raises(ConfigError):
        weight_from_json({})


class TestProductCumulative:
    def test_symbolic_weight_exact(self):
        f = indicator(0.0, 1.0)
        assert product_cumulative(f, Power(-0.5), 0.0, 1.0) == 2.0
        assert product_cumulative(f, Power(-0.5), 0.0, math.inf) == 2.0

    def test_tabulated_weight_merges_cells(self):
        f = indicator(0.0, 2.0)
        w = Tabulated(PiecewiseFn([1.0, 3.0], [2.0, 4.0]))
        assert product_cumulative(f, w, 0.0, math.inf) == 6.0

    def test_zero_cells_mask_divergent_weight(self):
        f = indicator(1.0, 2.0)  # vanishes on (0, 1]
        got = product_cumulative(f, Power(-1.0), 0.0, 2.0)
        assert got == pytest.approx(math.log(2.0), rel=1e-15)

    def test_tail_contributions(self):
        f = PiecewiseFn([1.0], [0.0], right_value=1.0)
        assert product_cumulative(f, Power(-2.0), 0.0, math.inf) == 1.0
        assert product_cumulative(f, Power(0.0), 0.0, math.inf) == math.inf

    @pytest.mark.parametrize(
        "w",
        [Power(-0.5), Power(0.0), PowerLog(0.2, 1.0), Tabulated(PiecewiseFn([0.3, 5.0], [2.0, 0.5], 0.25))],
        ids=["power", "flat", "powerlog", "tabulated"],
    )
    def test_array_b_equals_the_float_calls(self, w):
        rng = np.random.default_rng(8)
        for f in _corpus_cells()[::2]:
            for a in (0.0, float(f.breakpoints[0])):
                b = np.concatenate([[a], f.breakpoints[f.breakpoints >= a], a + rng.uniform(0, f.t_max, 4), [math.inf]])
                want = [product_cumulative(f, w, a, float(t)) for t in b]
                assert product_cumulative(f, w, a, b).tolist() == want
                assert product_cumulative(f, w, a, b[:0]).tolist() == []

    def test_a_tabulated_weight_takes_one_cumulative_pairs_call_and_no_merge(self, monkeypatch):
        w = Tabulated(PiecewiseFn([0.3, 5.0], [2.0, 0.5], 0.25))
        calls = []
        real = Tabulated.cumulative_pairs

        def counted(self, lo, hi):
            calls.append(self is w)
            return real(self, lo, hi)

        def merge(*args):
            raise AssertionError("product_cumulative merged the step functions")

        monkeypatch.setattr(Tabulated, "cumulative_pairs", counted)
        for module in (lorentzlab.funcs, lorentzlab.weights):
            monkeypatch.setattr(module, "pointwise_merge", merge, raising=False)
        for f in _corpus_cells()[:-1]:
            calls.clear()
            product_cumulative(f, w, 0.0, np.append(f.breakpoints, [2.0 * f.t_max, math.inf]))
            assert calls == [True]

    def test_a_tabulated_weight_agrees_with_the_merged_product(self):
        # the reference: integrate the cell-by-cell product on the union breakpoints
        rng = np.random.default_rng(9)
        for w in (Tabulated(PiecewiseFn([0.3, 5.0], [2.0, 0.5], 0.25)), Tabulated(indicator(0.1, 10.0))):
            for f in _corpus_cells()[:-1]:
                merged = pointwise_merge(f, w.fn, np.multiply)
                for a in (0.0, float(f.breakpoints[0])):
                    ends = np.concatenate([f.breakpoints[f.breakpoints > a], a + rng.uniform(0, 2 * f.t_max, 3), [math.inf]])
                    for b in ends.tolist():
                        want = integrate(merged, a, b)
                        assert product_cumulative(f, w, a, b) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_array_b_below_a_is_inverted(self):
        with pytest.raises(InvertedInterval):
            product_cumulative(indicator(0.0, 1.0), Power(0.0), 0.5, np.array([1.0, 0.25]))


def test_ess_sup_weighted_pinned():
    f = indicator(0.0, 1.0)
    assert ess_sup_weighted(f, Power(1.0)) == 1.0
    assert ess_sup_weighted(f, Power(-0.5)) == math.inf
    assert ess_sup_weighted(f, Power(1.0), (0.0, 0.5)) == 0.5
    g = PiecewiseFn([1.0], [1.0], right_value=0.5)
    assert ess_sup_weighted(g, Power(1.0)) == math.inf


class TestWeightProfile:
    def test_flat_weight(self):
        prof = WeightProfile(Power(0.0), 2.0)
        assert prof.big_p(4.0) == 4.0
        assert prof.big(4.0) == 2.0
        assert prof.big_p_inf() == math.inf

    def test_powered_density(self):
        prof = WeightProfile(Power(-0.25), 2.0)  # density t^{-1/2}
        assert prof.big_p(1.0) == 2.0
        assert prof(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            WeightProfile(Power(0.0), 0.0)
