"""Reverse Hardy-type constants, the zeta comparison chain, and the verifier."""

import bisect
import math

import mpmath
import numpy as np
import pytest

import lorentzlab
from conftest import decreasing_corpus
from lorentzlab import (
    DEFAULT_GRID,
    DiscreteMeasure,
    HardyProblem,
    PiecewiseFn,
    Power,
    PowerLog,
    Tabulated,
    ZetaFn,
    indicator,
)
from lorentzlab.errors import BranchMismatch, DegenerateU
from lorentzlab.hardy import (
    _GL_W,
    _GL_X,
    Zeta1Fn,
    _gl_cells,
    _limit,
    _merged_edges,
    _Ratio,
    _SuffixIntegral,
    a1_constant,
    a2_constant,
    envelope_ratio,
    lhs_rhs,
    parts_identity_sides,
    verify_reverse_hardy,
    zeta,
    zeta1,
    zeta_specialized,
)

one = Power(0.0)
chi01 = indicator(0.0, 1.0)
d1 = DiscreteMeasure([1.0], [1.0])


class TestHardyProblem:
    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            HardyProblem(0.0, one, one, one, d1)
        with pytest.raises(DegenerateU):
            HardyProblem(1.0, Tabulated(indicator(1.0, 2.0)), one, one, d1)

    def test_branch_split(self):
        assert HardyProblem(1.0, one, one, one, d1).branch == 1
        assert HardyProblem(0.5, one, one, one, d1).branch == 2

    def test_json_round_trip(self):
        prob = HardyProblem(2.0, one, Power(0.5), Tabulated(chi01), d1)
        back = HardyProblem.from_json(prob.to_json())
        assert back.q == 2.0
        assert back.branch == 1
        assert len(back.nu) == 1
        assert back.w(0.5) == 1.0

    def test_fitted_measure_carries_its_report(self):
        prob = HardyProblem.with_fitted_measure(1.0, one, one, one)
        assert prob.fit_report is not None
        assert prob.fit_report.details["sup_log_ratio"] <= math.log(1.1)


class TestUpperConstantBranchOne:
    def test_matched_weights_give_unit_constant(self):
        assert a1_constant(HardyProblem(1.0, one, one, one, d1)) == 1.0

    def test_scales_linearly_in_the_measure(self):
        nu4 = DiscreteMeasure([1.0], [4.0])
        assert a1_constant(HardyProblem(1.0, one, one, one, nu4)) == 4.0

    def test_off_grid_atom_is_exact(self):
        prob = HardyProblem(2.0, one, one, Tabulated(chi01), DiscreteMeasure([2.0], [1.0]))
        assert a1_constant(prob) == 0.5  # sup_{s>2} W(s)/s^2 = 1/4, then sqrt

    def test_empty_measure_gives_zero(self):
        prob = HardyProblem(1.0, one, one, one, DiscreteMeasure([], []))
        assert a1_constant(prob) == 0.0

    def test_rejects_the_other_branch(self):
        with pytest.raises(BranchMismatch):
            a1_constant(HardyProblem(0.5, one, one, one, d1))


class TestUpperConstantBranchTwo:
    def test_pinned_value(self):
        prob = HardyProblem(0.5, one, one, Tabulated(chi01), DiscreteMeasure([1.0], [9.0]))
        assert a2_constant(prob) == 81.0  # (9 * zeta(1)/U(1)^q)^{1/q}, zeta(1) = 1

    def test_flags(self):
        prob = HardyProblem(0.5, one, one, Tabulated(chi01), DiscreteMeasure([1.0], [9.0]))
        value, flags = a2_constant(prob, with_flags=True)
        assert value == 81.0
        assert flags == {"origin_atom_at_t_min": False, "tail_divergent": False}

    def test_divergent_tail_reported(self):
        prob = HardyProblem(0.5, one, one, one, DiscreteMeasure([1.0], [1.0]))
        value, flags = a2_constant(prob, with_flags=True)
        assert value == math.inf
        assert flags["tail_divergent"]

    def test_rejects_the_other_branch(self):
        with pytest.raises(BranchMismatch):
            a2_constant(HardyProblem(1.0, one, one, one, d1))


class TestZeta:
    def test_pinned_values_for_truncated_weight(self):
        prob = HardyProblem(0.5, one, one, Tabulated(chi01), DiscreteMeasure([], []))
        zf = zeta(prob)
        assert not zf.tail_divergent
        assert zf(0.5) == 1.0  # W + U^q (tail integral)^{1-q} = 1/2 + 1/2
        assert zf(1.0) == 1.0

    def test_flat_weight_tail_diverges(self):
        zf = zeta(HardyProblem(0.5, one, one, one, DiscreteMeasure([], [])))
        assert zf.tail_divergent
        assert zf(1.0) == math.inf

    def test_defined_only_below_q_one(self):
        with pytest.raises(BranchMismatch):
            zeta(HardyProblem(1.0, one, one, one, d1))


def test_lhs_rhs_pinned_and_homogeneous():
    prob = HardyProblem(1.0, one, one, one, d1)
    assert lhs_rhs(prob, chi01) == (1.0, 1.0)
    f = PiecewiseFn([0.5, 2.0], [3.0, 1.0])
    l0, r0 = lhs_rhs(prob, f)
    for lam in (3.7, 1e-3, 250.0):
        l1, r1 = lhs_rhs(prob, f.scaled(lam))
        assert l1 == pytest.approx(lam * l0, rel=1e-12)
        assert r1 == pytest.approx(lam * r0, rel=1e-12)


def test_lhs_rhs_tail_of_an_unbounded_f_is_f_at_infinity_times_the_limit_of_v():
    # f = 2 on (0, 1], 1 beyond: P ~ f(inf) U, so f_u** v -> 1 * lim v
    d0 = DiscreteMeasure([0.0], [1.0])
    f = PiecewiseFn([1.0], [2.0], right_value=1.0)
    assert lhs_rhs(HardyProblem(1.0, one, one, Tabulated(chi01), d0), f) == (2.0, 2.0)
    assert lhs_rhs(HardyProblem(1.0, one, Power(0.5), Tabulated(chi01), d0), f)[1] == math.inf


def test_lhs_rhs_keeps_an_infinite_rhs_at_a_breakpoint():
    # f = +inf on (0, 1]: f_u** is +inf at every candidate point where v = 1,
    # and no finite number may stand in for it
    f = PiecewiseFn([1.0, 2.0], [math.inf, 1.0])
    prob = HardyProblem(1.0, one, Tabulated(indicator(0.5, 3.0)), one, d1)
    assert lhs_rhs(prob, f) == (math.inf, math.inf)


class TestCallCounts:
    """The prefix integrals of lhs_rhs and the cumulatives of a ZetaFn build
    are batched: the number of calls does not grow with the point count."""

    def test_lhs_rhs_makes_at_most_three_product_cumulative_calls(self, monkeypatch):
        calls = []
        real = lorentzlab.hardy.product_cumulative

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(lorentzlab.hardy, "product_cumulative", counted)
        prob = HardyProblem(0.5, Power(0.5), Power(0.75), Tabulated(chi01), d1)
        many_cells = PiecewiseFn(np.geomspace(1e-3, 1e3, 400), np.geomspace(1e2, 1e-2, 400))
        for f in decreasing_corpus(4, seed=2) + [chi01, many_cells]:
            calls.clear()
            lhs_rhs(prob, f)
            assert len(calls) <= 3

    def test_zeta_build_on_a_tabulated_w_never_integrates_per_point(self, monkeypatch):
        calls = []
        real = lorentzlab.funcs.integrate

        def counted(*args):
            calls.append(1)
            return real(*args)

        for module in (lorentzlab.funcs, lorentzlab.weights):
            monkeypatch.setattr(module, "integrate", counted)
        bump = Tabulated(indicator(0.1, 10.0))  # criterion 07's bump-w problem
        ZetaFn(HardyProblem(0.75, one, Power(0.5), bump, d1))
        assert calls == []


class TestZetaOne:
    def test_pinned_closed_form(self):
        # p = 2, psi = 1, f = chi_(0,1]: zeta1(t)^2 = t (2 - t) on (0, 1]
        z1 = zeta1(chi01, one, 2.0)
        assert z1.inner_integral(0.0) == pytest.approx(2.0, rel=1e-12)
        assert z1(0.5) ** 2 == pytest.approx(0.75, rel=1e-12)
        assert z1(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_specialization_requires_p_above_one(self):
        with pytest.raises(BranchMismatch):
            zeta_specialized(chi01, one, 1.0)

    def test_two_sided_comparison_with_zeta(self):
        # The pointwise two-sided bounds between zeta1 and the specialized
        # zeta: zeta1 <= p^{1/p'} zeta and zeta <= ((p-1)^{-1/p'} + p^{-1/p'}) zeta1.
        p = 2.0
        pp = p / (p - 1.0)
        fwd = p ** (1.0 / pp)
        rev = (p - 1.0) ** (-1.0 / pp) + p ** (-1.0 / pp)
        zf = zeta_specialized(chi01, one, p)
        z1 = zeta1(chi01, one, p)
        for t in np.geomspace(1e-4, 1e2, 13):
            a, b = z1(float(t)), zf(float(t))
            assert a <= fwd * b * (1.0 + 1e-9)
            assert b <= rev * a * (1.0 + 1e-9)

    def test_comparison_constant_is_attained_near_zero(self):
        # At small t the ratio approaches sqrt(2 - t) / (sqrt(t) + sqrt(1 - t)),
        # which exceeds 1: the two functions are equivalent, not ordered.
        zf = zeta_specialized(chi01, one, 2.0)
        z1 = zeta1(chi01, one, 2.0)
        t = 1e-4
        expected = math.sqrt(2.0 - t) / (math.sqrt(t) + math.sqrt(1.0 - t))
        assert z1(t) / zf(t) == pytest.approx(expected, rel=1e-9)
        assert z1(t) / zf(t) > 1.0


def test_parts_identity_pinned():
    # p = 2, psi = 1, f = chi_(0,1]: both sides reduce to 1 - t on (0, 1).
    for t in (0.0, 0.25, 0.75):
        lhs, rhs = parts_identity_sides(chi01, one, 2.0, t)
        assert lhs == pytest.approx(1.0 - t, rel=1e-9)
        assert rhs == pytest.approx(1.0 - t, rel=1e-9)


def test_envelope_ratio_is_a_sharp_unit_bound():
    ts = np.array([1e-3, 0.5, 1.0, 2.0])
    er = envelope_ratio(chi01, one, 2.0, ts)
    assert np.all(er <= 1.0 + 1e-12)
    assert er[-1] == pytest.approx(1.0, rel=1e-12)


def test_verify_reverse_hardy_seeded_run():
    prob = HardyProblem.with_fitted_measure(1.0, one, one, one)
    rep = verify_reverse_hardy(prob, n_trials=10, seed=1)
    assert rep.lower == rep.upper
    assert rep.lower == pytest.approx(0.998601344958248, rel=1e-9)
    assert rep.details["branch"] == 1
    assert rep.details["nondegenerate_measure"] in (True, False)
    assert rep.details["witness"] is not None


def _gl_panels_one_call_each(fn, a, b):
    """The panel rule one panel at a time: one call of fn per panel."""
    if not b > a:
        return 0.0
    n = 1 if a <= 0.0 else max(1, math.ceil(6 * math.log10(b / a)))
    cuts = (a, b) if n == 1 else np.geomspace(a, b, n + 1)
    sums = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        sums.append(half * float(np.dot(_GL_W, fn(mid + half * _GL_X))))
    return sums[0] if n == 1 else math.fsum(sums)


class TestBatchedPanels:
    def test_suffix_integral_build_calls_its_integrand_once(self):
        calls = []

        def integrand(s):
            calls.append(len(s))
            return np.exp(-s)

        edges = DEFAULT_GRID.breakpoints
        inner = _SuffixIntegral(integrand, edges, lambda t: math.exp(-t))
        assert len(calls) == 1
        assert calls[0] == 20 * sum(
            1 if a == 0.0 else math.ceil(6 * math.log10(b / a))
            for a, b in zip(np.concatenate([[0.0], edges[:-1]]), edges)
        )
        assert inner(0.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("psi", [one, PowerLog(0.5, 1.0)])
    def test_cells_equal_the_panel_at_a_time_rule_on_corpus_cells(self, psi):
        for f in decreasing_corpus(12, seed=5):
            inner = Zeta1Fn(f, psi, 2.0).inner_integral
            lefts = np.concatenate([[0.0], inner.edges[:-1]])
            got = _gl_cells(inner.integrand, lefts, inner.edges)
            want = [_gl_panels_one_call_each(inner.integrand, a, b) for a, b in zip(lefts, inner.edges)]
            assert got.tolist() == want

    def test_cells_equal_the_panel_at_a_time_rule_on_edge_cases(self):
        fn = lambda s: np.sqrt(s) * np.log1p(1.0 / s)  # noqa: E731
        lefts = [0.0, 2.0, 3.0, 1e-6, 0.5]
        rights = [1e-3, 2.0, 1.0, 1e3, 0.75]  # a = 0, empty, inverted, nine decades
        got = _gl_cells(fn, lefts, rights)
        want = [_gl_panels_one_call_each(fn, a, b) for a, b in zip(lefts, rights)]
        assert got.tolist() == want
        assert got[1] == 0.0 and got[2] == 0.0
        assert _gl_cells(fn, [], []).tolist() == []


def _mp_weight(den):
    """(density, D) of den as functions of an mpf s, with D(s) the integral of
    the density over (0, s] in closed form, at the working precision."""
    if isinstance(den, (Power, PowerLog)):
        alpha, beta = mpmath.mpf(den.alpha), mpmath.mpf(getattr(den, "beta", 0.0))
        lam = alpha + 1
        if isinstance(den, Power):
            return (lambda s: s**alpha), (lambda s: s**lam / lam)

        def head(s):  # the integral over (0, s], s <= 1, by the incomplete gamma
            return mpmath.e**lam * lam ** -(beta + 1) * mpmath.gammainc(beta + 1, lam * (1 - mpmath.log(s)))

        at_one = head(mpmath.mpf(1))
        density = lambda s: s**alpha * (1 + max(-mpmath.log(s), 0)) ** beta  # noqa: E731
        return density, (lambda s: head(s) if s <= 1 else at_one + (s**lam - 1) / lam)
    fn = den.fn
    rights = [mpmath.mpf(b) for b in fn.breakpoints]
    lefts = [mpmath.mpf(0)] + rights
    values = [mpmath.mpf(v) for v in fn.values] + [mpmath.mpf(fn.right_value)]
    cum = [mpmath.mpf(0)]
    for a, b, v in zip(lefts, rights, values):
        cum.append(cum[-1] + v * (b - a))
    cell = lambda s: bisect.bisect_left(rights, s)  # noqa: E731  (s in (lefts[k], rights[k]])
    return (lambda s: values[cell(s)]), (lambda s: cum[cell(s)] + values[cell(s)] * (s - lefts[cell(s)]))


def _closed_tail_reference(f, den, Pp, t):
    """integral over (t, inf) of (F(T)/D(s))^Pp den(s) ds to 40 digits, for t
    at or past the support end T of the step function f: mpmath.quad in s,
    split at 1 and at den's breakpoints, with D from its own closed form."""
    with mpmath.workdps(40):
        bp = [mpmath.mpf(b) for b in f.breakpoints]
        F_T = mpmath.fsum(mpmath.mpf(v) * (b - a) for a, b, v in zip([0] + bp[:-1], bp, f.values))
        density, D = _mp_weight(den)
        fn = getattr(den, "fn", None)
        cuts = [1.0] if fn is None else fn.breakpoints.tolist()
        end = [mpmath.inf] if fn is None or fn.right_value > 0 else []
        pieces = [mpmath.mpf(t)] + [mpmath.mpf(c) for c in cuts if c > t] + end
        if len(pieces) < 2:
            return 0.0
        return float(mpmath.quad(lambda s: (F_T / D(s)) ** Pp * density(s), pieces))


class TestClosedTail:
    """Past the support end T of a step numerator over its own denominator,
    ``_Ratio.suffix_integral`` takes the tail in closed form."""

    denominators = [
        Power(0.2),
        Power(-0.5),
        PowerLog(0.0, 1.0),
        PowerLog(-0.5, 2.0),
        Tabulated(PiecewiseFn([0.3, 2.0, 7.0], [3.0, 1.0, 0.5], right_value=0.25)),
        Tabulated(PiecewiseFn([0.5, 40.0], [2.0, 1.0])),
    ]

    @pytest.mark.parametrize("P", [1.5, 2.5])
    @pytest.mark.parametrize("den", denominators, ids=lambda w: w.kind)
    def test_matches_the_40_digit_quadrature_on_and_past_the_support_end(self, den, P):
        Pp = P / (P - 1.0)
        for f in decreasing_corpus(2, seed=21):
            T = float(f.breakpoints[-1])
            inner = _Ratio(f, den).suffix_integral(Pp, den, _merged_edges(DEFAULT_GRID, f, den), P)
            assert inner.edges[-1] == T  # the edges stop at the support end
            for t in (T, 3.0 * T):
                want = _closed_tail_reference(f, den, Pp, t)
                assert inner(t) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestLimitRule:
    """The limit of N/D^e at 0+ and infinity, N and D integrals from 0, comes
    from the weights' exponents: +inf, 0, or on a tie the ratio at the probes."""

    probes = np.array([1e-9, 1e-8])

    @pytest.mark.parametrize(
        "num, den, e, want",
        [
            (one, one, 2.0, math.inf),
            (Power(1.0), one, 1.0, 0.0),
            (one, one, 1.0, 1.0),
            # the log power decides when the powers tie, however small it is
            (PowerLog(0.0, 1e-8), one, 1.0, math.inf),
            (PowerLog(0.0, -1.0), one, 1.0, 0.0),
            (PowerLog(0.5, 1.0), PowerLog(0.5, 1.0), 1.0, 1.0),
            (PowerLog(-1.0, -2.0), one, 1.0, math.inf),  # W(t) = 1 / (1 + ln 1/t)
            (Tabulated(PiecewiseFn([1.0], [2.0])), one, 1.0, 2.0),
            (Tabulated(indicator(0.5, 1.0)), one, 1.0, 0.0),
            (one, Tabulated(indicator(0.5, 1.0)), 1.0, math.inf),
        ],
    )
    def test_at_zero(self, num, den, e, want):
        got = _Ratio(num, den, e).limit_zero(self.probes)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "num, den, e, want",
        [
            (Power(0.5), one, 1.0, math.inf),
            (one, Power(0.5), 1.0, 0.0),
            (one, one, 1.0, 1.0),
            (PowerLog(0.5, 2.0), one, 1.0, math.inf),
            (one, PowerLog(0.5, 2.0), 1.0, 0.0),
            (PowerLog(0.0, 1.0), one, 1.0, 1.0),  # W(s) = s + 1 past 1
            (Tabulated(PiecewiseFn([1.0], [1.0], 2.0)), one, 1.0, 2.0),  # W(s) = 2s - 1
            (Tabulated(chi01), one, 1.0, 0.0),
            (one, Tabulated(chi01), 1.0, math.inf),
        ],
    )
    def test_at_infinity(self, num, den, e, want):
        got = _Ratio(num, den, e).limit_inf(1e12)
        assert got == pytest.approx(want, rel=1e-9)

    def test_a_probe_is_read_only_on_a_tie(self):
        def probe():
            raise AssertionError("probed without a tie")

        assert _limit((1.0, 0.0), (0.5, 0.0), probe) == math.inf
        assert _limit((0.0, -1e-8), (0.0, 0.0), probe) == 0.0
        assert _limit(None, (0.0, 0.0), probe) == 0.0
        assert _limit((0.0, 0.0), None, probe) == math.inf
        assert _limit((0.0, 0.0), (5e-13, 0.0), lambda: 3.0) == 3.0  # inside the slack

    def test_a1_keeps_an_atom_past_the_last_edge(self):
        # sup over s > 1e6 of min(s, 1)/s is 1e-6; the atom lies past t_max = 1e4
        prob = HardyProblem(1.0, one, one, Tabulated(chi01), DiscreteMeasure([1e6], [1.0]))
        assert a1_constant(prob) == pytest.approx(1e-6, rel=1e-12)
