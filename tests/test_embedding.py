"""Embedding criterion between generalized families, with empirical cross-checks."""

import math

import pytest

from lorentzlab import (
    DiscreteMeasure,
    Power,
    Tabulated,
    embedding_criterion,
    empirical_embedding_check,
    indicator,
)

one = Power(0.0)


def test_criterion_keeps_an_atom_past_the_last_edge(monkeypatch):
    # P = 1: the criterion is the nu-integral of sup over s > t of min(s, 1)/s,
    # which is 1e-6 for an atom at 1e6, past the grid's t_max = 1e4
    nu = DiscreteMeasure([1e6], [1.0])
    monkeypatch.setattr("lorentzlab.associate._fit_nu_for_phi", lambda *args: (nu, None))
    res = embedding_criterion(1.0, 1.0, one, one, Tabulated(indicator(0.0, 1.0)))
    assert res.criterion_value == pytest.approx(1e-6, rel=1e-12)


def test_identity_embedding_has_unit_criterion():
    res = embedding_criterion(2.0, 2.0, one, one, one)
    assert res.holds
    assert res.criterion_value == pytest.approx(1.0, rel=1e-9)
    emp = empirical_embedding_check(2.0, 2.0, one, one, one, n_trials=10, seed=4)
    assert emp.lower == pytest.approx(1.0, rel=1e-9)
    assert emp.upper == pytest.approx(1.0, rel=1e-9)


def test_finer_second_index_embeds():
    res = embedding_criterion(1.0, 2.0, Power(-0.5), one, one)
    assert res.holds
    assert res.criterion_value == pytest.approx(0.25, rel=1e-6)
    emp = empirical_embedding_check(1.0, 2.0, Power(-0.5), one, one, n_trials=30, seed=4)
    assert 0.25 * (1.0 - 1e-9) <= emp.lower
    assert emp.upper <= 1.0 + 1e-9


def test_third_order_case():
    res = embedding_criterion(1.0, 3.0, Power(-2.0 / 3.0), one, one)
    assert res.holds
    assert res.criterion_value == pytest.approx(1.0 / 27.0, rel=1e-6)


def test_constructed_failure_diverges():
    res = embedding_criterion(2.0, 2.0, Tabulated(indicator(0.0, 1.0)), one, one)
    assert not res.holds
    assert res.criterion_value == math.inf
    assert res.boundary_flags["tail_divergent"]
    emp = empirical_embedding_check(
        2.0, 2.0, Tabulated(indicator(0.0, 1.0)), one, one, n_trials=10, seed=4
    )
    assert emp.details["indicator_growth"] >= 10.0


def test_reduced_exponent_above_one():
    # p/q = 2: the criterion is (integral of (W_2(s)/s)^2 ds)^{1/2}
    w = Tabulated(indicator(0.0, 1.0))
    res = embedding_criterion(4.0, 2.0, one, one, w)
    assert res.holds
    assert res.criterion_value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    flat = embedding_criterion(4.0, 2.0, one, one, one)
    assert flat.criterion_value == math.inf
    assert flat.boundary_flags["tail_divergent"]


def test_result_serialization_shape():
    res = embedding_criterion(2.0, 2.0, one, one, one)
    j = res.to_json()
    assert sorted(j.keys()) == [
        "boundary_flags",
        "criterion_value",
        "fit_report",
        "holds",
        "nu_used",
    ]
    assert j["holds"] is True
