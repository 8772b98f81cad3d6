"""Tests of the benchmark itself:  python -m pytest perfbench -q

Short runs of every workload and of the traced mode, the command's output
contract, and for every output check a perturbed value that it must reject.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import lorentzlab as L  # noqa: E402
import reference as ref  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def test_benchmark_json_names_the_workloads_the_command_runs():
    assert sorted(NAMES) == sorted(W.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_short_run_of_every_workload(name):
    result = run.measure(name, seed=7, seconds=0.3, setup_samples=1)
    loop = result["loop"]
    assert loop.attempted >= 1 and loop.failed == 0 and loop.wrong == []
    for m in SPEC["end_to_end"]:
        value = result["metrics"][m["name"]]
        assert math.isfinite(value) and value > 0.0, m["name"]


def test_traced_run_emits_every_per_layer_metric_and_unwraps():
    before = (L.associate.norm, L.weights.product_cumulative, L.hardy.ZetaFn.__init__)
    result = run.measure_traced("hardy", seed=7, seconds=0.5, import_samples=1)
    for m in SPEC["per_layer"]:
        assert math.isfinite(result["metrics"][m["name"]]), m["name"]
    assert result["metrics"]["hardy.lhs_rhs.calls"] > 0
    assert result["loop"].wrong == [] and result["untraced"]["wrong"] == []
    assert (L.associate.norm, L.weights.product_cumulative, L.hardy.ZetaFn.__init__) == before


def test_tracer_counts_repeats_and_fit_cache_hits():
    t = tracing.Tracer()
    t.install()
    try:
        f = L.indicator(0.0, 2.0)
        L.norm(L.Lpq(2.0, 1.0), f)
        L.norm(L.Lpq(2.0, 1.0), L.indicator(0.0, 2.0))
        L.norm(L.Lpq(2.0, 2.0), f)
        L.assoc_generalized(2.0, W.ONE, W.ONE, f)
    finally:
        t.uninstall()
    m = t.metrics()
    assert m["associate.norm.calls"][0] == 3
    assert m["associate.norm.repeat_calls"][0] == 1
    assert m["associate.assoc_generalized.calls"][0] == 1
    assert L.norm.__module__ == "lorentzlab.associate" and not hasattr(L.norm, "__wrapped__")


def test_command_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-form", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    assert list(report["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(report["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "duality", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_values_by_hand():
    assert ref.p_norm([4.0], [1.0], 2.0) == 2.0
    assert ref.lpq_norm([1.0], [1.0], 2.0, 1.0) == pytest.approx(2.0, rel=1e-15)
    assert ref.maximal_l2([3.0], [1.0]) == pytest.approx(math.sqrt(6.0), rel=1e-15)
    # f = 2 on (0,1], 1 on (1,2]: f** = 2 then 1 + 1/t, then 3/t beyond 2
    expect = 4.0 + (0.5 + 2.0 * math.log(2.0) + 1.0) + 9.0 / 2.0
    assert ref.maximal_l2([1.0, 2.0], [1.0, 2.0]) == pytest.approx(math.sqrt(expect), rel=1e-15)
    # f* = 3 on (0, 1.5], 1 on (1.5, 2]; w = 1 on (0, 1]
    assert ref.weighted_lhs([0.5, 2.0], [1.0, 3.0], 1.0, 1.0) == 3.0
    assert ref.weighted_lhs([0.5, 2.0], [1.0, 3.0], 2.0, math.inf) == pytest.approx(math.sqrt(14.0), rel=1e-15)


# -- every check rejects a perturbed output ------------------------------------------


def _scaled(x: float, by: float = 1.0 + 1e-6) -> float:
    return x * by


@pytest.fixture(scope="module")
def states():
    return {name: W.WORKLOADS[name].setup(5) for name in NAMES}


def _rejects(name, state, item, out) -> bool:
    try:
        W.WORKLOADS[name].check(state, item, out)
    except W.CheckFailed:
        return True
    return False


def _real(name, state, item):
    wl = W.WORKLOADS[name]
    out = getattr(wl, "run_in_process", wl.run)(state, item)
    wl.check(state, item, out)
    return out


@pytest.mark.parametrize("n", [0, 18, 1])  # p = 2 flat on both kinds; p = 1.5, step function
def test_duality_checks_reject_perturbed_outputs(states, n):
    state = states["duality"]
    item = W.Duality().item(state, n)
    closed, oracle = _real("duality", state, item)
    bad = [(closed, closed * 1.001), (oracle * 0.999, oracle), (oracle * 17.0, oracle),
           (math.nan, oracle), (closed, math.inf), (closed, 0.0)]
    if item[0] == 0:
        bad += [(_scaled(closed), oracle), (closed, _scaled(oracle, 1 - 1e-6))]
    for out in bad:
        assert _rejects("duality", state, item, out), out


@pytest.mark.parametrize("n", [1, 2, 4])  # the embedding cases that hold
def test_closed_form_checks_reject_perturbed_outputs(states, n):
    state = states["closed-form"]
    out = _real("closed-form", state, n)
    bad = []
    for k in range(5):
        o = copy.deepcopy(out)
        o["norms"][k] = _scaled(o["norms"][k])
        bad.append(o)
    o = copy.deepcopy(out)
    o["norms"][5] = out["norms"][4] * 0.999  # below ||f||_(p,q)
    bad.append(o)
    o = copy.deepcopy(out)
    o["norms"][5] = out["norms"][4] * 3.001  # above p' ||f||_(p,q) for every p used
    bad.append(o)
    o = copy.deepcopy(out)
    o["star"] = _scaled(o["star"])
    bad.append(o)
    o = copy.deepcopy(out)
    o["assoc"][0] = (_scaled(o["assoc"][0][0]), o["assoc"][0][1])
    bad.append(o)
    for k in range(1, len(W.DUALITY_FAMILIES)):
        o = copy.deepcopy(out)
        o["assoc"][k] = (o["assoc"][k][0] * 1e-3, o["assoc"][k][1])  # below the quotient
        bad.append(o)
    o = copy.deepcopy(out)
    o["embed"] = (math.inf, out["embed"][1])
    bad.append(o)
    o = copy.deepcopy(out)
    o["embed"] = (out["embed"][0], not out["embed"][1])
    bad.append(o)
    o = copy.deepcopy(out)
    o["embed_norms"] = (out["embed_norms"][1] * 1.001, out["embed_norms"][1])
    bad.append(o)
    for o in bad:
        assert _rejects("closed-form", state, n, o), o


def test_closed_form_rejects_a_finite_value_for_the_failing_embedding(states):
    state = states["closed-form"]
    out = _real("closed-form", state, 3)  # the truncated-psi case
    assert math.isinf(out["embed"][0])
    o = copy.deepcopy(out)
    o["embed"] = (1.0, True)
    assert _rejects("closed-form", state, 3, o)


@pytest.mark.parametrize("n", [0, 2, 3])  # q = 1 flat; q = 1.5 powers; q = 0.5 truncated
def test_hardy_checks_reject_perturbed_outputs(states, n):
    state = states["hardy"]
    item = W.Hardy().item(state, n)
    lower, c_emp, a_value = _real("hardy", state, item)
    bad = [(_scaled(lower), c_emp, a_value), (lower, _scaled(c_emp), a_value),
           (lower, c_emp, _scaled(a_value)), (9.0, 9.0 * a_value, a_value),
           (0.1, 0.1 * a_value, a_value)]
    if W.HARDY_PROBLEMS[item[0]][-1] is not None:
        bad.append((_scaled(lower), _scaled(c_emp), a_value))  # the closed form of C_emp
    for out in bad:
        assert _rejects("hardy", state, item, out), out


def _cli_perturbations(doc: dict) -> list[dict]:
    cmd = doc["command"]
    bad = []
    if "value" in doc:
        d = copy.deepcopy(doc)
        d["value"] = doc["value"] * 1e-3 if cmd == "assoc" else _scaled(doc["value"])
        bad.append(d)
    if cmd == "fit-measure":
        d = copy.deepcopy(doc)
        d["nu"]["atoms"][3]["m"] *= 1.01
        bad.append(d)
        d = copy.deepcopy(doc)
        d["fit_report"]["details"]["sup_log_ratio"] += 1e-6
        bad.append(d)
    if cmd == "check-weight":
        d = copy.deepcopy(doc)
        d["checks"][0]["best_constant"] = _scaled(doc["checks"][0]["best_constant"])
        bad.append(d)
    if cmd == "embed":
        d = copy.deepcopy(doc)
        d["holds"] = False
        bad.append(d)
    return bad


def test_cli_checks_reject_perturbed_outputs(states):
    state = states["cli"]
    for k in range(len(state.mix)):
        code, stdout, stderr = _real("cli", state, k)
        doc = json.loads(stdout)
        bad = _cli_perturbations(doc)
        assert bad, doc["command"]
        for d in bad:
            assert _rejects("cli", state, k, (0, json.dumps(d, indent=2).encode() + b"\n", b"")), d
        assert _rejects("cli", state, k, (1, stdout, b"error"))
        assert _rejects("cli", state, k, (0, stdout.replace(b"\n", b" \n", 1), b""))
