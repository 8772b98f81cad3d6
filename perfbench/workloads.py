"""The benchmark's four workloads: inputs made from a seed, the library calls
one item makes, and the checks on each item's outputs.

Importing this module imports the library, so the time of that import counts
as set-up wherever the import of this module is timed.  Library functions are
looked up through the package at call time (``L.norm``, not a name bound at
import), so a traced run sees every call the workloads make.

Each workload class has
  setup(seed)         -> state: corpus and representation-measure fits;
  item(state, n)      -> the n-th item of the closed loop (cycles);
  run(state, item)    -> the library's outputs (the timed part);
  check(state, item, out), which raises CheckFailed on a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import lorentzlab as L

import reference as ref

ONE = L.Power(0.0)
CHI01 = L.Tabulated(L.indicator(0.0, 1.0))

# Acceptance criterion 10's families: (p, psi, phi).
DUALITY_FAMILIES = [
    ("p=2 flat", 2.0, ONE, ONE),
    ("p=1.5 phi=t^-1/3", 1.5, ONE, L.Power(-1.0 / 3.0)),
    ("p=3 psi=t^0.2 phi=t^-1/4", 3.0, L.Power(0.2), L.Power(-0.25)),
    ("p=0.5 psi=t^-1", 0.5, L.Power(-1.0), ONE),
    ("p=1 phi=t^-1/2", 1.0, ONE, L.Power(-0.5)),
    ("p=2 psi=powerlog", 2.0, L.PowerLog(0.0, 1.0), ONE),
]

# Acceptance criterion 07's problems: (q, u, v, w, w_support) where
# w_support is set when u = v = 1 and w is the indicator of (0, w_support],
# so that both sides of the inequality have a closed form.
HARDY_PROBLEMS = [
    ("q=1 flat", 1.0, ONE, ONE, ONE, math.inf),
    ("q=2 truncated w", 2.0, ONE, ONE, CHI01, 1.0),
    ("q=1.5 balanced powers", 1.5, ONE, L.Power(0.5), L.Power(0.5), None),
    ("q=0.5 truncated w", 0.5, ONE, ONE, CHI01, 1.0),
    ("q=0.5 power u", 0.5, L.Power(0.5), L.Power(0.75), CHI01, None),
    ("q=0.75 bump w", 0.75, ONE, L.Power(0.5), L.Tabulated(L.indicator(0.1, 10.0)), None),
]

# Acceptance criterion 11's cases: (p, q, psi, phi, w, holds).
EMBED_CASES = [
    ("identity L_2", 2.0, 2.0, ONE, ONE, ONE, True),
    ("L_{2,1} into L_{2,2}", 1.0, 2.0, L.Power(-0.5), ONE, ONE, True),
    ("L_{3,1} into L_{3,3}", 1.0, 3.0, L.Power(-2.0 / 3.0), ONE, ONE, True),
    ("truncated psi", 2.0, 2.0, CHI01, ONE, ONE, False),
]

# verify_duality's oracle settings.  The oracle seed is criterion 10's and the
# same in every run: it fixes the oracle's candidate pool, so that a run's cost
# depends on the seeded corpus only.
ORACLE_TRIALS = 40
ORACLE_STEPS = 25
ORACLE_SEED = 13

HARDY_TRIALS = 10
# one round of the hardy workload: the q >= 1 problems twice, the slower q < 1
# problems once, so that the median item is a q >= 1 call and the 90th
# percentile a q < 1 call rather than either falling between the two
HARDY_ROUND = [0, 1, 2, 3, 0, 1, 2, 4, 5]
KAPPA_HARDY = 8.0  # criterion 07's window for C_emp / A
KAPPA_ASSOC = 16.0  # criterion 10's window for closed / oracle

CORPUS_SIZE = 720
STRATA = 12
ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(AssertionError):
    """An output of the library disagrees with its independent check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(x: float, expect: float, tol: float, what: str) -> None:
    _require(math.isfinite(x) and ref.rel_err(x, expect) <= tol, f"{what}: {x!r} != {expect!r}")


# -- the corpus ------------------------------------------------------------------


def make_cells(rng: np.random.Generator, r: int, stream: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The r-th function of a stream, as (breakpoints, values).  Stream s
    starts 2s strata on and, for odd s, with a step function.

    Even r + s: a level times the indicator of (0, a].  Odd: a step function with
    up to 12 cells, not monotone, about a quarter of its cells zero.  The support
    end a is log-uniform within one of 12 strata of [1e-3, 1e3] and the cell
    count cycles, so every seed gives the same mix of sizes and cell counts.
    No cell is shorter than the grid's t_min, so every cell of f* lies where
    the grid's edges split it (see the FOUND line on Zeta1Fn in CHANGES.md).
    """
    pair = r // 2 + 2 * stream
    a = 10.0 ** (-3.0 + 6.0 * (pair % STRATA + rng.random()) / STRATA)
    if (r + stream) % 2 == 0:
        return np.array([a]), np.array([10.0 ** rng.uniform(-2.0, 2.0)])
    k = 1 + (5 * pair) % STRATA
    t_min = L.DEFAULT_GRID.t_min
    bp = []
    for c in np.sort(a * 10.0 ** rng.uniform(-3.0, 0.0, k - 1)):
        if c - (bp[-1] if bp else 0.0) >= t_min and a - c >= t_min:
            bp.append(c)
    bp = np.array(bp + [a])
    vals = 10.0 ** rng.uniform(-2.0, 2.0, len(bp))
    vals[rng.random(len(bp)) < 0.25] = 0.0
    if not np.any(vals > 0.0):
        vals[int(rng.integers(len(vals)))] = 1.0
    return bp, vals


def make_corpus(seed: int, streams: int = 1, n: int = CORPUS_SIZE) -> list:
    """n functions: item i takes the (i // streams)-th function of stream
    i % streams, so that each stream (a family, say) gets the whole mix;
    with 6 streams, every 24 consecutive items cover each stratum once."""
    rng = np.random.default_rng([seed, 1])
    return [make_cells(rng, i // streams, i % streams) for i in range(n)]


def as_fn(cells) -> L.PiecewiseFn:
    return L.PiecewiseFn(*cells)


class _Corpus:
    def __init__(self, seed: int, streams: int = 1):
        self.cells = make_corpus(seed, streams)
        self.fns = [as_fn(c) for c in self.cells]


# -- duality -------------------------------------------------------------------------


class Duality:
    """One corpus function under one criterion-10 family: the closed form,
    then the duality oracle with verify_duality's settings."""

    def setup(self, seed: int) -> _Corpus:
        state = _Corpus(seed, streams=len(DUALITY_FAMILIES))
        for _, p, psi, phi in DUALITY_FAMILIES:
            L.assoc_generalized(p, psi, phi, state.fns[0])  # fills the fit cache
        return state

    def item(self, state, n: int):
        return n % len(DUALITY_FAMILIES), n % len(state.fns)

    def run(self, state, item):
        fam, j = item
        _, p, psi, phi = DUALITY_FAMILIES[fam]
        f = state.fns[j]
        closed = L.assoc_generalized(p, psi, phi, f).value
        oracle = L.duality_oracle(
            L.GenClassicalLorentz(p, psi, phi), f,
            n_trials=ORACLE_TRIALS, local_search_steps=ORACLE_STEPS, seed=ORACLE_SEED,
        )
        return closed, oracle

    def check(self, state, item, out) -> None:
        fam, j = item
        closed, oracle = out
        name = DUALITY_FAMILIES[fam][0]
        _require(math.isfinite(closed) and closed > 0.0, f"{name}: closed form {closed!r}")
        _require(math.isfinite(oracle) and oracle > 0.0, f"{name}: oracle {oracle!r}")
        # the oracle's quotients are lower bounds on the associate norm
        _require(closed / oracle >= 1.0 - 1e-9, f"{name}: closed/oracle {closed / oracle!r} < 1")
        _require(closed / oracle <= KAPPA_ASSOC, f"{name}: closed/oracle {closed / oracle!r} > 16")
        if fam == 0:
            # the space is L_2: its associate norm is ||f||_2, reached by g = f*,
            # and the closed form is ||f**||_2, within [||f||_2, 2 ||f||_2]
            bp, v = state.cells[j]
            l2 = ref.p_norm(bp, v, 2.0)
            _close(oracle, l2, 1e-9, f"{name}: oracle vs ||f||_2")
            _close(closed, ref.maximal_l2(bp, v), 1e-9, f"{name}: closed vs ||f**||_2")
            _require(l2 * (1 - 1e-12) <= closed <= 2.0 * l2, f"{name}: ||f**||_2 outside [1, 2] ||f||_2")


# -- closed-form ---------------------------------------------------------------------

_P_Q = [(1.5, 1.0), (2.0, 2.5), (3.0, 4.0)]


class ClosedForm:
    """One corpus function under all six norm families, lpq_star_norm, the six
    closed-form associate norms (warm fit cache) and one embedding criterion."""

    def setup(self, seed: int) -> _Corpus:
        state = _Corpus(seed)
        for _, p, psi, phi in DUALITY_FAMILIES:
            L.assoc_generalized(p, psi, phi, state.fns[0])
        for _, p, q, psi, phi, w, _ in EMBED_CASES:
            L.embedding_criterion(p, q, psi, phi, w)
        return state

    def item(self, state, n: int):
        return n % len(state.fns)

    def run(self, state, j):
        f = state.fns[j]
        p, q = _P_Q[j % len(_P_Q)]
        norms = [
            L.norm(L.Lpq(p, p), f),
            L.norm(L.ClassicalLorentz(p, ONE), f),
            L.norm(L.GenClassicalLorentz(p, ONE, ONE), f),
            L.norm(L.Marcinkiewicz(p, ONE), f),
            L.norm(L.GenLorentz(p, q, ONE), f),
            L.norm(L.LpqStar(p, q), f),
        ]
        star = L.lpq_star_norm(2.0, 2.0, f)
        assoc = []
        for _, ap, psi, phi in DUALITY_FAMILIES:
            value = L.assoc_generalized(ap, psi, phi, f).value
            # the quotient of g = f*: pairing ||f||_2^2 over ||f||_X
            assoc.append((value, L.norm(L.GenClassicalLorentz(ap, psi, phi), f)))
        _, ep, eq, psi, phi, w, _ = EMBED_CASES[j % len(EMBED_CASES)]
        emb = L.embedding_criterion(ep, eq, psi, phi, w)
        ratio = (L.norm(L.ClassicalLorentz(eq, w), f), L.norm(L.GenClassicalLorentz(ep, psi, phi), f))
        return {"norms": norms, "star": star, "assoc": assoc,
                "embed": (emb.criterion_value, emb.holds), "embed_norms": ratio}

    def check(self, state, j, out) -> None:
        bp, v = state.cells[j]
        p, q = _P_Q[j % len(_P_Q)]
        lp = ref.p_norm(bp, v, p)
        lpq = ref.lpq_norm(bp, v, p, q)
        names = ("Lpq(p,p)", "ClassicalLorentz(p,1)", "GenClassicalLorentz(p,1,1)", "Marcinkiewicz(p,1)")
        for name, x in zip(names, out["norms"][:4]):
            _close(x, lp, 1e-9, f"{name} vs ||f||_p")
        _close(out["norms"][4], lpq, 1e-9, "GenLorentz(p,q,1) vs ||f||_{p,q}")
        # f* <= f** and Hardy's inequality ||f**||_{p,q} <= p' ||f||_{p,q}
        star_pq = out["norms"][5]
        _require(lpq * (1 - 1e-9) <= star_pq <= p / (p - 1.0) * lpq * (1 + 1e-9),
                 f"LpqStar(p,q) {star_pq!r} outside [1, p'] ||f||_(p,q) = {lpq!r}")
        l2 = ref.p_norm(bp, v, 2.0)
        _close(out["star"], ref.maximal_l2(bp, v), 1e-9, "lpq_star_norm(2,2) vs ||f**||_2")
        for (name, *_), (value, norm_f) in zip(DUALITY_FAMILIES, out["assoc"]):
            _require(math.isfinite(value) and value > 0.0, f"assoc {name}: {value!r}")
            _require(value >= l2 * l2 / norm_f * (1 - 1e-9),
                     f"assoc {name}: {value!r} below the quotient of g = f*")
        _close(out["assoc"][0][0], ref.maximal_l2(bp, v), 1e-9, "assoc p=2 flat vs ||f**||_2")
        name, *_, holds = EMBED_CASES[j % len(EMBED_CASES)]
        value, lib_holds = out["embed"]
        _require(lib_holds == holds and math.isfinite(value) == holds, f"embed {name}: {value!r}")
        if holds:
            target, source = out["embed_norms"]
            _require(target <= source * (1 + 1e-9), f"embed {name}: norm ratio {target / source!r} > 1")


# -- hardy ---------------------------------------------------------------------------


class _HardyState:
    def __init__(self, seed: int):
        self.problems = [L.HardyProblem.with_fitted_measure(q, u, v, w)
                         for _, q, u, v, w, _ in HARDY_PROBLEMS]
        rng = np.random.default_rng([seed, 2])
        self.seeds = [int(s) for s in rng.integers(0, 2**31, CORPUS_SIZE)]
        self.a_values: dict[int, float] = {}


class Hardy:
    """One verify_reverse_hardy call on one criterion-07 problem, with trial
    functions from a seed of its own."""

    def setup(self, seed: int) -> _HardyState:
        return _HardyState(seed)

    def item(self, state, n: int):
        return HARDY_ROUND[n % len(HARDY_ROUND)], state.seeds[n % len(state.seeds)]

    def run(self, state, item):
        i, s = item
        rep = L.verify_reverse_hardy(state.problems[i], n_trials=HARDY_TRIALS, seed=s)
        return rep.lower, rep.details["c_emp"], rep.details["a_value"]

    def check(self, state, item, out) -> None:
        i, s = item
        name, q, *_, w_support = HARDY_PROBLEMS[i]
        lower, c_emp, a_value = out
        _require(1.0 / KAPPA_HARDY <= lower <= KAPPA_HARDY, f"{name}: C_emp/A = {lower!r}")
        _close(lower, c_emp / a_value, 1e-12, f"{name}: C_emp/A vs its parts")
        # A depends on the problem only
        _require(state.a_values.setdefault(i, a_value) == a_value, f"{name}: A changed to {a_value!r}")
        if w_support is not None:
            _close(c_emp, hardy_c_emp(q, w_support, s), 1e-9, f"{name}: C_emp vs closed form")


def hardy_c_emp(q: float, w_support: float, seed: int) -> float:
    """C_emp of verify_reverse_hardy for u = v = 1 and w = 1 on (0, w_support].

    Then the right side sup_t f**(t) is f*(0+) = max v, and the left side is
    (integral of f*^q w)^(1/q).  The trial functions are remade the way
    verify_reverse_hardy makes them.
    """
    rng = np.random.default_rng(seed)
    n_random = HARDY_TRIALS // 2
    trials = [L.random_decreasing(rng) for _ in range(n_random)]
    cells = [(f.breakpoints, f.values) for f in trials]
    grid = L.DEFAULT_GRID
    cells += [(np.array([a]), np.array([1.0]))
              for a in np.geomspace(grid.t_min, grid.t_max, HARDY_TRIALS - n_random)]
    return max(ref.weighted_lhs(bp, v, q, w_support) / float(np.max(v)) for bp, v in cells)


# -- cli -----------------------------------------------------------------------------


def _num(x: float) -> str:
    return repr(float(x))


class _CliState:
    def __init__(self, seed: int):
        import lorentzlab.cli  # noqa: F401  (the children import it; so does set-up)

        rng = np.random.default_rng([seed, 3])
        a = [10.0 ** rng.uniform(-2.0, 2.0) for _ in range(4)]
        p, q = rng.uniform(1.5, 4.0), rng.uniform(1.0, 3.0)
        alpha, beta = rng.uniform(0.2, 0.8), rng.uniform(-0.5, 2.0)
        # (arguments, check of the parsed JSON output)
        self.mix = [
            (["norm", "--spec", "lpq:2,1", "--f", "indicator:0,1"], _expect_value(2.0, 0.0)),
            (["norm", "--spec", f"lpq:{_num(p)},{_num(q)}", "--f", f"indicator:0,{_num(a[0])}"],
             _expect_value(ref.lpq_norm([a[0]], [1.0], p, q), 1e-12)),
            (["norm", "--spec", "lpq_star:2,2", "--f", f"indicator:0,{_num(a[1])}"],
             _expect_value(math.sqrt(2.0 * a[1]), 1e-9)),
            (["assoc", "--p", "2", "--f", f"indicator:0,{_num(a[2])}"],
             _expect_value(math.sqrt(2.0 * a[2]), 1e-9)),
            (["assoc", "--p", "1", "--phi", "power:-0.5", "--f", f"indicator:0,{_num(a[3])}"],
             _expect_assoc_quotient(math.sqrt(a[3]))),
            (["fit-measure", "--target", f"power:{_num(alpha)}", "--sigma", "power:1"],
             _expect_fit(alpha)),
            (["check-weight", "--w", f"power:{_num(beta)}", "--p", "2"], _expect_delta2(beta)),
            (["embed", "--p", "2", "--q", "2", "--w", "power:0"], _expect_embed()),
        ]
        self.first_output: dict[int, bytes] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")]))


def _expect_value(expect: float, tol: float):
    def check(doc: dict) -> None:
        _close(float(doc["value"]), expect, tol, f"{doc['command']} value")
    return check


def _expect_assoc_quotient(quotient: float):
    # for f = chi_(0,a] and phi = t^-1/2, p = 1: g = f gives pairing a over
    # ||g|| = sup_r r^-1/2 min(r, a) = sqrt(a); the closed form bounds it
    def check(doc: dict) -> None:
        value = float(doc["value"])
        _require(math.isfinite(value) and value >= quotient * (1 - 1e-9),
                 f"assoc value {value!r} below the quotient {quotient!r}")
    return check


def _expect_fit(alpha: float):
    # remake the fitted fundamental function from the printed atoms and
    # compare it with t^alpha on the interior collocation points
    ts = 10.0 ** np.linspace(-2.0, 2.0, 17)

    def check(doc: dict) -> None:
        atoms = [(float(a["t"]), float(a["m"])) for a in doc["nu"]["atoms"]]
        _require(all(m >= 0.0 for _, m in atoms), "fit-measure: negative mass")
        h = ref.fundamental_function(atoms, lambda t: t, ts)
        sup = float(np.max(np.abs(np.log(h / ts**alpha))))
        reported = float(doc["fit_report"]["details"]["sup_log_ratio"])
        # an absolute tolerance: the log-ratio itself can be as small as 1e-7
        _require(abs(sup - reported) <= 1e-9, f"fit-measure sup log-ratio {sup!r} != {reported!r}")
        _require(sup <= math.log(1.1), f"fit-measure sup log-ratio {sup!r} > ln 1.1")
    return check


def _expect_delta2(beta: float):
    # W(t) = t^(beta+1)/(beta+1), so W(2t)/W(t) = 2^(beta+1) everywhere
    def check(doc: dict) -> None:
        delta2 = doc["checks"][0]
        _require(delta2["condition"] == "Delta2" and delta2["holds"], "check-weight: Delta2")
        _close(float(delta2["best_constant"]), 2.0 ** (beta + 1.0), 1e-9, "Delta2 constant")
    return check


def _expect_embed():
    def check(doc: dict) -> None:
        value = doc["criterion_value"]
        _require(doc["holds"] is True and isinstance(value, float) and value > 0.0,
                 f"embed L_2 into L_2: {value!r}")
    return check


class Cli:
    """One fresh-interpreter CLI invocation from a fixed mix of cheap
    subcommands; one child at a time."""

    def setup(self, seed: int) -> _CliState:
        return _CliState(seed)

    def item(self, state, n: int):
        return n % len(state.mix)

    def run(self, state, k):
        proc = subprocess.run(
            [sys.executable, "-m", "lorentzlab.cli", *state.mix[k][0]],
            cwd=ROOT, env=state.env, capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, state, k):
        """The same command through lorentzlab.cli.main in this process, with
        the fit cache emptied first as in a fresh interpreter."""
        L.associate._FIT_CACHE.clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = L.cli.main(list(state.mix[k][0]))
        return code, buf.getvalue().encode(), b""

    def check(self, state, k, out) -> None:
        code, stdout, stderr = out
        args, expect = state.mix[k]
        _require(code == 0, f"{' '.join(args)}: exit {code}: {stderr.decode(errors='replace')}")
        expect(json.loads(stdout))
        # a rerun of the same arguments prints the same bytes
        _require(state.first_output.setdefault(k, stdout) == stdout,
                 f"{' '.join(args)}: output differs from its first run")


WORKLOADS = {"duality": Duality(), "closed-form": ClosedForm(), "hardy": Hardy(), "cli": Cli()}
