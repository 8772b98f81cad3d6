"""The repository's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload duality --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
Each workload is a closed loop in this process, one item at a time (``cli``
starts one child interpreter per item).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it has the per-layer metrics of BENCHMARK.json, measured by
timing wrappers (perfbench/tracer.py) that untraced runs never install.  The
full result also goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up runs this many times (here, then in fresh interpreters) and
# reports the median: one cold import alone swings by 10% and more
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_setup(name: str, seed: int):
    """Import the library (through the workloads module) and set the workload
    up: (seconds, state).  The first call in a process includes the import."""
    t0 = time.perf_counter()
    import workloads

    state = workloads.WORKLOADS[name].setup(seed)
    return time.perf_counter() - t0, state


def setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-sample", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child failed: {proc.stderr}")
    return float(proc.stdout.split()[-1])


def import_in_child() -> float:
    code = "import time; t = time.perf_counter(); import lorentzlab; print(time.perf_counter() - t)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=_child_env(), check=True)
    return float(proc.stdout.split()[-1])


class Loop:
    """A closed loop over a workload's items; times only the library's part."""

    def __init__(self, wl, state, run):
        self.wl, self.state, self.run = wl, state, run
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def step(self) -> None:
        n = self.attempted
        item = self.wl.item(self.state, n)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.run(self.state, item)
        except Exception as exc:  # an item that raises counts as failed; the loop goes on
            self.failed += 1
            print(f"item {n} {item!r} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        self.times.append(time.perf_counter() - t0)
        try:
            self.wl.check(self.state, item, out)
        except Exception as exc:  # a check that cannot even read the output fails too
            self.wrong.append(f"item {n} {item!r}: {type(exc).__name__}: {exc}")

    def for_seconds(self, seconds: float) -> "Loop":
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.step()
        return self


def latency_metrics(times: list[float]) -> dict:
    ms = sorted(t * 1e3 for t in times)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {
        "items_per_s": len(ms) / (sum(ms) / 1e3),
        "item_p50_ms": statistics.median(ms),
        "item_p90_ms": p90,
    }


def measure(name: str, seed: int, seconds: float, setup_samples: int = SETUP_SAMPLES) -> dict:
    """An untraced run: set-up (median of setup_samples), then the loop."""
    setup_s, state = timed_setup(name, seed)
    import workloads

    wl = workloads.WORKLOADS[name]
    loop = Loop(wl, state, wl.run).for_seconds(seconds)
    samples = [setup_s] + [setup_in_child(name, seed) for _ in range(setup_samples - 1)]
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(samples),
        **latency_metrics(loop.times),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return {"loop": loop, "metrics": metrics, "setup_samples": samples}


def measure_traced(name: str, seed: int, seconds: float, import_samples: int = IMPORT_SAMPLES) -> dict:
    """A traced run: set-up under the tracer, then each item twice, once traced
    and once not, the order alternating from item to item.  The per-layer
    metrics cover set-up and the traced items; the overhead is the traced
    items' time minus the untraced items' time."""
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[name]
    run = getattr(wl, "run_in_process", wl.run)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = wl.setup(seed)
    finally:
        tracer.uninstall()
    untraced, traced = Loop(wl, state, run), Loop(wl, state, run)
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for loop in (untraced, traced) if untraced.attempted % 2 == 0 else (traced, untraced):
            if loop is traced:
                tracer.install()
            try:
                loop.step()
            finally:
                tracer.uninstall()
    metrics = {k: v for k, (v, _) in tracer.metrics().items()}
    metrics["cli.main_ms"] = metrics["cli.main.ms"]
    metrics["cli.import_ms"] = 1e3 * statistics.median(import_in_child() for _ in range(import_samples))
    overhead = sum(traced.times) - sum(untraced.times)
    metrics["trace.items"] = traced.attempted
    metrics["trace.overhead_ms"] = overhead * 1e3
    metrics["trace.overhead_share"] = overhead / sum(untraced.times)
    return {"loop": traced, "metrics": metrics, "layers": tracer.table(),
            "untraced": {"attempted": untraced.attempted, "failed": untraced.failed,
                         "wrong": untraced.wrong}}


def declared_metrics(trace_mode: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace_mode else "end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["duality", "closed-form", "hardy", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "lorentzlab" / "__init__.py").is_file():
        print(f"perfbench: no library under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_sample:
        print(timed_setup(args.workload, args.seed)[0])
        return 0

    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    loop = result["loop"]
    wrong = loop.wrong + result.get("untraced", {}).get("wrong", [])
    for line in wrong[:10]:
        print(f"wrong output: {line}", file=sys.stderr)
    declared = declared_metrics(bool(args.trace))
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    report = {
        "correct": not wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared},
    }
    OUT.mkdir(exist_ok=True)
    detail = {k: v for k, v in result.items() if k != "loop"}
    detail.update(report=report, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  item_ms=[t * 1e3 for t in loop.times])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(f"{args.workload} seed {args.seed}: {loop.attempted} items, {loop.failed} failed, "
          f"{len(wrong)} wrong")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
