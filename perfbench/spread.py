"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --workloads duality hardy

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for each metric the median of the runs and the spread: the distance
between the first and the third quartile (statistics.quantiles, n=4) as a
share of the median.  The raw results go to perfbench/out/spread-<tag>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict], bounds: dict) -> list[str]:
    lines = []
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        lines.append(f"  {name:14s} median {med:12.4f}  spread {spread:7.2%}  bound {bound:.0%}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    lines.append(f"  failed share {sorted(shares)}; correct {all(r['correct'] for r in runs)}")
    return lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--tag", default=time.strftime("%Y%m%d-%H%M%S"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in seed_list(args.seeds)]
        results[workload] = runs
        print(f"{workload} ({len(runs)} runs, seeds {args.seeds}, {args.seconds} s each)")
        print("\n".join(summarize(runs, bounds)), flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.tag}.json").write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
