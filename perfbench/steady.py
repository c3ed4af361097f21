"""Steadiness check: run workloads over several seeds, report spreads.

::

    python3 perfbench/steady.py --runs 10 --out perfbench/results/steadiness.json

runs ``run.py`` once per seed on each workload (one run at a time) and
reports, per end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the quartile
spread as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  A spread above a third of its bound (``setup_s``
excepted, whose runs are compared by median only) is flagged.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            "%s seed %d failed (%d): %s" % (workload, seed, proc.returncode,
                                            proc.stderr[-2000:])
        )
    result = json.loads(lines[-1])
    inputs = next(
        (json.loads(line[len("inputs: "):]) for line in lines
         if line.startswith("inputs: ")), {}
    )
    return {"seed": seed, "run_s": elapsed, "result": result, "inputs": inputs}


def summarise(values, bound, spread_checked):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": spread,
        "bound": bound,
        "steady": not spread_checked or spread <= bound / 3,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": args.seconds, "workloads": {}}
    for name in names:
        runs = [
            run_once(name, seed, args.seconds, 0)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        metrics = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            metrics[metric] = summarise(values, bound, metric != "setup_s")
        report["workloads"][name] = {
            "metrics": metrics,
            "run_s": [r["run_s"] for r in runs],
            "inputs": [r["inputs"] for r in runs],
        }
        for metric, summary in metrics.items():
            print("%-17s %-17s median %14.4f  spread %6.3f  bound %.2f%s" % (
                name, metric, summary["median"], summary["spread"],
                summary["bound"], "" if summary["steady"] else "  NOT STEADY"))
        print("%-17s run seconds: %s" % (
            name, " ".join("%.0f" % r["run_s"] for r in runs)))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
