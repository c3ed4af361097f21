"""The benchmark's one command.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine-suite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the benchmark's own
instrumentation off.  ``--trace 1`` runs the same workload as a traced
run and reports the per-layer metrics, a self-time table per workload
and its coverage instead.  Either way every answer is checked (see
``check.py``); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit
code is 0 only when every answer was correct.

Scratch state (stores, temp sockets) lives in ``.perfbench_state/``
under the checkout and is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics, reported on every workload (BENCHMARK.json lists
#: the same names with their bounds).
END_TO_END = (
    "setup_s",
    "requests_per_s",
    "peak_rss_mb",
    "success_frac",
)

#: Hard stop well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _state_dir(workload: str) -> Path:
    state = ROOT / ".perfbench_state" / ("%s-%d" % (workload, os.getpid()))
    shutil.rmtree(state, ignore_errors=True)
    (state / "tmp").mkdir(parents=True)
    # multiprocessing puts its manager sockets under the temp dir; keep
    # them inside the checkout, relative when the absolute path would
    # not fit a unix socket address.
    tmp = state / "tmp"
    tempfile.tempdir = str(tmp if len(str(tmp)) < 64 else tmp.relative_to(ROOT))
    return state


def _on_alarm(signum, frame):
    raise TimeoutError("run exceeded %d s" % RUN_TIMEOUT_S)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    state = _state_dir(args.workload)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), state
        )
    finally:
        signal.alarm(0)
        for child in multiprocessing.active_children():
            child.terminate()
            child.join(10)
        shutil.rmtree(state, ignore_errors=True)
        try:
            state.parent.rmdir()
        except OSError:
            pass

    for table in outcome.tables:
        print(table)
    for problem in outcome.problems[:20]:
        print("perfbench: wrong answer: %s" % problem, file=sys.stderr)
    print("inputs: %s" % json.dumps(outcome.inputs, sort_keys=True))
    if args.trace:
        metrics = {
            name: {"value": float(outcome.layers.get(name, 0.0)), "unit": unit}
            for name, unit, _ in layers.PER_LAYER
        }
    else:
        metrics = {
            name: {
                "value": float(outcome.metrics[name][0]),
                "unit": outcome.metrics[name][1],
            }
            for name in END_TO_END
        }
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
