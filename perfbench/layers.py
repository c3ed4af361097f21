"""Per-layer measurement for the traced run, taken from outside.

Two sources, and no change to the program:

* :class:`Spans` times calls into the program's public functions in the
  benchmark's own process.  :func:`instrument` wraps those functions for
  the duration of a traced phase and restores them afterwards.
* Work done in other processes (pool and server workers) is read from
  the program's own public outputs: ``SynthesisResult.extra`` and the
  server's ``GET /jobs/<id>/trace`` document.  :func:`span_self_times`
  turns those span lists into self time per span name.

A layer's self time is its duration minus the part its child spans
cover.  Every per-layer metric is reported on every workload; a layer
that a workload never reaches reads 0.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from repro import Session
from repro.core.hashset import PackedKeySet
from repro.core.vector_engine import _Kernels

#: Benchmark-side span names of the in-process kernel wrappers.
CONCAT = "core.kernels.concat"
STAR = "core.kernels.star"
INSERT = "core.hashset.insert"
SYNTHESIZE = "api.synthesize"
STAGING = "language.staging"

#: Program span name -> the layer its self time is charged to.
SPAN_LAYERS = {
    "job": "service.pool.ipc",
    "http-parse": "server.http_parse",
    "admission": "server.admission",
    "pool-submit": "server.pool_submit",
    "queue-wait": "service.pool.queue_wait",
    "worker-job": "api.session",
    "staging": "language.staging",
    "seed-level": "core.engine",
    "level": "core.engine",
    "shard-fanout": "core.engine",
    "checkpoint-save": "service.checkpoint.save",
    "partial-save": "service.checkpoint.save",
    "checkpoint-restore": "service.checkpoint.restore",
    "checkpoint-replay": "service.checkpoint.restore",
    "result-store-write": "service.store.write",
}

#: Every per-layer metric, its unit and its direction, in report order.
#: BENCHMARK.json lists the same names.
PER_LAYER = [
    ("core.candidates_per_s", "1/s", "higher"),
    ("core.engine_s", "s", "lower"),
    ("core.ns_per_candidate", "ns", "lower"),
    ("core.generated", "count", "lower"),
    ("core.levels_built", "count", "lower"),
    ("core.unique_frac", "ratio", "higher"),
    ("core.dedupe_s", "s", "lower"),
    ("core.solve_s", "s", "lower"),
    ("core.store_s", "s", "lower"),
    ("core.kernels.concat_s", "s", "lower"),
    ("core.kernels.star_s", "s", "lower"),
    ("core.hashset.insert_s", "s", "lower"),
    ("core.hashset.rows", "count", "lower"),
    ("language.staging_s", "s", "lower"),
    ("language.staging_builds", "count", "lower"),
    ("language.wide_frac", "ratio", "lower"),
    ("api.session_overhead_s", "s", "lower"),
    ("service.pool.job_wall_s", "s", "lower"),
    ("service.pool.queue_wait_s", "s", "lower"),
    ("service.pool.ipc_s", "s", "lower"),
    ("service.pool.retries", "count", "lower"),
    ("service.pool.respawns", "count", "lower"),
    ("service.pool.first_requests_per_s", "1/s", "higher"),
    ("service.pool.refine_requests_per_s", "1/s", "higher"),
    ("service.checkpoint.save_s", "s", "lower"),
    ("service.checkpoint.records", "count", "lower"),
    ("service.checkpoint.bytes", "bytes", "lower"),
    ("service.checkpoint.restore_s", "s", "lower"),
    ("service.checkpoint.resumed_levels", "count", "higher"),
    ("service.checkpoint.partial_resumes", "count", "higher"),
    ("service.store.write_s", "s", "lower"),
    ("server.latency_p50_ms", "ms", "lower"),
    ("server.latency_p90_ms", "ms", "lower"),
    ("server.latency_samples", "count", "higher"),
    ("server.submit_ms", "ms", "lower"),
    ("server.status_ms", "ms", "lower"),
    ("server.polls_per_request", "count", "lower"),
    ("server.client_wait_s", "s", "lower"),
    ("server.http_parse_s", "s", "lower"),
    ("server.admission_s", "s", "lower"),
    ("server.rejected", "count", "lower"),
    ("server.worker_engine_ratio", "ratio", "lower"),
    ("obs.spans_per_request", "count", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
    ("obs.coverage", "ratio", "higher"),
]


class Spans:
    """Benchmark-side span recorder: call count and total time per name.

    Open spans are kept on a stack, so a wrapper can tell whether it is
    running inside another wrapped call.
    """

    def __init__(self) -> None:
        self.count: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.rows: Dict[str, int] = defaultdict(int)
        self._open: List[str] = []

    def inside(self, prefix: str) -> bool:
        """True when a span whose name starts with ``prefix`` is open."""
        return any(name.startswith(prefix) for name in self._open)

    @contextlib.contextmanager
    def span(self, name: str):
        self._open.append(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.total[name] += time.perf_counter() - started
            self.count[name] += 1
            self._open.pop()


def _wrap(spans: Spans, owner, attribute: str, name: str, outer_only=False,
          rows=False):
    original = getattr(owner, attribute)

    def wrapper(*args, **kwargs):
        # The concat fold is also the inner step of the star fixpoint;
        # calls made inside another kernel stay charged to that kernel.
        if outer_only and spans.inside("core.kernels."):
            return original(*args, **kwargs)
        if rows:
            spans.rows[name] += len(args[1])
        with spans.span(name):
            return original(*args, **kwargs)

    setattr(owner, attribute, wrapper)
    return owner, attribute, original


@contextlib.contextmanager
def instrument(spans: Spans):
    """Wrap the in-process public calls the traced run times."""
    patched = [
        _wrap(spans, Session, "synthesize", SYNTHESIZE),
        _wrap(spans, Session, "staging_for", STAGING),
        _wrap(spans, _Kernels, "star_planes", STAR),
        _wrap(spans, _Kernels, "concat_pair_planes", CONCAT),
        _wrap(spans, _Kernels, "fold_planes", CONCAT, outer_only=True),
        _wrap(spans, PackedKeySet, "insert_batch", INSERT, rows=True),
    ]
    try:
        yield spans
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


def span_self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Self seconds per span name of one program trace.

    A span's self time is its duration minus the durations of the spans
    whose ``parent_id`` names it (clipped at zero).
    """
    spans = list(spans)
    duration = {}
    child_time: Dict[str, float] = defaultdict(float)
    for span in spans:
        start = float(span["start_s"])
        end = float(span.get("end_s") or start)
        duration[span["span_id"]] = max(0.0, end - start)
    for span in spans:
        parent = span.get("parent_id")
        if parent in duration:
            child_time[parent] += duration[span["span_id"]]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        own = duration[span["span_id"]] - child_time[span["span_id"]]
        totals[str(span["name"])] += max(0.0, own)
    return totals


def layer_self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """:func:`span_self_times` regrouped by :data:`SPAN_LAYERS`."""
    layers: Dict[str, float] = defaultdict(float)
    for name, seconds in span_self_times(spans).items():
        layers[SPAN_LAYERS.get(name, "other." + name)] += seconds
    return layers


def span_seconds(spans: Iterable[dict], *names: str) -> float:
    """Summed duration of every span with one of ``names``."""
    total = 0.0
    for span in spans:
        if span["name"] in names:
            start = float(span["start_s"])
            total += max(0.0, float(span.get("end_s") or start) - start)
    return total


def checkpoint_footprint(root: Path) -> Tuple[int, int]:
    """(records, bytes) the checkpoint journals under ``root`` hold."""
    records = 0
    size = 0
    for manifest in root.rglob("*.manifest.json"):
        records += len(json.loads(manifest.read_text()).get("records", []))
    for journal in root.rglob("*.journal"):
        size += journal.stat().st_size
    return records, size


def self_time_table(
    title: str, rows: Dict[str, float], wall: float
) -> Tuple[str, float]:
    """A fixed-width self-time table and its coverage (sum ÷ wall)."""
    covered = sum(rows.values())
    coverage = covered / wall if wall > 0 else 0.0
    lines = [
        "%s: self time by layer (wall %.3f s, coverage %.1f%%)"
        % (title, wall, 100.0 * coverage),
        "  %-32s %10s %7s" % ("layer", "self s", "share"),
    ]
    for name, seconds in sorted(rows.items(), key=lambda item: -item[1]):
        lines.append(
            "  %-32s %10.4f %6.1f%%"
            % (name, seconds, 100.0 * seconds / wall if wall > 0 else 0.0)
        )
    return "\n".join(lines), coverage
