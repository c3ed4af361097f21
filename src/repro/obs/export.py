"""Span exporters: Chrome trace-event JSON, text waterfall, summaries.

The Chrome trace-event format is the only widely supported exchange
format that needs zero dependencies to produce: a JSON object with a
``traceEvents`` list of ``"ph": "X"`` (complete) events carrying
microsecond timestamps.  Perfetto (https://ui.perfetto.dev) and
``chrome://tracing`` both load it directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: Span-name → metrics-stage mapping (drives the Prometheus histograms
#: and the ``extra["trace"]["stages"]`` summary in results).
SPAN_STAGES = {
    "queue-wait": "queue_wait",
    "staging": "staging",
    "level": "level_build",
    "seed-level": "level_build",
    "checkpoint-replay": "checkpoint_replay",
    "checkpoint-restore": "checkpoint_replay",
    "checkpoint-save": "checkpoint_save",
    "result-store-write": "store_write",
}


def _span_key(span: Dict[str, object]) -> Tuple[float, float]:
    start = float(span.get("start_s", 0.0))
    end = float(span.get("end_s", start))
    return (start, -(end - start))


def chrome_trace(spans: List[Dict[str, object]]) -> Dict[str, object]:
    """Wire-form spans → a Chrome trace-event JSON document.

    Process labels become numeric pids (first-seen order) with
    ``process_name`` metadata events; timestamps are rebased to the
    earliest span so the timeline starts near zero in the viewer.
    """
    ordered = sorted(spans, key=_span_key)
    base_s = ordered[0]["start_s"] if ordered else 0.0
    pids: Dict[str, int] = {}
    events: List[Dict[str, object]] = []
    for span in ordered:
        process = str(span.get("process", "main"))
        pid = pids.get(process)
        if pid is None:
            pid = pids[process] = len(pids) + 1
            events.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": process},
                }
            )
        start = float(span["start_s"])
        end = float(span.get("end_s") or start)
        args = dict(span.get("args") or {})
        args["trace_id"] = span.get("trace_id")
        args["span_id"] = span.get("span_id")
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": 1,
                "ts": round((start - base_s) * 1e6, 3),
                "dur": round(max(0.0, end - start) * 1e6, 3),
                "cat": "repro",
                "name": str(span["name"]),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _depths(spans: List[Dict[str, object]]) -> Dict[str, int]:
    parents = {
        str(s.get("span_id")): s.get("parent_id") for s in spans
    }
    depths: Dict[str, int] = {}

    def depth(span_id: str, guard: int = 0) -> int:
        if span_id in depths:
            return depths[span_id]
        parent = parents.get(span_id)
        if parent is None or parent not in parents or guard > 64:
            depths[span_id] = 0
        else:
            depths[span_id] = depth(str(parent), guard + 1) + 1
        return depths[span_id]

    for span_id in parents:
        depth(span_id)
    return depths


def waterfall(spans: List[Dict[str, object]], width: int = 48) -> str:
    """A compact fixed-width text timeline (one line per span)."""
    if not spans:
        return "(no spans recorded)"
    ordered = sorted(spans, key=_span_key)
    depths = _depths(ordered)
    t0 = min(float(s["start_s"]) for s in ordered)
    t1 = max(float(s.get("end_s") or s["start_s"]) for s in ordered)
    total = max(t1 - t0, 1e-9)
    lines = [
        "trace %s  (%.1f ms total, %d spans)"
        % (ordered[0].get("trace_id", "?"), total * 1e3, len(ordered))
    ]
    for span in ordered:
        start = float(span["start_s"])
        end = float(span.get("end_s") or start)
        lo = int((start - t0) / total * width)
        hi = max(lo + 1, int((end - t0) / total * width))
        bar = " " * lo + "#" * min(hi - lo, width - lo)
        indent = "  " * depths.get(str(span.get("span_id")), 0)
        label = "%s%s" % (indent, span["name"])
        lines.append(
            "%-28s |%-*s| %8.2f ms  %s"
            % (label[:28], width, bar, (end - start) * 1e3,
               span.get("process", ""))
        )
    return "\n".join(lines)


def stage_summary(spans: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Aggregate span durations into named stages (see SPAN_STAGES)."""
    stages: Dict[str, Dict[str, float]] = {}
    for span in spans:
        stage = SPAN_STAGES.get(str(span.get("name")))
        if stage is None:
            continue
        start = float(span.get("start_s", 0.0))
        end = float(span.get("end_s") or start)
        entry = stages.setdefault(stage, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += max(0.0, end - start)
    return stages


def trace_payload(
    trace_id: str, spans: List[Dict[str, object]]
) -> Dict[str, object]:
    """The ``SynthesisResult.extra["trace"]`` payload shape."""
    return {
        "trace_id": trace_id,
        "spans": spans,
        "stages": stage_summary(spans),
    }


def coverage_fraction(
    spans: List[Dict[str, object]], root_span_id: Optional[str] = None
) -> float:
    """Fraction of the root span's wall-clock covered by child spans.

    The root defaults to the longest span; coverage is the measure of
    the union of every *other* span's interval clipped to the root.
    """
    if not spans:
        return 0.0
    by_id = {str(s.get("span_id")): s for s in spans}
    if root_span_id is not None and root_span_id in by_id:
        root = by_id[root_span_id]
    else:
        root = max(
            spans,
            key=lambda s: float(s.get("end_s") or 0.0) - float(s["start_s"]),
        )
    r0 = float(root["start_s"])
    r1 = float(root.get("end_s") or r0)
    if r1 <= r0:
        return 0.0
    intervals = []
    for span in spans:
        if span is root:
            continue
        lo = max(r0, float(span["start_s"]))
        hi = min(r1, float(span.get("end_s") or span["start_s"]))
        if hi > lo:
            intervals.append((lo, hi))
    intervals.sort()
    covered = 0.0
    cursor = r0
    for lo, hi in intervals:
        if hi <= cursor:
            continue
        covered += hi - max(lo, cursor)
        cursor = hi
    return covered / (r1 - r0)
