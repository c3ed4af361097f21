"""Tracing-overhead benchmark: traced vs untraced synthesis.

The observability layer's acceptance bar: with ``EngineConfig.trace``
on, the engine emits a full span timeline (staging, per-level deltas,
checkpoint work) and the answer stays **bit-identical** — asserted on
every run — while wall-clock overhead stays under 3% on the wide-spec
workload.  The overhead assertion is gated to full scale
(``REPRO_BENCH_SCALE=full``): at quick scale the workload is
milliseconds long and fixed costs (process start, first numpy call)
dominate, so the honest overhead number is recorded in the artifact
instead of asserted.

:func:`test_emit_obs_bench_artifact` writes ``BENCH_obs.json`` to the
repo root.
"""

from __future__ import annotations

import json
import time

from _bench_utils import REPO_ROOT, bench_scale, is_full
from repro import Spec
from repro.api import EngineConfig, Session, SynthesisRequest
from repro.regex.cost import CostFunction

#: Quick-scale workload: the paper's introduction example — fast enough
#: for CI, deep enough to emit per-level spans.
QUICK_SPEC = Spec(
    positive=["", "0", "00", "100", "1000", "1010", "010"],
    negative=["1", "10", "1001", "101", "11"],
)

#: Full-scale workload (nightly): a wide multi-lane spec —
#: ~1.1M candidates over 13 cost levels, long enough that per-level
#: span bookkeeping would show up if it cost anything.
WIDE_SPEC = Spec(
    positive=["01101001011", "10100101101", "01011010011", "10010110101"],
    negative=["", "0", "1", "11", "10", "00110011001", "11100011101",
              "00000111110", "10110100101", "01100110100"],
)

REPEATS = 3


def run_once(spec: Spec, trace: bool):
    """One cold run (fresh session, fresh staging on both sides)."""
    config = EngineConfig(backend="vector", trace=trace)
    session = Session(config)
    request = SynthesisRequest(
        spec=spec, cost_fn=CostFunction.uniform(), config=config
    )
    started = time.perf_counter()
    result = session.synthesize(request)
    return result, time.perf_counter() - started


def answer_key(result):
    """Everything enumeration-visible about the answer."""
    return (
        result.status,
        result.regex_str,
        result.cost,
        result.generated,
        result.unique_cs,
        result.universe_size,
    )


def test_emit_obs_bench_artifact():
    spec = WIDE_SPEC if is_full() else QUICK_SPEC

    untraced_s, traced_s = [], []
    untraced_result = traced_result = None
    for _ in range(REPEATS):
        untraced_result, elapsed = run_once(spec, trace=False)
        untraced_s.append(elapsed)
        traced_result, elapsed = run_once(spec, trace=True)
        traced_s.append(elapsed)
    assert untraced_result is not None and traced_result is not None

    # Bit-identical answers, unconditionally: tracing must be pure
    # observation.
    assert answer_key(traced_result) == answer_key(untraced_result), (
        "tracing changed the answer: %r vs %r"
        % (answer_key(traced_result), answer_key(untraced_result))
    )

    # Tracing off ⇒ zero spans; on ⇒ a real timeline.
    assert "trace" not in untraced_result.extra
    trace = traced_result.extra["trace"]
    assert trace["spans"], "traced run emitted no spans"

    # Min-of-repeats: the steady-state cost, immune to one-off stalls.
    overhead = (min(traced_s) - min(untraced_s)) / min(untraced_s)
    if is_full():
        assert overhead < 0.03, (
            "tracing overhead must stay < 3%% at full scale, got %.2f%%"
            % (100 * overhead)
        )

    artifact = {
        "benchmark": "tracing overhead (traced vs untraced)",
        "scale": bench_scale(),
        "repeats": REPEATS,
        "positives": len(spec.positive),
        "negatives": len(spec.negative),
        "generated": traced_result.generated,
        "untraced_seconds_min": min(untraced_s),
        "traced_seconds_min": min(traced_s),
        "overhead_fraction": overhead,
        "overhead_asserted": is_full(),
        "span_count": len(trace["spans"]),
        "trace_stages": trace.get("stages"),
        "results_bit_identical": True,
    }
    (REPO_ROOT / "BENCH_obs.json").write_text(
        json.dumps(artifact, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print("\nBENCH_obs.json:")
    print(json.dumps(artifact, indent=2, sort_keys=True))
