"""Observability tests: tracer units, exporters, metrics — and the
end-to-end contract over the HTTP server.

The headline acceptance criterion lives in
:class:`TestEndToEndTracing`: one server round trip yields a Chrome
trace with **one** trace id whose spans come from at least three
processes (server, pool, pool worker) and cover ≥ 90% of the job's
wall-clock; with tracing off, the answer is bit-identical and zero
spans are recorded.
"""

import json
import socket

import pytest

from repro import EngineConfig, Spec
from repro.api import Session, SynthesisRequest
from repro.obs.export import (
    SPAN_STAGES,
    chrome_trace,
    coverage_fraction,
    stage_summary,
    waterfall,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceContext, Tracer
from repro.obs.validate import (
    ValidationError,
    parse_prometheus,
    validate_chrome_trace,
)
from repro.regex.cost import CostFunction
from repro.server import (
    CLASS_INTERACTIVE,
    HttpServiceClient,
    ServerError,
    SynthesisServer,
)
from repro.service import ServiceClient, WireRequest

INTRO_SPEC = Spec(
    positive=["10", "101", "100", "1010", "1011", "1000", "1001"],
    negative=["", "0", "1", "00", "11", "010"],
)

#: A deep 4-lane alternation task (~1.1M candidates): long enough that
#: fixed per-job overheads (submit hop, store write) are a small
#: fraction of wall-clock, which is what the ≥ 90% coverage criterion
#: actually measures.
DEEP_SPEC = Spec(
    positive=["01101001011", "10100101101", "01011010011", "10010110101"],
    negative=["", "0", "1", "11", "10", "00110011001", "11100011101",
              "00000111110", "10110100101", "01100110100"],
)


def span_dict(name, trace_id, span_id, parent_id, start_s, end_s,
              process="test", **args):
    return {
        "name": name, "trace_id": trace_id, "span_id": span_id,
        "parent_id": parent_id, "start_s": start_s, "end_s": end_s,
        "process": process, "args": args,
    }


# ----------------------------------------------------------------------
# Tracer and TraceContext (pure units)
# ----------------------------------------------------------------------
class TestTracer:
    def test_implicit_parenting_nests_spans(self):
        tracer = Tracer("cafe", process="p")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.drain()
        assert outer["name"] == "outer" and outer["parent_id"] is None
        assert inner["parent_id"] == outer["span_id"]
        assert all(s["trace_id"] == "cafe" for s in (outer, inner))
        assert len(tracer) == 0  # drain clears the buffer

    def test_remote_parent_seeds_the_stack(self):
        tracer = Tracer("cafe", parent_span_id="feed")
        tracer.finish(tracer.start("local"))
        (span,) = tracer.drain()
        assert span["parent_id"] == "feed"

    def test_finish_merges_late_args(self):
        tracer = Tracer("cafe")
        span = tracer.start("work", kind="level")
        tracer.finish(span, generated=42)
        (wire,) = tracer.drain()
        assert wire["args"] == {"kind": "level", "generated": 42}
        assert wire["end_s"] >= wire["start_s"]

    def test_ring_buffer_bounds_memory(self):
        tracer = Tracer("cafe", capacity=2)
        for index in range(3):
            tracer.finish(tracer.start("s%d" % index))
        spans = tracer.drain()
        assert [s["name"] for s in spans] == ["s1", "s2"]
        assert tracer.dropped == 1


class TestTraceContext:
    def test_mint_child_round_trip(self):
        ctx = TraceContext.mint()
        child = ctx.child("beef")
        assert child.trace_id == ctx.trace_id
        assert child.parent_span_id == "beef"
        parsed = TraceContext.from_json_dict(child.to_json_dict())
        assert parsed == child

    @pytest.mark.parametrize("junk", [None, 7, [], {}, {"trace_id": ""}])
    def test_from_json_tolerates_junk(self, junk):
        assert TraceContext.from_json_dict(junk) is None


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExport:
    def spans(self):
        return [
            span_dict("job", "t1", "root", None, 10.0, 10.5, "server"),
            span_dict("level", "t1", "aa", "root", 10.1, 10.3, "worker"),
        ]

    def test_chrome_trace_is_valid_and_rebased(self):
        doc = chrome_trace(self.spans())
        summary = validate_chrome_trace(doc)
        assert summary["processes"] == 2
        assert summary["trace_ids"] == ["t1"]
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert complete[0]["ts"] == 0  # rebased to the earliest span
        assert complete[1]["args"]["parent_id"] == "root"

    def test_waterfall_mentions_every_span(self):
        text = waterfall(self.spans())
        assert "2 spans" in text
        assert "level" in text and "job" in text
        assert waterfall([]) == "(no spans recorded)"

    def test_stage_summary_maps_known_names_only(self):
        stages = stage_summary(
            self.spans()
            + [span_dict("queue-wait", "t1", "bb", "root", 10.0, 10.1, "pool")]
        )
        assert stages["level_build"]["count"] == 1
        assert stages["queue_wait"]["seconds"] == pytest.approx(0.1)
        assert "job" not in SPAN_STAGES  # roots stay out of histograms

    def test_coverage_fraction_is_union_of_children(self):
        spans = [
            span_dict("job", "t1", "root", None, 0.0, 10.0),
            span_dict("a", "t1", "a", "root", 0.0, 4.0),
            span_dict("b", "t1", "b", "root", 2.0, 6.0),
            span_dict("c", "t1", "c", "root", 8.0, 9.0),
        ]
        assert coverage_fraction(spans, "root") == pytest.approx(0.7)
        assert coverage_fraction([], None) == 0.0


# ----------------------------------------------------------------------
# Metrics: render → strict parse round trip
# ----------------------------------------------------------------------
class TestMetrics:
    def test_round_trip_through_strict_parser(self):
        registry = MetricsRegistry()
        jobs = registry.counter("jobs_total", "Jobs accepted.")
        depth = registry.gauge("queue_depth", "Queued jobs.")
        lat = registry.histogram("stage_seconds", "Per-stage seconds.")
        jobs.inc(klass="interactive")
        depth.set(3, klass="batch")
        lat.observe(0.003, stage="staging")
        lat.observe(0.2, stage="staging")
        families = parse_prometheus(registry.render())
        assert families["jobs_total"]["type"] == "counter"
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in families["stage_seconds"]["samples"]
        }
        count_key = ("stage_seconds_count", (("stage", "staging"),))
        assert samples[count_key] == 2
        inf_key = (
            "stage_seconds_bucket",
            (("le", "+Inf"), ("stage", "staging")),
        )
        assert samples[inf_key] == 2  # +Inf bucket == _count

    def test_empty_instruments_render_zero_samples(self):
        registry = MetricsRegistry()
        registry.counter("nothing_total", "Never incremented.")
        registry.histogram("quiet_seconds", "Never observed.")
        families = parse_prometheus(registry.render())
        assert families["nothing_total"]["samples"] == [
            ("nothing_total", {}, 0.0)
        ]

    @pytest.mark.parametrize("bad", [
        "",
        "jobs_total 1\n",                      # sample without HELP/TYPE
        "# HELP a b\n# TYPE a counter\na 1",   # missing trailing newline
        "# HELP a b\n# TYPE a counter\n\na 1\n",  # blank line
        "# HELP a b\n# TYPE a counter\n",      # family with no samples
    ])
    def test_parser_rejects_malformed_expositions(self, bad):
        with pytest.raises(ValidationError):
            parse_prometheus(bad)

    def test_chrome_validator_rejects_empty_documents(self):
        with pytest.raises(ValidationError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ValidationError):
            validate_chrome_trace([1, 2])


# ----------------------------------------------------------------------
# In-process purity: tracing must not change the answer
# ----------------------------------------------------------------------
class TestInProcessTracing:
    def run_once(self, trace):
        config = EngineConfig(backend="vector", trace=trace)
        request = SynthesisRequest(
            spec=INTRO_SPEC, cost_fn=CostFunction.uniform(), config=config
        )
        return Session(config).synthesize(request)

    def test_trace_off_is_bit_identical_with_zero_spans(self):
        traced = self.run_once(True)
        plain = self.run_once(False)
        assert "trace" not in plain.extra
        assert traced.extra["trace"]["spans"]
        a, b = traced.to_dict(), plain.to_dict()
        for doc in (a, b):
            doc.pop("elapsed_seconds", None)
            doc.pop("extra", None)
        assert a == b

    def test_pool_worker_joins_the_session_trace(self):
        wire = WireRequest(
            spec=INTRO_SPEC,
            config=EngineConfig(backend="vector", trace=True),
        )
        with ServiceClient(workers=1) as client:
            result = client.synthesize(wire)
        trace = result.extra["trace"]
        processes = {span["process"] for span in trace["spans"]}
        assert any(p.startswith("pool-worker-") for p in processes)
        assert "pool" in processes
        assert len({span["trace_id"] for span in trace["spans"]}) == 1
        names = {span["name"] for span in trace["spans"]}
        assert "worker-job" in names and "queue-wait" in names


# ----------------------------------------------------------------------
# End to end over HTTP (one server per module, one worker per lane)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("obs-server-store")
    with SynthesisServer(
        store_dir=str(store),
        interactive_workers=1,
        batch_workers=1,
        per_worker_depth=2,
    ) as running:
        yield running


@pytest.fixture()
def client(server):
    with HttpServiceClient(server.address) as http:
        yield http


class TestEndToEndTracing:
    def test_one_trace_id_three_processes_high_coverage(self, client):
        wire = WireRequest(spec=DEEP_SPEC, config=EngineConfig())
        job = client.submit(wire)
        done = client.result(job["job_id"], timeout=300)
        assert done["trace_id"]

        doc = client.trace(job["job_id"])
        spans = doc["spans"]
        assert doc["trace_id"] == done["trace_id"]
        # One trace id, across at least three OS processes.
        assert {s["trace_id"] for s in spans} == {doc["trace_id"]}
        processes = {s["process"] for s in spans}
        assert "server" in processes and "pool" in processes
        assert any(p.startswith("pool-worker-") for p in processes)
        assert len(processes) >= 3

        # Spans are well-formed: monotonic, and nested inside their
        # parents (epoch stamps from one machine; small slack for the
        # parent-side bookkeeping done on other threads).
        by_id = {s["span_id"]: s for s in spans}
        for span in spans:
            assert span["end_s"] >= span["start_s"]
            parent = by_id.get(span["parent_id"])
            if parent is not None:
                assert span["start_s"] >= parent["start_s"] - 0.05
                assert span["end_s"] <= parent["end_s"] + 0.05

        # The root job span is covered ≥ 90% by its children.
        root = by_id[doc["root_span_id"]]
        assert root["name"] == "job" and root["parent_id"] is None
        assert coverage_fraction(spans, doc["root_span_id"]) >= 0.90

        # The exported document loads as Chrome trace JSON.
        summary = validate_chrome_trace(doc["chrome_trace"])
        assert summary["trace_ids"] == [doc["trace_id"]]
        assert summary["processes"] >= 3

        # Deep metrics came out the other side: stage histograms with
        # real observations, on a page the strict parser accepts.
        families = parse_prometheus(client.metrics())
        stage_counts = {
            labels["stage"]: value
            for name, labels, value in
            families["repro_stage_seconds"]["samples"]
            if name == "repro_stage_seconds_count"
        }
        for stage in ("queue_wait", "staging", "level_build", "store_write"):
            assert stage_counts.get(stage, 0) >= 1, stage
        assert "repro_plane_cache_hit_rate" in families
        assert "repro_checkpoint_store_bytes" in families

    def test_trace_opt_out_yields_no_trace(self, client):
        wire = WireRequest(
            spec=Spec(["111", "11"], ["1", ""]), config=EngineConfig()
        )
        payload = wire.to_json_dict()
        payload["trace"] = False
        job = client._json_call("POST", "/jobs", payload)
        done = client.result(job["job_id"], timeout=120)
        assert "trace_id" not in done
        result = done["result"]
        assert "trace" not in (result.get("extra") or {})
        with pytest.raises(ServerError) as err:
            client.trace(job["job_id"])
        assert err.value.status == 404

    def test_keep_alive_reuses_one_connection(self, client, server):
        assert client._connection is None
        client.healthz()
        first = client._connection
        assert first is not None
        job = client.submit(
            WireRequest(spec=Spec(["0", "00"], ["1"]), config=EngineConfig())
        )
        client.result(job["job_id"], timeout=120)
        client.metrics()
        # Submit, every status poll, and the metrics scrape all rode the
        # same TCP connection.
        assert client._connection is first

        # A peer that asks for Connection: close gets one.
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            head = sock.recv(65536).decode("latin-1", "replace")
        assert head.split()[1] == "200"
        assert "connection: close" in head.lower()

    def test_healthz_degrades_on_dead_lane(self, client, server,
                                           monkeypatch):
        lane = server.lanes[CLASS_INTERACTIVE]
        real = lane.liveness()
        assert real["alive"] >= 1  # healthy baseline

        dead = dict(real)
        dead["alive"] = 0
        dead["last_quarantine_at"] = 1700000000.0
        monkeypatch.setattr(lane, "liveness", lambda: dead)
        health = client.healthz()
        assert health["status"] == "degraded"
        assert health["lanes"][CLASS_INTERACTIVE]["degraded"] is True
        assert health["lanes"]["batch"]["degraded"] is False
        assert health["last_quarantine_at"] == 1700000000.0

    def test_trace_cli_writes_loadable_chrome_json(self, client, server,
                                                   tmp_path, capsys):
        from repro.cli import main

        job = client.submit(
            WireRequest(spec=Spec(["00", "000"], ["", "0", "1"]),
                        config=EngineConfig())
        )
        client.result(job["job_id"], timeout=120)
        out = tmp_path / "trace.json"
        code = main(["trace", job["job_id"],
                     "--server", server.address, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "trace %s" % job["trace_id"] in printed  # the waterfall
        assert "perfetto" in printed.lower()
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert validate_chrome_trace(doc)["trace_ids"] == [job["trace_id"]]

    def test_job_document_exposes_trace_id_while_running(self, client):
        job = client.submit(
            WireRequest(spec=Spec(["01", "011"], ["", "1"]),
                        config=EngineConfig())
        )
        assert job["trace_id"]
        done = client.result(job["job_id"], timeout=120)
        assert done["trace_id"] == job["trace_id"]
