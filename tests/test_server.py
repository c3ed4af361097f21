"""Network server tests: scheduler policy, HTTP endpoints, streaming.

The headline acceptance criterion lives in :class:`TestHttpBitIdentity`:
an answer served over HTTP is bit-identical (modulo wall-clock) to the
in-process :class:`~repro.service.client.ServiceClient` answer, on both
backends.  The scheduler classes are tested pure (no sockets, no worker
processes); the HTTP tests share one running server per module.
"""

import http.client
import json
import logging
import socket
import threading
import time

import pytest

from repro import EngineConfig, Spec
from repro.core.result import SynthesisResult
from repro.regex.cost import CostFunction
from repro.server import (
    CLASS_BATCH,
    CLASS_INTERACTIVE,
    AdmissionController,
    HttpServiceClient,
    LatencyTracker,
    OverloadedError,
    ServerError,
    SynthesisServer,
    WorkloadHistory,
    classify,
    estimate_cost,
)
from repro.server.client import poll_intervals
from repro.service import ServiceClient, WireRequest

BACKENDS = ["scalar", "vector"]

INTRO_SPEC = Spec(
    positive=["10", "101", "100", "1010", "1011", "1000", "1001"],
    negative=["", "0", "1", "00", "11", "010"],
)

#: Long-running workload (same recipe as test_service): a >64-word
#: universe with an expensive star keeps the sweep busy for seconds,
#: leaving a comfortable window for mid-run joins and cancellations.
SLOW_SPEC = Spec(
    positive=["0110100101", "1010010110"],
    negative=["", "0", "1", "0011001100"],
)


def wire_of(spec, backend="vector", **kwargs):
    return WireRequest(
        spec=spec, config=EngineConfig(backend=backend), **kwargs
    )


def slow_wire(**kwargs):
    kwargs.setdefault("max_generated", 20_000_000)
    return WireRequest(
        spec=SLOW_SPEC,
        cost_fn=CostFunction.from_tuple((1, 1, 10, 1, 1)),
        config=EngineConfig(backend="vector"),
        **kwargs,
    )


def fake_result(elapsed=0.1, generated=100, status="success"):
    return SynthesisResult(
        status=status,
        spec=INTRO_SPEC,
        backend="vector",
        cost_function=(1, 1, 1, 1, 1),
        allowed_error=0.0,
        max_cost=40,
        generated=generated,
        elapsed_seconds=elapsed,
    )


# ----------------------------------------------------------------------
# Scheduler policy (pure, no sockets)
# ----------------------------------------------------------------------
class TestEstimateAndClassify:
    def test_estimate_orders_by_universe_and_ceiling(self):
        small = wire_of(Spec(["0"], ["1"]))
        large = wire_of(Spec(["0" * 30, "1" * 24], ["01" * 12]), max_cost=500)
        assert estimate_cost(small) < estimate_cost(large)

    def test_estimate_capped_by_candidate_budget(self):
        unbounded = wire_of(Spec(["0" * 30], ["1" * 30]), max_cost=500)
        budgeted = WireRequest(
            spec=Spec(["0" * 30], ["1" * 30]),
            max_cost=500,
            max_generated=1_000,
            config=EngineConfig(backend="vector"),
        )
        assert estimate_cost(budgeted) < estimate_cost(unbounded)

    def test_classify_heuristic_small_is_interactive(self):
        assert classify(wire_of(Spec(["0"], ["1"])), None) == CLASS_INTERACTIVE

    def test_classify_heuristic_huge_is_batch(self):
        huge = wire_of(Spec(["0" * 30, "1" * 24], ["01" * 12]), max_cost=500)
        assert classify(huge, None) == CLASS_BATCH

    def test_measured_latency_overrides_the_estimate(self):
        huge = wire_of(Spec(["0" * 30, "1" * 24], ["01" * 12]), max_cost=500)
        history = WorkloadHistory()
        history.record(huge.staging_fingerprint(), fake_result(elapsed=0.01))
        assert classify(huge, history) == CLASS_INTERACTIVE
        slow_history = WorkloadHistory()
        tiny = wire_of(Spec(["0"], ["1"]))
        slow_history.record(
            tiny.staging_fingerprint(), fake_result(elapsed=30.0)
        )
        assert classify(tiny, slow_history) == CLASS_BATCH


class TestWorkloadHistory:
    def test_record_folds_running_average_and_generated(self):
        history = WorkloadHistory()
        profile = history.record("fp", fake_result(elapsed=1.0, generated=5))
        profile = history.record("fp", fake_result(elapsed=3.0, generated=9))
        assert profile.runs == 2
        assert profile.avg_elapsed_s == pytest.approx(2.0)
        assert profile.last_generated == 9

    def test_lru_bound(self):
        history = WorkloadHistory(max_entries=2)
        for name in ("a", "b", "c"):
            history.record(name, fake_result())
        assert len(history) == 2
        assert history.profile("a") is None
        assert history.profile("c") is not None

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "history.json"
        history = WorkloadHistory(path=path)
        history.record("fp", fake_result(elapsed=2.0, generated=7))
        history.save()
        reloaded = WorkloadHistory(path=path)
        profile = reloaded.profile("fp")
        assert profile is not None
        assert profile.avg_elapsed_s == pytest.approx(2.0)
        assert profile.last_generated == 7

    def test_corrupt_file_is_an_empty_history(self, tmp_path):
        path = tmp_path / "history.json"
        path.write_text("not json", encoding="utf-8")
        assert len(WorkloadHistory(path=path)) == 0


class TestAdmission:
    def test_bounded_admission_and_release(self):
        controller = AdmissionController(
            slots={CLASS_INTERACTIVE: 1, CLASS_BATCH: 1},
            max_queue={CLASS_INTERACTIVE: 1, CLASS_BATCH: 0},
        )
        assert controller.try_admit(CLASS_INTERACTIVE).admitted
        assert controller.try_admit(CLASS_INTERACTIVE).admitted
        rejected = controller.try_admit(CLASS_INTERACTIVE)
        assert not rejected.admitted
        assert rejected.retry_after_s >= 1.0
        assert "queue full" in rejected.reason
        # The other class has its own budget.
        assert controller.try_admit(CLASS_BATCH).admitted
        controller.release(CLASS_INTERACTIVE)
        assert controller.try_admit(CLASS_INTERACTIVE).admitted
        snapshot = controller.depth_snapshot()
        assert snapshot[CLASS_INTERACTIVE]["rejected"] == 1
        assert snapshot[CLASS_INTERACTIVE]["live"] == 2

    def test_retry_after_scales_with_backlog_and_p50(self):
        latency = LatencyTracker()
        for _ in range(10):
            latency.record(CLASS_BATCH, 2.0)
        controller = AdmissionController(
            slots={CLASS_INTERACTIVE: 1, CLASS_BATCH: 2},
            max_queue={CLASS_INTERACTIVE: 0, CLASS_BATCH: 0},
            latency=latency,
        )
        assert controller.retry_after(CLASS_BATCH, queued=4) == 4.0
        assert controller.retry_after(CLASS_BATCH, queued=0) == 1.0  # floor


class TestLatencyTracker:
    def test_percentiles_and_snapshot(self):
        tracker = LatencyTracker()
        assert tracker.percentile(CLASS_INTERACTIVE, 0.5) is None
        for value in (0.1, 0.2, 0.3, 0.4, 1.0):
            tracker.record(CLASS_INTERACTIVE, value)
        assert tracker.percentile(CLASS_INTERACTIVE, 0.5) == pytest.approx(0.3)
        assert tracker.percentile(CLASS_INTERACTIVE, 0.99) == pytest.approx(1.0)
        snapshot = tracker.snapshot()
        assert snapshot[CLASS_INTERACTIVE]["count"] == 5
        assert snapshot[CLASS_BATCH]["count"] == 0


class TestPollBackoff:
    def test_intervals_double_to_a_cap(self):
        schedule = poll_intervals(base=0.05, cap=1.0)
        values = [next(schedule) for _ in range(8)]
        assert values[0] == pytest.approx(0.05)
        assert values[1] == pytest.approx(0.10)
        assert values == sorted(values)  # monotone
        assert values[-1] == pytest.approx(1.0)
        assert next(schedule) == pytest.approx(1.0)  # stays capped


# ----------------------------------------------------------------------
# The running HTTP server (one per module; lanes of one worker each)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("server-store")
    with SynthesisServer(
        store_dir=str(store),
        interactive_workers=1,
        batch_workers=1,
        per_worker_depth=2,
    ) as running:
        yield running


@pytest.fixture()
def client(server):
    return HttpServiceClient(server.address)


def _wait(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in %.0fs" % timeout)
        time.sleep(interval)


class TestHttpBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_http_answers_match_in_process_service(self, backend, client):
        wire = wire_of(INTRO_SPEC, backend=backend)
        job = client.submit(wire)
        over_http = client.result(job["job_id"], timeout=120)["result"]
        with ServiceClient(workers=1, config=EngineConfig(backend=backend)) as sc:
            in_process = sc.synthesize(wire).to_dict()
        # The job document additionally forwards the scheduling
        # counters from ``result.extra`` (attempts, preemptions, ...)
        # that a bare ``to_dict`` does not carry.
        extra = over_http.pop("extra")
        assert extra["attempts"] == 1
        assert extra["preemptions"] == 0
        # Wall-clock is the only remaining field allowed to differ.
        for key in set(in_process) | set(over_http):
            if key == "elapsed_seconds":
                continue
            assert over_http.get(key) == in_process.get(key), key

    def test_synthesize_helper_round_trips(self, client):
        result = client.synthesize(wire_of(Spec(["0", "00"], ["1"])),
                                   timeout=120)
        assert result["status"] == "success"


class TestEventStream:
    def test_stream_replays_and_preserves_engine_clock(self, client):
        wire = wire_of(Spec(["10", "100"], ["", "0", "1"]))
        job = client.submit(wire)
        done = client.result(job["job_id"], timeout=120)
        events = list(client.events(job["job_id"]))
        assert events, "finished job must replay its event history"
        assert events[-1].done
        # The engine-side monotonic clock survived the HTTP trip.
        clocks = [event.elapsed_s for event in events]
        assert clocks == sorted(clocks)
        assert events[-1].elapsed_s > 0.0
        incumbent = events[-1].incumbent
        assert incumbent["regex"] == done["result"]["regex"]

    def test_duplicate_submit_joins_live_job(self, client, server):
        wire = slow_wire()
        first = client.submit(wire)
        assert not first.get("deduplicated")
        try:
            _wait(lambda: client.status(first["job_id"])["state"]
                  in ("queued", "running"))
            second = client.submit(wire)
            assert second["job_id"] == first["job_id"]
            assert second["deduplicated"] is True
            assert server._records[first["job_id"]].joined == 1
        finally:
            client.cancel(first["job_id"])
            client.result(first["job_id"], timeout=120)

    def test_cancel_mid_run(self, client):
        wire = slow_wire(allowed_error=0.01)
        job = client.submit(wire)
        # Wait for the first progress event so the job is on a worker.
        _wait(lambda: client.status(job["job_id"])["events"] > 0, timeout=60)
        answer = client.cancel(job["job_id"])
        assert answer["cancelled"] is True
        done = client.result(job["job_id"], timeout=120)
        assert done["state"] == "cancelled"
        assert done["result"]["status"] == "cancelled"

    def test_cancel_after_complete_returns_the_result(self, client):
        wire = wire_of(Spec(["01", "0101"], ["10", "1"]))
        job = client.submit(wire)
        client.result(job["job_id"], timeout=120)
        answer = client.cancel(job["job_id"])
        assert answer["cancelled"] is False
        assert answer["state"] == "done"
        assert answer["result"]["status"] == "success"

    def test_client_disconnect_releases_subscription(self, client, server):
        wire = slow_wire(max_cost=60)
        job = client.submit(wire)
        job_id = job["job_id"]
        try:
            _wait(lambda: client.status(job_id)["events"] > 0, timeout=60)
            record = server._records[job_id]
            stream = client.events(job_id)
            next(stream)  # subscribed (replay delivers instantly)
            _wait(lambda: len(record.subscribers) == 1, timeout=10)
            stream.close()  # closes the connection mid-stream
            _wait(lambda: len(record.subscribers) == 0, timeout=10)
        finally:
            client.cancel(job_id)
            client.result(job_id, timeout=120)

    def test_events_for_unknown_job_is_404(self, client):
        with pytest.raises(ServerError) as err:
            list(client.events("no-such-job"))
        assert err.value.status == 404


class TestEndpoints:
    def test_unknown_job_status_is_404(self, client):
        with pytest.raises(ServerError) as err:
            client.status("deadbeef")
        assert err.value.status == 404

    def test_unknown_path_is_404_and_bad_json_is_400(self, server):
        connection_status = []
        for raw in (
            b"GET /nope HTTP/1.1\r\n\r\n",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 7\r\n\r\nnot llo",
            b"GET /jobs HTTP/1.1\r\n\r\n",
        ):
            with socket.create_connection(("127.0.0.1", server.port)) as sock:
                sock.sendall(raw)
                head = sock.recv(4096).decode("latin-1", "replace")
                connection_status.append(int(head.split()[1]))
        assert connection_status == [404, 400, 405]

    def test_healthz_reports_lanes_and_quarantine(self, client, server):
        quarantine_dir = (
            __import__("pathlib").Path(server.store_dir) / "quarantine"
        )
        quarantine_dir.mkdir(exist_ok=True)
        record_path = quarantine_dir / "feedface.json"
        record_path.write_text(
            json.dumps({"fingerprint": "feedface", "job_id": "j1",
                        "attempts": 3, "error": "poison",
                        "request": {}}),
            encoding="utf-8",
        )
        try:
            health = client.healthz()
            assert health["status"] == "ok"
            for klass in (CLASS_INTERACTIVE, CLASS_BATCH):
                assert health["lanes"][klass]["alive"] >= 1
            for counter in ("retries", "respawns", "quarantined"):
                assert counter in health["counters"]
            fingerprints = [q["fingerprint"] for q in health["quarantine"]]
            assert "feedface" in fingerprints
            entry = next(q for q in health["quarantine"]
                         if q["fingerprint"] == "feedface")
            assert entry["attempts"] == 3
        finally:
            record_path.unlink()

    def test_metrics_exposition_format(self, client):
        text = client.metrics()
        for line in (
            "# TYPE repro_queue_depth gauge",
            "# TYPE repro_jobs_rejected_total counter",
            'repro_queue_depth{class="interactive"}',
            'repro_latency_seconds{class="batch",quantile="0.99"}',
            "# TYPE repro_workers_alive gauge",
        ):
            assert line in text, line

    def test_class_override_is_honoured(self, client):
        job = client.submit(
            wire_of(Spec(["111", "11"], ["1", ""])), klass=CLASS_BATCH
        )
        assert job["class"] == CLASS_BATCH
        client.result(job["job_id"], timeout=120)


# ----------------------------------------------------------------------
# Overload: a bounded queue answers 429, never hangs
# ----------------------------------------------------------------------
class TestOverload:
    def test_admission_rejects_with_retry_after(self, tmp_path):
        with SynthesisServer(
            store_dir=str(tmp_path / "store"),
            interactive_workers=1,
            batch_workers=1,
            per_worker_depth=1,
            max_queue={CLASS_INTERACTIVE: 0, CLASS_BATCH: 0},
        ) as running:
            client = HttpServiceClient(running.address)
            filler = slow_wire()
            job = client.submit(filler, klass=CLASS_INTERACTIVE)
            try:
                overflow = slow_wire(allowed_error=0.125)
                assert overflow.fingerprint() != filler.fingerprint()
                with pytest.raises(OverloadedError) as err:
                    client.submit(overflow, klass=CLASS_INTERACTIVE)
                assert err.value.retry_after_s >= 1.0
                # A duplicate of the LIVE job still joins (no new slot).
                joined = client.submit(filler, klass=CLASS_INTERACTIVE)
                assert joined["deduplicated"] is True
                # The batch lane is unaffected by interactive overload.
                batch_job = client.submit(
                    wire_of(Spec(["0"], ["1"])), klass=CLASS_BATCH
                )
                client.result(batch_job["job_id"], timeout=120)
                metrics = client.metrics()
                assert 'repro_jobs_rejected_total{class="interactive"} 1' \
                    in metrics
            finally:
                client.cancel(job["job_id"])
                client.result(job["job_id"], timeout=120)


# ----------------------------------------------------------------------
# Server-side maintenance
# ----------------------------------------------------------------------
class TestServerMaintenance:
    def test_history_recorded_and_persisted(self, client, server):
        wire = wire_of(Spec(["001", "0011"], ["1", "0"]))
        job = client.submit(wire)
        client.result(job["job_id"], timeout=120)
        profile = server.history.profile(wire.staging_fingerprint())
        assert profile is not None and profile.runs >= 1

    def test_resubmit_after_cancel_starts_fresh(self, client):
        wire = slow_wire(max_generated=10_000_000)
        job = client.submit(wire)
        client.cancel(job["job_id"])
        client.result(job["job_id"], timeout=120)
        again = client.submit(wire)
        assert not again.get("deduplicated")
        client.cancel(again["job_id"])
        client.result(again["job_id"], timeout=120)


# ----------------------------------------------------------------------
# Shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    """stop() cancels every connection task; each must end quietly, not
    log an unhandled CancelledError traceback."""

    @pytest.mark.parametrize("open_connection", ["idle_keepalive", "event_stream"])
    def test_stop_with_open_connection_is_quiet(
        self, open_connection, tmp_path, capfd, caplog
    ):
        running = SynthesisServer(
            store_dir=str(tmp_path / "store"),
            interactive_workers=1,
            batch_workers=1,
        ).start()
        conn = http.client.HTTPConnection(running.host, running.port, timeout=30)
        try:
            if open_connection == "idle_keepalive":
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            else:
                with HttpServiceClient(running.address) as submitter:
                    job = submitter.submit(slow_wire())
                conn.request("GET", "/jobs/%s/events" % job["job_id"])
                response = conn.getresponse()
                assert response.status == 200
                assert response.fp.readline()  # first chunk is live
            capfd.readouterr()
            with caplog.at_level(logging.DEBUG, logger="asyncio"):
                running.stop()
        finally:
            conn.close()
            running.stop()
        assert [r for r in caplog.records if r.name == "asyncio"] == []
        assert capfd.readouterr().err == ""
