"""The three workloads: draws, set-up, the timed loop, checks, metrics.

Every workload is a closed loop from one process: the next request is
sent only after the previous answer (or batch of answers) is back.  All
requests are bounded by a candidate budget and never by a time limit,
so each request's answer, status and candidate count depend only on
the seed, whatever the speed of the host.

``engine-suite``
    In-process ``Session.synthesize`` over a seeded draw of the paper's
    Type-1/Type-2 specs.  The enumeration kernels do nearly all the
    work; no serving layer is involved.
``http-interactive``
    One ``HttpServiceClient`` on a kept-alive connection against a
    ``SynthesisServer`` with default settings: ``submit`` then
    ``result()`` for small, distinct specs.  The serving layers do most
    of the work.
``pool-refine``
    A ``ServiceClient`` pool with a durable store.  Each round sends a
    cold batch (pass 1, which writes level and partial checkpoints),
    then re-asks every spec (pass 2: a larger budget where pass 1 ran
    out, ``allowed_error`` 0.1 where it solved), which restores and
    replays those checkpoints.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import EngineConfig, ServiceClient, Session, Spec, SynthesisRequest
from repro.obs.trace import TraceContext
from repro.server import CLASS_INTERACTIVE, HttpServiceClient, SynthesisServer
from repro.server.client import OverloadedError, ServerError
from repro.suites.generator import generate_type1, generate_type2

import check
import host
import layers

#: engine-suite draw: the paper's Type-1/Type-2 schemes.  Requests per
#: second over a run depends on the mix of spec sizes, so the draw is
#: stratified (see :func:`spec_stream`) and the budget is small enough
#: for a run to answer a few hundred specs.  With 3M candidates a run
#: held 45-65 specs and requests/s spread 26% between seeds.
ENGINE_LE = (3, 7)
ENGINE_PN = (4, 9)
ENGINE_BUDGET = 250_000
#: Every REFERENCE_EVERY-th engine-suite and pool-refine answer is
#: recomputed in a fresh in-process session and must repeat exactly
#: (the rest get the independent matcher and cost checks only;
#: recomputing all of them would double the run).
REFERENCE_EVERY = 4

#: http-interactive draw.  Example length 2 keeps every job well inside
#: the client's first 50 ms poll; at lengths 3-4 the share of jobs that
#: cross into the 150 ms poll moved between 10% and 41% on one and the
#: same draw with host load, and requests/s moved with it.
HTTP_LE = (2, 2)
HTTP_PN = (2, 3)
HTTP_BUDGET = 200_000

#: pool-refine draw: medium specs and a budget that a good share of
#: them exhaust; one round is one pass over the draw's strata, small
#: enough that the last round overshoots the deadline by little.
POOL_LE = (4, 6)
POOL_PN = (4, 7)
POOL_BUDGET = 250_000
POOL_REFINE_BUDGET = 2 * POOL_BUDGET
POOL_REFINE_ERROR = 0.1
POOL_ROUND = 2 * (POOL_LE[1] - POOL_LE[0] + 1)
#: Mid-level checkpoint cadence of the pool, a fifth of the budget, so
#: a pass-1 run that stops inside a level leaves a partial record that
#: pass 2 resumes from (the default 250k-candidate cadence never fires
#: below that budget).
POOL_PARTIAL_EVERY = POOL_BUDGET // 5

INFINITY = float("inf")

#: Set-ups per run (setup_s is their median) and the fixed warm-up
#: request whose answer ends each set-up: about 0.1 s of engine work,
#: so that millisecond jitter does not dominate setup_s.
SETUP_REPEATS = 5
#: Host probes taken just before and just after each scaled set-up.
SETUP_PROBES = 3
WARMUP = SynthesisRequest(
    spec=Spec(
        ["", "1", "01", "0111", "1011", "10001", "000101"],
        ["0", "00", "10", "0000", "0011", "11001", "111011"],
    ),
    max_generated=300_000,
)
#: The HTTP warm-up must stay inside the client's first 50 ms poll on a
#: cold worker, or setup_s would jump by a poll interval.
HTTP_WARMUP = SynthesisRequest(
    spec=Spec(["10", "101", "100"], ["", "0", "1"]), max_generated=50_000
)


def spec_stream(seed: int, tag: str, le_range, pn_range) -> Iterator[Spec]:
    """An endless seeded draw of Type-1 and Type-2 specs, stratified.

    The strata are (scheme, maximal example length) pairs, visited in a
    fixed cycle, so every run holds the same mix of spec sizes; the
    example counts and the strings are drawn at random from the seed.
    Spec sizes differ by an order of magnitude between strata, and an
    unstratified draw of one run's length moved the mix, and with it the
    run's throughput, by more than the host's own noise.

    Drawn through ``generate_type1``/``generate_type2`` with the example
    counts clamped to the strings that exist (``generate_suite`` cannot
    be used: it never returns when it draws ``le=0``).
    """
    rng = random.Random("%s|%d" % (tag, seed))
    strata = [
        (sampler, le)
        for le in range(le_range[0], le_range[1] + 1)
        for sampler in (generate_type1, generate_type2)
    ]
    for sampler, le in itertools.cycle(strata):
        n_pos = rng.randint(*pn_range)
        n_neg = rng.randint(*pn_range)
        capacity = 2 ** (le + 1) - 1
        while n_pos + n_neg > capacity:
            n_pos, n_neg = max(1, n_pos - 1), max(1, n_neg - 1)
        yield sampler(rng.randrange(2 ** 31), le=le, n_pos=n_pos, n_neg=n_neg)


def percentile(samples: List[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (0 without samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def timed_setups(make: Callable[[int], object], warm: Callable[[object], None],
                 close: Callable[[object], None],
                 scaled: bool) -> Tuple[float, object]:
    """Median cold-start time over :data:`SETUP_REPEATS` set-ups.

    Each set-up builds a fresh instance and serves the warm-up request;
    all but the last instance are closed again.  Returns the median and
    the last instance, which the timed loop then uses.  A ``scaled``
    (compute-bound) set-up is divided by the host's slowdown, probed
    just before and after it.
    """
    times = []
    instance = None
    for attempt in range(SETUP_REPEATS):
        if instance is not None:
            close(instance)
        speed = host.HostSpeed()
        if scaled:
            for _ in range(SETUP_PROBES):
                speed.probe()
        started = time.perf_counter()
        instance = make(attempt)
        warm(instance)
        elapsed = time.perf_counter() - started
        if scaled:
            for _ in range(SETUP_PROBES):
                speed.probe()
            elapsed /= speed.slowdown
        times.append(elapsed)
    return statistics.median(times), instance


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self, seed: int) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.layers: Dict[str, float] = {}
        self.inputs: Dict[str, object] = dict(host.properties(), seed=seed)
        self.tables: List[str] = []

    def judge(self, spec, answer: Dict[str, object],
              reference: Optional[Dict[str, object]]) -> None:
        problems = check.answer_problems(spec, answer, reference)
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def miss(self, reason: str) -> None:
        self.failed += 1
        self.problems.append(reason)

    def describe_answers(self, answers: List[Dict[str, object]],
                         padded_bits: List[int]) -> None:
        """Record the input properties a later claim may need to quote."""
        count = max(1, len(answers))
        self.inputs.update(
            requests=len(answers),
            wide_frac=sum(1 for bits in padded_bits if bits > 64) / count,
            solved_frac=sum(1 for a in answers if a["status"] == "success") / count,
            budget_frac=sum(1 for a in answers if a["status"] == "budget") / count,
            candidates=sum(int(a["generated"]) for a in answers),
        )


def _common_metrics(outcome: Outcome, setup_s: float, requests: int,
                    wall: float, rss_mb: float,
                    speed: Optional[host.HostSpeed] = None) -> None:
    """The end-to-end metrics.  Compute-bound workloads pass the host
    ``speed`` measured over their timed loop, and their requests/s is
    scaled to the reference host speed (the raw figure goes to
    ``inputs``)."""
    outcome.attempted = max(outcome.attempted, 1)
    rate = requests / wall
    outcome.inputs["raw_requests_per_s"] = rate
    if speed is not None:
        outcome.inputs["host_slowdown"] = speed.slowdown
        rate *= speed.slowdown
    outcome.metrics.update(
        setup_s=(setup_s, "s"),
        requests_per_s=(rate, "1/s"),
        peak_rss_mb=(rss_mb, "MB"),
        success_frac=(
            (outcome.attempted - outcome.failed) / outcome.attempted, "ratio"
        ),
    )


def _reference(request: SynthesisRequest):
    """The in-process answer to ``request`` from a fresh session."""
    return Session(EngineConfig()).synthesize(request)


# ----------------------------------------------------------------------
# engine-suite
# ----------------------------------------------------------------------
def _engine_phase(session: Session, requests: Iterable[SynthesisRequest],
                  speed: host.HostSpeed, seconds: float = INFINITY):
    """Serve ``requests`` until ``seconds`` pass; returns the answers and
    the wall time, less the host probes taken between requests."""
    records = []
    probing = 0.0
    started = time.perf_counter()
    for request in requests:
        probing += speed.maybe_probe()
        if time.perf_counter() - started - probing >= seconds:
            break
        records.append((request, session.synthesize(request)))
    probing += speed.probe()
    return records, time.perf_counter() - started - probing


def engine_suite(seed: int, seconds: float, traced: bool, state: Path) -> Outcome:
    outcome = Outcome(seed)
    requests = (
        SynthesisRequest(spec=spec, max_generated=ENGINE_BUDGET)
        for spec in spec_stream(seed, "engine-suite", ENGINE_LE, ENGINE_PN)
    )
    setup_s, session = timed_setups(
        lambda attempt: Session(EngineConfig()),
        lambda session: session.synthesize(WARMUP),
        lambda session: None,
        scaled=True,
    )
    speed = host.HostSpeed()
    if traced:
        # An untraced half first; the traced half replays the same
        # requests on a fresh session with the program's own spans and
        # the benchmark's wrappers on, so the two walls give the
        # tracing overhead on identical work.
        plain_speed = host.HostSpeed()
        plain, plain_wall = _engine_phase(
            session, requests, plain_speed, seconds / 2
        )
        spans = layers.Spans()
        session = Session(EngineConfig(trace=True))
        session.synthesize(WARMUP)
        with layers.instrument(spans):
            records, wall = _engine_phase(session, [r for r, _ in plain], speed)
    else:
        records, wall = _engine_phase(session, requests, speed, seconds)
    rss = host.peak_rss_mb()

    answers = []
    for index, (request, result) in enumerate(records):
        answer = result.to_dict()
        answers.append(answer)
        reference = (
            _reference(request).to_dict()
            if index % REFERENCE_EVERY == 0
            else None
        )
        outcome.judge(request.spec, answer, reference)
    outcome.attempted = len(records)
    outcome.describe_answers(answers, [r.padded_bits for _, r in records])
    _common_metrics(outcome, setup_s, len(records), wall, rss, speed)
    if traced:
        outcome.layers = _engine_layers(
            outcome, records, wall, spans, session,
            (wall / speed.slowdown) / (plain_wall / plain_speed.slowdown) - 1.0,
        )
    return outcome


def _result_core(results) -> Dict[str, float]:
    """Per-layer engine numbers from ``SynthesisResult`` objects."""
    results = list(results)
    generated = sum(r.generated for r in results)
    engine_s = sum(r.elapsed_seconds for r in results)

    def phase(name):
        return sum(r.extra.get("phase_seconds", {}).get(name, 0.0) for r in results)

    return {
        "core.engine_s": engine_s,
        "core.ns_per_candidate": 1e9 * engine_s / generated if generated else 0.0,
        "core.generated": generated,
        "core.levels_built": sum(r.levels_built for r in results),
        "core.unique_frac": (
            sum(r.unique_cs for r in results) / generated if generated else 0.0
        ),
        "core.dedupe_s": phase("dedupe"),
        "core.solve_s": phase("solve"),
        "core.store_s": phase("store"),
        "language.staging_s": phase("staging"),
        "language.wide_frac": (
            sum(1 for r in results if r.padded_bits > 64) / max(1, len(results))
        ),
        "service.checkpoint.resumed_levels": sum(
            r.extra.get("resumed_levels", 0) for r in results
        ),
        "service.checkpoint.partial_resumes": sum(
            r.extra.get("partial_resumes", 0) for r in results
        ),
    }


def _trace_spans(results) -> List[List[dict]]:
    return [
        list((r.extra.get("trace") or {}).get("spans") or []) for r in results
    ]


def _engine_layers(outcome, records, wall, spans, session, overhead):
    results = [result for _, result in records]
    metrics = _result_core(results)
    engine_s = metrics["core.engine_s"]
    synth_s = spans.total[layers.SYNTHESIZE]
    staging_s = spans.total[layers.STAGING]
    kernels_s = (
        spans.total[layers.CONCAT] + spans.total[layers.STAR]
        + spans.total[layers.INSERT]
    )
    metrics.update({
        "core.candidates_per_s": metrics["core.generated"] / wall,
        "core.kernels.concat_s": spans.total[layers.CONCAT],
        "core.kernels.star_s": spans.total[layers.STAR],
        "core.hashset.insert_s": spans.total[layers.INSERT],
        "core.hashset.rows": spans.rows[layers.INSERT],
        "language.staging_s": staging_s,
        "language.staging_builds": session.stats.staging_builds,
        "api.session_overhead_s": synth_s - engine_s - staging_s,
        "obs.spans_per_request": (
            sum(len(s) for s in _trace_spans(results)) / max(1, len(results))
        ),
        "obs.trace_overhead_frac": overhead,
    })
    table, coverage = layers.self_time_table(
        "engine-suite",
        {
            layers.CONCAT: spans.total[layers.CONCAT],
            layers.STAR: spans.total[layers.STAR],
            layers.INSERT: spans.total[layers.INSERT],
            "core.engine (rest)": engine_s - kernels_s,
            layers.STAGING: staging_s,
            "api.session": synth_s - engine_s - staging_s,
        },
        wall,
    )
    outcome.tables.append(table)
    metrics["obs.coverage"] = coverage
    return metrics


# ----------------------------------------------------------------------
# http-interactive
# ----------------------------------------------------------------------
def _distinct_requests(seed: int) -> Iterator[SynthesisRequest]:
    """Small specs, each asked once (a repeat would join a finished job)."""
    seen = set()
    for spec in spec_stream(seed, "http-interactive", HTTP_LE, HTTP_PN):
        key = (spec.positive, spec.negative)
        if key not in seen:
            seen.add(key)
            yield SynthesisRequest(spec=spec, max_generated=HTTP_BUDGET)


def _fresh_dir(path: Path) -> str:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path)


def _stop_server(server_and_client) -> None:
    server, client = server_and_client
    # Drop the kept-alive connection and let the server see it close;
    # stopping under an idle connection logs a CancelledError traceback.
    client.close()
    time.sleep(0.1)
    server.stop()


def _http_phase(client, requests, seconds=INFINITY):
    records = []
    started = time.perf_counter()
    for request in requests:
        if time.perf_counter() - started >= seconds:
            break
        sent = time.perf_counter()
        submit_s = None
        try:
            job = client.submit(request, klass=CLASS_INTERACTIVE)
            submit_s = time.perf_counter() - sent
            done = job if job.get("state") == "done" else client.result(
                job["job_id"], timeout=60.0
            )
        except (OverloadedError, ServerError, TimeoutError) as exc:
            records.append((request, None, time.perf_counter() - sent, repr(exc)))
            continue
        latency = time.perf_counter() - sent
        records.append((request, done, latency, submit_s))
    return records, time.perf_counter() - started


def http_interactive(seed: int, seconds: float, traced: bool,
                     state: Path) -> Outcome:
    outcome = Outcome(seed)
    requests = _distinct_requests(seed)

    def make(attempt):
        # Default settings, so no store: with one on the shared disk,
        # fsync stalls pushed jobs past the first 50 ms poll in 3 of 10
        # runs (p50 61 -> 81 ms, requests/s 16.3 -> 9.1).  Checkpoint
        # writes are measured on pool-refine.
        server = SynthesisServer().start()
        return server, HttpServiceClient(server.address)

    def warm(server_and_client):
        # Polled every 2 ms rather than through ``result()``: set-up time
        # is the server's cold start, not the client's poll schedule.
        client = server_and_client[1]
        job = client.submit(HTTP_WARMUP, klass=CLASS_INTERACTIVE)
        while job.get("state") not in ("done", "failed", "cancelled"):
            time.sleep(0.002)
            job = client.status(job["job_id"])
        if job["state"] != "done":
            raise RuntimeError("warm-up request ended %s" % job["state"])

    setup_s, (server, client) = timed_setups(
        make, warm, _stop_server, scaled=False
    )
    try:
        if traced:
            # Replaying on the same server would join the finished jobs,
            # so the traced half replays the untraced half's requests on
            # a fresh server.
            plain, plain_wall = _http_phase(client, requests, seconds / 2)
            _stop_server((server, client))
            server, client = make(SETUP_REPEATS)
            warm((server, client))
            spans = layers.Spans()
            with layers.instrument(spans), _time_status(client, spans):
                records, wall = _http_phase(client, [r[0] for r in plain])
            traces = [
                client.trace(done["job_id"])["spans"]
                for _, done, _, _ in records if done is not None
            ]
        else:
            records, wall = _http_phase(client, requests, seconds)
        rss = host.peak_rss_mb()
        worker_stats = [
            w for lane in server.lanes.values() for w in lane.worker_stats()
        ]
        pool_stats = [lane.stats for lane in server.lanes.values()]
    finally:
        _stop_server((server, client))

    answers, wide, latencies, engine_s, reference_s = [], [], [], 0.0, 0.0
    for request, done, latency, detail in records:
        if done is None:
            outcome.miss("request failed: %s" % detail)
            continue
        reference = _reference(request)
        answer = done.get("result") or {}
        outcome.judge(request.spec, answer, reference.to_dict())
        answers.append(answer)
        wide.append(reference.padded_bits)
        latencies.append(latency)
        engine_s += float(answer.get("elapsed_seconds") or 0.0)
        reference_s += reference.elapsed_seconds
    outcome.attempted = len(records)
    outcome.describe_answers(answers, wide)
    _common_metrics(outcome, setup_s, len(answers), wall, rss)
    outcome.inputs["latency_p50_ms"] = 1e3 * percentile(latencies, 0.5)
    outcome.inputs["latency_p90_ms"] = 1e3 * percentile(latencies, 0.9)
    if traced:
        outcome.layers = _http_layers(
            outcome, records, wall, spans, traces,
            engine_s / reference_s if reference_s else 0.0,
            wall / plain_wall - 1.0,
            worker_stats, pool_stats,
        )
    return outcome


@contextlib.contextmanager
def _time_status(client, spans):
    """Time every ``status`` round trip (each poll of ``result()``)."""
    original = client.status

    def status(job_id):
        with spans.span("server.status"):
            return original(job_id)

    client.status = status
    try:
        yield
    finally:
        del client.status


def _http_layers(outcome, records, wall, spans, traces, engine_ratio,
                 overhead, worker_stats, pool_stats):
    served = [r for r in records if r[1] is not None]
    latencies = [latency for _, _, latency, _ in served]
    submit_s = sum(detail for _, _, _, detail in served)
    rows: Dict[str, float] = {}
    job_s = 0.0
    for trace in traces:
        for layer, seconds in layers.layer_self_times(trace).items():
            rows[layer] = rows.get(layer, 0.0) + seconds
        job_s += layers.span_seconds(trace, "job")
    # The client's side of the blocking path: everything outside the
    # server's job span (network, the client, and the poll sleep that
    # outlasts the job).
    rows["server.client (outside job)"] = sum(latencies) - job_s
    table, coverage = layers.self_time_table("http-interactive", rows, wall)
    outcome.tables.append(table)
    n = max(1, len(served))
    polls = spans.count["server.status"]
    status_s = spans.total["server.status"]
    return {
        "core.engine_s": sum(
            float(r[1]["result"].get("elapsed_seconds") or 0.0) for r in served
        ),
        "core.generated": sum(int(r[1]["result"]["generated"]) for r in served),
        "core.candidates_per_s": (
            sum(int(r[1]["result"]["generated"]) for r in served) / wall
        ),
        "core.levels_built": sum(
            int(r[1]["result"]["levels_built"]) for r in served
        ),
        "core.unique_frac": (
            sum(int(r[1]["result"]["unique_cs"]) for r in served)
            / max(1, sum(int(r[1]["result"]["generated"]) for r in served))
        ),
        "language.staging_s": rows.get("language.staging", 0.0),
        "language.staging_builds": sum(
            w["session"].get("staging_builds", 0) for w in worker_stats
        ),
        "language.wide_frac": outcome.inputs["wide_frac"],
        "api.session_overhead_s": rows.get("api.session", 0.0),
        "service.pool.job_wall_s": job_s,
        "service.pool.queue_wait_s": rows.get("service.pool.queue_wait", 0.0),
        "service.pool.ipc_s": rows.get("service.pool.ipc", 0.0),
        "service.pool.retries": sum(s.get("retries", 0) for s in pool_stats),
        "service.pool.respawns": sum(s.get("respawns", 0) for s in pool_stats),
        "server.latency_p50_ms": 1e3 * percentile(latencies, 0.5),
        "server.latency_p90_ms": 1e3 * percentile(latencies, 0.9),
        "server.latency_samples": len(latencies),
        "server.submit_ms": 1e3 * submit_s / n,
        "server.status_ms": 1e3 * status_s / max(1, polls),
        "server.polls_per_request": polls / n,
        "server.client_wait_s": sum(latencies) - submit_s - status_s,
        "server.http_parse_s": rows.get("server.http_parse", 0.0),
        "server.admission_s": rows.get("server.admission", 0.0),
        "server.rejected": len(records) - len(served),
        "server.worker_engine_ratio": engine_ratio,
        "obs.spans_per_request": sum(len(t) for t in traces) / n,
        "obs.trace_overhead_frac": overhead,
        "obs.coverage": coverage,
    }


# ----------------------------------------------------------------------
# pool-refine
# ----------------------------------------------------------------------
def _refine(request: SynthesisRequest, first) -> SynthesisRequest:
    """The follow-up question: more budget, or tolerate some error."""
    if first.status == "budget":
        return request.replace(max_generated=POOL_REFINE_BUDGET)
    return request.replace(allowed_error=POOL_REFINE_ERROR)


def _pool_phase(client, batches, speed, seconds=INFINITY, traced=False):
    """Run rounds until ``seconds`` of pass time; the host is probed
    between passes, while the workers are idle."""
    rounds = []
    first_wall = refine_wall = 0.0
    for batch in batches:
        if first_wall + refine_wall >= seconds:
            break
        if traced:
            batch = [r.replace(trace_ctx=TraceContext.mint()) for r in batch]
        speed.maybe_probe()
        sent = time.perf_counter()
        first = client.synthesize_many(batch, timeout=120.0)
        first_wall += time.perf_counter() - sent
        follow = [
            _refine(r, a).replace(
                trace_ctx=TraceContext.mint() if traced else None
            )
            for r, a in zip(batch, first)
        ]
        speed.maybe_probe()
        sent = time.perf_counter()
        second = client.synthesize_many(follow, timeout=120.0)
        refine_wall += time.perf_counter() - sent
        rounds.append((batch, first, follow, second))
    return rounds, first_wall, refine_wall


def pool_refine(seed: int, seconds: float, traced: bool, state: Path) -> Outcome:
    outcome = Outcome(seed)
    specs = spec_stream(seed, "pool-refine", POOL_LE, POOL_PN)
    batches = (
        [
            SynthesisRequest(spec=next(specs), max_generated=POOL_BUDGET)
            for _ in range(POOL_ROUND)
        ]
        for _ in itertools.count()
    )
    workers = max(1, min(2, os.cpu_count() or 1))

    def make(attempt):
        return ServiceClient(
            workers=workers,
            store_dir=_fresh_dir(state / ("pool-%d" % attempt)),
            partial_every_candidates=POOL_PARTIAL_EVERY,
        ).start()

    setup_s, client = timed_setups(
        make,
        lambda c: c.synthesize(WARMUP, timeout=60.0),
        lambda c: c.close(),
        scaled=True,
    )
    speed = host.HostSpeed()
    try:
        if traced:
            # The traced half replays the untraced half's batches on a
            # fresh pool and store, so both halves do identical work.
            plain_speed = host.HostSpeed()
            plain_rounds, plain_first, plain_refine = _pool_phase(
                client, batches, plain_speed, seconds / 2
            )
            client.close()
            client = make(SETUP_REPEATS)
            client.synthesize(WARMUP, timeout=60.0)
            rounds, first_wall, refine_wall = _pool_phase(
                client, [r[0] for r in plain_rounds], speed, traced=True
            )
        else:
            rounds, first_wall, refine_wall = _pool_phase(
                client, batches, speed, seconds
            )
        rss = host.peak_rss_mb()
        pool_stats = client.stats
        worker_stats = client.worker_stats()
    finally:
        client.close()

    pairs = [
        (request, result)
        for batch, first, follow, second in rounds
        for request, result in list(zip(batch, first)) + list(zip(follow, second))
    ]
    answers = []
    for index, (request, result) in enumerate(pairs):
        answer = result.to_dict()
        answers.append(answer)
        reference = (
            _reference(request).to_dict() if index % REFERENCE_EVERY == 0 else None
        )
        outcome.judge(request.spec, answer, reference)
    outcome.attempted = len(pairs)
    outcome.describe_answers(answers, [r.padded_bits for _, r in pairs])
    refined = [r for _, _, _, second in rounds for r in second]
    outcome.inputs["restored_levels"] = sum(
        r.extra.get("resumed_levels", 0) for r in refined
    )
    outcome.inputs["partial_resumes"] = sum(
        r.extra.get("partial_resumes", 0) for r in refined
    )
    wall = first_wall + refine_wall
    _common_metrics(outcome, setup_s, len(pairs), wall, rss, speed)
    if traced:
        plain_wall = plain_first + plain_refine
        outcome.layers = _pool_layers(
            outcome, rounds, first_wall, refine_wall, workers, pool_stats,
            worker_stats, state,
            (wall / speed.slowdown) / (plain_wall / plain_speed.slowdown) - 1.0,
        )
    return outcome


def _pool_layers(outcome, rounds, first_wall, refine_wall, workers, pool_stats,
                 worker_stats, state, overhead):
    results = [
        r for _, first, _, second in rounds for r in list(first) + list(second)
    ]
    metrics = _result_core(results)
    traces = _trace_spans(results)
    rows: Dict[str, float] = {}
    job_wall = queue_wait = ipc = 0.0
    for spans in traces:
        worker = [s for s in spans if s["name"] == "worker-job"]
        waits = [s for s in spans if s["name"] == "queue-wait"]
        writes = [s for s in spans if s["name"] == "result-store-write"]
        for layer, seconds in layers.layer_self_times(spans).items():
            if layer not in ("service.pool.queue_wait", "service.store.write"):
                rows[layer] = rows.get(layer, 0.0) + seconds
        if worker and waits and writes:
            dispatched = float(waits[0]["end_s"])
            answered = float(writes[0]["start_s"])
            job_wall += float(writes[0]["end_s"]) - float(waits[0]["start_s"])
            queue_wait += dispatched - float(waits[0]["start_s"])
            ipc += answered - dispatched - layers.span_seconds(worker, "worker-job")
    wall = first_wall + refine_wall
    # The workers run in parallel: their busy time is set against the
    # worker-seconds the pool had, not against the wall clock alone.
    table, coverage = layers.self_time_table(
        "pool-refine (summed over %d workers)" % workers, rows, workers * wall
    )
    outcome.tables.append(table)
    records_n, size = layers.checkpoint_footprint(
        state / ("pool-%d" % SETUP_REPEATS)
    )
    rounds_n = len(rounds)
    metrics.update({
        "core.candidates_per_s": metrics["core.generated"] / wall,
        "language.staging_builds": sum(
            w["session"].get("staging_builds", 0) for w in worker_stats
        ),
        "api.session_overhead_s": rows.get("api.session", 0.0),
        "service.pool.job_wall_s": job_wall,
        "service.pool.queue_wait_s": queue_wait,
        "service.pool.ipc_s": ipc,
        "service.pool.retries": pool_stats.get("retries", 0),
        "service.pool.respawns": pool_stats.get("respawns", 0),
        "service.pool.first_requests_per_s": POOL_ROUND * rounds_n / first_wall,
        "service.pool.refine_requests_per_s": POOL_ROUND * rounds_n / refine_wall,
        "service.checkpoint.save_s": rows.get("service.checkpoint.save", 0.0),
        "service.checkpoint.records": records_n,
        "service.checkpoint.bytes": size,
        "service.checkpoint.restore_s": rows.get("service.checkpoint.restore", 0.0),
        "service.store.write_s": sum(
            layers.span_seconds(s, "result-store-write") for s in traces
        ),
        "obs.spans_per_request": sum(len(s) for s in traces) / max(1, len(results)),
        "obs.trace_overhead_frac": overhead,
        "obs.coverage": coverage,
    })
    return metrics


WORKLOADS = {
    "engine-suite": engine_suite,
    "http-interactive": http_interactive,
    "pool-refine": pool_refine,
}
