"""Admission control and latency-aware scheduling for the HTTP server.

The server splits traffic into two *classes* — ``interactive`` (small
specs that must answer in interactive time) and ``batch`` (wide sweeps
that should saturate cores) — and runs each class on its own worker
lane, so a flood of batch work can never sit in front of an interactive
request (the Polynesia HTAP recipe: one shared substrate, specialised
execution paths, no interference).  Everything in this module is plain,
lock-protected Python with no asyncio dependency, so the scheduling
policy is unit-testable without sockets or worker processes:

* :class:`WorkloadHistory` — measured wall-clock and candidate counts
  of prior runs, keyed by staging fingerprint (requests over the same
  example strings share a profile).  Optionally persisted as JSON under
  the store directory so a restarted server keeps its measurements.
* :func:`estimate_cost` / :func:`classify` — a priori work estimate
  from the spec and budgets, overridden by *measured* latency once the
  history has seen the same staging fingerprint.
* :class:`AdmissionController` — per-class concurrency bookkeeping with
  a bounded queue: past the bound a submission is *rejected* with a
  suggested Retry-After instead of growing an unbounded backlog.  Under
  *sustained* interactive saturation it additionally enters **brownout**
  — a degraded mode that sheds batch admissions outright until the
  interactive lane has been calm for a while — so a standing batch flood
  cannot keep the interactive lane pinned at its queue bound.
* :class:`LatencyTracker` — per-class p50/p99 over a sliding window,
  feeding both ``/metrics`` and the Retry-After estimate.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Optional

#: Workload classes.
CLASS_INTERACTIVE = "interactive"
CLASS_BATCH = "batch"
CLASSES = (CLASS_INTERACTIVE, CLASS_BATCH)

#: Default classification knobs (see :func:`classify`).
DEFAULT_INTERACTIVE_THRESHOLD = 2_000_000.0
DEFAULT_LATENCY_TARGET_S = 0.5


# ----------------------------------------------------------------------
# Measured history
# ----------------------------------------------------------------------
@dataclass
class WorkloadProfile:
    """What prior runs over one staging fingerprint measured."""

    runs: int = 0
    last_generated: int = 0
    avg_elapsed_s: float = 0.0

    def to_json_dict(self) -> Dict[str, object]:
        """The JSON form persisted in the history file."""
        return {
            "runs": self.runs,
            "last_generated": self.last_generated,
            "avg_elapsed_s": self.avg_elapsed_s,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "WorkloadProfile":
        return cls(
            runs=int(data.get("runs") or 0),
            last_generated=int(data.get("last_generated") or 0),
            avg_elapsed_s=float(data.get("avg_elapsed_s") or 0.0),
        )


class WorkloadHistory:
    """Per-staging-fingerprint measurements from completed jobs.

    ``record`` digests a finished :class:`~repro.core.result.
    SynthesisResult`: ``elapsed_seconds`` is the measured latency the
    classifier prefers over any a-priori estimate.  The history is an
    LRU bounded at ``max_entries`` profiles and (when given a path)
    persists itself as one JSON file — best-effort in both directions:
    a missing or corrupt file is an empty history, never an error.
    """

    def __init__(self, path=None, max_entries: int = 4096) -> None:
        self._lock = threading.Lock()
        self._profiles: "Dict[str, WorkloadProfile]" = {}
        self._order: deque = deque()
        self.max_entries = max_entries
        self.path = path
        if path is not None:
            self._load()

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)

    def record(self, staging_fp: str, result) -> WorkloadProfile:
        """Fold one finished result into the fingerprint's profile."""
        with self._lock:
            profile = self._profiles.get(staging_fp)
            if profile is None:
                profile = WorkloadProfile()
                self._profiles[staging_fp] = profile
                self._order.append(staging_fp)
                while len(self._profiles) > self.max_entries:
                    evicted = self._order.popleft()
                    self._profiles.pop(evicted, None)
            elapsed = float(getattr(result, "elapsed_seconds", 0.0) or 0.0)
            profile.avg_elapsed_s = (
                (profile.avg_elapsed_s * profile.runs + elapsed)
                / (profile.runs + 1)
            )
            profile.runs += 1
            profile.last_generated = int(getattr(result, "generated", 0) or 0)
            return profile

    def profile(self, staging_fp: str) -> Optional[WorkloadProfile]:
        """The fingerprint's measured profile, or None when unseen."""
        with self._lock:
            return self._profiles.get(staging_fp)

    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        profiles = data.get("profiles") if isinstance(data, dict) else None
        if not isinstance(profiles, dict):
            return
        for key, value in profiles.items():
            if not isinstance(value, dict):
                continue
            try:
                self._profiles[str(key)] = WorkloadProfile.from_json_dict(value)
            except (TypeError, ValueError):
                continue
            self._order.append(str(key))

    def save(self) -> None:
        """Persist the profiles (best-effort, atomic)."""
        if self.path is None:
            return
        with self._lock:
            payload = {
                "version": 1,
                "profiles": {
                    key: profile.to_json_dict()
                    for key, profile in self._profiles.items()
                },
            }
        from ..service.store import atomic_write_bytes

        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                self.path,
                json.dumps(payload, indent=2, sort_keys=True).encode("utf-8"),
            )
        except OSError:
            pass


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def estimate_cost(wire) -> float:
    """A-priori work estimate of a wire request, in candidate-ish units.

    Enumeration work scales with the universe (bounded by the infix
    closure of the example words, ``Σ len·(len+1)/2``) and with how far
    the sweep may run (the effective cost ceiling, dampened by any
    explicit candidate budget).  The absolute value is meaningless; only
    the ordering matters, and measured history overrides it as soon as
    the same staging fingerprint has completed once (see
    :func:`classify`).
    """
    words = set(wire.spec.all_words)
    closure_bound = sum(len(w) * (len(w) + 1) // 2 for w in words) + 1
    ceiling = wire.effective_max_cost()
    estimate = float(closure_bound) * float(ceiling) ** 2
    budget = wire.max_generated
    if budget is None:
        budget = wire.config.max_generated
    if budget is not None:
        estimate = min(estimate, float(budget) * float(closure_bound) ** 0.5)
    return estimate


def classify(
    wire,
    history: Optional[WorkloadHistory] = None,
    interactive_threshold: float = DEFAULT_INTERACTIVE_THRESHOLD,
    latency_target_s: float = DEFAULT_LATENCY_TARGET_S,
) -> str:
    """Interactive or batch, measured latency trumping the estimate.

    A fingerprint the history has seen is classified by what it actually
    cost last time (``avg_elapsed_s`` against the interactive latency
    target) — the latency-aware path.  An unseen fingerprint falls back
    to the :func:`estimate_cost` heuristic against the threshold.
    """
    if history is not None:
        profile = history.profile(wire.staging_fingerprint())
        if profile is not None and profile.runs > 0:
            return (
                CLASS_INTERACTIVE
                if profile.avg_elapsed_s <= latency_target_s
                else CLASS_BATCH
            )
    return (
        CLASS_INTERACTIVE
        if estimate_cost(wire) <= interactive_threshold
        else CLASS_BATCH
    )


# ----------------------------------------------------------------------
# Latency tracking
# ----------------------------------------------------------------------
class LatencyTracker:
    """Sliding-window per-class latency percentiles."""

    def __init__(self, window: int = 512) -> None:
        self._lock = threading.Lock()
        self._samples: Dict[str, deque] = {
            klass: deque(maxlen=window) for klass in CLASSES
        }
        self._counts: Dict[str, int] = {klass: 0 for klass in CLASSES}

    def record(self, klass: str, seconds: float) -> None:
        """Add one completion latency to ``klass``'s sliding window."""
        with self._lock:
            self._samples.setdefault(klass, deque(maxlen=512)).append(
                float(seconds)
            )
            self._counts[klass] = self._counts.get(klass, 0) + 1

    def count(self, klass: str) -> int:
        """Total completions ever recorded for ``klass``."""
        with self._lock:
            return self._counts.get(klass, 0)

    def percentile(self, klass: str, q: float) -> Optional[float]:
        """The windowed ``q``-quantile (0..1), or None with no samples."""
        with self._lock:
            samples = sorted(self._samples.get(klass, ()))
        if not samples:
            return None
        index = min(len(samples) - 1, max(0, math.ceil(q * len(samples)) - 1))
        return samples[index]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{class: {p50, p99, count}}`` for metrics and health."""
        out: Dict[str, Dict[str, float]] = {}
        for klass in CLASSES:
            p50 = self.percentile(klass, 0.50)
            p99 = self.percentile(klass, 0.99)
            out[klass] = {
                "p50_s": p50 if p50 is not None else 0.0,
                "p99_s": p99 if p99 is not None else 0.0,
                "count": self.count(klass),
            }
        return out


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Admission:
    """The verdict on one submission."""

    admitted: bool
    klass: str
    retry_after_s: Optional[float] = None
    reason: Optional[str] = None


class AdmissionController:
    """Bounded per-class admission over the lanes' live-job counts.

    ``slots`` is a class's concurrency quota (its lane's
    ``workers × depth`` — jobs past it queue inside the lane), and
    ``max_queue`` bounds that queue: a submission that would make the
    class's backlog exceed ``slots + max_queue`` is *rejected* so
    overload degrades to fast 429s instead of an unbounded queue whose
    every entry times out.  The suggested Retry-After is the backlog
    drained at the class's measured p50 (1s floor when unmeasured).

    **Brownout.**  When the interactive lane has been *saturated*
    (``live >= slots``) continuously for ``brownout_enter_after_s``,
    the controller enters brownout: batch submissions are shed with
    ``reason="brownout"`` regardless of batch capacity, while
    interactive admissions keep their normal bounds.  Brownout exits
    after the interactive lane has been below saturation continuously
    for ``brownout_exit_after_s`` (hysteresis, so the mode does not
    flap on a single completion).  The clock is injectable for tests.
    """

    def __init__(
        self,
        slots: Dict[str, int],
        max_queue: Dict[str, int],
        latency: Optional[LatencyTracker] = None,
        brownout_enter_after_s: float = 2.0,
        brownout_exit_after_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.slots = dict(slots)
        self.max_queue = dict(max_queue)
        self.latency = latency if latency is not None else LatencyTracker()
        self._lock = threading.Lock()
        self._live: Dict[str, int] = {klass: 0 for klass in CLASSES}
        self.rejected: Dict[str, int] = {klass: 0 for klass in CLASSES}
        self.brownout_enter_after_s = float(brownout_enter_after_s)
        self.brownout_exit_after_s = float(brownout_exit_after_s)
        self._clock = clock
        self.brownout_active = False
        self.brownout_rejections = 0
        self._saturated_since: Optional[float] = None
        self._calm_since: Optional[float] = None

    def live(self, klass: str) -> int:
        """Jobs currently admitted (queued or running) in ``klass``."""
        with self._lock:
            return self._live.get(klass, 0)

    # -- brownout state machine ---------------------------------------
    def _saturated_locked(self) -> bool:
        slots = max(1, self.slots.get(CLASS_INTERACTIVE, 1))
        return self._live.get(CLASS_INTERACTIVE, 0) >= slots

    def _update_brownout_locked(self, now: float) -> None:
        if self._saturated_locked():
            self._calm_since = None
            if self._saturated_since is None:
                self._saturated_since = now
            if (
                not self.brownout_active
                and now - self._saturated_since >= self.brownout_enter_after_s
            ):
                self.brownout_active = True
        else:
            self._saturated_since = None
            if self._calm_since is None:
                self._calm_since = now
            if (
                self.brownout_active
                and now - self._calm_since >= self.brownout_exit_after_s
            ):
                self.brownout_active = False

    def interactive_saturated(self) -> bool:
        """Is the interactive lane at (or past) its concurrency quota?"""
        with self._lock:
            return self._saturated_locked()

    def try_admit(self, klass: str) -> Admission:
        """Admit (and count) one job, or reject with a Retry-After."""
        capacity = self.slots.get(klass, 1) + self.max_queue.get(klass, 0)
        now = self._clock()
        with self._lock:
            self._update_brownout_locked(now)
            if klass == CLASS_BATCH and self.brownout_active:
                self.brownout_rejections += 1
                self.rejected[klass] = self.rejected.get(klass, 0) + 1
                return Admission(
                    admitted=False,
                    klass=klass,
                    retry_after_s=max(1.0, self.brownout_exit_after_s),
                    reason="brownout",
                )
            live = self._live.get(klass, 0)
            if live >= capacity:
                self.rejected[klass] = self.rejected.get(klass, 0) + 1
                queued = max(0, live - self.slots.get(klass, 1))
                return Admission(
                    admitted=False,
                    klass=klass,
                    retry_after_s=self.retry_after(klass, queued),
                    reason="%s queue full (%d live, capacity %d)"
                    % (klass, live, capacity),
                )
            self._live[klass] = live + 1
            self._update_brownout_locked(now)
        return Admission(admitted=True, klass=klass)

    def release(self, klass: str) -> None:
        """One admitted job finished (any terminal state)."""
        with self._lock:
            self._live[klass] = max(0, self._live.get(klass, 0) - 1)
            self._update_brownout_locked(self._clock())

    def retry_after(self, klass: str, queued: int) -> float:
        """Seconds until the class's backlog plausibly has room."""
        p50 = self.latency.percentile(klass, 0.50)
        if p50 is None or p50 <= 0.0:
            p50 = 1.0
        slots = max(1, self.slots.get(klass, 1))
        return max(1.0, math.ceil(queued * p50 / slots))

    def depth_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-class live counts against the configured bounds."""
        with self._lock:
            return {
                klass: {
                    "live": self._live.get(klass, 0),
                    "slots": self.slots.get(klass, 0),
                    "max_queue": self.max_queue.get(klass, 0),
                    "rejected": self.rejected.get(klass, 0),
                }
                for klass in CLASSES
            }

    def brownout_snapshot(self) -> Dict[str, object]:
        """Brownout mode state for ``/metrics`` and ``/healthz``."""
        with self._lock:
            self._update_brownout_locked(self._clock())
            return {
                "active": self.brownout_active,
                "rejections": self.brownout_rejections,
            }


__all__ = [
    "Admission",
    "AdmissionController",
    "CLASS_BATCH",
    "CLASS_INTERACTIVE",
    "CLASSES",
    "DEFAULT_INTERACTIVE_THRESHOLD",
    "DEFAULT_LATENCY_TARGET_S",
    "LatencyTracker",
    "WorkloadHistory",
    "WorkloadProfile",
    "classify",
    "estimate_cost",
]
