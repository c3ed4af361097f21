"""The cost-sweep search loop shared by both engines (Algorithm 1).

:class:`SearchEngine` owns everything that is identical between the
scalar ("CPU") and vectorised ("GPU-sim") implementations: the trivial
``∅``/``ε`` checks, alphabet seeding order, the sweep over cost levels,
the per-level constructor order (``?``, ``*``, ``·``, ``+`` — line 12 of
Algorithm 1), operand-level pairing, the OnTheFly/out-of-memory policy,
and solution bookkeeping.  Subclasses provide only the data
representation and the batch kernels.

Enumeration order is fully deterministic and identical across engines,
so both return the same regular expression for the same input — a
property the test-suite asserts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..language.guide_table import GuideTable
from ..language.universe import Universe
from ..regex.cost import CostFunction
from ..spec import Spec
from .bitops import popcount

# Provenance opcodes.  EMPTY/EPSILON occur only as solutions of trivial
# specifications; CHAR's ``left`` field is an index into the alphabet.
OP_EMPTY = 0
OP_EPSILON = 1
OP_CHAR = 2
OP_QUESTION = 3
OP_STAR = 4
OP_CONCAT = 5
OP_UNION = 6

#: Status verdicts of a search run.
STATUS_SUCCESS = "success"
STATUS_NOT_FOUND = "not_found"
STATUS_OOM = "oom"
STATUS_BUDGET = "budget"
STATUS_CANCELLED = "cancelled"
STATUS_PREEMPTED = "preempted"


class BudgetExhausted(Exception):
    """Internal control-flow signal: the ``max_generated`` cap was hit."""


@dataclass
class LevelCheckpoint:
    """One completed cost level in replayable form.

    Everything a fresh engine needs to adopt the level without
    re-enumerating it: the stored CS rows (packed uint64, the
    cross-backend interchange format), their provenance columns, each
    row's 1-based absolute generation ordinal, and the engine's
    cumulative ``generated`` counter at level completion.  Because
    enumeration, dedupe and storage are spec-independent, a checkpoint
    taken under one spec replays bit-identically under any other spec
    over the same universe and cost function.
    """

    cost: int
    rows: np.ndarray  # (n, lanes) uint64
    ops: np.ndarray  # (n,) int64
    lefts: np.ndarray  # (n,) int64
    rights: np.ndarray  # (n,) int64
    ordinals: np.ndarray  # (n,) int64, 1-based absolute
    generated_total: int

    def to_payload(self) -> dict:
        """A plain-dict form (what the checkpoint journal pickles)."""
        return {
            "cost": int(self.cost),
            "rows": self.rows,
            "ops": self.ops,
            "lefts": self.lefts,
            "rights": self.rights,
            "ordinals": self.ordinals,
            "generated_total": int(self.generated_total),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "LevelCheckpoint":
        return cls(
            cost=int(payload["cost"]),
            rows=np.asarray(payload["rows"], dtype=np.uint64),
            ops=np.asarray(payload["ops"], dtype=np.int64),
            lefts=np.asarray(payload["lefts"], dtype=np.int64),
            rights=np.asarray(payload["rights"], dtype=np.int64),
            ordinals=np.asarray(payload["ordinals"], dtype=np.int64),
            generated_total=int(payload["generated_total"]),
        )


@dataclass
class PartialLevelCheckpoint:
    """Progress *inside* a cost level, in replayable form.

    Snapshotted at a safe point of the emit loop (all candidates up to
    the cut fully deduped, solution-checked and stored; none beyond it
    touched).  Because enumeration order is fully deterministic, the
    position needs no emit-loop machinery: ``level_progress`` — the
    number of candidates the level had generated at the snapshot — is a
    complete cursor.  A resuming engine adopts the stored rows, then
    structurally fast-forwards the level's emit steps past exactly that
    many candidates, so rework is bounded by the snapshot interval.
    Like full level checkpoints, partials are spec-independent.
    """

    cost: int
    rows: np.ndarray  # (n, lanes) uint64 — rows stored so far this level
    ops: np.ndarray  # (n,) int64
    lefts: np.ndarray  # (n,) int64
    rights: np.ndarray  # (n,) int64
    ordinals: np.ndarray  # (n,) int64, 1-based absolute
    generated_total: int  # cumulative ``generated`` at the snapshot
    level_progress: int  # candidates generated within this level so far

    def to_payload(self) -> dict:
        """A plain-dict form (what the checkpoint journal pickles)."""
        return {
            "cost": int(self.cost),
            "rows": self.rows,
            "ops": self.ops,
            "lefts": self.lefts,
            "rights": self.rights,
            "ordinals": self.ordinals,
            "generated_total": int(self.generated_total),
            "level_progress": int(self.level_progress),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PartialLevelCheckpoint":
        return cls(
            cost=int(payload["cost"]),
            rows=np.asarray(payload["rows"], dtype=np.uint64),
            ops=np.asarray(payload["ops"], dtype=np.int64),
            lefts=np.asarray(payload["lefts"], dtype=np.int64),
            rights=np.asarray(payload["rights"], dtype=np.int64),
            ordinals=np.asarray(payload["ordinals"], dtype=np.int64),
            generated_total=int(payload["generated_total"]),
            level_progress=int(payload["level_progress"]),
        )


def _pair_candidates(
    pairing: Tuple[Tuple[int, int], Tuple[int, int], bool]
) -> int:
    """Candidate count of one ``(left, right, triangular)`` pairing —
    the closed form the mid-level fast-forward skips whole steps with."""
    (l0, l1), (r0, r1), triangular = pairing
    if triangular:
        n = l1 - l0
        return n * (n - 1) // 2
    return (l1 - l0) * (r1 - r0)


def cs_solves(cs: int, pos_mask: int, neg_mask: int, max_errors: int) -> bool:
    """Does a CS satisfy the (possibly error-relaxed) mask pair?

    The single source of truth for the solution predicate: the engines'
    per-candidate checks and the session layer's batched multi-spec
    scans both delegate here (or mirror it lane-wise), so solo and
    batched serving can never drift apart.
    """
    if max_errors == 0:
        return (cs & pos_mask) == pos_mask and (cs & neg_mask) == 0
    mistakes = popcount((cs & pos_mask) ^ pos_mask)
    mistakes += popcount(cs & neg_mask)
    return mistakes <= max_errors


def max_errors_for(allowed_error: float, n_examples: int) -> int:
    """The example-misclassification budget of an ``allowed_error``
    fraction (validates the fraction; paper §5.2)."""
    if not 0.0 <= allowed_error < 1.0:
        raise ValueError("allowed_error must be in [0, 1)")
    return int(allowed_error * n_examples)


class SweepCancelled(Exception):
    """Internal control-flow signal: a level hook asked the sweep to stop.

    Raised between cost levels when an :attr:`SearchEngine.on_level`
    callback returns a truthy value, a :attr:`SearchEngine.cancel_check`
    fires, or the wall-clock :attr:`SearchEngine.deadline` passes.  The
    run ends with status :data:`STATUS_CANCELLED`.
    """


class SweepPreempted(Exception):
    """Internal control-flow signal: the preemption probe fired.

    Raised at the next safe point after :attr:`SearchEngine.preempt_check`
    returns truthy — *after* a partial checkpoint has been handed to
    :attr:`SearchEngine.on_partial` (when armed), so the engine's owner
    can requeue the job and a later run resumes from that point.  The
    run ends with status :data:`STATUS_PREEMPTED`.
    """


class SearchEngine:
    """Shared cost-sweep machinery; see the module docstring."""

    def __init__(
        self,
        spec: Spec,
        cost_fn: CostFunction,
        universe: Universe,
        guide: GuideTable,
        max_cache_size: Optional[int] = None,
        allowed_error: float = 0.0,
        use_guide_table: bool = True,
        check_uniqueness: bool = True,
        max_generated: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.cost_fn = cost_fn
        self.universe = universe
        self.guide = guide
        self.max_cache_size = max_cache_size
        self.allowed_error = allowed_error
        self.max_errors = max_errors_for(allowed_error, spec.n_examples)
        self.use_guide_table = use_guide_table
        self.check_uniqueness = check_uniqueness
        self.max_generated = max_generated

        self.pos_mask = universe.cs_of(spec.positive)
        self.neg_mask = universe.cs_of(spec.negative)

        # Statistics and outcome.
        self.generated = 0  # number of candidate CSs constructed ("# REs")
        #: Wall-clock seconds attributed to pipeline phases.  Engines
        #: that time their batched stages fill ``dedupe``/``solve``/
        #: ``store``; the serving layer adds ``staging`` and derives
        #: ``enumerate`` as the run's residual.  The scalar engine
        #: leaves these at zero (per-candidate timers would dominate its
        #: runtime), so its whole run reads as ``enumerate``.
        self.phase_seconds = {"dedupe": 0.0, "solve": 0.0, "store": 0.0}
        #: Per-level statistics: one dict per built cost level with keys
        #: ``cost``, ``generated``, ``stored`` and ``otf`` — the growth
        #: data behind the paper's exponential-blowup discussion.
        self.level_stats: List[dict] = []
        #: Cost levels adopted from checkpoints instead of enumerated
        #: (see :meth:`restore_levels`).
        self.resumed_levels = 0
        #: Mid-level resumes performed from a partial checkpoint (0 or 1
        #: per run; see :meth:`restore_partial`).
        self.partial_resumes = 0
        #: Partial checkpoints handed to :attr:`on_partial` this run.
        self.partial_checkpoints = 0
        self._restored_levels: List[LevelCheckpoint] = []
        self._restored_partial: Optional[PartialLevelCheckpoint] = None
        #: Pending fast-forward: candidates of the current level already
        #: accounted for by an adopted partial checkpoint.
        self._level_skip = 0
        #: ``(cost, cache_start, generated_at_level_start)`` of a
        #: partially-adopted level, so the sweep loop attributes the
        #: whole level (adopted prefix included) to one stats entry and
        #: one level mark.
        self._partial_base: Optional[Tuple[int, int, int]] = None
        # Safe-point bookkeeping (armed only while _build_level runs).
        self._partial_active = False
        self._level_start_cache = 0
        self._level_start_generated = 0
        self._last_partial_generated = 0
        self._last_partial_monotonic = 0.0
        self._checks_disabled = False
        self.status: Optional[str] = None
        self.solution: Optional[Tuple[int, int, int]] = None  # provenance triple
        self.solution_cost: Optional[int] = None
        self.levels_built = 0

        # OnTheFly bookkeeping.
        self.otf = False

        # Cost of the level currently being built (used when recording a
        # solution from inside a batch kernel).
        self._current_cost = cost_fn.literal

        #: Optional level hook ``(cost, start, end) -> bool``: called after
        #: each *completed* cost level with the half-open cache range the
        #: level stored; returning a truthy value stops the sweep with
        #: status :data:`STATUS_CANCELLED`.  This is the seam the session
        #: layer's progress streaming and batched multi-spec serving plug
        #: into.
        self.on_level: Optional[Callable[[int, int, int], object]] = None
        #: Optional cancellation probe, checked at sweep start and
        #: between cost levels.  Any zero-argument truth-valued callable
        #: works; the service layer's worker watchdog points this at a
        #: process-local flag it keeps in sync with the cross-process
        #: cancellation event, so the poll itself never does IPC.
        self.cancel_check: Optional[Callable[[], object]] = None
        #: Optional ``time.perf_counter()`` deadline, checked between
        #: cost levels.
        self.deadline: Optional[float] = None
        #: Optional preemption probe, polled at emit-loop safe points
        #: and between levels.  When it fires, a partial checkpoint is
        #: written (if :attr:`on_partial` is armed) and the run stops
        #: with status :data:`STATUS_PREEMPTED` — the caller requeues
        #: the request and a later run resumes from the checkpoint.
        self.preempt_check: Optional[Callable[[], object]] = None
        #: Optional partial-checkpoint sink ``(PartialLevelCheckpoint)
        #: -> None``: called at safe points every
        #: :attr:`partial_every_candidates` candidates or
        #: :attr:`partial_every_s` seconds while a level is being built,
        #: and right before a preemption stop.  The durability layer
        #: points this at the checkpoint journal.
        self.on_partial: Optional[
            Callable[[PartialLevelCheckpoint], object]
        ] = None
        #: Interval knobs for :attr:`on_partial` (either may be None;
        #: with both None only preemption writes partials).
        self.partial_every_candidates: Optional[int] = None
        self.partial_every_s: Optional[float] = None
        #: Optional :class:`repro.obs.trace.Tracer`.  When set, the
        #: sweep records spans (checkpoint replay, seed level, one span
        #: per cost level with dedupe/solve/store deltas); ``None`` (the
        #: default) is the zero-overhead path — one predicate test per
        #: level, nothing recorded.
        self.tracer = None
        #: ``time.monotonic()`` timestamp of the current :meth:`run`
        #: (None before the first run).  Progress events derive their
        #: self-describing ``elapsed_s`` from this clock.
        self.run_started_monotonic: Optional[float] = None

    # ------------------------------------------------------------------
    # Abstract surface (implemented by the scalar / vectorised engines)
    # ------------------------------------------------------------------
    def _seed_alphabet(self) -> bool:
        """Fill the cost-``c1`` level with the alphabet CSs; return True
        iff a solution was found while seeding."""
        raise NotImplementedError

    def _emit_unary(self, op: int, start: int, end: int) -> bool:
        """Build all ``op`` candidates from cached operands ``[start,
        end)``; return True iff a solution was found."""
        raise NotImplementedError

    def _emit_pairs(
        self,
        op: int,
        left: Tuple[int, int],
        right: Tuple[int, int],
        triangular: bool,
        skip: int = 0,
    ) -> bool:
        """Build all ``op`` candidates over the Cartesian product of two
        cached index ranges (upper-triangular, diagonal excluded, when
        ``triangular``), except the first ``skip`` (already adopted from
        a partial checkpoint); return True iff a solution was found."""
        raise NotImplementedError

    def _emit_pair_group(
        self,
        op: int,
        pairings: List[Tuple[Tuple[int, int], Tuple[int, int], bool]],
        skip: int = 0,
    ) -> bool:
        """Build all ``op`` candidates of one cost level — every
        ``(left, right, triangular)`` operand pairing, in order, except
        the first ``skip`` (already adopted from a partial checkpoint).

        The default runs the pairings one at a time; the vectorised
        engine overrides this to *fuse* the small pairings of a level
        into shared solution-check/dedupe/store batches (candidate order
        is unchanged, so results stay bit-identical).
        """
        for pairing in pairings:
            left, right, triangular = pairing
            if skip:
                count = _pair_candidates(pairing)
                if skip >= count:
                    skip -= count
                    continue
            pair_skip, skip = skip, 0
            if self._emit_pairs(op, left, right, triangular, pair_skip):
                return True
        return False

    @property
    def cache(self):
        """The engine's language cache (has ``levels`` and ``__len__``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Level checkpointing (abstract half; see restore_levels below)
    # ------------------------------------------------------------------
    def _level_payload(
        self, start: int, end: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cache range ``[start, end)`` as ``(rows, ops, lefts, rights,
        ordinals)`` in the packed interchange format."""
        raise NotImplementedError

    def _adopt_restored(self, payload: LevelCheckpoint, lo: int, hi: int) -> None:
        """Append rows ``[lo, hi)`` of a checkpointed level to the cache
        and the dedupe set, exactly as enumeration would have."""
        raise NotImplementedError

    def _scan_restored(
        self, payload: LevelCheckpoint, limit: int
    ) -> Optional[int]:
        """Index of the first row in ``[0, limit)`` of a checkpointed
        level that satisfies the spec, or None."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Solution predicate on int CSs (engines may vectorise their own)
    # ------------------------------------------------------------------
    def solves_int(self, cs: int) -> bool:
        """Does this CS satisfy the (possibly error-relaxed) spec?"""
        return cs_solves(cs, self.pos_mask, self.neg_mask, self.max_errors)

    def _record_solution(self, op: int, left: int, right: int, cost: int) -> None:
        self.solution = (op, left, right)
        self.solution_cost = cost
        self.status = STATUS_SUCCESS

    def disable_solution_checks(self) -> None:
        """Turn the run into a pure enumeration sweep.

        Replaces the spec masks with an unsatisfiable pair (the same bit
        required set and clear), so no candidate ever registers as a
        solution and the sweep only stops via ``max_cost``, the budget,
        or an :attr:`on_level` hook.  Batched multi-spec serving drives
        one such sweep and answers every attached query from the shared
        cache — sound because enumeration order, dedupe and storage are
        all independent of the specification.
        """
        self.pos_mask = 1
        self.neg_mask = 1
        self.max_errors = 0
        self._checks_disabled = True

    # ------------------------------------------------------------------
    # The sweep (Algorithm 1)
    # ------------------------------------------------------------------
    def run(self, max_cost: int) -> str:
        """Sweep costs up to ``max_cost``; returns the final status."""
        self.run_started_monotonic = time.monotonic()
        try:
            return self._run(max_cost)
        except BudgetExhausted:
            self.status = STATUS_BUDGET
            return self.status
        except SweepCancelled:
            self.status = STATUS_CANCELLED
            return self.status
        except SweepPreempted:
            self.status = STATUS_PREEMPTED
            return self.status

    @property
    def elapsed_s(self) -> float:
        """Monotonic seconds since the current run started (0.0 before)."""
        if self.run_started_monotonic is None:
            return 0.0
        return time.monotonic() - self.run_started_monotonic

    def _check_budget(self) -> None:
        """Abort the sweep once ``max_generated`` candidates were built."""
        if self.max_generated is not None and self.generated >= self.max_generated:
            raise BudgetExhausted()

    def _cancel_requested(self) -> bool:
        """Has the cancellation probe fired or the deadline passed?"""
        if self.cancel_check is not None and self.cancel_check():
            return True
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return True
        return False

    def _after_level(self, cost: int, start: int, end: int) -> None:
        """Run the between-level hooks (progress, batch scan, cancel)."""
        if self.on_level is not None and self.on_level(cost, start, end):
            raise SweepCancelled()
        if self._cancel_requested():
            raise SweepCancelled()
        if self.preempt_check is not None and self.preempt_check():
            # The level just completed (and was journaled by any
            # on_level checkpoint hook), so no partial record is needed.
            raise SweepPreempted()

    # ------------------------------------------------------------------
    # Level checkpointing (shared half)
    # ------------------------------------------------------------------
    def restore_levels(self, levels: List[LevelCheckpoint]) -> None:
        """Arm the next :meth:`run` to adopt checkpointed levels.

        ``levels`` must start at the seed cost and be consecutive; they
        are replayed — dedupe-set inserts, cache appends, level marks,
        solution scans and budget accounting included — before any
        enumeration happens, so the run continues from the last adopted
        level exactly as if it had enumerated them itself.
        """
        if self.generated or self.levels_built or len(self.cache):
            raise RuntimeError("restore_levels must precede the sweep")
        self._restored_levels = list(levels)

    def level_checkpoint(self, cost: int, start: int, end: int) -> LevelCheckpoint:
        """Snapshot a just-completed level (call from an ``on_level``
        hook, when ``generated`` still equals the level-end total)."""
        rows, ops, lefts, rights, ordinals = self._level_payload(start, end)
        return LevelCheckpoint(
            cost=cost,
            rows=rows,
            ops=ops,
            lefts=lefts,
            rights=rights,
            ordinals=ordinals,
            generated_total=int(self.generated),
        )

    def restore_partial(self, partial: PartialLevelCheckpoint) -> None:
        """Arm the next :meth:`run` to resume mid-level from ``partial``.

        Used together with :meth:`restore_levels`: the partial must
        cover the cost right after the last restored complete level.
        The stored prefix is adopted exactly as enumeration left it and
        the level's emit loop fast-forwards past the already-generated
        candidates, so the finished level — and everything after it —
        is bit-identical to an uninterrupted run.
        """
        if self.generated or self.levels_built or len(self.cache):
            raise RuntimeError("restore_partial must precede the sweep")
        self._restored_partial = partial

    def partial_checkpoint(self) -> PartialLevelCheckpoint:
        """Snapshot the current level's progress (safe points only)."""
        start = self._level_start_cache
        rows, ops, lefts, rights, ordinals = self._level_payload(
            start, len(self.cache)
        )
        return PartialLevelCheckpoint(
            cost=self._current_cost,
            rows=rows,
            ops=ops,
            lefts=lefts,
            rights=rights,
            ordinals=ordinals,
            generated_total=int(self.generated),
            level_progress=int(self.generated - self._level_start_generated),
        )

    def _write_partial(self) -> None:
        if self.on_partial is not None:
            self.on_partial(self.partial_checkpoint())
            self.partial_checkpoints += 1
        self._last_partial_generated = self.generated
        self._last_partial_monotonic = time.monotonic()

    def _safe_point(self) -> None:
        """Emit-loop safe point: candidates so far are fully stored.

        Engines call this at batch boundaries (the vector engine's
        accumulator is empty, the scalar engine between candidates).
        Preemption stops the sweep here after journaling a partial
        checkpoint; otherwise a partial is written when the configured
        candidate/second interval has elapsed.
        """
        if not self._partial_active or self.otf:
            # OnTheFly mode stops storing rows, so a partial snapshot
            # could no longer describe the level; preemption then waits
            # for the level boundary.
            return
        if self.preempt_check is not None and self.preempt_check():
            self._write_partial()
            raise SweepPreempted()
        if self.on_partial is None:
            return
        every = self.partial_every_candidates
        if (
            every is not None
            and self.generated - self._last_partial_generated >= every
        ):
            self._write_partial()
            return
        every_s = self.partial_every_s
        if (
            every_s is not None
            and time.monotonic() - self._last_partial_monotonic >= every_s
        ):
            self._write_partial()

    def _replay_restored(self, max_cost: int) -> Optional[int]:
        """Adopt the armed checkpoints; returns the next cost to build.

        Returns None when the replay itself settles the run: a restored
        row satisfies the spec (solution recorded, partial level
        adopted — identical to enumeration stopping at that candidate),
        or the generation budget lands inside a restored level
        (:class:`BudgetExhausted` raised after adopting the in-budget
        prefix).  Mirrors the solo sweep's bookkeeping exactly: no
        ``level_stats`` entry for the seed level or a budget-interrupted
        level, no level mark for a solved or budget-interrupted level.
        """
        levels = self._restored_levels
        self._restored_levels = []
        c1 = self.cost_fn.literal
        budget = self.max_generated
        prev_total = self.generated  # the two trivial candidates
        next_cost = c1
        for payload in levels:
            cost = payload.cost
            if cost != next_cost or cost > max_cost:
                break  # a gap or past the ceiling: enumerate from here
            self._current_cost = cost
            n = int(payload.ordinals.shape[0])
            cut = n
            if budget is not None:
                cut = int(
                    np.searchsorted(payload.ordinals, budget, side="right")
                )
            hit = None
            if not self._checks_disabled:
                hit = self._scan_restored(payload, cut)
            start = len(self.cache)
            if hit is not None:
                self._adopt_restored(payload, 0, hit)
                self.generated = int(payload.ordinals[hit])
                if cost != c1:
                    self.level_stats.append(
                        {
                            "cost": cost,
                            "generated": self.generated - prev_total,
                            "stored": len(self.cache) - start,
                            "otf": False,
                        }
                    )
                self._record_solution(
                    int(payload.ops[hit]),
                    int(payload.lefts[hit]),
                    int(payload.rights[hit]),
                    cost,
                )
                return None
            if budget is not None and payload.generated_total >= budget:
                self._adopt_restored(payload, 0, cut)
                self.generated = budget
                raise BudgetExhausted()
            self._adopt_restored(payload, 0, n)
            self.generated = int(payload.generated_total)
            if cost != c1:
                self.level_stats.append(
                    {
                        "cost": cost,
                        "generated": self.generated - prev_total,
                        "stored": n,
                        "otf": False,
                    }
                )
            self.cache.levels.mark(cost, start, len(self.cache))
            self.levels_built += 1
            self.resumed_levels += 1
            prev_total = self.generated
            next_cost = cost + 1
            self._after_level(cost, start, len(self.cache))
        partial = self._restored_partial
        self._restored_partial = None
        if (
            partial is not None
            and partial.cost == next_cost
            and next_cost <= max_cost
        ):
            self._adopt_partial(partial)
            if self.status == STATUS_SUCCESS:
                return None
        return next_cost

    def _adopt_partial(self, partial: PartialLevelCheckpoint) -> None:
        """Adopt a partial level's stored prefix and arm the emit-loop
        fast-forward (mirrors :meth:`_replay_restored` semantics: budget
        cut by ordinal, solution scan under the *current* spec)."""
        cost = partial.cost
        self._current_cost = cost
        budget = self.max_generated
        n = int(partial.ordinals.shape[0])
        cut = n
        if budget is not None:
            cut = int(np.searchsorted(partial.ordinals, budget, side="right"))
        hit = None
        if not self._checks_disabled:
            hit = self._scan_restored(partial, cut)
        start = len(self.cache)
        level_start_generated = (
            partial.generated_total - partial.level_progress
        )
        if hit is not None:
            self._adopt_restored(partial, 0, hit)
            self.generated = int(partial.ordinals[hit])
            self.level_stats.append(
                {
                    "cost": cost,
                    "generated": self.generated - level_start_generated,
                    "stored": len(self.cache) - start,
                    "otf": False,
                }
            )
            self._record_solution(
                int(partial.ops[hit]),
                int(partial.lefts[hit]),
                int(partial.rights[hit]),
                cost,
            )
            return
        if budget is not None and partial.generated_total >= budget:
            self._adopt_restored(partial, 0, cut)
            self.generated = budget
            raise BudgetExhausted()
        self._adopt_restored(partial, 0, n)
        self.generated = int(partial.generated_total)
        self._level_skip = int(partial.level_progress)
        self._partial_base = (cost, start, level_start_generated)
        self.partial_resumes += 1

    def _run(self, max_cost: int) -> str:
        # An already-cancelled run (a job cancelled while queued, or a
        # watchdog that fired before the sweep began) exits before doing
        # any seeding work.
        if self._cancel_requested():
            raise SweepCancelled()
        c1 = self.cost_fn.literal
        self._current_cost = c1
        if self._check_trivials(c1):
            return self.status
        next_cost = c1
        if self._restored_levels:
            if self.tracer is None:
                next_cost = self._replay_restored(max_cost)
            else:
                with self.tracer.span(
                    "checkpoint-replay", levels=len(self._restored_levels)
                ):
                    next_cost = self._replay_restored(max_cost)
            if next_cost is None:
                return self.status
        if next_cost == c1:
            # Nothing restored (or the checkpoints were unusable):
            # enumerate the seed level as usual.
            seed_span = (
                self.tracer.start("seed-level", cost=c1)
                if self.tracer is not None
                else None
            )
            try:
                if self._seed_alphabet():
                    return self.status
                self.cache.levels.mark(c1, 0, len(self.cache))
                self.levels_built = 1
            finally:
                if seed_span is not None:
                    self.tracer.finish(seed_span, stored=len(self.cache))
            self._after_level(c1, 0, len(self.cache))
            next_cost = c1 + 1

        for cost in range(next_cost, max_cost + 1):
            if self.otf and not self._otf_can_build(cost):
                self.status = STATUS_OOM
                return self.status
            start = len(self.cache)
            generated_before = self.generated
            if (
                self._partial_base is not None
                and self._partial_base[0] == cost
            ):
                # Resuming mid-level from a partial checkpoint: the
                # adopted prefix belongs to this level's cache range,
                # stats entry and level mark.
                _, start, generated_before = self._partial_base
                self._partial_base = None
            self._current_cost = cost
            self._level_start_cache = start
            self._level_start_generated = generated_before
            self._last_partial_generated = self.generated
            self._last_partial_monotonic = time.monotonic()
            self._partial_active = not self.otf
            try:
                if self.tracer is None:
                    solved = self._build_level(cost)
                else:
                    solved = self._build_level_traced(cost)
            finally:
                self._partial_active = False
            self.level_stats.append(
                {
                    "cost": cost,
                    "generated": self.generated - generated_before,
                    "stored": len(self.cache) - start,
                    "otf": self.otf,
                }
            )
            if solved:
                return self.status
            self.levels_built += 1
            if not self.otf:
                self.cache.levels.mark(cost, start, len(self.cache))
            self._after_level(cost, start, len(self.cache))
        self.status = STATUS_NOT_FOUND
        return self.status

    def _check_trivials(self, c1: int) -> bool:
        """Check the two cost-``c1`` pseudo-candidates ``∅`` and ``ε``.

        For precise synthesis these reduce to the paper's lines 4–5 of
        Algorithm 1 (``P = {}`` and ``P = {ε}``); with ``allowed_error``
        they additionally realise rows like the 50%-error ``∅`` of the
        paper's §5.2 table.
        """
        self.generated += 1
        if self.solves_int(0):
            self._record_solution(OP_EMPTY, -1, -1, c1)
            return True
        self.generated += 1
        if self.solves_int(self.universe.eps_bit):
            self._record_solution(OP_EPSILON, -1, -1, c1)
            return True
        return False

    def _otf_can_build(self, cost: int) -> bool:
        """In OnTheFly mode: can level ``cost`` still be enumerated
        completely from fully-cached levels?

        The deepest operand level any constructor needs is
        ``cost - min(c2, c3, c4 + c1, c5 + c1)`` (cf. the paper's "if the
        cost of all regular constructors is > 55 ... needs only CSs of
        target cost minus 55").
        """
        last = self.cache.levels.last_complete_cost
        if last is None:
            return False
        return cost - self.cost_fn.min_constructor_cost <= last

    def _build_level_traced(self, cost: int) -> bool:
        """:meth:`_build_level` inside a span, with the level's
        dedupe/solve/store phase-timer deltas attached at completion —
        the per-level split the coarse run-total ``phase_seconds``
        cannot give."""
        phases_before = dict(self.phase_seconds)
        generated_before = self.generated
        stored_before = len(self.cache)
        span = self.tracer.start("level", cost=cost)
        try:
            return self._build_level(cost)
        finally:
            deltas = {
                name + "_s": round(
                    self.phase_seconds[name] - phases_before.get(name, 0.0), 9
                )
                for name in self.phase_seconds
            }
            self.tracer.finish(
                span,
                generated=self.generated - generated_before,
                stored=len(self.cache) - stored_before,
                **deltas,
            )

    def _build_level(self, cost: int) -> bool:
        """Build every candidate of ``cost``: ``?``, ``*``, ``·``, ``+``.

        When resuming mid-level from a partial checkpoint,
        ``self._level_skip`` holds the number of already-adopted
        candidates: whole emit steps are skipped structurally (their
        candidate counts are closed-form), and the step containing the
        resume point is entered with the residual offset — rework is
        bounded by one kernel batch, never a whole step.
        """
        cf = self.cost_fn
        levels = self.cache.levels
        c1 = cf.literal
        skip = self._level_skip
        self._level_skip = 0

        # Question mark.
        bounds = levels.bounds(cost - cf.question)
        if bounds is not None and bounds[0] < bounds[1]:
            n = bounds[1] - bounds[0]
            if skip >= n:
                skip -= n
            else:
                lo = bounds[0] + skip
                skip = 0
                if self._emit_unary(OP_QUESTION, lo, bounds[1]):
                    return True
                self._safe_point()

        # Kleene star.
        bounds = levels.bounds(cost - cf.star)
        if bounds is not None and bounds[0] < bounds[1]:
            n = bounds[1] - bounds[0]
            if skip >= n:
                skip -= n
            else:
                lo = bounds[0] + skip
                skip = 0
                if self._emit_unary(OP_STAR, lo, bounds[1]):
                    return True
                self._safe_point()

        # Concatenation: all ordered pairs (L, R) with L + R = budget.
        budget = cost - cf.concat
        pairings: List[Tuple[Tuple[int, int], Tuple[int, int], bool]] = []
        for left_cost in levels.costs():
            right_cost = budget - left_cost
            if right_cost < c1:
                break
            left = levels.bounds(left_cost)
            right = levels.bounds(right_cost)
            if left is None or right is None:
                continue
            if left[0] == left[1] or right[0] == right[1]:
                continue
            pairings.append((left, right, False))
        if pairings:
            total = sum(_pair_candidates(p) for p in pairings)
            if skip >= total:
                skip -= total
            else:
                group_skip, skip = skip, 0
                if self._emit_pair_group(OP_CONCAT, pairings, group_skip):
                    return True
                self._safe_point()

        # Union: commutative, so only pairs with L ≤ R (and i < j on the
        # diagonal — ``r + r`` never yields a new CS nor a new solution,
        # since ``r`` itself was checked when first constructed).
        budget = cost - cf.union
        pairings = []
        for left_cost in levels.costs():
            right_cost = budget - left_cost
            if right_cost < left_cost:
                break
            left = levels.bounds(left_cost)
            right = levels.bounds(right_cost)
            if left is None or right is None:
                continue
            if left[0] == left[1] or right[0] == right[1]:
                continue
            pairings.append((left, right, left_cost == right_cost))
        if pairings:
            total = sum(_pair_candidates(p) for p in pairings)
            if skip >= total:
                skip -= total
            else:
                group_skip, skip = skip, 0
                if self._emit_pair_group(OP_UNION, pairings, group_skip):
                    return True
                self._safe_point()
        return False
