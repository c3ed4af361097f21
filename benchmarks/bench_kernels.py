"""Micro-benchmarks of the primitive kernels both engines are built on.

Not a paper table, but the evidence behind the Table 1 speed-up: the
batched array-level kernels amortise Python overhead across a whole
candidate block, while the scalar kernels pay it per candidate (see
``docs/ARCHITECTURE.md``, "Kernel design").

Besides the pytest-benchmark timings, :func:`test_emit_kernel_bench_artifact`
writes ``BENCH_kernels.json`` to the repo root — one record per kernel
with ns/candidate and the speedup against both the scalar kernel and the
*seed* vector implementation (the pre-flat-gather Python loop nest,
preserved below as :class:`_SeedLoopKernels`) — so successive PRs have a
perf trajectory to compare against.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from _bench_utils import REPO_ROOT, bench_scale, is_full
from repro.core.bitops import concat_cs, star_cs
from repro.core.hashset import FingerprintHashSet, PackedKeySet, splitmix64_array
from repro.core.vector_engine import VectorEngine, _Kernels
from repro.language.guide_table import GuideTable
from repro.language.universe import Universe
from repro.regex.cost import CostFunction
from repro.spec import Spec

WORDS = ["110100", "001011", "111000", "010101"]

#: Universe for the perf-trajectory artifact: 10-char heterogeneous
#: words, like the paper's harder Table 1 rows (larger guide table,
#: multi-lane CSs) — the regime the batched kernels are built for.
ARTIFACT_WORDS = ["1101001010", "0010110101", "1110001110"]

#: The end-to-end workload of the ``level_build`` record: the multi-lane
#: synthesis task of ``tests/test_wide_universe.py``.
WIDE_SPEC = Spec(
    positive=["0110100101", "1010010110", "01"],
    negative=["", "0", "1", "11", "10", "0011001100"],
)

#: The dedupe ns/candidate of the pre-two-tier pipeline as checked in
#: by PR 1 (BENCH_kernels.json at that revision, this workload) — the
#: absolute reference the >= 3x acceptance criterion was stated
#: against.  The one-tier set is *also* measured live, so the asserted
#: ratio is machine-independent.
PR1_DEDUPE_NS = 222.21160889124292

_ONE = np.uint64(1)


class _SeedLoopKernels:
    """The seed implementation of the concat kernel (reference baseline).

    This is the pre-rewrite ``_Kernels.concat``: a Python ``for`` loop
    over every universe word and every guide-table split, i.e. the
    "GPU-sim" engine before the flat-gather rewrite.  Kept verbatim so
    ``BENCH_kernels.json`` always measures the new kernels against the
    true seed behaviour.
    """

    def __init__(self, universe: Universe, guide: GuideTable) -> None:
        flat = guide.flat
        self.n_words = universe.n_words
        self.lanes = universe.lanes
        self.offsets = flat.offsets
        self.left_lane = (flat.left_index >> 6).astype(np.int64)
        self.left_off = (flat.left_index & 63).astype(np.uint64)
        self.right_lane = (flat.right_index >> 6).astype(np.int64)
        self.right_off = (flat.right_index & 63).astype(np.uint64)
        self.word_lane = np.arange(self.n_words, dtype=np.int64) >> 6
        self.word_off = (np.arange(self.n_words, dtype=np.int64) & 63).astype(
            np.uint64
        )
        self.eps_lane = universe.eps_index >> 6
        self.eps_mask = np.uint64(1 << (universe.eps_index & 63))
        self.max_word_length = universe.max_word_length

    def concat(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        m = left.shape[0]
        out = np.zeros((m, self.lanes), dtype=np.uint64)
        offsets = self.offsets
        for w in range(self.n_words):
            acc = np.zeros(m, dtype=np.uint64)
            for k in range(offsets[w], offsets[w + 1]):
                left_bit = (left[:, self.left_lane[k]] >> self.left_off[k]) & _ONE
                right_bit = (right[:, self.right_lane[k]] >> self.right_off[k]) & _ONE
                acc |= left_bit & right_bit
            out[:, self.word_lane[w]] |= acc << self.word_off[w]
        return out

    def star(self, batch: np.ndarray) -> np.ndarray:
        """The seed star: unmasked global fixpoint over the seed concat."""
        m = batch.shape[0]
        result = np.zeros((m, self.lanes), dtype=np.uint64)
        result[:, self.eps_lane] |= self.eps_mask
        for _ in range(self.max_word_length + 1):
            grown = result | self.concat(result, batch)
            if np.array_equal(grown, result):
                break
            result = grown
        return result

    def question(self, batch: np.ndarray) -> np.ndarray:
        out = batch.copy()
        out[:, self.eps_lane] |= self.eps_mask
        return out


class _OneTierKeySet:
    """The pre-two-tier ``PackedKeySet`` (reference baseline, verbatim).

    One full-key table probed with a per-round stable argsort for claim
    arbitration and a full ``(lanes)``-wide compare on every occupied
    probe — the implementation behind the previous BENCH_kernels.json
    dedupe figure, preserved so the artifact always measures the
    two-tier set against the true prior behaviour.
    """

    def __init__(self, lanes, initial_capacity=1024, max_load=0.6):
        capacity = 2
        while capacity < initial_capacity:
            capacity <<= 1
        self._lanes = lanes
        self._keys = np.zeros((capacity, lanes), dtype=np.uint64)
        self._used = np.zeros(capacity, dtype=bool)
        self._mask = capacity - 1
        self._size = 0
        self._max_load = max_load

    def __len__(self):
        return self._size

    @property
    def capacity(self):
        return self._mask + 1

    def _fingerprints(self, rows):
        acc = splitmix64_array(rows[:, 0])
        for lane in range(1, self._lanes):
            acc = splitmix64_array(acc ^ rows[:, lane])
        return acc

    def _reserve(self, extra):
        needed = self._size + extra
        new_capacity = self.capacity
        while needed > self._max_load * new_capacity:
            new_capacity *= 2
        if new_capacity == self.capacity:
            return
        old_keys = self._keys[self._used]
        self._keys = np.zeros((new_capacity, self._lanes), dtype=np.uint64)
        self._used = np.zeros(new_capacity, dtype=bool)
        self._mask = new_capacity - 1
        self._size = 0
        if old_keys.shape[0]:
            self.insert_batch(old_keys)

    def insert_batch(self, rows):
        n = rows.shape[0]
        is_new = np.zeros(n, dtype=bool)
        if n == 0:
            return is_new
        self._reserve(n)
        rows = np.ascontiguousarray(rows, dtype=np.uint64)
        idx = (self._fingerprints(rows) & np.uint64(self._mask)).astype(np.int64)
        pending = np.arange(n, dtype=np.int64)
        while pending.size:
            slots = idx[pending]
            used = self._used[slots]
            advancing = pending[:0]
            occupied = pending[used]
            if occupied.size:
                equal = (self._keys[idx[occupied]] == rows[occupied]).all(axis=1)
                advancing = occupied[~equal]
                idx[advancing] = (idx[advancing] + 1) & self._mask
            losers = pending[:0]
            empty = pending[~used]
            if empty.size:
                order = np.argsort(idx[empty], kind="stable")
                contenders = empty[order]
                slot_ids = idx[contenders]
                first = np.ones(contenders.size, dtype=bool)
                first[1:] = slot_ids[1:] != slot_ids[:-1]
                winners = contenders[first]
                losers = contenders[~first]
                self._keys[idx[winners]] = rows[winners]
                self._used[idx[winners]] = True
                is_new[winners] = True
                self._size += int(winners.size)
            pending = np.sort(np.concatenate((advancing, losers)))
        return is_new


class _PySetDedupe:
    """The seed dedupe: a per-row Python ``set`` loop behind the
    ``insert_batch`` interface."""

    def __init__(self, lanes, **_):
        self._seen = set()

    def __len__(self):
        return len(self._seen)

    def insert_batch(self, rows):
        seen = self._seen
        mask = np.zeros(rows.shape[0], dtype=bool)
        for k in range(rows.shape[0]):
            key = rows[k].tobytes()
            if key not in seen:
                seen.add(key)
                mask[k] = True
        return mask


class _Pr1Kernels(_Kernels):
    """The PR-1 batch kernels, verbatim: per-batch ``bitslice_rows`` of
    both operands, fancy-indexed split gathers, masked-row star."""

    def concat(self, left, right):
        from repro.core.bitops import bitslice_rows, unbitslice_rows

        m = left.shape[0]
        if m == 0 or self.n_splits == 0:
            return np.zeros((m, self.lanes), dtype=np.uint64)
        left_planes = bitslice_rows(left, self.n_words)
        right_planes = bitslice_rows(right, self.n_words)
        m8 = left_planes.shape[1]
        word_planes = np.zeros((self.n_planes, m8), dtype=np.uint8)
        pad = self.pad_width
        block_words = max(1, self.split_block_bytes // (3 * pad * m8))
        for w0 in range(0, self.n_words, block_words):
            w1 = min(w0 + block_words, self.n_words)
            gathered = (
                left_planes[self.left_padded[w0 * pad : w1 * pad]]
                & right_planes[self.right_padded[w0 * pad : w1 * pad]]
            )
            np.bitwise_or.reduce(
                gathered.reshape(w1 - w0, pad, m8),
                axis=1,
                out=word_planes[w0:w1],
            )
        return unbitslice_rows(word_planes, m, self.lanes)

    def star(self, batch):
        m = batch.shape[0]
        result = np.zeros((m, self.lanes), dtype=np.uint64)
        result[:, self.eps_lane] |= self.eps_mask
        if m == 0:
            return result
        active = np.arange(m, dtype=np.int64)
        for _ in range(self.max_word_length + 1):
            current = result[active]
            grown = current | self.concat(current, batch[active])
            changed = (grown != current).any(axis=1)
            if not changed.any():
                break
            active = active[changed]
            result[active] = grown[changed]
            if active.size == 0:
                break
        return result


class _Pr1VectorEngine(VectorEngine):
    """The PR-1 level pipeline (reference baseline, behaviour-verbatim).

    Per-pairing batches with the O(n²) ``triu_indices``/``repeat``+
    ``tile`` index materialisation, per-batch ``bitslice_rows`` through
    the packed-row concat/star adapters, and the one-tier key set —
    the pipeline behind the previous BENCH_kernels.json and wide-spec
    figures.  Enumeration is bit-identical to the current engine (the
    artifact test asserts it), only the data movement differs.
    """

    _SEEN_CLASS = _OneTierKeySet

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._seen = self._SEEN_CLASS(
            self.universe.lanes, initial_capacity=1 << 12
        )
        self._kernels = _Pr1Kernels(self.universe, self.guide)

    def _solve_flags(self, rows):
        from repro.core.bitops import popcount_rows

        if self.max_errors == 0:
            pos_ok = ((rows & self._pos_lanes) == self._pos_lanes).all(axis=1)
            neg_ok = ((rows & self._neg_lanes) == 0).all(axis=1)
            return pos_ok & neg_ok
        mistakes = popcount_rows((rows & self._pos_lanes) ^ self._pos_lanes)
        mistakes += popcount_rows(rows & self._neg_lanes)
        return mistakes <= self.max_errors

    def _emit_pair_group(self, op, pairings, skip=0):
        # The baseline never resumes mid-level, so there is no offset.
        assert skip == 0
        for left, right, triangular in pairings:
            if self._pr1_emit_pairs(op, left, right, triangular):
                return True
        return False

    def _pr1_emit_pairs(self, op, left, right, triangular):
        from repro.core.engine import OP_CONCAT

        if triangular:
            n = left[1] - left[0]
            i_idx, j_idx = np.triu_indices(n, k=1)
            left_idx = (i_idx + left[0]).astype(np.int64)
            right_idx = (j_idx + left[0]).astype(np.int64)
        else:
            n_left = left[1] - left[0]
            n_right = right[1] - right[0]
            left_idx = np.repeat(
                np.arange(left[0], left[1], dtype=np.int64), n_right
            )
            right_idx = np.tile(
                np.arange(right[0], right[1], dtype=np.int64), n_left
            )
        total = left_idx.shape[0]
        matrix = self._cache.matrix
        for lo in range(0, total, self._max_batch):
            hi = min(lo + self._max_batch, total)
            li = left_idx[lo:hi]
            ri = right_idx[lo:hi]
            left_rows = matrix[li]
            right_rows = matrix[ri]
            if op == OP_CONCAT:
                out = self._kernels.concat(left_rows, right_rows)
            else:
                out = left_rows | right_rows
            if self._handle_batch(op, out, li, ri):
                return True
        return False

    def _emit_unary(self, op, start, end):
        from repro.core.engine import OP_QUESTION

        kernel = (
            self._kernels.question if op == OP_QUESTION else self._kernels.star
        )
        for lo in range(start, end, self._max_batch):
            hi = min(lo + self._max_batch, end)
            out = kernel(self._cache.rows(lo, hi))
            indices = np.arange(lo, hi, dtype=np.int64)
            if self._handle_batch(op, out, indices, None):
                return True
        return False


class _SeedVectorEngine(_Pr1VectorEngine):
    """The seed (pre-PR-1) vector engine: Python loop-nest kernels and
    per-row Python-set dedupe, on the PR-1 emit structure."""

    _SEEN_CLASS = _PySetDedupe

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._kernels = _SeedLoopKernels(self.universe, self.guide)


@pytest.fixture(scope="module")
def setting():
    universe = Universe(WORDS)
    guide = GuideTable(universe)
    return universe, guide


def test_bench_guide_table_build(benchmark):
    universe = Universe(WORDS)
    guide = benchmark(lambda: GuideTable(universe))
    assert guide.n_splits > 0


def test_bench_scalar_concat(benchmark, setting):
    universe, guide = setting
    left = universe.cs_of_predicate(lambda w: w.endswith("0"))
    right = universe.cs_of_predicate(lambda w: w.startswith("1"))
    result = benchmark(lambda: concat_cs(left, right, guide))
    assert result >= 0


def test_bench_scalar_star(benchmark, setting):
    universe, guide = setting
    cs = universe.cs_of_predicate(lambda w: len(w) == 1)
    result = benchmark(lambda: star_cs(cs, guide, universe))
    assert result & universe.eps_bit


def test_bench_vector_concat_batch(benchmark, setting):
    universe, guide = setting
    kernels = _Kernels(universe, guide)
    rng = np.random.default_rng(0)
    batch = rng.integers(0, 2**63, size=(4096, universe.lanes),
                         dtype=np.uint64)
    out = benchmark(lambda: kernels.concat(batch, batch))
    assert out.shape == batch.shape


def test_bench_vector_star_batch(benchmark, setting):
    universe, guide = setting
    kernels = _Kernels(universe, guide)
    rng = np.random.default_rng(2)
    batch = rng.integers(0, 2**63, size=(1024, universe.lanes),
                         dtype=np.uint64)
    out = benchmark(lambda: kernels.star(batch))
    assert out.shape == batch.shape


def test_bench_vector_dedupe_batch(benchmark, setting):
    universe, _ = setting
    rng = np.random.default_rng(3)
    batch = rng.integers(0, 1 << 12, size=(4096, universe.lanes),
                         dtype=np.uint64)

    def run():
        seen = PackedKeySet(universe.lanes, initial_capacity=1 << 12)
        return seen.insert_batch(batch)

    novelty = benchmark(run)
    assert novelty.shape == (4096,)


def test_vector_kernel_throughput_beats_scalar(setting):
    """The per-candidate cost of the batched kernel must be far below
    the scalar kernel's — the microscopic source of Table 1."""
    universe, guide = setting
    kernels = _Kernels(universe, guide)
    rng = np.random.default_rng(1)
    n = 4096
    batch = rng.integers(0, 2**63, size=(n, universe.lanes), dtype=np.uint64)

    started = time.perf_counter()
    kernels.concat(batch, batch)
    vector_per_item = (time.perf_counter() - started) / n

    left = universe.cs_of_predicate(lambda w: w.endswith("0"))
    right = universe.cs_of_predicate(lambda w: w.startswith("1"))
    started = time.perf_counter()
    for _ in range(200):
        concat_cs(left, right, guide)
    scalar_per_item = (time.perf_counter() - started) / 200

    assert vector_per_item < scalar_per_item


def test_bench_hashset_inserts(benchmark):
    def run():
        hs = FingerprintHashSet(initial_capacity=1 << 12)
        for key in range(5000):
            hs.insert((key * 2654435761) % (1 << 61))
        return hs

    hs = benchmark(run)
    assert len(hs) == 5000


def test_bench_universe_build(benchmark):
    words = ["1101001010", "0010110101", "1110001110"]
    universe = benchmark(lambda: Universe(words))
    assert universe.n_words > 50


# ----------------------------------------------------------------------
# Perf-trajectory artifact: BENCH_kernels.json at the repo root
# ----------------------------------------------------------------------

def _time_per_item(fn, items: int, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock per item, in nanoseconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best * 1e9 / items


def test_emit_kernel_bench_artifact():
    """Measure every rewritten kernel and record the perf trajectory.

    Asserts the headline acceptance criteria of the kernel rewrites:
    >= 10x concat throughput over the seed loop nest, >= 3x dedupe
    throughput over the one-tier set (the implementation behind the
    previous 222 ns/candidate figure), and >= 1.5x end-to-end wide-spec
    level building over the PR-1 pipeline — with the PR-1 and seed
    pipelines measured live, and enumeration bit-identity asserted
    across all three.
    """
    universe = Universe(ARTIFACT_WORDS)
    guide = GuideTable(universe)
    kernels = _Kernels(universe, guide)
    seed = _SeedLoopKernels(universe, guide)
    batch_size = 1 << 17 if is_full() else 1 << 16
    repeats = 5
    rng = np.random.default_rng(42)
    batch = rng.integers(0, 2**63, size=(batch_size, universe.lanes),
                         dtype=np.uint64)
    left_int = universe.cs_of_predicate(lambda w: w.endswith("0"))
    right_int = universe.cs_of_predicate(lambda w: w.startswith("1"))

    results = []

    # --- concat: plane fold vs seed loop nest vs scalar kernel --------
    vector_ns = _time_per_item(
        lambda: kernels.concat(batch, batch), batch_size, repeats
    )
    seed_ns = _time_per_item(
        lambda: seed.concat(batch, batch), batch_size, repeats
    )
    scalar_reps = 200
    scalar_ns = _time_per_item(
        lambda: [concat_cs(left_int, right_int, guide)
                 for _ in range(scalar_reps)],
        scalar_reps,
        repeats,
    )
    results.append({
        "op": "concat",
        "batch_size": batch_size,
        "ns_per_candidate": vector_ns,
        "ns_per_candidate_seed": seed_ns,
        "ns_per_candidate_scalar": scalar_ns,
        "speedup_vs_seed": seed_ns / vector_ns,
        "speedup_vs_scalar": scalar_ns / vector_ns,
    })

    # --- star: plane-resident fixpoint vs seed fixpoint vs scalar -----
    star_batch = batch[: max(batch_size // 4, 1)]
    star_ns = _time_per_item(
        lambda: kernels.star(star_batch), star_batch.shape[0], repeats
    )
    seed_star_batch = star_batch[: max(star_batch.shape[0] // 8, 1)]
    seed_star_ns = _time_per_item(
        lambda: seed.star(seed_star_batch), seed_star_batch.shape[0], 2
    )
    star_reps = 50
    scalar_star_ns = _time_per_item(
        lambda: [star_cs(left_int, guide, universe) for _ in range(star_reps)],
        star_reps,
        repeats,
    )
    results.append({
        "op": "star",
        "batch_size": int(star_batch.shape[0]),
        "ns_per_candidate": star_ns,
        "ns_per_candidate_seed": seed_star_ns,
        "ns_per_candidate_scalar": scalar_star_ns,
        "speedup_vs_seed": seed_star_ns / star_ns,
        "speedup_vs_scalar": scalar_star_ns / star_ns,
    })

    # --- dedupe: two-tier set vs one-tier set vs per-row Python set ---
    dedupe_batch = rng.integers(0, 1 << 12, size=(batch_size, universe.lanes),
                                dtype=np.uint64)
    dedupe_repeats = 15  # cheap op; best-of rides out timer noise

    def dedupe_with(set_class):
        def run():
            seen = set_class(universe.lanes, initial_capacity=1 << 12)
            return seen.insert_batch(dedupe_batch)
        return run

    dedupe_ns = _time_per_item(
        dedupe_with(PackedKeySet), batch_size, dedupe_repeats
    )
    one_tier_ns = _time_per_item(
        dedupe_with(_OneTierKeySet), batch_size, dedupe_repeats
    )
    python_dedupe_ns = _time_per_item(
        dedupe_with(_PySetDedupe), batch_size, 3
    )
    results.append({
        "op": "dedupe_two_tier",
        "batch_size": batch_size,
        "ns_per_candidate": dedupe_ns,
        "ns_per_candidate_seed": python_dedupe_ns,
        "ns_per_candidate_one_tier": one_tier_ns,
        "ns_per_candidate_pr1": PR1_DEDUPE_NS,
        "speedup_vs_seed": python_dedupe_ns / dedupe_ns,
        "speedup_vs_one_tier": one_tier_ns / dedupe_ns,
        "speedup_vs_pr1": PR1_DEDUPE_NS / dedupe_ns,
    })

    # --- level_build: end-to-end wide-spec synthesis ------------------
    wide_universe = Universe(WIDE_SPEC.all_words)
    wide_guide = GuideTable(wide_universe)
    cost_fn = CostFunction.uniform()

    def build_with(engine_class, repeats):
        best = float("inf")
        engine = None
        for _ in range(repeats):
            engine = engine_class(
                WIDE_SPEC, cost_fn, wide_universe, wide_guide,
                max_generated=300_000,
            )
            started = time.perf_counter()
            engine.run(40)
            best = min(best, time.perf_counter() - started)
        return engine, best

    engine, level_s = build_with(VectorEngine, 5)
    pr1_engine, pr1_s = build_with(_Pr1VectorEngine, 3)
    seed_engine, seed_s = build_with(_SeedVectorEngine, 1)
    # The three pipelines are the same enumeration — only data movement
    # differs.  Bit-identity is the licence to compare their clocks.
    assert engine.status == pr1_engine.status == seed_engine.status
    assert engine.generated == pr1_engine.generated == seed_engine.generated
    results.append({
        "op": "level_build",
        "workload": "wide-spec synthesis (%d words, %d lanes)" % (
            wide_universe.n_words, wide_universe.lanes),
        "generated": engine.generated,
        "seconds": level_s,
        "seconds_pr1": pr1_s,
        "seconds_seed": seed_s,
        "ns_per_candidate": level_s / engine.generated * 1e9,
        "ns_per_candidate_pr1": pr1_s / engine.generated * 1e9,
        "ns_per_candidate_seed": seed_s / engine.generated * 1e9,
        "speedup_vs_pr1": pr1_s / level_s,
        "speedup_vs_seed": seed_s / level_s,
    })

    artifact = {
        "scale": bench_scale(),
        "universe_words": universe.n_words,
        "guide_splits": guide.n_splits,
        "lanes": universe.lanes,
        "results": results,
    }
    (REPO_ROOT / "BENCH_kernels.json").write_text(
        json.dumps(artifact, indent=2) + "\n", encoding="utf-8"
    )
    print("\n" + json.dumps(artifact, indent=2))

    concat_record = results[0]
    assert concat_record["speedup_vs_seed"] >= 10.0, (
        "plane-fold concat must be >= 10x the seed loop nest, got %.1fx"
        % concat_record["speedup_vs_seed"]
    )
    dedupe_record = results[2]
    assert dedupe_record["speedup_vs_one_tier"] >= 3.0, (
        "two-tier dedupe must be >= 3x the one-tier set, got %.2fx"
        % dedupe_record["speedup_vs_one_tier"]
    )
    level_record = results[3]
    assert level_record["speedup_vs_pr1"] >= 1.5, (
        "plane-resident level build must be >= 1.5x the PR-1 pipeline, "
        "got %.2fx" % level_record["speedup_vs_pr1"]
    )
    assert all("speedup_vs_seed" in record for record in results)
