"""Kernel-equivalence property tests.

The vectorised engine's array-level kernels (flat-gather concat, masked
star, batched dedupe, batched solution check) must agree bit-for-bit
with the scalar oracles ``concat_cs`` / ``star_cs`` / Python's ``set`` /
``cs_solves`` on arbitrary CS batches —
including multi-lane universes, where the packed representation spans
several uint64 words per row.  See ``docs/ARCHITECTURE.md`` for the
kernel design these tests pin down.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _fixtures import words
from repro.core.bitops import (
    bitslice_rows,
    concat_cs,
    int_to_lanes,
    ints_to_matrix,
    lanes_to_int,
    star_cs,
    unbitslice_rows,
)
from repro.core.engine import cs_solves
from repro.core.hashset import PackedKeySet, splitmix64, splitmix64_array
from repro.core.vector_engine import LaneMatcher, _Kernels
from repro.language.guide_table import GuideTable
from repro.language.universe import Universe

# A single-lane and a multi-lane setting (the latter mirrors
# tests/test_wide_universe.py: long heterogeneous words make
# ic(P ∪ N) exceed 64 words, so CSs span several uint64 lanes).
NARROW_WORDS = ["1101", "0010", "111"]
WIDE_WORDS = ["0110100101", "1010010110", "0011001100"]


@pytest.fixture(scope="module", params=["narrow", "wide"])
def setting(request):
    base = NARROW_WORDS if request.param == "narrow" else WIDE_WORDS
    universe = Universe(base)
    guide = GuideTable(universe)
    return universe, guide, _Kernels(universe, guide)


def cs_batches(universe, max_rows=24):
    """Strategy: batches of random CSs over ``universe``."""
    cs = st.integers(min_value=0, max_value=(1 << universe.n_words) - 1)
    return st.lists(cs, min_size=1, max_size=max_rows)


class TestFlatConcat:
    def test_wide_setting_is_multilane(self):
        universe = Universe(WIDE_WORDS)
        assert universe.lanes >= 2

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_oracle(self, setting, data):
        universe, guide, kernels = setting
        lefts = data.draw(cs_batches(universe))
        rights = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << universe.n_words) - 1),
                min_size=len(lefts),
                max_size=len(lefts),
            )
        )
        left_m = ints_to_matrix(lefts, universe.lanes)
        right_m = ints_to_matrix(rights, universe.lanes)
        out = kernels.concat(left_m, right_m)
        for k in range(len(lefts)):
            assert lanes_to_int(out[k]) == concat_cs(lefts[k], rights[k], guide)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_split_blocking_is_transparent(self, setting, data):
        """A tiny split-block budget (maximal blocking) must not change
        the result of the concat kernel."""
        universe, guide, kernels = setting
        blocked = _Kernels(universe, guide, split_block_bytes=1)
        lefts = data.draw(cs_batches(universe, max_rows=8))
        left_m = ints_to_matrix(lefts, universe.lanes)
        assert np.array_equal(
            kernels.concat(left_m, left_m), blocked.concat(left_m, left_m)
        )

    def test_empty_batch(self, setting):
        universe, _, kernels = setting
        empty = np.zeros((0, universe.lanes), dtype=np.uint64)
        assert kernels.concat(empty, empty).shape == (0, universe.lanes)


class TestPlanePairConcat:
    """The plane-resident pair kernel: level planes in, pair planes out."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_oracle_over_all_pairs(self, setting, data):
        universe, guide, kernels = setting
        lefts = data.draw(cs_batches(universe, max_rows=10))
        rights = data.draw(cs_batches(universe, max_rows=13))
        left_planes = bitslice_rows(
            ints_to_matrix(lefts, universe.lanes), universe.n_words
        )
        right_planes = bitslice_rows(
            ints_to_matrix(rights, universe.lanes), universe.n_words
        )
        n_a, n_b = len(lefts), len(rights)
        b8 = right_planes.shape[1]
        planes = kernels.concat_pair_planes(left_planes, right_planes, 0, n_a)
        padded = unbitslice_rows(planes, n_a * b8 * 8, universe.lanes)
        rows = padded.reshape(n_a, b8 * 8, universe.lanes)[:, :n_b]
        for i in range(n_a):
            for j in range(n_b):
                assert lanes_to_int(rows[i, j]) == concat_cs(
                    lefts[i], rights[j], guide
                ), (i, j)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_left_blocks_agree_with_the_full_pairing(self, setting, data):
        universe, _, kernels = setting
        lefts = data.draw(cs_batches(universe, max_rows=9))
        rights = data.draw(cs_batches(universe, max_rows=6))
        left_planes = bitslice_rows(
            ints_to_matrix(lefts, universe.lanes), universe.n_words
        )
        right_planes = bitslice_rows(
            ints_to_matrix(rights, universe.lanes), universe.n_words
        )
        n_a = len(lefts)
        full = kernels.concat_pair_planes(left_planes, right_planes, 0, n_a)
        split = data.draw(st.integers(min_value=0, max_value=n_a))
        parts = [
            kernels.concat_pair_planes(left_planes, right_planes, 0, split),
            kernels.concat_pair_planes(left_planes, right_planes, split, n_a),
        ]
        assert np.array_equal(full, np.concatenate(parts, axis=1))


class TestMaskedStar:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_oracle(self, setting, data):
        universe, guide, kernels = setting
        batch = data.draw(cs_batches(universe))
        packed = ints_to_matrix(batch, universe.lanes)
        out = kernels.star(packed)
        for k, cs in enumerate(batch):
            assert lanes_to_int(out[k]) == star_cs(cs, guide, universe)

    def test_mixed_convergence_speeds(self, setting):
        """Rows converging at different iterations (ε converges at once,
        single-char languages keep growing) must not disturb each other
        once the fast rows are masked out."""
        universe, guide, kernels = setting
        batch = [universe.eps_bit, 0]
        for symbol in universe.alphabet:
            batch.append(universe.char_cs(symbol))
        batch.append(universe.full_mask)
        packed = ints_to_matrix(batch, universe.lanes)
        out = kernels.star(packed)
        for k, cs in enumerate(batch):
            assert lanes_to_int(out[k]) == star_cs(cs, guide, universe)


class TestVectorisedDedupe:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_set_oracle(self, data):
        lanes = data.draw(st.integers(min_value=1, max_value=3))
        seen = PackedKeySet(lanes, initial_capacity=4)
        model = set()
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            # A small value pool forces duplicates within and across batches.
            rows = np.asarray(
                data.draw(
                    st.lists(
                        st.lists(
                            st.integers(min_value=0, max_value=6),
                            min_size=lanes,
                            max_size=lanes,
                        ),
                        min_size=0,
                        max_size=40,
                    )
                ),
                dtype=np.uint64,
            ).reshape(-1, lanes)
            novelty = seen.insert_batch(rows)
            for i in range(rows.shape[0]):
                key = rows[i].tobytes()
                assert bool(novelty[i]) == (key not in model)
                model.add(key)
        assert len(seen) == len(model)

    def test_first_occurrence_wins_within_batch(self):
        seen = PackedKeySet(2, initial_capacity=4)
        rows = np.array(
            [[1, 2], [3, 4], [1, 2], [3, 4], [5, 6]], dtype=np.uint64
        )
        assert list(seen.insert_batch(rows)) == [True, True, False, False, True]

    def test_growth_keeps_membership(self):
        seen = PackedKeySet(1, initial_capacity=2)
        first = np.arange(500, dtype=np.uint64).reshape(-1, 1)
        assert seen.insert_batch(first).all()
        assert not seen.insert_batch(first).any()
        assert len(seen) == 500
        assert seen.capacity >= 500 / 0.6


class TestBitSlicing:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_and_planes_match_unpackbits(self, data):
        lanes = data.draw(st.integers(min_value=1, max_value=3))
        n_bits = data.draw(st.integers(min_value=1, max_value=64 * lanes))
        m = data.draw(st.integers(min_value=1, max_value=70))
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << n_bits) - 1),
                min_size=m,
                max_size=m,
            )
        )
        rows = ints_to_matrix(values, lanes)
        planes = bitslice_rows(rows, n_bits)
        assert planes.shape == (8 * ((n_bits + 7) // 8), (m + 7) // 8)
        # Reference: plane w, candidate k == bit w of row k.
        reference = np.unpackbits(
            rows.view(np.uint8), axis=1, count=n_bits, bitorder="little"
        ).T
        unpacked = np.unpackbits(
            planes, axis=1, count=m, bitorder="little"
        )[:n_bits]
        assert np.array_equal(unpacked, reference)
        # Roundtrip (plane rows beyond n_bits zeroed, as the kernel does).
        cleaned = planes.copy()
        cleaned[n_bits:] = 0
        back = unbitslice_rows(cleaned, m, lanes)
        for k, cs in enumerate(values):
            assert lanes_to_int(back[k]) == cs


class TestSplitmixArray:
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar(self, values):
        array = np.asarray(values, dtype=np.uint64)
        hashed = splitmix64_array(array)
        assert [int(h) for h in hashed] == [splitmix64(v) for v in values]


class TestPackingHelpers:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_ints_to_matrix_matches_int_to_lanes(self, data):
        lanes = data.draw(st.integers(min_value=1, max_value=4))
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << (64 * lanes)) - 1),
                max_size=16,
            )
        )
        matrix = ints_to_matrix(values, lanes)
        assert matrix.shape == (len(values), lanes)
        assert matrix.dtype == np.uint64
        for k, cs in enumerate(values):
            assert np.array_equal(matrix[k], int_to_lanes(cs, lanes))
            assert lanes_to_int(matrix[k]) == cs


@given(base=st.lists(words(max_size=5), min_size=1, max_size=3))
@settings(max_examples=15, deadline=None)
def test_concat_oracle_on_random_universes(base):
    """End-to-end property over random universes: pack, concat, unpack,
    compare against the scalar oracle row by row."""
    universe = Universe(base, alphabet=("0", "1"))
    guide = GuideTable(universe)
    kernels = _Kernels(universe, guide)
    rng = np.random.default_rng(universe.n_words)
    n = 12
    as_ints = [
        int(v) & universe.full_mask
        for v in rng.integers(0, 1 << 30, size=2 * n)
    ]
    lefts, rights = as_ints[:n], as_ints[n:]
    out = kernels.concat(
        ints_to_matrix(lefts, universe.lanes),
        ints_to_matrix(rights, universe.lanes),
    )
    for k in range(n):
        assert lanes_to_int(out[k]) == concat_cs(lefts[k], rights[k], guide)


class TestLaneMatcher:
    """The vector engine's batched solution check agrees with the
    scalar predicate ``cs_solves``."""

    def test_matches_scalar_predicate(self):
        rng = np.random.RandomState(3)
        lanes = 3
        pos = int_to_lanes(rng.randint(0, 1 << 30), lanes)
        neg = int_to_lanes(rng.randint(0, 1 << 30) << 60, lanes)
        pos_int = lanes_to_int(pos)
        neg_int = lanes_to_int(neg) & ~pos_int
        neg = int_to_lanes(neg_int, lanes)
        cs_ints = [int(x) for x in rng.randint(0, 1 << 62, size=64)]
        rows = ints_to_matrix(cs_ints, lanes)
        for max_errors in (0, 1, 3):
            matcher = LaneMatcher(pos, neg, max_errors)
            flags = matcher.flags(rows)
            for cs, flag in zip(cs_ints, flags):
                assert bool(flag) == cs_solves(cs, pos_int, neg_int, max_errors)

    def test_all_zero_masks_accept_everything(self):
        lanes = 2
        matcher = LaneMatcher(
            np.zeros(lanes, dtype=np.uint64),
            np.zeros(lanes, dtype=np.uint64),
            0,
        )
        rows = ints_to_matrix([0, 5, 1 << 100], lanes)
        assert matcher.flags(rows).all()
