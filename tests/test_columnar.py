"""Tests for the columnar kernel tier and the out-of-core SegmentStore.

Exactness is the whole contract: across seeds, periods, and thresholds
the columnar tier must produce letter-identical results to the batched
and legacy kernels and the brute-force oracle — in memory, spilled to
disk, mmap-backed, through the streaming engine, and through the CLI.
The wide-vocabulary (>64 letters) fallback is pinned across every tier,
and the store's on-disk round trip (atomic writes, sidecar metadata) is
exercised directly.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import numpy as np
import pytest

from repro.core.counting import brute_force_frequent
from repro.core.errors import MiningError, StreamError
from repro.core.hitset import mine_single_period_hitset, mine_store
from repro.encoding.vocabulary import LetterVocabulary
from repro.kernels import KERNELS
from repro.kernels import columnar
from repro.kernels.cache import CountCache
from repro.kernels.store import (
    SegmentStore,
    StoreOptions,
    WideVocabularyError,
)
from repro.streaming import StreamingMiner
from repro.timeseries.feature_series import FeatureSeries


def random_series(seed: int, length: int = 60, features: int = 4) -> FeatureSeries:
    """A small random series with empty and multi-feature slots."""
    rng = random.Random(seed)
    alphabet = [f"f{i}" for i in range(features)]
    return FeatureSeries(
        [{f for f in alphabet if rng.random() < 0.35} for _ in range(length)]
    )


def wide_series(seed: int, length: int = 120) -> FeatureSeries:
    """A series whose (offset, feature) vocabulary exceeds 64 letters.

    Two dense features keep the frequent set non-empty while seventy
    rare features blow past the packed-store bit width.
    """
    rng = random.Random(seed)
    slots = []
    for index in range(length):
        slot = {"hot"} if index % 3 == 0 else {"warm"}
        slot.add(f"rare{rng.randrange(70)}")
        slots.append(slot)
    return FeatureSeries(slots)


def result_map(result):
    return {pattern.letters: count for pattern, count in result.items()}


class TestColumnarPrimitives:
    """The vectorized kernels against naive recomputation."""

    def make_store(self, seed: int, period: int = 4) -> SegmentStore:
        series = random_series(seed, length=80, features=5)
        return SegmentStore.from_series_interned(series, period)

    @pytest.mark.parametrize("seed", range(5))
    def test_letter_bit_totals_matches_naive(self, seed):
        store = self.make_store(seed)
        column = store.column()
        totals = columnar.letter_bit_totals(column)
        rows = [int(mask) for mask in store]
        for bit in range(64):
            expected = sum(1 for row in rows if row >> bit & 1)
            assert int(totals[bit]) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_distinct_counts_matches_naive(self, seed):
        store = self.make_store(seed)
        naive = Counter(int(mask) for mask in store)
        assert +columnar.distinct_counts(store.column()) == +naive

    def test_distinct_counts_chunking(self):
        # More rows than one chunk: per-chunk uniques must merge exactly.
        rng = random.Random(7)
        rows = [rng.randrange(1, 32) for _ in range((1 << 16) + 999)]
        vocab = LetterVocabulary(((0, f"f{i}") for i in range(5)), period=1)
        store = SegmentStore(vocab, 1, rows)
        assert +store.distinct_counts() == +Counter(rows)

    @pytest.mark.parametrize("seed", range(5))
    def test_hit_counter_filters_popcount(self, seed):
        store = self.make_store(seed)
        naive = Counter(
            {
                mask: count
                for mask, count in Counter(int(m) for m in store).items()
                if mask.bit_count() >= 2
            }
        )
        assert +store.hit_counter() == +naive

    @pytest.mark.parametrize("seed", range(5))
    def test_count_masks_matches_batched_and_naive(self, seed):
        store = self.make_store(seed)
        rng = random.Random(seed)
        width = len(store.vocab)
        sample = [rng.randrange(1, 1 << width) for _ in range(40)]
        sample += list(store.distinct_counts())[:10]
        sample = [mask for mask in dict.fromkeys(sample) if mask]
        rows = Counter(int(m) for m in store)
        naive = {
            mask: sum(c for row, c in rows.items() if not mask & ~row)
            for mask in sample
        }
        assert store.count_masks(sample, kernel="columnar") == naive
        assert store.count_masks(sample, kernel="batched") == naive
        assert columnar.count_masks(store.distinct_counts(), sample) == naive
        assert store.bitmap_index().count_masks(sample) == naive

    def test_bitmap_index_zero_support_short_circuit(self):
        vocab = LetterVocabulary(((0, "a"), (0, "b"), (0, "c")), period=1)
        store = SegmentStore(vocab, 1, [0b011, 0b001, 0b011])
        index = store.bitmap_index()
        # Letter c (bit 2) never occurs: any candidate using it is 0.
        assert index.count_masks([0b100, 0b101, 0b001]) == {
            0b100: 0,
            0b101: 0,
            0b001: 3,
        }
        assert index.letter_counts(vocab)[(0, "a")] == 3  # in every row

    def test_as_uint64_zero_copy(self):
        store = self.make_store(0)
        column = store.column()
        converted = columnar.as_uint64(column)
        assert converted.dtype == np.uint64
        assert np.shares_memory(converted, column)


class TestKernelEquivalence:
    """Every tier, letter-identical — the tentpole's exactness gate."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("period", (2, 4, 7))
    def test_all_tiers_match_brute_force(self, seed, period):
        series = random_series(seed, length=70, features=4)
        min_conf = (0.25, 0.5, 0.75)[seed % 3]
        maps = {
            kernel: result_map(
                mine_single_period_hitset(series, period, min_conf, kernel=kernel)
            )
            for kernel in KERNELS
        }
        assert maps["columnar"] == maps["batched"] == maps["legacy"]
        oracle = {
            frozenset(p.letters): c
            for p, c in brute_force_frequent(series, period, min_conf).items()
        }
        assert maps["batched"] == oracle

    def test_columnar_books_one_scan(self):
        series = random_series(3, length=60)
        columnar_result = mine_single_period_hitset(
            series, 3, 0.3, kernel="columnar"
        )
        batched_result = mine_single_period_hitset(series, 3, 0.3, kernel="batched")
        assert len(columnar_result)  # non-degenerate case
        # One interned encode pass serves both scans.
        assert columnar_result.stats.scans == 1
        assert batched_result.stats.scans == 2

    def test_unknown_kernel_rejected(self):
        with pytest.raises(MiningError, match="unknown kernel"):
            mine_single_period_hitset(random_series(0), 3, 0.5, kernel="numpy")

    def test_columnar_populates_shared_cache(self, tmp_path):
        series = random_series(5, length=60)
        cache = CountCache(str(tmp_path))
        first = mine_single_period_hitset(
            series, 4, 0.4, kernel="columnar", cache=cache
        )
        warm = mine_single_period_hitset(
            series, 4, 0.4, kernel="batched", cache=cache
        )
        assert result_map(first) == result_map(warm)
        assert warm.stats.scans == 0


class TestWideVocabularyFallback:
    """Past 64 letters every tier must agree via the wide fallback."""

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_wide_mining_identical_across_tiers(self, kernel):
        series = wide_series(11)
        reference = result_map(
            mine_single_period_hitset(series, 3, 0.5, kernel="batched")
        )
        assert reference  # the dense letters must survive the threshold
        observed = result_map(
            mine_single_period_hitset(series, 3, 0.5, kernel=kernel)
        )
        assert observed == reference

    def test_wide_interning_raises(self):
        with pytest.raises(WideVocabularyError):
            SegmentStore.from_series_interned(wide_series(1), 3)

    def test_wide_store_counts_without_column(self):
        series = wide_series(2)
        from repro.encoding.codec import vocabulary_of_series

        vocab = vocabulary_of_series(series, 3)
        assert len(vocab) > 64
        store = SegmentStore.from_series(series, 3, vocab)
        assert not store.packed
        assert store.column() is None
        naive = Counter(int(mask) for mask in store)
        assert +store.distinct_counts() == +naive
        sample = list(naive)[:8]
        assert store.count_masks(sample, kernel="columnar") == store.count_masks(
            sample, kernel="batched"
        )
        with pytest.raises(WideVocabularyError):
            store.bitmap_index()
        with pytest.raises(WideVocabularyError):
            store.to_file("unused.seg")

    def test_wide_store_options_fall_back_cleanly(self, tmp_path):
        # Spill options with a wide series: columnar falls back to the
        # batched path and never writes a file.
        series = wide_series(3)
        options = StoreOptions(directory=str(tmp_path), spill_bytes=0)
        result = mine_single_period_hitset(
            series, 3, 0.5, kernel="columnar", store=options
        )
        reference = mine_single_period_hitset(series, 3, 0.5, kernel="batched")
        assert result_map(result) == result_map(reference)
        assert not list(tmp_path.iterdir())


class TestOutOfCoreStore:
    """to_file / from_file / spill: the mmap-backed mining path."""

    def test_file_round_trip_and_sidecar(self, tmp_path):
        store = SegmentStore.from_series_interned(random_series(1), 4)
        path = store.to_file(tmp_path / "demo.seg")
        meta = json.loads((tmp_path / "demo.seg.meta.json").read_text())
        assert meta["format"] == "repro.segstore/1"
        assert meta["segments"] == len(store)
        assert meta["period"] == 4
        mapped = SegmentStore.from_file(path)
        assert mapped.mapped and mapped.path == path
        loaded = SegmentStore.from_file(path, mmap=False)
        assert not loaded.mapped
        for other in (mapped, loaded):
            assert list(other) == list(store)
            assert other.vocab.letters == store.vocab.letters

    def test_spill_threshold(self, tmp_path):
        series = random_series(3, length=120)
        spilled = SegmentStore.from_series_interned(
            series, 4, options=StoreOptions(directory=str(tmp_path), spill_bytes=0)
        )
        assert spilled.mapped and spilled.path is not None
        assert spilled.path.parent == tmp_path
        in_memory = SegmentStore.from_series_interned(series, 4)
        assert list(spilled) == list(in_memory)
        # Below the threshold nothing is written.
        small = SegmentStore.from_series_interned(
            series,
            4,
            options=StoreOptions(directory=str(tmp_path / "x"), spill_bytes=1 << 30),
        )
        assert not small.mapped
        assert not (tmp_path / "x").exists()

    def test_spill_name_is_deterministic(self, tmp_path):
        series = random_series(4, length=80)
        options = StoreOptions(directory=str(tmp_path), spill_bytes=0)
        first = SegmentStore.from_series_interned(series, 3, options=options)
        second = SegmentStore.from_series_interned(series, 3, options=options)
        assert first.path == second.path

    def test_mine_store_matches_in_memory(self, tmp_path):
        series = random_series(5, length=100)
        store = SegmentStore.from_series_interned(series, 4)
        path = store.to_file(tmp_path / "m.seg")
        mapped = SegmentStore.from_file(path)
        from_disk = mine_store(mapped, 0.4)
        reference = mine_single_period_hitset(series, 4, 0.4, kernel="batched")
        assert result_map(from_disk) == result_map(reference)
        assert from_disk.stats.scans == 1

    def test_mine_store_rejects_empty(self):
        vocab = LetterVocabulary(((0, "a"),), period=2)
        with pytest.raises(MiningError, match="no segments"):
            mine_store(SegmentStore(vocab, 2, []), 0.5)

    def test_spilled_mine_equals_in_memory(self, tmp_path):
        series = random_series(6, length=150, features=5)
        options = StoreOptions(directory=str(tmp_path), spill_bytes=0)
        spilled = mine_single_period_hitset(
            series, 5, 0.3, kernel="columnar", store=options
        )
        reference = mine_single_period_hitset(series, 5, 0.3, kernel="batched")
        assert result_map(spilled) == result_map(reference)
        assert any(p.suffix == ".seg" for p in tmp_path.iterdir())

    def test_store_options_require_columnar(self):
        options = StoreOptions(directory="/nonexistent", spill_bytes=0)
        with pytest.raises(MiningError, match="columnar"):
            mine_single_period_hitset(
                random_series(0), 3, 0.5, kernel="batched", store=options
            )


class TestStreamingKernel:
    """The kernel threads through windows, snapshots, and checkpoints."""

    def feed(self, kernel: str):
        miner = StreamingMiner(period=2, window=6, min_conf=0.5, kernel=kernel)
        rng = random.Random(13)
        windows = []
        for _ in range(30):
            slot = {f for f in "abc" if rng.random() < 0.5}
            emitted = miner.append(slot)
            if emitted is not None:
                windows.append(result_map(emitted.result))
        return miner, windows

    def test_windows_identical_across_kernels(self):
        _, columnar_windows = self.feed("columnar")
        _, batched_windows = self.feed("batched")
        assert columnar_windows == batched_windows
        assert columnar_windows  # windows actually closed

    def test_kernel_survives_state_round_trip(self):
        miner, _ = self.feed("columnar")
        state = miner.to_state()
        assert state["kernel"] == "columnar"
        restored = StreamingMiner.from_state(state)
        assert restored.snapshot()["kernel"] == "columnar"

    def test_old_checkpoints_default_to_batched(self):
        miner, _ = self.feed("batched")
        state = miner.to_state()
        del state["kernel"]  # checkpoint written before the columnar tier
        restored = StreamingMiner.from_state(state)
        assert restored.snapshot()["kernel"] == "batched"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(StreamError, match="unknown kernel"):
            StreamingMiner(period=2, window=4, kernel="simd")
