"""Sharded mining through mergeable segment partials, and its fault tolerance.

Hit-set counting is additive over whole segments (the paper's two scans
need only per-letter counts and per-segment hits), so a series split into
contiguous shards — each absorbed by its own
:class:`~repro.core.incremental.IncrementalHitSetMiner` and merged — must
mine letter-for-letter what the serial two-scan miner finds on the whole
series.  That is the load-bearing guarantee of the streaming engine's ring
strategy and of :meth:`IncrementalHitSetMiner.merge`, pinned here for
every seeded series, every shard count and every chunking.

The chaos suite at the bottom runs the same seeded series through a
checkpointed :class:`~repro.durability.DurableStream` whose one window
spans the whole series, kills it mid-feed with chaos-damaged snapshots,
resumes, and checks the emitted window against the serial miner.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.counting import brute_force_counts, min_count
from repro.core.errors import MiningError
from repro.core.hitset import mine_single_period_hitset
from repro.core.incremental import IncrementalHitSetMiner
from repro.core.multiperiod import mine_period_range, mine_periods_looping
from repro.core.pattern import Pattern
from repro.durability import DurableStream
from repro.durability.chaos import FileChaos, FileChaosConfig
from repro.synth.generator import generate_series
from repro.timeseries.feature_series import FeatureSeries
from repro.tree.max_subpattern_tree import MaxSubpatternTree

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def random_series(seed: int, length: int = 60) -> FeatureSeries:
    """A small random series with empty slots and multi-feature slots."""
    rng = random.Random(seed)
    alphabet = ["a", "b", "c", "d"]
    slots = []
    for _ in range(length):
        slots.append(
            {f for f in alphabet if rng.random() < 0.35}
        )
    return FeatureSeries(slots)


def segment_bounds(
    num_segments: int, shards: int | None = None, chunk_size: int | None = None
) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` segment ranges covering the series.

    ``shards`` splits evenly (sizes differ by at most one); ``chunk_size``
    cuts fixed-size chunks with a shorter last one.
    """
    if chunk_size is not None:
        return [
            (start, min(start + chunk_size, num_segments))
            for start in range(0, num_segments, chunk_size)
        ]
    assert shards is not None
    base, extra = divmod(num_segments, shards)
    bounds, start = [], 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        if stop > start:
            bounds.append((start, stop))
        start = stop
    return bounds


def sharded_miner(
    series: FeatureSeries,
    period: int,
    min_conf: float,
    shards: int | None = None,
    chunk_size: int | None = None,
) -> IncrementalHitSetMiner:
    """One miner per shard of whole segments, merged left to right."""
    bounds = segment_bounds(
        series.num_periods(period), shards=shards, chunk_size=chunk_size
    )
    miners = []
    for start, stop in bounds:
        miner = IncrementalHitSetMiner(period, min_conf=min_conf)
        miner.extend(series[start * period : stop * period])
        miners.append(miner)
    merged = miners[0]
    for other in miners[1:]:
        merged.merge(other)
    return merged


def assert_same_result(sharded, serial):
    """Letter-for-letter equality of the mining payloads."""
    assert dict(sharded.items()) == dict(serial.items())
    assert sharded.period == serial.period
    assert sharded.num_periods == serial.num_periods
    assert sharded.stats.tree_nodes == serial.stats.tree_nodes


def f1_of(series: FeatureSeries, period: int, min_conf: float) -> dict:
    """Frequent 1-patterns from the brute-force oracle."""
    threshold = min_count(min_conf, series.num_periods(period))
    return {
        next(iter(letters)): count
        for letters, count in brute_force_counts(series, period).items()
        if len(letters) == 1 and count >= threshold
    }


# ---------------------------------------------------------------------------
# Pickling and tree insertion (what a shard's state is built from)
# ---------------------------------------------------------------------------


class TestPicklability:
    def test_feature_series_roundtrip(self):
        series = random_series(3)
        clone = pickle.loads(pickle.dumps(series))
        assert clone == series
        assert clone.slots == series.slots


class TestTreeMerge:
    def test_insert_letters_matches_insert(self):
        cmax = Pattern.from_string("a{b1,b2}*d*")
        by_pattern = MaxSubpatternTree(cmax)
        by_letters = MaxSubpatternTree(cmax)
        hit = Pattern.from_string("a{b2}*d*")
        by_pattern.insert(hit, count=3)
        by_letters.insert_letters(hit.letters, count=3)
        assert by_pattern.hit_counts() == by_letters.hit_counts()


# ---------------------------------------------------------------------------
# Per-shard counters: scan 1 and scan 2 are additive over shards
# ---------------------------------------------------------------------------


class TestWorkerKernels:
    def test_shard_letter_counts_sum_to_serial(self):
        series = random_series(21, length=50)
        period = 5
        merged = sharded_miner(series, period, 0.5, shards=4).partial
        oracle = {
            next(iter(letters)): count
            for letters, count in brute_force_counts(series, period).items()
            if len(letters) == 1
        }
        assert {
            letter: merged.letter_count(letter) for letter in oracle
        } == oracle
        assert merged.num_periods == series.num_periods(period)

    def test_hit_masks_match_tree_hits(self):
        series = random_series(22, length=60)
        period = 4
        serial = mine_single_period_hitset(series, period, 0.3)
        if not serial:
            pytest.skip("degenerate seed")
        f1 = f1_of(series, period, 0.3)
        reference = MaxSubpatternTree(Pattern.from_letters(period, f1))
        reference.insert_all_segments(series)
        merged = sharded_miner(series, period, 0.3, shards=3).partial
        rebuilt = merged.build_tree(f1)
        assert rebuilt.hit_counts() == reference.hit_counts()


# ---------------------------------------------------------------------------
# Randomized sharded/serial equivalence — the core guarantee
# ---------------------------------------------------------------------------

#: >= 20 seeded series, mixing random noise with planted periodic structure.
EQUIVALENCE_SEEDS = list(range(16))
PLANTED_SEEDS = list(range(100, 106))


def _series_for(seed: int) -> tuple[FeatureSeries, int, float]:
    if seed >= 100:
        generated = generate_series(1200, 8, 3, f1_size=5, seed=seed)
        return generated.series, 8, 0.5
    return random_series(seed, length=50 + 3 * seed), 4, 0.35


class TestEquivalence:
    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS + PLANTED_SEEDS)
    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_workers_match_serial(self, seed, workers):
        series, period, min_conf = _series_for(seed)
        serial = mine_single_period_hitset(series, period, min_conf)
        sharded = sharded_miner(series, period, min_conf, shards=workers)
        assert_same_result(sharded.mine(), serial)

    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS[:8])
    @pytest.mark.parametrize("chunk_size", [1, 3, 5])
    def test_chunk_sizes_match_serial(self, seed, chunk_size):
        series, period, min_conf = _series_for(seed)
        serial = mine_single_period_hitset(series, period, min_conf)
        sharded = sharded_miner(
            series, period, min_conf, chunk_size=chunk_size
        )
        assert_same_result(sharded.mine(), serial)

    def test_uneven_chunking_matches_serial(self):
        # 13 segments over 7 shards: sizes 2 and 1 interleaved.
        series = random_series(31, length=13 * 4)
        assert [stop - start for start, stop in segment_bounds(13, 7)] == [
            2, 2, 2, 2, 2, 2, 1,
        ]
        serial = mine_single_period_hitset(series, 4, 0.3)
        sharded = sharded_miner(series, 4, 0.3, shards=7)
        assert_same_result(sharded.mine(), serial)

    def test_empty_f1_matches_serial(self):
        series = FeatureSeries.from_symbols("abcdefgh")
        serial = mine_single_period_hitset(series, 2, 1.0)
        sharded = sharded_miner(series, 2, 1.0, shards=2).mine()
        assert len(sharded) == len(serial) == 0
        assert sharded.num_periods == serial.num_periods == 4

    def test_max_letters_cap_matches_serial(self):
        series, period, min_conf = _series_for(103)
        serial = mine_single_period_hitset(
            series, period, min_conf, max_letters=2
        )
        sharded = sharded_miner(series, period, min_conf, shards=3)
        assert dict(sharded.mine(max_letters=2).items()) == dict(
            serial.items()
        )

    def test_invalid_inputs_mirror_serial_errors(self):
        series = FeatureSeries.from_symbols("abcabc")
        with pytest.raises(MiningError):
            mine_single_period_hitset(series, 3, 0.5, max_letters=0)
        with pytest.raises(MiningError):
            sharded_miner(series, 3, 0.5, shards=2).mine(max_letters=0)
        with pytest.raises(MiningError):
            mine_single_period_hitset(series, 3, 0.0)
        with pytest.raises(MiningError):
            IncrementalHitSetMiner(3, min_conf=0.0)

    def test_merge_of_tree_shards_is_deterministic(self):
        series, period, min_conf = _series_for(102)
        results = [
            sharded_miner(series, period, min_conf, shards=w).mine()
            for w in (2, 3, 5)
        ]
        baseline = dict(results[0].items())
        for result in results[1:]:
            assert dict(result.items()) == baseline


# ---------------------------------------------------------------------------
# Multi-period mining
# ---------------------------------------------------------------------------


class TestMultiPeriod:
    def test_period_range_matches_looping(self):
        series, _, min_conf = _series_for(101)
        looping = mine_periods_looping(series, range(2, 11), min_conf)
        shared = mine_period_range(series, 2, 10, min_conf)
        assert shared.periods == looping.periods
        for period in looping.periods:
            assert dict(shared[period].items()) == dict(
                looping[period].items()
            ), period
            sharded = sharded_miner(series, period, min_conf, shards=3)
            assert dict(sharded.mine().items()) == dict(
                looping[period].items()
            ), period


# ---------------------------------------------------------------------------
# Chaos equivalence — a killed, chaos-damaged durable run matches serial
# ---------------------------------------------------------------------------

#: >= 20 randomized chaos workloads.
CHAOS_SEEDS = list(range(14)) + [100, 101, 102, 103, 104, 105]


class TestChaosEquivalence:
    """Damaged snapshots and a kill mid-feed never change the result."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_crashy_run_matches_serial(self, seed, tmp_path):
        series, period, min_conf = _series_for(seed)
        serial = mine_single_period_hitset(series, period, min_conf)
        window = series.num_periods(period) * period
        records = [sorted(slot) for slot in series.slots[:window]]
        chaos = FileChaosConfig(
            seed=seed, torn_rate=0.3, truncate_rate=0.1, stale_tmp_rate=0.1
        )
        every = max(1, len(records) // 12)

        def open_stream() -> DurableStream:
            return DurableStream(
                tmp_path / "ckpt", period=period, window=window,
                min_conf=min_conf, checkpoint_every=every,
                chaos=FileChaos(chaos),
            )

        kill_at = random.Random(seed).randrange(1, len(records))
        first = open_stream()
        emitted = []
        for record in records[:kill_at]:
            emitted.extend(first.feed(record))
        # Abandon the run as a SIGKILL would: no final snapshot or close.
        first._ckpt._handle.close()
        first._ckpt._handle = None
        second = open_stream()
        assert second.resumed
        for record in records[second.records_logged:]:
            emitted.extend(second.feed(record))
        emitted.extend(second.finish())
        second.close()
        assert len(emitted) == 1
        assert_same_result(emitted[0].result, serial)
