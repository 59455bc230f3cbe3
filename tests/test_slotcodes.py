"""Tests for the slot-code scans (repro.kernels.slotcodes).

Scan 1 and scan 2 of the default path run on the slot-code matrix; these
tests pin both to the per-segment letter walk and segment encoder they
replaced, over random series of any alphabet width, and prove that the
oracles the benchmark and the test suite trust never reach them.
"""

from __future__ import annotations

import random

import pytest

from repro.core.apriori import mine_single_period_apriori
from repro.core.counting import brute_force_frequent, letter_counts_for_segments
from repro.core.hitset import mine_single_period_hitset
from repro.encoding.codec import SegmentEncoder
from repro.encoding.vocabulary import LetterVocabulary
from repro.kernels import slotcodes
from repro.kernels.profile import MiningProfile
from repro.kernels.slotcodes import SegmentCodes, mask_values
from repro.kernels.store import SegmentStore
from repro.timeseries.feature_series import FeatureSeries, SlotCodes
from repro.timeseries.scan import ScanCountingSeries


def _random_series(rng: random.Random) -> FeatureSeries:
    features = [f"f{index}" for index in range(rng.choice((2, 5, 40, 90)))]
    return FeatureSeries(
        frozenset(rng.sample(features, rng.randint(0, min(4, len(features)))))
        for _ in range(rng.randint(1, 160))
    )


def _cases(seed: int, trials: int = 120):
    rng = random.Random(seed)
    for _ in range(trials):
        series = _random_series(rng)
        period = rng.randint(1, min(7, len(series)))
        yield rng, series, period


class TestScans:
    @pytest.mark.parametrize("dense_pairs", [slotcodes.DENSE_PAIRS, 0])
    @pytest.mark.parametrize("chunk", [slotcodes.CHUNK_SEGMENTS, 1, 3])
    def test_letter_counts_match_the_walk(self, monkeypatch, dense_pairs, chunk):
        monkeypatch.setattr(slotcodes, "DENSE_PAIRS", dense_pairs)
        monkeypatch.setattr(slotcodes, "CHUNK_SEGMENTS", chunk)
        for _, series, period in _cases(0x51C):
            expected = letter_counts_for_segments(series.segments(period))
            got = SegmentCodes.of(series, period).letter_counts()
            assert got == expected

    def test_masks_match_the_segment_encoder(self):
        for rng, series, period in _cases(0x3A5):
            letters = sorted(letter_counts_for_segments(series.segments(period)))
            rng.shuffle(letters)
            vocab = LetterVocabulary.from_letters(
                letters[: rng.randint(0, len(letters))], period=period
            )
            encode = SegmentEncoder(vocab, period).encode_segment
            expected = [encode(segment) for segment in series.segments(period)]
            rows = SegmentCodes.of(series, period).masks(vocab)
            assert rows.shape[1] == max(1, -(-len(vocab) // 64))
            assert mask_values(rows) == expected

    def test_store_matches_encoder_at_any_width(self):
        for _, series, period in _cases(0x570, trials=60):
            vocab = LetterVocabulary.from_letters(
                letter_counts_for_segments(series.segments(period)),
                period=period,
            )
            encode = SegmentEncoder(vocab, period).encode_segment
            expected = [encode(segment) for segment in series.segments(period)]
            store = SegmentStore.from_series(series, period, vocab)
            assert list(store) == expected
            assert store.packed == (len(vocab) <= 64)
            assert dict(store.distinct_counts()) == {
                mask: expected.count(mask) for mask in set(expected)
            }
            assert SegmentStore.from_series(series, period).vocab == vocab

    def test_lazy_view_matches_interning(self):
        series = FeatureSeries.from_symbols("abcab*")
        view = series.slot_codes()
        assert view is series.slot_codes()
        assert list(view.codes) == [0, 1, 2, 0, 1, 3]
        fresh = SlotCodes.from_slots(series)
        assert (fresh.distinct, fresh.codes) == (view.distinct, view.codes)

    def test_wrapper_books_one_scan_per_matrix(self):
        wrapped = ScanCountingSeries(FeatureSeries.from_symbols("abcabcab"))
        codes = SegmentCodes.of(wrapped, 3)
        assert wrapped.scans == 1
        assert wrapped.slots_read == 6
        assert codes.matrix.tolist() == [[0, 1, 2], [0, 1, 2]]


class TestHitSetOnSlotCodes:
    def test_default_path_matches_legacy(self):
        for rng, series, period in _cases(0x4175, trials=80):
            conf = rng.choice((0.2, 0.5, 0.75, 1.0))
            default = mine_single_period_hitset(series, period, conf)
            legacy = mine_single_period_hitset(
                series, period, conf, kernel="legacy", encode=False
            )
            assert dict(default.items()) == dict(legacy.items())
            assert default.stats.scans == legacy.stats.scans

    def test_wide_columnar_fallback_counted_once(self):
        series = FeatureSeries([f"f{index % 70}" for index in range(140)])
        profile = MiningProfile()
        result = mine_single_period_hitset(
            series, 1, 0.01, kernel="columnar", profile=profile
        )
        assert profile.counters["columnar_fallback"] == 1
        assert dict(result.items()) == dict(
            mine_single_period_hitset(series, 1, 0.01).items()
        )

    def test_narrow_columnar_has_no_fallback(self):
        profile = MiningProfile()
        mine_single_period_hitset(
            FeatureSeries.from_symbols("abcabcabc"), 3, 0.5,
            kernel="columnar", profile=profile,
        )
        assert "columnar_fallback" not in profile.counters


class TestOraclesStayIndependent:
    """The letter-set Apriori path and brute force never reach the scans."""

    def test_oracles_run_with_slot_code_kernels_broken(self, monkeypatch):
        rng = random.Random(0x0AC1E)
        cases = []
        for _ in range(40):
            series = FeatureSeries(
                frozenset(rng.sample("abcde", rng.randint(0, 2)))
                for _ in range(rng.randint(4, 60))
            )
            cases.append((rng, series, rng.randint(1, 4)))
        expected = [
            dict(mine_single_period_hitset(series, period, 0.5).items())
            for _, series, period in cases
        ]

        def broken(*args, **kwargs):
            raise AssertionError("oracle reached the slot-code scans")

        monkeypatch.setattr(SegmentCodes, "of", classmethod(broken))
        monkeypatch.setattr(SegmentCodes, "letter_counts", broken)
        monkeypatch.setattr(SegmentCodes, "masks", broken)
        monkeypatch.setattr(slotcodes, "project_pairs", broken)
        monkeypatch.setattr(SlotCodes, "from_slots", classmethod(broken))
        for (_, series, period), want in zip(cases, expected):
            fresh = FeatureSeries(list(series))
            apriori = mine_single_period_apriori(fresh, period, 0.5, encode=False)
            assert dict(apriori.items()) == want
            assert brute_force_frequent(fresh, period, 0.5) == want
        with pytest.raises(AssertionError, match="slot-code"):
            mine_single_period_hitset(FeatureSeries(list(cases[0][1])), 1, 0.5)
