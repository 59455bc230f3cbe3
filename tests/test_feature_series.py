"""Unit tests for FeatureSeries (repro.timeseries.feature_series)."""

from __future__ import annotations

import pytest

from repro.core.errors import SeriesError
from repro.timeseries.feature_series import FeatureSeries, as_feature_series


class TestConstruction:
    def test_from_symbols(self):
        series = FeatureSeries.from_symbols("ab*c")
        assert len(series) == 4
        assert series[0] == frozenset({"a"})
        assert series[2] == frozenset()

    def test_from_sets(self):
        series = FeatureSeries.from_sets([{"a", "b"}, set()])
        assert series[0] == frozenset({"a", "b"})
        assert series[1] == frozenset()

    def test_none_and_empty_string_slots(self):
        series = FeatureSeries([None, "", "a"])
        assert series[0] == frozenset()
        assert series[1] == frozenset()
        assert series[2] == frozenset({"a"})

    def test_invalid_feature_rejected(self):
        with pytest.raises(SeriesError):
            FeatureSeries([{"a", ""}])
        with pytest.raises(SeriesError):
            FeatureSeries([{1}])

    def test_alphabet(self):
        series = FeatureSeries([{"a", "b"}, {"c"}, set()])
        assert series.alphabet == frozenset({"a", "b", "c"})

    def test_empty_series_allowed(self):
        assert len(FeatureSeries([])) == 0


class TestSequenceProtocol:
    def test_slicing_returns_series(self):
        series = FeatureSeries.from_symbols("abcdef")
        sliced = series[1:4]
        assert isinstance(sliced, FeatureSeries)
        assert len(sliced) == 3
        assert sliced[0] == frozenset({"b"})

    def test_iteration(self):
        series = FeatureSeries.from_symbols("ab")
        assert [sorted(slot) for slot in series] == [["a"], ["b"]]

    def test_concatenation(self):
        combined = FeatureSeries.from_symbols("ab") + FeatureSeries.from_symbols("cd")
        assert len(combined) == 4
        assert combined[2] == frozenset({"c"})

    def test_equality_and_hash(self):
        one = FeatureSeries.from_symbols("ab")
        two = FeatureSeries(["a", "b"])
        assert one == two
        assert hash(one) == hash(two)
        assert one != FeatureSeries.from_symbols("ba")
        assert one != "ab"

    def test_iter_slots(self):
        series = FeatureSeries.from_symbols("ab")
        assert list(series.iter_slots()) == [frozenset({"a"}), frozenset({"b"})]


class TestSegmentation:
    def test_num_periods_floors(self):
        series = FeatureSeries.from_symbols("abcabcab")
        assert series.num_periods(3) == 2  # the trailing 'ab' is dropped

    def test_segments_are_whole_periods_only(self):
        series = FeatureSeries.from_symbols("abcabcab")
        segments = list(series.segments(3))
        assert len(segments) == 2
        assert all(len(segment) == 3 for segment in segments)

    def test_segment_by_index(self):
        series = FeatureSeries.from_symbols("abdabc")
        assert series.segment(3, 1) == (
            frozenset({"a"}),
            frozenset({"b"}),
            frozenset({"c"}),
        )

    def test_segment_index_out_of_range(self):
        series = FeatureSeries.from_symbols("abcabc")
        with pytest.raises(SeriesError):
            series.segment(3, 2)
        with pytest.raises(SeriesError):
            series.segment(3, -1)

    def test_invalid_period(self):
        series = FeatureSeries.from_symbols("abc")
        with pytest.raises(SeriesError):
            series.num_periods(0)
        with pytest.raises(SeriesError):
            series.num_periods(4)

    def test_period_equal_to_length(self):
        series = FeatureSeries.from_symbols("abc")
        assert series.num_periods(3) == 1
        assert list(series.segments(3))[0][2] == frozenset({"c"})


class TestRendering:
    def test_to_text(self):
        series = FeatureSeries([{"a"}, set(), {"b", "c"}, {"long"}])
        assert series.to_text() == "a*{b,c}{long}"

    def test_to_text_limit(self):
        series = FeatureSeries.from_symbols("abcdef")
        assert series.to_text(limit=2) == "ab..."

    def test_repr_mentions_length(self):
        assert "len=3" in repr(FeatureSeries.from_symbols("abc"))


class TestCoercion:
    def test_as_feature_series_passthrough(self):
        series = FeatureSeries.from_symbols("ab")
        assert as_feature_series(series) is series

    def test_as_feature_series_from_string(self):
        assert as_feature_series("ab") == FeatureSeries.from_symbols("ab")

    def test_as_feature_series_from_iterable(self):
        assert as_feature_series([{"a"}, {"b"}]) == FeatureSeries.from_symbols("ab")

    def test_as_feature_series_passes_scan_wrapper_through(self):
        from repro.timeseries.scan import ScanCountingSeries

        scan = ScanCountingSeries(FeatureSeries.from_symbols("ab"))
        assert as_feature_series(scan) is scan


class TestIdentity:
    """Content fingerprint: what identifies a series."""

    def test_content_digest_is_content_addressed(self):
        one = FeatureSeries.from_symbols("abcabc")
        two = FeatureSeries([{"a"}, {"b"}, {"c"}, {"a"}, {"b"}, {"c"}])
        other = FeatureSeries.from_symbols("abcabd")
        assert one.content_digest() == two.content_digest()
        assert one.content_digest() != other.content_digest()
