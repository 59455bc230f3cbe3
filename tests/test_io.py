"""Unit tests for series persistence (repro.timeseries.io)."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import SeriesError
from repro.timeseries import io
from repro.timeseries.feature_series import FeatureSeries
from repro.timeseries.io import (
    LoadReport,
    iter_slot_lines,
    load_series,
    save_series,
)


class TestRoundtrip:
    def test_save_and_load(self, tmp_path):
        series = FeatureSeries([{"a", "b"}, set(), {"c"}])
        path = tmp_path / "series.txt"
        save_series(series, path)
        assert load_series(path) == series

    def test_empty_slots_preserved(self, tmp_path):
        series = FeatureSeries([set(), set(), {"x"}])
        path = tmp_path / "series.txt"
        save_series(series, path)
        loaded = load_series(path)
        assert len(loaded) == 3
        assert loaded[0] == frozenset()

    def test_multichar_features_preserved(self, tmp_path):
        series = FeatureSeries([{"high_traffic", "promo"}])
        path = tmp_path / "series.txt"
        save_series(series, path)
        assert load_series(path)[0] == frozenset({"high_traffic", "promo"})

    def test_empty_series(self, tmp_path):
        path = tmp_path / "series.txt"
        save_series(FeatureSeries([]), path)
        assert len(load_series(path)) == 0


class TestFormat:
    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("# comment\na b\n# another\nc\n")
        loaded = load_series(path)
        assert len(loaded) == 2
        assert loaded[0] == frozenset({"a", "b"})

    def test_header_written(self, tmp_path):
        path = tmp_path / "series.txt"
        save_series(FeatureSeries([{"a"}]), path)
        assert path.read_text().startswith("#")

    def test_streaming_iterator(self, tmp_path):
        path = tmp_path / "series.txt"
        save_series(FeatureSeries.from_symbols("abc"), path)
        slots = list(iter_slot_lines(path))
        assert slots == [frozenset({"a"}), frozenset({"b"}), frozenset({"c"})]

    def test_missing_file(self, tmp_path):
        with pytest.raises(SeriesError):
            load_series(tmp_path / "nope.txt")


class TestCsvLoading:
    def test_numeric_column(self, tmp_path):
        from repro.timeseries.io import load_numeric_csv

        path = tmp_path / "data.csv"
        path.write_text("day,close\n0,100.5\n1,101.25\n")
        assert load_numeric_csv(path, "close") == [100.5, 101.25]

    def test_numeric_missing_column(self, tmp_path):
        from repro.timeseries.io import load_numeric_csv

        path = tmp_path / "data.csv"
        path.write_text("day,close\n0,100.5\n")
        with pytest.raises(SeriesError):
            load_numeric_csv(path, "volume")

    def test_numeric_bad_value_reports_line(self, tmp_path):
        from repro.timeseries.io import load_numeric_csv

        path = tmp_path / "data.csv"
        path.write_text("close\n100.5\noops\n")
        with pytest.raises(SeriesError, match=":3:"):
            load_numeric_csv(path, "close")

    def test_numeric_empty_file(self, tmp_path):
        from repro.timeseries.io import load_numeric_csv

        path = tmp_path / "data.csv"
        path.write_text("close\n")
        with pytest.raises(SeriesError):
            load_numeric_csv(path, "close")

    def test_numeric_missing_file(self, tmp_path):
        from repro.timeseries.io import load_numeric_csv

        with pytest.raises(SeriesError):
            load_numeric_csv(tmp_path / "nope.csv", "close")

    def test_events_csv(self, tmp_path):
        from repro.timeseries.io import load_events_csv

        path = tmp_path / "events.csv"
        path.write_text("time,feature\n0.5,promo\n6.2,rush\n")
        database = load_events_csv(path)
        assert len(database) == 2
        assert database.events[0].feature == "promo"

    def test_events_csv_custom_columns(self, tmp_path):
        from repro.timeseries.io import load_events_csv

        path = tmp_path / "events.csv"
        path.write_text("ts,what\n1.0,x\n")
        database = load_events_csv(
            path, time_column="ts", feature_column="what"
        )
        assert database.events[0].time == 1.0

    def test_events_csv_bad_rows(self, tmp_path):
        from repro.timeseries.io import load_events_csv

        path = tmp_path / "events.csv"
        path.write_text("time,feature\nnan?,x\n")
        with pytest.raises(SeriesError):
            load_events_csv(path)
        path.write_text("time,feature\n1.0,\n")
        with pytest.raises(SeriesError):
            load_events_csv(path)
        path.write_text("time,other\n1.0,x\n")
        with pytest.raises(SeriesError):
            load_events_csv(path)


class TestMalformedLines:
    """Strict loads fail with file:line; lenient loads quarantine."""

    def test_bad_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_bytes(b"a b\n\xff\xfe broken\nc\n")
        with pytest.raises(SeriesError, match=r"series\.txt:2: .*UTF-8"):
            load_series(path)

    def test_control_characters_name_file_and_line(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("a\nb\x07\nc\n")
        with pytest.raises(SeriesError, match=r"series\.txt:2: .*control"):
            load_series(path)

    def test_reserved_wildcard_names_file_and_line(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("a\n*\n")
        with pytest.raises(SeriesError, match=r"series\.txt:2: .*wildcard"):
            load_series(path)

    def test_lenient_load_quarantines_and_reports(self, tmp_path):
        from repro.timeseries.io import LoadReport

        path = tmp_path / "series.txt"
        path.write_bytes(b"a b\n\xff bad\nc\nd*\ne\n")
        report = LoadReport()
        series = load_series(path, strict=False, report=report)
        # Quarantined lines are dropped: later slots shift up.
        assert [set(slot) for slot in series] == [{"a", "b"}, {"c"}, {"e"}]
        assert not report.clean
        assert [(q.line, q.path) for q in report.quarantined] == [
            (2, str(path)),
            (4, str(path)),
        ]
        assert "UTF-8" in report.quarantined[0].reason
        assert "wildcard" in report.quarantined[1].reason
        described = report.quarantined[1].describe()
        assert described.startswith(f"{path}:4:")
        assert "d*" in described

    def test_lenient_load_without_report_just_skips(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_text("a\n*\nb\n")
        series = load_series(path, strict=False)
        assert [set(slot) for slot in series] == [{"a"}, {"b"}]

    def test_clean_file_keeps_report_clean(self, tmp_path):
        from repro.timeseries.io import LoadReport

        path = tmp_path / "series.txt"
        save_series(FeatureSeries.from_symbols("abab"), path)
        report = LoadReport()
        series = load_series(path, strict=False, report=report)
        assert report.clean
        assert len(series) == 4

    def test_crlf_lines_do_not_trip_control_check(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_bytes(b"a\r\nb\r\n")
        series = load_series(path)
        assert [set(slot) for slot in series] == [{"a"}, {"b"}]


class TestSaveRefusesLossyWrites:
    """save_series raises instead of writing a file that reloads differently."""

    @pytest.mark.parametrize(
        "feature", ["#x", "a b", "a\x0bb", "x\u2028y", "a\nb", "a*", "\x01"]
    )
    def test_unsaveable_feature_names_slot_and_feature(self, tmp_path, feature):
        series = FeatureSeries([{"ok"}, {feature}])
        path = tmp_path / "series.txt"
        with pytest.raises(SeriesError, match=r"slot 1: .*") as raised:
            save_series(series, path)
        assert repr(feature) in str(raised.value)
        assert not path.exists()

    def test_hash_feature_after_first_is_saved(self, tmp_path):
        # "! #x" does not start with '#', so it reloads intact.
        series = FeatureSeries([{"!", "#x"}])
        path = tmp_path / "series.txt"
        save_series(series, path)
        assert load_series(path) == series

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        slots=st.lists(
            st.sets(st.text(min_size=1, max_size=4), max_size=3), max_size=8
        )
    )
    def test_save_raises_or_round_trips(self, tmp_path, slots):
        series = FeatureSeries(slots)
        path = tmp_path / "roundtrip.txt"
        try:
            save_series(series, path)
        except SeriesError:
            return
        assert load_series(path) == series


class TestUnreadableFile:
    def test_directory_is_a_series_error(self, tmp_path):
        with pytest.raises(
            SeriesError, match=r"cannot read series file .*: Is a directory"
        ):
            load_series(tmp_path)

    def test_iterator_wraps_directory_too(self, tmp_path):
        with pytest.raises(SeriesError, match=r"cannot read series file"):
            list(iter_slot_lines(tmp_path))

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0,
        reason="root reads files regardless of their mode",
    )
    def test_permission_denied_is_a_series_error(self, tmp_path):
        path = tmp_path / "locked.txt"
        path.write_text("a\n")
        path.chmod(0)
        with pytest.raises(SeriesError, match=r"cannot read series file"):
            load_series(path)


#: Files whose block read must equal the per-line read, slot for slot.
EDGE_FILES = {
    "crlf": b"a b\r\nc\r\n\r\n",
    "lone-cr": b"a\rb\n\r\nc\r\r\n",
    "no-final-newline": b"a\nb c",
    "comments-and-blanks": b"# h\n  \n\t\n#\n x #y\n",
    "bom": b"\xef\xbb\xbfa b\n\xef\xbb\xbf# not a comment\n",
    "split-whitespace": b"a\x0bb\x1cc\n\xe2\x80\xa8d\xc2\x85e\x0c\n",
    "non-ascii": "caf\u00e9 na\u00efve\n\u00e9\n".encode(),
    "long-line": b" ".join([b"f1", b"f2"] * 5000) + b"\n" + b"z\n",
    "bad-utf8": b"a\n\xff\nb\n",
    "wildcard": b"a\n#*\nb*\n",
    "control": b"a\n\x01b\n\x7f\nc\x1b\n",
    "empty": b"",
}


class TestBlockReader:
    """load_series equals FeatureSeries(iter_slot_lines(...)) on every edge."""

    @pytest.mark.parametrize("name", sorted(EDGE_FILES))
    @pytest.mark.parametrize("block", [1, 5, 64, io.READ_BLOCK_BYTES])
    def test_matches_line_reader(self, tmp_path, monkeypatch, name, block):
        monkeypatch.setattr(io, "READ_BLOCK_BYTES", block)
        path = tmp_path / f"{name}.txt"
        path.write_bytes(EDGE_FILES[name])
        try:
            want = FeatureSeries(iter_slot_lines(path))
        except SeriesError as error:
            with pytest.raises(SeriesError) as raised:
                load_series(path)
            assert str(raised.value) == str(error)
        else:
            got = load_series(path)
            assert got.slots == want.slots
            view = got.slot_codes()
            assert tuple(view.distinct[c] for c in view.codes) == got.slots
        want_report, got_report = LoadReport(), LoadReport()
        want = FeatureSeries(
            iter_slot_lines(path, strict=False, report=want_report)
        )
        got = load_series(path, strict=False, report=got_report)
        assert got.slots == want.slots
        assert got_report == want_report

    def test_repeated_lines_share_one_slot_object(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_bytes(b"a b\nb a\nc\na b\n")
        series = load_series(path)
        assert series[0] is series[1] is series[3]
        view = series.slot_codes()
        assert list(view.codes) == [0, 0, 1, 0]
        assert view.distinct == (frozenset({"a", "b"}), frozenset({"c"}))

    def test_control_byte_falls_back_to_line_reader(self, tmp_path):
        path = tmp_path / "series.txt"
        path.write_bytes(b"a\n" * 10 + b"b\x02\n")
        assert io._load_interned(Path(path), io.READ_BLOCK_BYTES) is None
        with pytest.raises(SeriesError, match=r"series\.txt:11: .*control"):
            load_series(path)
