"""End-to-end tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.timeseries.feature_series import FeatureSeries
from repro.timeseries.io import load_series, save_series
from repro.synth.workloads import unexpected_period_series


@pytest.fixture
def series_file(tmp_path):
    path = tmp_path / "series.txt"
    save_series(unexpected_period_series(period=7, repetitions=80, seed=0), path)
    return path


class TestGenerate:
    def test_writes_series_and_reports(self, tmp_path, capsys):
        output = tmp_path / "generated.txt"
        code = main(
            [
                "generate", str(output),
                "--length", "2000", "--period", "10",
                "--max-pat-length", "3", "--f1-size", "5", "--seed", "1",
            ]
        )
        assert code == 0
        assert output.exists()
        assert len(load_series(output)) == 2000
        printed = capsys.readouterr().out
        assert "planted pattern" in printed
        assert "recommended --min-conf" in printed

    def test_invalid_spec_is_clean_error(self, tmp_path, capsys):
        code = main(
            [
                "generate", str(tmp_path / "x.txt"),
                "--length", "10", "--period", "50",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestMine:
    def test_single_period(self, series_file, capsys):
        code = main(
            ["mine", str(series_file), "--period", "7", "--min-conf", "0.6"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "period 7:" in printed
        assert "burst" in printed

    def test_maximal_flag(self, series_file, capsys):
        code = main(
            [
                "mine", str(series_file),
                "--period", "7", "--min-conf", "0.6", "--maximal",
            ]
        )
        assert code == 0
        assert "maximal frequent" in capsys.readouterr().out

    def test_apriori_algorithm(self, series_file, capsys):
        code = main(
            [
                "mine", str(series_file),
                "--period", "7", "--algorithm", "apriori",
            ]
        )
        assert code == 0

    def test_period_range(self, series_file, capsys):
        code = main(
            [
                "mine", str(series_file),
                "--period-range", "5", "9", "--min-conf", "0.6",
            ]
        )
        assert code == 0
        assert "scans=2" in capsys.readouterr().out

    def test_requires_exactly_one_period_option(self, series_file, capsys):
        assert main(["mine", str(series_file)]) == 2
        assert (
            main(
                [
                    "mine", str(series_file),
                    "--period", "7", "--period-range", "5", "9",
                ]
            )
            == 2
        )

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        code = main(["mine", str(tmp_path / "nope.txt"), "--period", "7"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_is_clean_error(self, tmp_path, capsys):
        code = main(["mine", str(tmp_path), "--period", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read series file {tmp_path}: ")
        assert "Traceback" not in err

    def test_profile_counts_columnar_fallback(self, tmp_path, capsys):
        # 70 distinct features at one offset: too wide for a packed column.
        path = tmp_path / "wide.txt"
        save_series(FeatureSeries([f"f{i % 70}" for i in range(140)]), path)
        profile_path = tmp_path / "profile.json"
        code = main(
            [
                "mine", str(path), "--period", "1", "--min-conf", "0.01",
                "--kernel", "columnar", "--profile-json", str(profile_path),
            ]
        )
        assert code == 0
        payload = json.loads(profile_path.read_text())
        assert payload["counters"]["columnar_fallback"] == 1

    def test_limit_zero_prints_summary_only(self, series_file, capsys):
        code = main(["mine", str(series_file), "--period", "7", "--limit", "0"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "period 7:" in printed
        assert "count=" not in printed

    @pytest.mark.parametrize(
        "command",
        [
            ["mine", "{path}", "--period", "3"],
            ["mine", "{path}", "--period-range", "2", "3"],
            ["suggest", "{path}", "--period-range", "2", "3"],
            ["rules", "{path}", "--period", "3"],
        ],
        ids=["mine", "mine-range", "suggest", "rules"],
    )
    def test_negative_limit_rejected(self, tmp_path, capsys, command):
        # A negative limit must fail: slicing [:limit] with it would
        # silently drop the last rows of the listing.
        path = tmp_path / "tiny.txt"
        save_series(FeatureSeries.from_symbols("abcabc"), path)
        argv = [part.format(path=path) for part in command]
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--limit", "-1"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "argument --limit: must be >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_profile_reports_load_stage(self, series_file, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        code = main(
            [
                "mine", str(series_file), "--period", "7",
                "--profile", "--profile-json", str(profile_path),
            ]
        )
        assert code == 0
        table = capsys.readouterr().out
        load_rows = [line for line in table.splitlines() if line.startswith("load ")]
        assert len(load_rows) == 1
        assert load_rows[0].split()[2] == str(7 * 80)
        payload = json.loads(profile_path.read_text())
        assert list(payload["stages"])[0] == "load"
        assert payload["stages"]["load"]["items"] == 7 * 80
        assert payload["stages"]["load"]["calls"] == 1


class TestSuggest:
    def test_ranks_true_period_first(self, series_file, capsys):
        code = main(
            [
                "suggest", str(series_file),
                "--period-range", "4", "12", "--min-conf", "0.6",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        first_line = [
            line for line in printed.splitlines() if "period=" in line
        ][0]
        assert "period=7" in first_line


class TestRules:
    @pytest.fixture
    def rich_series_file(self, tmp_path):
        # Period 10 carries both planted letters (burst@2, dip@7), so
        # two-letter patterns — and hence rules — exist.
        path = tmp_path / "rich.txt"
        save_series(
            unexpected_period_series(period=10, repetitions=120, seed=1), path
        )
        return path

    def test_prints_rules(self, rich_series_file, capsys):
        code = main(
            [
                "rules", str(rich_series_file),
                "--period", "10", "--min-conf", "0.6",
                "--min-rule-conf", "0.6",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "periodic rules" in printed
        assert "=>" in printed

    def test_about_filter(self, rich_series_file, capsys):
        code = main(
            [
                "rules", str(rich_series_file),
                "--period", "10", "--min-conf", "0.6",
                "--min-rule-conf", "0.5", "--about", "dip",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        body = [line for line in printed.splitlines() if "=>" in line]
        assert body
        assert all("dip" in line.split("=>")[1] for line in body)


class TestCycles:
    def test_reports_cycles(self, tmp_path, capsys):
        from repro.timeseries.feature_series import FeatureSeries

        path = tmp_path / "cyclic.txt"
        save_series(FeatureSeries.from_symbols("abcabcabcabc"), path)
        code = main(["cycles", str(path), "--period-range", "2", "4"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "period=3" in printed
        assert "abc" in printed


class TestHeatmap:
    def test_renders_grid(self, series_file, capsys):
        code = main(["heatmap", str(series_file), "--period", "7"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "burst" in printed
        assert "|" in printed


class TestWindows:
    def test_reports_windows(self, series_file, capsys):
        code = main(
            [
                "windows", str(series_file),
                "--period", "7", "--min-conf", "0.6",
                "--window-periods", "20",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "windows of 20 periods" in printed
        assert "window 0:" in printed

    def test_invalid_window_is_clean_error(self, series_file, capsys):
        code = main(
            [
                "windows", str(series_file),
                "--period", "7", "--min-conf", "0.6",
                "--window-periods", "100000",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestJsonOutput:
    def test_json_written_and_loadable(self, series_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            [
                "mine", str(series_file),
                "--period", "7", "--min-conf", "0.6",
                "--json", str(out),
            ]
        )
        assert code == 0
        from repro.core.serialize import load_result

        result = load_result(out)
        assert result.period == 7
        assert len(result) >= 1

    def test_json_with_range_rejected(self, series_file, tmp_path, capsys):
        code = main(
            [
                "mine", str(series_file),
                "--period-range", "5", "9",
                "--json", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2


class TestResilienceFlags:
    def test_lenient_flag_quarantines_and_warns(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("a b\n*\n" + "a b\nb\nc\n" * 40)
        strict = main(["mine", str(path), "--period", "3"])
        assert strict == 1
        assert "series.txt:2" in capsys.readouterr().err

        lenient = main(["mine", str(path), "--period", "3", "--lenient"])
        assert lenient == 0
        captured = capsys.readouterr()
        assert "warning: quarantined" in captured.err
        assert "series.txt:2" in captured.err


class TestStream:
    def test_slot_feed_emits_jsonl_windows(self, tmp_path, capsys):
        import json

        feed = tmp_path / "feed.txt"
        feed.write_text("# comment\n" + "a\nb\n" * 8)
        code = main(
            [
                "stream", str(feed),
                "--period", "2", "--window", "8", "--slide", "4",
                "--min-conf", "0.6",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        windows = [json.loads(line) for line in captured.out.splitlines()]
        assert [w["index"] for w in windows] == [0, 1, 2]
        for window in windows:
            assert window["num_periods"] == 4
            assert window["patterns"], "planted pattern must be frequent"
            for row in window["patterns"]:
                assert set(row) == {"pattern", "count", "confidence"}
        assert windows[0]["changes"] is None
        assert windows[1]["changes"]["stable"]
        assert "stream done: 16 slots in, 3 windows out" in captured.err

    def test_ring_strategy_gives_identical_output(self, tmp_path, capsys):
        feed = tmp_path / "feed.txt"
        feed.write_text("a\nb\n" * 6 + "a c\nb\n" * 6)
        argv = [
            "stream", str(feed),
            "--period", "2", "--window", "12", "--slide", "6",
        ]
        assert main(argv) == 0
        decrement_out = capsys.readouterr().out
        assert main(argv + ["--strategy", "ring"]) == 0
        assert capsys.readouterr().out == decrement_out

    def test_event_feed_reorders_and_reports_late(self, tmp_path, capsys):
        import json

        feed = tmp_path / "events.txt"
        lines = []
        for i in range(16):
            lines.append(f"{i}.5 {'a' if i % 2 == 0 else 'b'}")
        # Swap two in-lateness neighbours and add one hopeless straggler.
        lines[4], lines[5] = lines[5], lines[4]
        lines.append("0.25 z")
        feed.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "stream", str(feed), "--events",
                "--period", "2", "--window", "8", "--slide", "8",
                "--slot-width", "1.0", "--lateness", "2.0",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        windows = [json.loads(line) for line in captured.out.splitlines()]
        assert [w["index"] for w in windows] == [0, 1]
        assert "warning: quarantined 1 late events" in captured.err
        assert "'z'" in captured.err

    def test_bad_timestamp_is_clean_error(self, tmp_path, capsys):
        feed = tmp_path / "events.txt"
        feed.write_text("not-a-time a\n")
        code = main(
            [
                "stream", str(feed), "--events",
                "--period", "2", "--window", "4",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "events.txt:1" in err

    def test_missing_feed_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["stream", str(tmp_path / "nope.txt"), "--period", "2",
             "--window", "4"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "cannot read feed" in err

    def test_bad_geometry_is_clean_error(self, tmp_path, capsys):
        feed = tmp_path / "feed.txt"
        feed.write_text("a\n" * 10)
        code = main(
            ["stream", str(feed), "--period", "4", "--window", "8",
             "--slide", "3"]
        )
        assert code == 1
        assert "multiple" in capsys.readouterr().err
