"""``fig2-mine`` and ``range-mine``: the ``ppm mine`` command, end to end.

Each operation is one ``ppm mine`` process over a Figure 2 series file:
spawn, import, load and parse, mine, print, exit.  Its output is checked
against an oracle computed in the benchmark process from the generated
slots, without the program's file loader:

* ``fig2-mine`` (one period): Apriori, Algorithm 3.1, on the legacy
  letter-set path;
* ``range-mine`` (``--period-range``): the looping miner, Algorithm 3.3,
  with Apriori inside — the program runs the shared Algorithm 3.4.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from pbench import common, trace

_HEADER = re.compile(
    r"^period (\d+): (\d+) frequent patterns \(m=(\d+), scans=\d+\)$"
)
_RANGE_HEADER = re.compile(r"^shared: periods=.* frequent=(\d+) scans=\d+$")
#: Rows the CLI prints (its default ``--limit``).
LIMIT = 25


@dataclass(frozen=True)
class MineSpec:
    name: str
    length: int
    args: tuple[str, ...]
    periods: tuple[int, ...]


def spec_for(workload: str, size: str) -> MineSpec:
    tiny = size == "tiny"
    if workload == "fig2-mine":
        return MineSpec(
            workload,
            20_000 if tiny else 500_000,
            ("--period", "50", "--min-conf", str(common.MIN_CONF)),
            (50,),
        )
    low, high = (45, 55) if tiny else (20, 80)
    return MineSpec(
        workload,
        10_000 if tiny else 100_000,
        ("--period-range", str(low), str(high),
         "--min-conf", str(common.MIN_CONF)),
        tuple(range(low, high + 1)),
    )


# ----------------------------------------------------------------------
# Oracles and output checks
# ----------------------------------------------------------------------


def oracle(spec: MineSpec, slots: list[frozenset[str]]) -> dict[int, Any]:
    """Period -> MiningResult, by Apriori (looped over the range)."""
    from repro.core.apriori import mine_single_period_apriori
    from repro.timeseries.feature_series import FeatureSeries

    series = FeatureSeries(slots)
    return {
        period: mine_single_period_apriori(
            series, period, common.MIN_CONF, encode=False
        )
        for period in spec.periods
    }


def corrupt(expected: dict[int, Any]) -> dict[int, Any]:
    """A deliberately wrong oracle: the least frequent pattern dropped."""
    from repro.core.result import MiningResult

    wrong = {}
    for period, result in expected.items():
        counts = dict(result.items())
        if counts:
            del counts[max(counts, key=lambda p: (-counts[p], str(p)))]
        wrong[period] = MiningResult(
            algorithm=result.algorithm,
            period=period,
            min_conf=result.min_conf,
            num_periods=result.num_periods,
            counts=counts,
            stats=result.stats,
        )
    return wrong


def check_single(stdout: str, expected: Any) -> str | None:
    """``None`` when one-period output matches the oracle, else why not."""
    lines = stdout.splitlines()
    if not lines:
        return "no output"
    header = _HEADER.match(lines[0])
    if header is None:
        return f"unexpected header {lines[0]!r}"
    period, total, m = (int(group) for group in header.groups())
    if (period, total, m) != (expected.period, len(expected),
                              expected.num_periods):
        return (
            f"header says period={period} frequent={total} m={m}, oracle "
            f"{expected.period}/{len(expected)}/{expected.num_periods}"
        )
    rows = sorted(expected.items(), key=lambda item: (-item[1], str(item[0])))
    want = [
        (str(pattern), count, f"{count / m:.3f}")
        for pattern, count in rows[:LIMIT]
    ]
    got = []
    for line in lines[1:1 + len(want)]:
        fields = line.split()
        if len(fields) != 3:
            return f"unexpected row {line!r}"
        got.append((fields[0], int(fields[1].removeprefix("count=")),
                    fields[2].removeprefix("conf=")))
    if got != want:
        return "top patterns differ from the oracle"
    return None


def check_range(stdout: str, expected: dict[int, Any]) -> str | None:
    """``None`` when range output matches the looping oracle."""
    lines = stdout.splitlines()
    if not lines:
        return "no output"
    header = _RANGE_HEADER.match(lines[0])
    if header is None:
        return f"unexpected header {lines[0]!r}"
    frequent = sum(len(result) for result in expected.values())
    if int(header.group(1)) != frequent:
        return f"frequent={header.group(1)}, oracle {frequent}"
    # Ranked by (letters desc, confidence desc, period asc); ties beyond
    # that may print in any order, so compare rank keys and membership.
    table = {}
    for period, result in expected.items():
        for pattern, count in result.items():
            if pattern.letter_count >= 2:
                conf = count / result.num_periods
                table[(period, str(pattern))] = (
                    (-pattern.letter_count, -conf, period), f"{conf:.3f}"
                )
    ranked = sorted(key for key, _ in table.values())
    rows = [line for line in lines[1:] if line.startswith("  period=")]
    if len(rows) != min(LIMIT, len(ranked)):
        return f"{len(rows)} rows, oracle ranks {len(ranked)}"
    for position, line in enumerate(rows):
        fields = line.split()
        if len(fields) != 3:
            return f"unexpected row {line!r}"
        key = (int(fields[0].removeprefix("period=")), fields[1])
        if key not in table:
            return f"row {line!r} is not an oracle pattern"
        rank, conf = table[key]
        if rank != ranked[position] or fields[2] != f"conf={conf}":
            return f"row {line!r} out of rank or wrong confidence"
    return None


def check(spec: MineSpec, stdout: str, expected: dict[int, Any]) -> str | None:
    if spec.name == "fig2-mine":
        return check_single(stdout, expected[spec.periods[0]])
    return check_range(stdout, expected)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def prepare(spec: MineSpec, seed: int, scratch: Path, wrong: bool):
    slots = common.figure2_slots(spec.length, seed)
    path = common.write_series(slots, scratch / f"{spec.name}.txt")
    expected = oracle(spec, slots)
    if wrong:
        expected = corrupt(expected)
    return slots, path, expected


def properties(spec: MineSpec, slots, expected) -> dict[str, Any]:
    props = common.series_properties(slots)
    props.update(
        columnar_packable=props["letters"] <= 64,
        periods=len(spec.periods),
        frequent_patterns=sum(len(r) for r in expected.values()),
    )
    return props


def measure(
    workload: str, seed: int, seconds: float, size: str, wrong: bool
) -> dict[str, Any]:
    """The untraced run: ``ppm mine`` after a start-up sample, until done."""
    spec = spec_for(workload, size)
    scratch = common.work_dir()
    tally = common.Tally()
    try:
        slots, path, expected = prepare(spec, seed, scratch, wrong)
        common.settle()
        setups: list[float] = []
        walls: list[float] = []
        rss: list[int] = []
        began = time.perf_counter()
        while len(walls) < 3 or time.perf_counter() - began < seconds:
            # Set-up is the start-up of the measured command itself: spawn
            # to exit of an interpreter importing ``repro.cli``, sampled
            # between the runs so a short slow spell sways few samples.
            setups.extend(common.import_walls(scratch, 1))
            run = common.run_program(["mine", str(path), *spec.args], scratch)
            problem = (
                f"exit {run.returncode}: {run.stderr.strip()[-300:]}"
                if run.returncode != 0
                else check(spec, run.stdout, expected)
            )
            tally.check(problem is None, f"ppm mine: {problem}")
            walls.append(run.wall_s)
            if run.peak_rss_kb is not None:
                rss.append(run.peak_rss_kb)
        # One operation per process: the latency samples are the walls.
        metrics, report = common.end_to_end(setups, walls, walls, 90, rss)
        report["properties"] = properties(spec, slots, expected)
        return {"tally": tally, "metrics": metrics, "report": report}
    finally:
        common.remove_tree(scratch)


def measure_traced(
    workload: str, seed: int, seconds: float, size: str, wrong: bool
) -> dict[str, Any]:
    """One untraced and one traced ``ppm mine``; the per-layer split."""
    spec = spec_for(workload, size)
    scratch = common.work_dir()
    tally = common.Tally()
    try:
        slots, path, expected = prepare(spec, seed, scratch, wrong)
        common.settle()
        args = ["mine", str(path), *spec.args]
        plain = common.run_program(args, scratch)
        trace_file = scratch / "spans.jsonl"
        traced = common.run_program(args, scratch, trace_file=trace_file)
        for run in (plain, traced):
            problem = (
                f"exit {run.returncode}: {run.stderr.strip()[-300:]}"
                if run.returncode != 0
                else check(spec, run.stdout, expected)
            )
            tally.check(problem is None, f"ppm mine: {problem}")
        spans = trace.load_spans(trace_file) if trace_file.exists() else []
        return {
            "tally": tally,
            "spans": spans,
            "wall_s": traced.wall_s,
            "untraced_wall_s": plain.wall_s,
            "window": (traced.started, traced.ended),
            "import_s": common.import_seconds(scratch),
            "properties": properties(spec, slots, expected),
        }
    finally:
        common.remove_tree(scratch)
