"""``stream-durable``: ``ppm stream --checkpoint-dir``, write and read paths.

Phase 1 runs ``ppm stream FEED --period 50 --window W --slide S
--min-conf 0.64 --checkpoint-dir D`` over a Figure 2 feed with the
default ``--checkpoint-every``; the benchmark timestamps every window
line as it arrives on stdout.  A window gap is the time between two
consecutive window lines: what a consumer of a live feed at capacity
waits per window.

Phase 2 is the read path.  A run fed on stdin is SIGKILLed once the WAL
shows exactly ``K`` records logged (the process is then idle, waiting
for input, so the kill point is the same on every run); then
``ppm stream FEED ... --resume`` recovers (newest snapshot plus WAL tail
replay), skips the ``K`` logged records and continues.  Its set-up time
is spawn until record ``K`` is in the WAL.

Oracles: sampled windows are re-mined as batches by Apriori, every
phase-1 run must print the same lines, and the killed-plus-resumed
output, de-duplicated by window index, must equal the uninterrupted one.
"""

from __future__ import annotations

import json
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from pbench import common, trace


@dataclass(frozen=True)
class Size:
    slots: int
    window: int
    slide: int
    kill_at: int
    sample_every: int


SIZES = {
    # kill_at % 64 != 0, so recovery replays a WAL tail after the snapshot.
    "full": Size(20_000, 5000, 100, 6037, 10),
    "tiny": Size(3000, 1000, 100, 1237, 5),
}


def stream_args(feed: str, size: Size, ckpt: Path) -> list[str]:
    return [
        "stream", feed, "--period", "50", "--window", str(size.window),
        "--slide", str(size.slide), "--min-conf", str(common.MIN_CONF),
        "--checkpoint-dir", str(ckpt),
    ]


def expected_windows(size: Size) -> int:
    return (size.slots - size.window) // size.slide + 1


def records_logged(ckpt: Path) -> int:
    """Records the process has write-ahead logged, read off the live WAL."""
    segments = sorted(ckpt.glob("wal-*.jsonl"))
    if not segments:
        return 0
    newest = segments[-1]
    count = int(newest.stem.split("-")[1])
    try:
        data = newest.read_bytes()
    except FileNotFoundError:
        return count
    for line in data.splitlines():
        try:
            count = json.loads(line)["i"] + 1
        except ValueError:
            pass  # a line caught mid-write; the next poll sees it whole
    return count


def wait_logged(ckpt: Path, target: int, proc: subprocess.Popen,
                timeout: float = common.PROCESS_TIMEOUT_S) -> float:
    """Poll until ``target`` records are logged; returns the time seen."""
    deadline = time.perf_counter() + timeout
    while records_logged(ckpt) < target:
        if proc.poll() is not None:
            raise RuntimeError(f"ppm stream exited with {proc.returncode}")
        if time.perf_counter() > deadline:
            raise RuntimeError("ppm stream stopped logging records")
        time.sleep(0.001)
    return time.perf_counter()


class LineCollector(threading.Thread):
    """Drain a pipe so the child never blocks on a full buffer."""

    def __init__(self, pipe) -> None:
        super().__init__(daemon=True)
        self.pipe = pipe
        self.lines: list[str] = []

    def run(self) -> None:
        for line in self.pipe:
            self.lines.append(line.rstrip("\n"))


def finish_process(proc: subprocess.Popen, *collectors: LineCollector) -> None:
    """Wait for ``proc`` (killing it past the cap), drain, close pipes."""
    try:
        proc.wait(timeout=common.PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    for collector in collectors:
        collector.join(timeout=10)
    common.stop_process(proc)


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def batch_windows(slots, size: Size, wrong: bool) -> dict[int, dict]:
    """Sampled windows re-mined as batches: index -> {pattern: count}."""
    from repro.core.apriori import mine_single_period_apriori
    from repro.timeseries.feature_series import FeatureSeries

    sampled = {}
    for index in range(0, expected_windows(size), size.sample_every):
        end = size.window + index * size.slide
        chunk = FeatureSeries(slots[end - size.window:end])
        result = mine_single_period_apriori(chunk, 50, common.MIN_CONF,
                                            encode=False)
        sampled[index] = {str(p): c for p, c in result.items()}
    if wrong:
        first = sampled[0]
        for pattern in sorted(first)[:1]:
            first[pattern] += 1
    return sampled


def check_windows(lines: list[str], size: Size, sampled) -> str | None:
    if len(lines) != expected_windows(size):
        return f"{len(lines)} windows, expected {expected_windows(size)}"
    for index, want in sampled.items():
        window = json.loads(lines[index])
        got = {row["pattern"]: row["count"] for row in window["patterns"]}
        if window["index"] != index or got != want:
            return f"window {index} differs from the batch re-mine"
    return None


# ----------------------------------------------------------------------
# Phase 1 and phase 2
# ----------------------------------------------------------------------


def phase1(feed: Path, size: Size, scratch: Path,
           trace_file: Path | None = None) -> dict[str, Any]:
    """One uninterrupted run; window lines timestamped on arrival."""
    ckpt = scratch / f"ckpt-{time.monotonic_ns()}"
    rss_file = scratch / f"rss-{time.monotonic_ns()}.txt"
    started = time.perf_counter()
    proc = subprocess.Popen(
        common.program_argv(*stream_args(str(feed), size, ckpt)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=common.program_env(rss_file, trace_file),
        cwd=scratch,
    )
    errors = LineCollector(proc.stderr)
    errors.start()
    lines, stamps = [], []
    assert proc.stdout is not None
    for line in proc.stdout:
        stamps.append(time.perf_counter())
        lines.append(line.rstrip("\n"))
    finish_process(proc, errors)
    ended = time.perf_counter()
    snapshots = sorted(ckpt.glob("snapshot-*.json"))
    snapshot_bytes = snapshots[-1].stat().st_size if snapshots else 0
    common.remove_tree(ckpt)
    return {
        "wall_s": ended - started,
        "started": started,
        "ended": ended,
        "lines": lines,
        "gaps": [b - a for a, b in zip(stamps, stamps[1:])],
        "exit": proc.returncode,
        "stderr": "\n".join(errors.lines),
        "rss_kb": common.read_rss(rss_file),
        "snapshot_bytes": snapshot_bytes,
    }


def kill_and_resume(feed: Path, records: list[str], size: Size,
                    scratch: Path, finish: bool,
                    trace_file: Path | None = None) -> dict[str, Any]:
    """SIGKILL at ``kill_at`` logged records, then ``--resume``.

    Returns the resume's set-up time (spawn until record ``kill_at`` is
    logged) and, with ``finish``, the combined output of both runs.
    """
    ckpt = scratch / f"ckpt-{time.monotonic_ns()}"
    args = stream_args("-", size, ckpt)
    killed = subprocess.Popen(
        common.program_argv(*args),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=common.program_env(),
        cwd=scratch,
    )
    first = LineCollector(killed.stdout)
    first.start()
    assert killed.stdin is not None
    try:
        killed.stdin.write("".join(r + "\n" for r in records[:size.kill_at]))
        killed.stdin.flush()
        wait_logged(ckpt, size.kill_at, killed)
    finally:
        killed.send_signal(signal.SIGKILL)
        finish_process(killed, first)

    args = stream_args(str(feed), size, ckpt) + ["--resume"]
    started = time.perf_counter()
    resumed = subprocess.Popen(
        common.program_argv(*args),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=common.program_env(trace_file=trace_file),
        cwd=scratch,
    )
    second = LineCollector(resumed.stdout)
    second.start()
    errors = LineCollector(resumed.stderr)
    errors.start()
    try:
        ready = wait_logged(ckpt, size.kill_at + 1, resumed) - started
    finally:
        if not finish:
            resumed.send_signal(signal.SIGKILL)
        finish_process(resumed, second, errors)
    common.remove_tree(ckpt)
    by_index: dict[int, str] = {}
    conflict = False
    for line in first.lines + second.lines:
        index = json.loads(line)["index"]
        conflict |= by_index.setdefault(index, line) != line
    return {
        "setup_s": ready,
        "exit": resumed.returncode,
        "stderr": "\n".join(errors.lines),
        "combined": [by_index[i] for i in sorted(by_index)],
        "conflict": conflict,
    }


def _inputs(seed: int, size_name: str, scratch: Path, wrong: bool):
    size = SIZES[size_name]
    slots = common.figure2_slots(size.slots, seed)
    feed = common.write_series(slots, scratch / "feed.txt")
    records = [" ".join(sorted(slot)) for slot in slots]
    return size, slots, feed, records, batch_windows(slots, size, wrong)


def _check_phase1(run, size, sampled, reference, tally) -> None:
    problem = None
    if run["exit"] != 0:
        problem = f"exit {run['exit']}: {run['stderr'][-300:]}"
    elif reference is None:
        problem = check_windows(run["lines"], size, sampled)
    elif run["lines"] != reference:
        problem = "output differs between uninterrupted runs"
    tally.check(problem is None, f"ppm stream: {problem}")


def _check_resume(cycle, reference, tally) -> None:
    problem = None
    if cycle["exit"] != 0:
        problem = f"resume exit {cycle['exit']}: {cycle['stderr'][-300:]}"
    elif cycle["conflict"] or cycle["combined"] != reference:
        problem = "killed + resumed output differs from uninterrupted run"
    tally.check(problem is None, f"ppm stream --resume: {problem}")


def measure(workload: str, seed: int, seconds: float, size_name: str,
            wrong: bool) -> dict[str, Any]:
    scratch = common.work_dir()
    tally = common.Tally()
    try:
        size, slots, feed, records, sampled = _inputs(seed, size_name,
                                                      scratch, wrong)
        common.settle()
        runs = []
        began = time.perf_counter()
        while len(runs) < 3 or time.perf_counter() - began < seconds:
            run = phase1(feed, size, scratch)
            _check_phase1(run, size, sampled,
                          runs[0]["lines"] if runs else None, tally)
            runs.append(run)
        setups = []
        for cycle_number in range(3):
            cycle = kill_and_resume(feed, records, size, scratch,
                                    finish=cycle_number == 0)
            if cycle_number == 0:
                _check_resume(cycle, runs[0]["lines"], tally)
            setups.append(cycle["setup_s"])
        walls = [run["wall_s"] for run in runs]
        metrics, report = common.end_to_end(
            setups, walls, [gap for run in runs for gap in run["gaps"]], 90,
            [run["rss_kb"] for run in runs if run["rss_kb"]])
        report.update(
            slots_per_s=size.slots / statistics.median(walls),
            properties=dict(
                common.series_properties(slots),
                window=size.window,
                slide=size.slide,
                windows=expected_windows(size),
                kill_at=size.kill_at,
                snapshot_bytes=runs[-1]["snapshot_bytes"],
            ),
        )
        return {"tally": tally, "metrics": metrics, "report": report}
    finally:
        common.remove_tree(scratch)


def measure_traced(workload: str, seed: int, seconds: float, size_name: str,
                   wrong: bool) -> dict[str, Any]:
    scratch = common.work_dir()
    tally = common.Tally()
    try:
        size, slots, feed, records, sampled = _inputs(seed, size_name,
                                                      scratch, wrong)
        common.settle()
        plain = phase1(feed, size, scratch)
        _check_phase1(plain, size, sampled, None, tally)
        spans_file = scratch / "spans.jsonl"
        traced = phase1(feed, size, scratch, trace_file=spans_file)
        _check_phase1(traced, size, sampled, plain["lines"], tally)
        resume_file = scratch / "resume-spans.jsonl"
        cycle = kill_and_resume(feed, records, size, scratch, finish=True,
                                trace_file=resume_file)
        _check_resume(cycle, plain["lines"], tally)
        spans = trace.load_spans(spans_file) if spans_file.exists() else []
        resume_spans = (trace.load_spans(resume_file)
                        if resume_file.exists() else [])
        return {
            "tally": tally,
            "spans": spans,
            "resume_spans": resume_spans,
            "wall_s": traced["wall_s"],
            "untraced_wall_s": plain["wall_s"],
            "window": (traced["started"], traced["ended"]),
            "import_s": common.import_seconds(scratch),
            "snapshot_bytes": traced["snapshot_bytes"],
            "properties": {"slots": size.slots,
                           "windows": expected_windows(size)},
        }
    finally:
        common.remove_tree(scratch)
