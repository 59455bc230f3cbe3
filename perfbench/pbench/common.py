"""Shared plumbing: locations, input generation, program processes, stats.

Every workload drives the real ``ppm`` command line (``repro.cli.main``)
in fresh interpreter processes started through ``perfbench/launch.py``,
with ``PYTHONPATH`` pointing at this checkout's ``src``.  The benchmark
process itself imports the same ``src`` only to generate inputs and to
run the oracles.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LAUNCHER = BENCH_DIR / "launch.py"
WORK_DIR = BENCH_DIR / ".work"
REPORT_DIR = BENCH_DIR / "out"

#: The paper's Figure 2 generator settings (Table 1): period 50,
#: MAX-PAT-LENGTH 6, |F1| 12, 100-feature alphabet (the generator default).
FIG2 = {"period": 50, "max_pat_length": 6, "f1_size": 12}
MIN_CONF = 0.64

#: Wall-clock cap on any single program process.
PROCESS_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark cannot run here (not a measurement failure)."""


def require_source() -> None:
    """Refuse to run without this checkout's program source."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no program source at {SRC}/repro; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> bool:
        """Count one operation; record ``reason`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)
        return ok


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def figure2_slots(length: int, seed: int) -> list[frozenset[str]]:
    """A Figure 2 synthetic series from the paper's generator."""
    from repro.synth.generator import SyntheticSpec

    spec = SyntheticSpec(length=length, seed=seed, **FIG2)
    return list(spec.generate().series)


def write_series(slots: list[frozenset[str]], path: Path) -> Path:
    """Write slots in the series-file format (one slot per line).

    The benchmark writes its inputs itself rather than through the
    program's writer, so nothing the program does at write time can
    shortcut the load it is measured on.
    """
    with path.open("w", encoding="utf-8") as handle:
        handle.write("# repro feature series v1\n")
        handle.writelines(" ".join(sorted(slot)) + "\n" for slot in slots)
    return path


def series_properties(
    slots: list[frozenset[str]], period: int = 50
) -> dict[str, Any]:
    """The input properties the mining cost depends on, at one period.

    Counted here directly from the slots: segments, features, letters
    (offset, feature pairs; the columnar kernel packs at most 64), |F1|
    at ``MIN_CONF`` and distinct hits (segments projected onto F1, two
    or more letters).
    """
    segments = len(slots) // period
    counts: dict[tuple[int, str], int] = {}
    for index in range(segments * period):
        for feature in slots[index]:
            letter = (index % period, feature)
            counts[letter] = counts.get(letter, 0) + 1
    threshold = max(1, math.ceil(MIN_CONF * segments - 1e-9))
    f1 = {letter for letter, count in counts.items() if count >= threshold}
    hits = set()
    for segment in range(segments):
        base = segment * period
        hit = frozenset(
            (offset, feature)
            for offset in range(period)
            for feature in slots[base + offset]
            if (offset, feature) in f1
        )
        if len(hit) >= 2:
            hits.add(hit)
    return {
        "slots": len(slots),
        "period": period,
        "segments": segments,
        "features": len({f for slot in slots for f in slot}),
        "letters": len(counts),
        "f1_letters": len(f1),
        "distinct_hits": len(hits),
    }


def work_dir() -> Path:
    """A fresh scratch directory for one benchmark invocation."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Program processes
# ----------------------------------------------------------------------


def program_env(
    rss_file: Path | None = None, trace_file: Path | None = None
) -> dict[str, str]:
    """Environment for a program process: this checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("PERFBENCH_RSS_FILE", "PERFBENCH_TRACE_FILE"):
        env.pop(name, None)
    if rss_file is not None:
        env["PERFBENCH_RSS_FILE"] = str(rss_file)
    if trace_file is not None:
        env["PERFBENCH_TRACE_FILE"] = str(trace_file)
    return env


def program_argv(*args: str) -> list[str]:
    """``ppm ARGS`` as an argv run through the launcher."""
    return [sys.executable, str(LAUNCHER), *args]


@dataclass
class ProgramRun:
    """One finished program process."""

    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_kb: int | None
    started: float
    ended: float


def read_rss(rss_file: Path) -> int | None:
    """The VmHWM (kB) the launcher recorded at exit, if it did."""
    try:
        return int(rss_file.read_text().strip())
    except (OSError, ValueError):
        return None


def run_program(
    args: list[str],
    scratch: Path,
    trace_file: Path | None = None,
    timeout: float = PROCESS_TIMEOUT_S,
) -> ProgramRun:
    """Run ``ppm ARGS`` to completion; wall is spawn to exit."""
    rss_file = scratch / f"rss-{time.monotonic_ns()}.txt"
    started = time.perf_counter()
    proc = subprocess.Popen(
        program_argv(*args),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=program_env(rss_file, trace_file),
        cwd=scratch,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        stderr += f"\n[perfbench: killed after {timeout}s]"
    ended = time.perf_counter()
    return ProgramRun(
        wall_s=ended - started,
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        peak_rss_kb=read_rss(rss_file),
        started=started,
        ended=ended,
    )


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Make sure ``proc`` has ended: wait, then kill and reap."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def import_walls(scratch: Path, repeats: int) -> list[float]:
    """Spawn-to-exit walls of ``python -c 'import repro.cli'``."""
    walls = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=program_env(),
            cwd=scratch,
            check=True,
            timeout=PROCESS_TIMEOUT_S,
        )
        walls.append(time.perf_counter() - started)
    return walls


def import_seconds(scratch: Path, repeats: int = 3) -> float:
    """Median of :func:`import_walls`."""
    return statistics.median(import_walls(scratch, repeats))


# ----------------------------------------------------------------------
# Measurement hygiene
# ----------------------------------------------------------------------


def settle() -> None:
    """Exempt everything built so far (inputs, oracles) from collection.

    The benchmark process holds the generated series, and the serve
    workload's client runs in it; a full collection over that heap would
    land inside the measured requests.
    """
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def end_to_end(
    setups: list[float],
    walls: list[float],
    latencies: list[float],
    tail_pct: float,
    rss_kb: list[int],
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The five end-to-end metrics from one run's samples (seconds),
    and the report section holding those samples."""
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "tail_ms": metric(percentile(latencies, tail_pct) * 1e3, "ms"),
        "peak_rss_mib": metric(statistics.median(rss_kb) / 1024, "MiB"),
    }
    report = {
        "tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "samples": {"setup_s": setups, "wall_s": walls, "peak_rss_kb": rss_kb},
    }
    return metrics, report


def environment(seed: int) -> dict[str, Any]:
    """What the numbers were measured on."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
    }


def write_report(name: str, report: dict[str, Any]) -> Path:
    """Write the detailed report (samples, properties, environment)."""
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    path = REPORT_DIR / f"{name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path
