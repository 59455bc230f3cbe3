"""Per-stage profiling for mining runs — the kernels' observability hook.

:class:`MiningProfile` accumulates wall-clock time, item counts and event
counters per named stage (``load``, ``scan1``, ``tree``, ``scan2``,
``derive``).  The miners time their stages directly, ``ppm mine`` adds
the series load, and the count cache reports hits and misses through
:meth:`count`.

It renders as a fixed-width table for ``ppm mine --profile`` and as plain
JSON for ``--profile-json`` — no dependency beyond the standard library.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

#: Canonical stage order for display; unknown stages append after these.
STAGE_ORDER = ("load", "scan1", "tree", "scan2", "derive")


@dataclass(slots=True)
class StageTiming:
    """Accumulated cost of one named stage."""

    name: str
    elapsed_s: float = 0.0
    #: Work items the stage processed (slots, segments, candidates ...);
    #: 0 when the stage has no natural unit.
    items: int = 0
    #: Times the stage ran (a stage can repeat, e.g. per level).
    calls: int = 0


class MiningProfile:
    """Mutable per-stage ledger threaded through one mining call.

    Examples
    --------
    >>> profile = MiningProfile()
    >>> with profile.stage("scan1", items=10):
    ...     pass
    >>> profile.counters.get("cache_hits", 0)
    0
    >>> "scan1" in profile.to_json()["stages"]
    True
    """

    __slots__ = ("_stages", "counters")

    def __init__(self) -> None:
        self._stages: dict[str, StageTiming] = {}
        #: Event tallies: cache_hits, cache_misses, distinct_hits, ...
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @contextmanager
    def stage(self, name: str, items: int = 0) -> Iterator[StageTiming]:
        """Time a block as one run of stage ``name``."""
        timing = self._stages.setdefault(name, StageTiming(name))
        started = time.perf_counter()
        try:
            yield timing
        finally:
            timing.elapsed_s += time.perf_counter() - started
            timing.items += items
            timing.calls += 1

    def add_stage(self, name: str, elapsed_s: float, items: int = 0) -> None:
        """Record an externally-timed stage run (aggregating profiles)."""
        timing = self._stages.setdefault(name, StageTiming(name))
        timing.elapsed_s += elapsed_s
        timing.items += items
        timing.calls += 1

    def add_items(self, name: str, items: int) -> None:
        """Attach item counts to a stage after the fact."""
        timing = self._stages.setdefault(name, StageTiming(name))
        timing.items += items

    def count(self, name: str, amount: int = 1) -> None:
        """Bump an event counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def stages(self) -> list[StageTiming]:
        """Recorded stages in canonical display order."""
        known = [
            self._stages[name] for name in STAGE_ORDER if name in self._stages
        ]
        extra = [
            timing
            for name, timing in self._stages.items()
            if name not in STAGE_ORDER
        ]
        return known + extra

    @property
    def total_s(self) -> float:
        """Summed stage time (excludes unprofiled glue)."""
        return sum(timing.elapsed_s for timing in self._stages.values())

    def table(self) -> str:
        """The fixed-width table ``ppm mine --profile`` prints."""
        lines = [
            f"{'stage':<12} {'time_ms':>10} {'items':>10} {'calls':>6}",
            "-" * 41,
        ]
        for timing in self.stages:
            lines.append(
                f"{timing.name:<12} {timing.elapsed_s * 1e3:>10.1f} "
                f"{timing.items:>10} {timing.calls:>6}"
            )
        lines.append(
            f"{'total':<12} {self.total_s * 1e3:>10.1f} {'':>10} {'':>6}"
        )
        if self.counters:
            lines.append("")
            for name in sorted(self.counters):
                lines.append(f"{name:<24} {self.counters[name]}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Plain-JSON form for ``--profile-json`` and programmatic use."""
        return {
            "stages": {
                timing.name: {
                    "elapsed_s": timing.elapsed_s,
                    "items": timing.items,
                    "calls": timing.calls,
                }
                for timing in self.stages
            },
            "counters": dict(sorted(self.counters.items())),
            "total_s": self.total_s,
        }

    def __repr__(self) -> str:
        names = ",".join(timing.name for timing in self.stages)
        return f"MiningProfile(stages=[{names}], total={self.total_s:.3f}s)"
