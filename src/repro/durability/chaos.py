"""Deterministic fault injection for durable state files.

A :class:`FileChaos` cursor handed to
:class:`~repro.durability.snapshot.SnapshotWriter` (directly, or through
:class:`~repro.durability.checkpoint.StreamCheckpointer` and
:class:`~repro.durability.stream.DurableStream`) makes a seeded fraction
of snapshot writes land damaged — torn, truncated, or never renamed —
so the recovery ladder can be tested against the exact corruption a
crash leaves behind.  Fault draws are keyed by ``(seed, write index)``:
one configuration injects the identical fault sequence on every run.

Setting ``REPRO_CHAOS_FILE_SEED`` in the environment switches injection on
for ``ppm stream --checkpoint-dir`` (see :func:`file_chaos_from_env`).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from repro.core.errors import DurabilityError

#: Mixing prime for the per-(seed, write) fault RNG.
_MIX_WRITE = 15_485_863


@dataclass(frozen=True, slots=True)
class FileChaosConfig:
    """A deterministic schedule of snapshot-write faults.

    Rates are independent probabilities carved out of one uniform draw
    per write, keyed by ``(seed, write index)`` — the same configuration
    injects the identical fault sequence on every run, which is how the
    durability suite pins "resume survives this exact corruption".

    Fault kinds mirror the real-world failure modes of state files:

    ``torn``
        The final file is cut mid-byte (a write that never finished but
        still landed at the final path — the legacy non-atomic writer's
        failure mode, and what a lost rename journal looks like).
    ``truncate``
        The final file loses its checksum footer (a whole trailing block
        vanished — metadata-only truncation).
    ``stale-tmp``
        The temp file is fully written but never renamed (a crash in the
        gap between write and rename), leaving a stale ``*.tmp*`` file
        and no new snapshot.
    """

    seed: int
    torn_rate: float = 0.0
    truncate_rate: float = 0.0
    stale_tmp_rate: float = 0.0

    def __post_init__(self) -> None:
        rates = (self.torn_rate, self.truncate_rate, self.stale_tmp_rate)
        if any(rate < 0 for rate in rates) or sum(rates) > 1.0:
            raise DurabilityError(
                f"file-chaos rates must be >= 0 and sum to <= 1, got {rates}"
            )

    def fault_for(self, write_index: int) -> str | None:
        """``"torn"``, ``"truncate"``, ``"stale-tmp"`` or ``None``."""
        rng = random.Random(self.seed * 1_000_003 + write_index * _MIX_WRITE)
        draw = rng.random()
        if draw < self.torn_rate:
            return "torn"
        if draw < self.torn_rate + self.truncate_rate:
            return "truncate"
        if draw < self.torn_rate + self.truncate_rate + self.stale_tmp_rate:
            return "stale-tmp"
        return None


class FileChaos:
    """Mutable cursor over a :class:`FileChaosConfig` fault schedule.

    The snapshot writer calls :meth:`next_fault` once per atomic write;
    the cursor advances whether or not a fault fires, so the schedule is
    a pure function of how many writes have happened.
    """

    __slots__ = ("config", "writes", "injected")

    def __init__(self, config: FileChaosConfig):
        self.config = config
        self.writes = 0
        #: Count of faults actually fired, per kind (observability for
        #: tests).
        self.injected: dict[str, int] = {}

    def next_fault(self) -> str | None:
        """The fault to inject on this write, advancing the schedule."""
        fault = self.config.fault_for(self.writes)
        self.writes += 1
        if fault is not None:
            self.injected[fault] = self.injected.get(fault, 0) + 1
        return fault


def file_chaos_from_env() -> FileChaos | None:
    """The :class:`FileChaos` described by the environment, if any.

    ``REPRO_CHAOS_FILE_SEED`` (an integer) switches injection on; optional
    ``REPRO_CHAOS_FILE_RATES`` is ``"torn,truncate,stale"`` floats
    (default ``0.1,0.05,0.05``).
    """
    raw_seed = os.environ.get("REPRO_CHAOS_FILE_SEED", "").strip()
    if not raw_seed:
        return None
    try:
        seed = int(raw_seed)
    except ValueError as error:
        raise DurabilityError(
            f"REPRO_CHAOS_FILE_SEED must be an integer, got {raw_seed!r}"
        ) from error
    rates_raw = os.environ.get("REPRO_CHAOS_FILE_RATES", "0.1,0.05,0.05")
    try:
        torn, truncate, stale = (float(part) for part in rates_raw.split(","))
    except ValueError as error:
        raise DurabilityError(
            "REPRO_CHAOS_FILE_RATES must be 'torn,truncate,stale' floats, "
            f"got {rates_raw!r}"
        ) from error
    return FileChaos(
        FileChaosConfig(
            seed=seed,
            torn_rate=torn,
            truncate_rate=truncate,
            stale_tmp_rate=stale,
        )
    )
