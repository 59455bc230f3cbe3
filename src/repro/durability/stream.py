"""A crash-safe streaming run: kill it anywhere, resume it exactly.

:class:`DurableStream` composes the pieces into the headline guarantee:
a stream killed at an arbitrary instant and resumed from its checkpoint
directory emits *exactly* the window sequence an uninterrupted run would
have — same windows, same patterns, same change diffs, byte for byte.

The mechanics are write-ahead ordering end to end.  Every input record is
appended to the WAL (flushed) before it touches the miner, so the applied
state never gets ahead of the log; snapshots capture the applied state and
are atomic and checksummed, so recovery always finds a consistent base;
and the optional :class:`DurableSink` makes emission itself exactly-once —
on resume it counts the complete output lines already on disk, truncates a
torn tail, and suppresses replayed windows below that watermark while the
WAL replay regenerates them.

Event-time streams checkpoint the arrival buffer too (open slots,
watermark, quarantine report), so out-of-order events buffered across the
kill point land in their slots identically on resume.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.errors import DurabilityError
from repro.durability.checkpoint import RecoveredState, StreamCheckpointer
from repro.streaming.buffer import ArrivalBuffer
from repro.streaming.engine import StreamingMiner
from repro.streaming.windows import WindowResult, window_to_dict

if TYPE_CHECKING:
    from repro.durability.chaos import FileChaos

#: Snapshot kind tag for durable stream state.
STREAM_KIND = "repro.stream/1"

#: Default records between snapshots.
DEFAULT_CHECKPOINT_EVERY = 64


class DurableSink:
    """Exactly-once JSONL output: torn-tail truncation plus suppression.

    On open, the sink counts the complete (newline-terminated) lines
    already in the file and truncates anything after the last newline — a
    torn final line from a kill mid-write.  Windows are emitted by global
    index: indices below the recovered line count are already durable and
    are silently suppressed when WAL replay regenerates them.
    """

    __slots__ = ("path", "_handle", "emitted", "suppressed", "truncated")

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.emitted = 0
        self.suppressed = 0
        #: Bytes of torn tail removed at open.
        self.truncated = 0
        if self.path.exists():
            raw = self.path.read_bytes()
            cut = raw.rfind(b"\n") + 1
            if cut < len(raw):
                self.truncated = len(raw) - cut
                with self.path.open("r+b") as handle:
                    handle.truncate(cut)
            self.emitted = raw[:cut].count(b"\n")
        self._handle = self.path.open("a", encoding="utf-8")

    def emit(self, index: int, line: str) -> bool:
        """Write one window line unless it is already durable."""
        if index < self.emitted:
            self.suppressed += 1
            return False
        if index > self.emitted:
            raise DurabilityError(
                f"{self.path}: window {index} arrived but only "
                f"{self.emitted} lines are durable — output and WAL "
                "disagree"
            )
        self._handle.write(line + "\n")
        self._handle.flush()
        self.emitted += 1
        return True

    def sync(self) -> None:
        """fsync the output file (called before every snapshot, so a
        snapshot never claims windows the sink could still lose)."""
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()

    def __repr__(self) -> str:
        return (
            f"DurableSink({str(self.path)!r}, emitted={self.emitted}, "
            f"suppressed={self.suppressed})"
        )


class DurableStream:
    """A checkpointed streaming miner with exact kill/resume semantics.

    Construction *is* recovery: if the directory holds prior state, the
    miner (and arrival buffer, in event mode) is restored from the newest
    valid snapshot and the WAL tail is replayed through it; windows the
    replay regenerates go to the sink, which suppresses the ones already
    durable.  ``recovery`` reports what happened; ``replayed_windows``
    holds windows regenerated without a sink to absorb them (the caller
    decides whether to re-print — at-least-once without ``out``).

    Parameters mirror ``ppm stream``; ``checkpoint_every`` is in input
    records.  The stream parameters are persisted and must match on
    resume — a mismatch raises :class:`DurabilityError` rather than
    resuming into a different computation.
    """

    __slots__ = (
        "_config",
        "_ckpt",
        "_sink",
        "_miner",
        "_buffer",
        "_events",
        "_checkpoint_every",
        "_since_snapshot",
        "recovery",
        "replayed_windows",
        "_finished",
    )

    def __init__(
        self,
        directory: str | Path,
        *,
        period: int,
        window: int,
        slide: int | None = None,
        min_conf: float = 0.5,
        strategy: str = "decrement",
        max_letters: int | None = None,
        tolerance: float = 0.05,
        events: bool = False,
        slot_width: float = 1.0,
        origin: float = 0.0,
        lateness: float = 0.0,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        keep: int = 2,
        out: str | Path | None = None,
        chaos: "FileChaos | None" = None,
    ):
        if checkpoint_every < 1:
            raise DurabilityError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._config: dict[str, Any] = {
            "period": period,
            "window": window,
            "slide": window if slide is None else slide,
            "min_conf": min_conf,
            "strategy": strategy,
            "max_letters": max_letters,
            "tolerance": tolerance,
            "events": events,
            "slot_width": slot_width,
            "origin": origin,
            "lateness": lateness,
        }
        self._events = events
        self._checkpoint_every = checkpoint_every
        self._since_snapshot = 0
        self._finished = False
        self.replayed_windows: list[WindowResult] = []
        self._ckpt = StreamCheckpointer(
            directory, kind=STREAM_KIND, keep=keep, chaos=chaos
        )
        self._sink = None if out is None else DurableSink(out)
        recovered = self._ckpt.recover()
        self.recovery: RecoveredState | None = recovered
        if recovered is not None and recovered.state is not None:
            stored = recovered.state.get("config")
            if stored != self._config:
                raise DurabilityError(
                    f"{directory}: checkpoint was recorded with different "
                    f"stream parameters ({stored!r}); refusing to resume "
                    "into a different computation"
                )
            self._miner = StreamingMiner.from_state(recovered.state["miner"])
            buffer_state = recovered.state.get("buffer")
            self._buffer = (
                None
                if buffer_state is None
                else ArrivalBuffer.from_state(buffer_state)
            )
        else:
            self._miner = self._fresh_miner()
            self._buffer = self._fresh_buffer()
        if recovered is not None:
            for record in recovered.tail:
                self._dispatch(self._apply(record), replay=True)

    def _fresh_miner(self) -> StreamingMiner:
        config = self._config
        return StreamingMiner(
            period=int(config["period"]),
            window=int(config["window"]),
            slide=int(config["slide"]),
            min_conf=float(config["min_conf"]),
            retirement=str(config["strategy"]),
            max_letters=(
                None
                if config["max_letters"] is None
                else int(config["max_letters"])
            ),
            change_tolerance=float(config["tolerance"]),
        )

    def _fresh_buffer(self) -> ArrivalBuffer | None:
        if not self._events:
            return None
        config = self._config
        return ArrivalBuffer(
            slot_width=float(config["slot_width"]),
            start=float(config["origin"]),
            lateness=float(config["lateness"]),
        )

    # -- accessors -------------------------------------------------------

    @property
    def miner(self) -> StreamingMiner:
        return self._miner

    @property
    def buffer(self) -> ArrivalBuffer | None:
        return self._buffer

    @property
    def sink(self) -> DurableSink | None:
        return self._sink

    @property
    def resumed(self) -> bool:
        """True when construction restored prior durable state."""
        return self.recovery is not None

    @property
    def records_logged(self) -> int:
        """Input records durably logged so far — on resume, the caller
        skips this many records of a replayable feed before feeding."""
        return self._ckpt.next_index

    @property
    def checkpoint_lag(self) -> int:
        """Records applied since the last snapshot (WAL replay debt)."""
        return self._since_snapshot

    # -- the feed path ---------------------------------------------------

    def feed(self, record: Any) -> list[WindowResult]:
        """Log one input record, apply it, maybe snapshot.

        Slot mode: ``record`` is the slot's feature list.  Event mode:
        ``record`` is ``[time, [feature, ...]]``.  Returns the windows
        the record closed (already written to the sink, when one is
        configured).
        """
        if self._finished:
            raise DurabilityError("stream is finished; cannot feed")
        self._ckpt.append(record)
        windows = self._apply(record)
        self._dispatch(windows, replay=False)
        self._since_snapshot += 1
        if self._since_snapshot >= self._checkpoint_every:
            self.checkpoint()
        return windows

    def _apply(self, record: Any) -> list[WindowResult]:
        if self._events:
            if self._buffer is None:  # pragma: no cover - construction bug
                raise DurabilityError("event stream without a buffer")
            when = float(record[0])
            for feature in record[1]:
                self._buffer.add(when, str(feature))
            return self._miner.extend(self._buffer.drain())
        window = self._miner.append(
            frozenset(str(feature) for feature in record)
        )
        return [] if window is None else [window]

    def _dispatch(
        self, windows: list[WindowResult], replay: bool
    ) -> None:
        for window in windows:
            if self._sink is not None:
                self._sink.emit(
                    window.index, json.dumps(window_to_dict(window))
                )
            elif replay:
                self.replayed_windows.append(window)

    def checkpoint(self) -> None:
        """Snapshot the applied state now (also rotates and prunes)."""
        if self._sink is not None:
            self._sink.sync()
        self._ckpt.snapshot(
            {
                "config": self._config,
                "miner": self._miner.to_state(),
                "buffer": (
                    None if self._buffer is None else self._buffer.to_state()
                ),
            }
        )
        self._since_snapshot = 0

    def finish(self) -> list[WindowResult]:
        """End of stream: flush the buffer, final snapshot, close.

        Event mode seals and mines everything still buffered; the closing
        windows go through the same sink path.  Returns them.
        """
        if self._finished:
            return []
        windows: list[WindowResult] = []
        if self._buffer is not None:
            # The flush itself is not WAL-logged (it is not an input) —
            # but its effect is captured by the final snapshot below, and
            # a kill before that snapshot replays the same flush on the
            # next finish().
            windows = self._miner.extend(self._buffer.flush())
            self._dispatch(windows, replay=False)
        self.checkpoint()
        self.close()
        return windows

    def close(self) -> None:
        """Release file handles without a final flush (kill-safe state)."""
        self._finished = True
        self._ckpt.close()
        if self._sink is not None:
            self._sink.close()

    def stats(self) -> dict[str, Any]:
        """JSON-ready durability stats for ``/stats`` and the CLI."""
        return {
            "records_logged": self.records_logged,
            "checkpoint_lag": self._since_snapshot,
            "checkpoint_every": self._checkpoint_every,
            "resumed": self.resumed,
            "recovery": (
                None if self.recovery is None else self.recovery.describe()
            ),
            "out_emitted": (
                None if self._sink is None else self._sink.emitted
            ),
            "out_suppressed": (
                None if self._sink is None else self._sink.suppressed
            ),
        }

    def __repr__(self) -> str:
        return (
            f"DurableStream(records={self.records_logged}, "
            f"lag={self._since_snapshot}, resumed={self.resumed})"
        )
