"""Tests for repro.durability: snapshots, the checkpointer, kill/resume.

The centerpiece is the kill/resume equivalence matrix: a stream killed at
an arbitrary record and resumed from its checkpoint directory must write
*byte-identical* window output to an uninterrupted reference run — across
20 seeds, three window geometries (sliding, tumbling, gapped), both
retirement strategies, with chaos-injected snapshot corruption, and with
out-of-order events buffered across the kill point.  The reference runs
use the plain (non-durable) streaming engine, so the comparison does not
share the machinery under test.
"""

from __future__ import annotations

import json
import random
import zlib

import pytest

from repro.core.errors import DurabilityError, SnapshotCorruption
from repro.durability import (
    DurableSink,
    DurableStream,
    SnapshotWriter,
    StreamCheckpointer,
    clean_stale_tmp,
    read_snapshot,
    snapshot_bytes,
)
from repro.durability.chaos import (
    FileChaos,
    FileChaosConfig,
    file_chaos_from_env,
)
from repro.streaming import ArrivalBuffer, StreamingMiner, window_to_dict

ALPHABET = "abcde"

#: (period, window, slide): sliding, tumbling, and gapped geometries.
GEOMETRIES = ((3, 9, 3), (3, 9, 9), (3, 6, 12))


def random_records(seed: int, length: int = 84) -> list[list[str]]:
    """Random slot records with planted period-3 structure."""
    rng = random.Random(seed)
    records = []
    for i in range(length):
        slot = set()
        if rng.random() < 0.7:
            slot.add(ALPHABET[i % 3])
        if rng.random() < 0.3:
            slot.add(rng.choice(ALPHABET))
        records.append(sorted(slot))
    return records


def reference_lines(
    records: list[list[str]], period: int, window: int, slide: int,
    strategy: str,
) -> list[str]:
    """The uninterrupted run, via the plain engine (no durability code)."""
    miner = StreamingMiner(
        period=period, window=window, slide=slide, min_conf=0.6,
        retirement=strategy,
    )
    lines = []
    for record in records:
        emitted = miner.append(frozenset(record))
        if emitted is not None:
            lines.append(json.dumps(window_to_dict(emitted)))
    return lines


def hard_kill(stream: DurableStream) -> None:
    """Abandon a stream the way SIGKILL does: no final snapshot, no
    graceful close — just drop the handles (appends flush per record,
    so closing the raw handles adds no data a kill would not have)."""
    handle = stream._ckpt._handle
    if handle is not None:
        handle.close()
        stream._ckpt._handle = None
    if stream._sink is not None:
        stream._sink._handle.close()


# ---------------------------------------------------------------------------
# Snapshot files
# ---------------------------------------------------------------------------


class TestSnapshotFiles:
    def test_round_trip(self, tmp_path):
        writer = SnapshotWriter(tmp_path)
        payload = {"alpha": [1, 2, 3], "beta": {"nested": True}}
        path = writer.write("state.json", kind="test/1", payload=payload)
        assert read_snapshot(path, kind="test/1") == payload
        assert not list(tmp_path.glob("*.tmp.*"))

    def test_truncated_file_is_corruption(self, tmp_path):
        writer = SnapshotWriter(tmp_path)
        path = writer.write("state.json", kind="test/1", payload={"k": 1})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotCorruption):
            read_snapshot(path)

    def test_bit_flip_is_corruption(self, tmp_path):
        writer = SnapshotWriter(tmp_path)
        path = writer.write(
            "state.json", kind="test/1", payload={"value": 12345}
        )
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"12345")] = ord("9")
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruption, match="checksum"):
            read_snapshot(path)

    def test_missing_file_is_corruption(self, tmp_path):
        with pytest.raises(SnapshotCorruption):
            read_snapshot(tmp_path / "absent.json")

    def test_foreign_file_is_corruption(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"not": "a snapshot"}\n')
        with pytest.raises(SnapshotCorruption):
            read_snapshot(path)

    def test_wrong_kind_is_caller_bug(self, tmp_path):
        writer = SnapshotWriter(tmp_path)
        path = writer.write("state.json", kind="test/1", payload={})
        with pytest.raises(DurabilityError, match="kind"):
            read_snapshot(path, kind="other/1")

    def test_newer_version_refuses(self, tmp_path):
        data = snapshot_bytes("test/1", {}, version=99)
        path = tmp_path / "future.json"
        path.write_bytes(data)
        with pytest.raises(DurabilityError, match="newer"):
            read_snapshot(path)

    def test_crc_matches_manual_computation(self):
        data = snapshot_bytes("test/1", {"x": 1})
        header, body, footer, _ = data.split(b"\n")
        expected = zlib.crc32(header + b"\n" + body + b"\n")
        assert json.loads(footer)["crc32"] == expected

    def test_stale_tmp_sweep(self, tmp_path):
        (tmp_path / "state.json.tmp.123.1").write_text("half")
        (tmp_path / "state.json").write_text("keep")
        removed = clean_stale_tmp(tmp_path)
        assert [p.name for p in removed] == ["state.json.tmp.123.1"]
        assert (tmp_path / "state.json").exists()


class TestFileChaos:
    def test_schedule_is_deterministic(self):
        config = FileChaosConfig(
            seed=7, torn_rate=0.3, truncate_rate=0.2, stale_tmp_rate=0.1
        )
        first = [config.fault_for(i) for i in range(200)]
        second = [config.fault_for(i) for i in range(200)]
        assert first == second
        assert {"torn", "truncate", "stale-tmp"} <= {
            fault for fault in first if fault
        }

    def test_rates_must_fit(self):
        with pytest.raises(Exception):
            FileChaosConfig(seed=1, torn_rate=0.9, truncate_rate=0.3)

    def test_chaos_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_FILE_SEED", raising=False)
        assert file_chaos_from_env() is None
        monkeypatch.setenv("REPRO_CHAOS_FILE_SEED", "7")
        monkeypatch.setenv("REPRO_CHAOS_FILE_RATES", "0.3,0.2,0.1")
        chaos = file_chaos_from_env()
        assert chaos.config == FileChaosConfig(
            seed=7, torn_rate=0.3, truncate_rate=0.2, stale_tmp_rate=0.1
        )
        monkeypatch.setenv("REPRO_CHAOS_FILE_RATES", "0.3,oops")
        with pytest.raises(DurabilityError, match="REPRO_CHAOS_FILE_RATES"):
            file_chaos_from_env()
        monkeypatch.setenv("REPRO_CHAOS_FILE_SEED", "seven")
        with pytest.raises(DurabilityError, match="REPRO_CHAOS_FILE_SEED"):
            file_chaos_from_env()

    def test_injected_faults_damage_snapshots(self, tmp_path):
        chaos = FileChaos(
            FileChaosConfig(seed=3, torn_rate=1.0)
        )
        writer = SnapshotWriter(tmp_path, chaos=chaos)
        path = writer.write("state.json", kind="test/1", payload={"k": 1})
        assert chaos.injected["torn"] == 1
        with pytest.raises(SnapshotCorruption):
            read_snapshot(path)


# ---------------------------------------------------------------------------
# The checkpointer
# ---------------------------------------------------------------------------


class TestStreamCheckpointer:
    def test_fresh_directory_recovers_none(self, tmp_path):
        ckpt = StreamCheckpointer(tmp_path, kind="t/1")
        assert ckpt.recover() is None
        assert ckpt.next_index == 0
        ckpt.close()

    def test_wal_replay_without_snapshot(self, tmp_path):
        ckpt = StreamCheckpointer(tmp_path, kind="t/1")
        ckpt.recover()
        for value in range(5):
            ckpt.append({"v": value})
        ckpt.close()
        again = StreamCheckpointer(tmp_path, kind="t/1")
        recovered = again.recover()
        assert recovered is not None
        assert recovered.state is None
        assert recovered.records_consumed == 0
        assert [r["v"] for r in recovered.tail] == [0, 1, 2, 3, 4]
        again.close()

    def test_snapshot_then_tail(self, tmp_path):
        ckpt = StreamCheckpointer(tmp_path, kind="t/1")
        ckpt.recover()
        for value in range(4):
            ckpt.append(value)
        ckpt.snapshot({"sum": 6})
        ckpt.append(4)
        ckpt.append(5)
        ckpt.close()
        again = StreamCheckpointer(tmp_path, kind="t/1")
        recovered = again.recover()
        assert recovered.state == {"sum": 6}
        assert recovered.records_consumed == 4
        assert recovered.tail == [4, 5]
        assert again.next_index == 6
        again.close()

    def test_torn_wal_tail_is_truncated(self, tmp_path):
        ckpt = StreamCheckpointer(tmp_path, kind="t/1")
        ckpt.recover()
        for value in range(3):
            ckpt.append(value)
        ckpt.close()
        (segment,) = tmp_path.glob("wal-*.jsonl")
        with segment.open("ab") as handle:
            handle.write(b'{"i": 3, "r"')  # the kill landed mid-write
        again = StreamCheckpointer(tmp_path, kind="t/1")
        recovered = again.recover()
        assert recovered.tail == [0, 1, 2]
        assert recovered.torn_wal_records == 1
        # The truncation is physical: appending works cleanly after.
        assert again.append("next") == 3
        again.close()

    def test_corrupt_snapshot_falls_back(self, tmp_path):
        ckpt = StreamCheckpointer(tmp_path, kind="t/1")
        ckpt.recover()
        for value in range(4):
            ckpt.append(value)
        ckpt.snapshot({"upto": 4})
        for value in range(4, 8):
            ckpt.append(value)
        ckpt.snapshot({"upto": 8})
        ckpt.append(8)
        ckpt.close()
        # Damage the newest snapshot: recovery steps down a rung and
        # replays a longer tail from the older one.
        newest = sorted(tmp_path.glob("snapshot-*.json"))[-1]
        newest.write_bytes(newest.read_bytes()[:40])
        again = StreamCheckpointer(tmp_path, kind="t/1")
        recovered = again.recover()
        assert recovered.state == {"upto": 4}
        assert recovered.records_consumed == 4
        assert recovered.tail == [4, 5, 6, 7, 8]
        assert recovered.snapshots_skipped == 1
        again.close()

    def test_all_snapshots_corrupt_full_replay(self, tmp_path):
        """Every snapshot publish torn at write time: retention sees the
        damage and keeps the whole WAL, so recovery replays from 0."""
        chaos = FileChaos(FileChaosConfig(seed=1, torn_rate=1.0))
        ckpt = StreamCheckpointer(tmp_path, kind="t/1", keep=2, chaos=chaos)
        ckpt.recover()
        ckpt.append("a")
        ckpt.snapshot({"n": 1})
        ckpt.append("b")
        ckpt.snapshot({"n": 2})
        ckpt.append("c")
        ckpt.close()
        assert chaos.injected["torn"] == 2
        again = StreamCheckpointer(tmp_path, kind="t/1")
        recovered = again.recover()
        assert recovered.state is None
        assert recovered.records_consumed == 0
        assert recovered.tail == ["a", "b", "c"]
        assert recovered.snapshots_skipped == 2
        again.close()

    def test_tampered_after_prune_refuses(self, tmp_path):
        """Snapshots valid at prune time but destroyed afterwards leave
        nothing exact to resume from — the refusal is loud, not a
        silently-wrong restart from scratch."""
        ckpt = StreamCheckpointer(tmp_path, kind="t/1", keep=1)
        ckpt.recover()
        ckpt.append("a")
        ckpt.snapshot({"n": 1})
        ckpt.append("b")
        ckpt.snapshot({"n": 2})
        ckpt.close()
        for path in tmp_path.glob("snapshot-*.json"):
            path.write_bytes(b"garbage\n")
        again = StreamCheckpointer(tmp_path, kind="t/1")
        with pytest.raises(DurabilityError, match="no snapshot validates"):
            again.recover()

    def test_retention_prunes_but_keeps_recoverable(self, tmp_path):
        ckpt = StreamCheckpointer(tmp_path, kind="t/1", keep=2)
        ckpt.recover()
        for round_number in range(6):
            ckpt.append(round_number)
            ckpt.snapshot({"round": round_number})
        snapshots = sorted(tmp_path.glob("snapshot-*.json"))
        assert len(snapshots) == 2
        ckpt.close()
        again = StreamCheckpointer(tmp_path, kind="t/1")
        recovered = again.recover()
        assert recovered.state == {"round": 5}
        assert recovered.tail == []
        again.close()

    def test_wrong_kind_refuses(self, tmp_path):
        ckpt = StreamCheckpointer(tmp_path, kind="t/1")
        ckpt.recover()
        ckpt.append("x")
        ckpt.snapshot({"n": 1})
        ckpt.close()
        other = StreamCheckpointer(tmp_path, kind="other/1")
        with pytest.raises(DurabilityError):
            other.recover()

    def test_wal_gap_refuses(self, tmp_path):
        ckpt = StreamCheckpointer(tmp_path, kind="t/1")
        ckpt.recover()
        for value in range(3):
            ckpt.append(value)
        ckpt.close()
        (segment,) = tmp_path.glob("wal-*.jsonl")
        lines = segment.read_text().splitlines()
        segment.write_text(lines[0] + "\n" + lines[2] + "\n")
        again = StreamCheckpointer(tmp_path, kind="t/1")
        with pytest.raises(DurabilityError, match="gap"):
            again.recover()

    def test_stale_tmp_swept_at_recovery(self, tmp_path):
        ckpt = StreamCheckpointer(tmp_path, kind="t/1")
        ckpt.recover()
        ckpt.append("x")
        ckpt.close()
        (tmp_path / "snapshot-000000000001.json.tmp.9.1").write_text("h")
        again = StreamCheckpointer(tmp_path, kind="t/1")
        recovered = again.recover()
        assert recovered.stale_tmp_removed == 1
        assert not list(tmp_path.glob("*.tmp.*"))
        again.close()


# ---------------------------------------------------------------------------
# The durable sink
# ---------------------------------------------------------------------------


class TestDurableSink:
    def test_truncates_torn_tail_and_suppresses(self, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text('{"index": 0}\n{"index": 1}\n{"ind')
        sink = DurableSink(out)
        assert sink.emitted == 2
        assert sink.truncated == len('{"ind')
        assert sink.emit(0, '{"index": 0}') is False  # already durable
        assert sink.emit(1, '{"index": 1}') is False
        assert sink.emit(2, '{"index": 2}') is True
        sink.close()
        assert out.read_text().splitlines() == [
            '{"index": 0}', '{"index": 1}', '{"index": 2}',
        ]

    def test_gap_refuses_loudly(self, tmp_path):
        sink = DurableSink(tmp_path / "out.jsonl")
        with pytest.raises(DurabilityError, match="disagree"):
            sink.emit(3, "{}")
        sink.close()


# ---------------------------------------------------------------------------
# Kill/resume equivalence — the headline guarantee
# ---------------------------------------------------------------------------


class TestKillResumeEquivalence:
    @pytest.mark.parametrize("strategy", ["decrement", "ring"])
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_twenty_seed_matrix(self, tmp_path, strategy, geometry):
        """SIGKILL anywhere + --resume == uninterrupted, byte for byte.

        Chaos injection damages a fraction of snapshot publishes along
        the way, so many resumes exercise the corruption fallback
        ladder, not just the happy path.
        """
        period, window, slide = geometry
        for seed in range(20):
            records = random_records(seed)
            reference = reference_lines(
                records, period, window, slide, strategy
            )
            rng = random.Random(seed * 7919 + 17)
            kill_at = rng.randrange(8, len(records) - 4)
            base = tmp_path / f"{strategy}-{seed}"
            out = base / "out.jsonl"
            chaos_config = FileChaosConfig(
                seed=seed, torn_rate=0.3, truncate_rate=0.15,
                stale_tmp_rate=0.15,
            )
            first = DurableStream(
                base / "ckpt", period=period, window=window, slide=slide,
                min_conf=0.6, strategy=strategy, checkpoint_every=5,
                out=out, chaos=FileChaos(chaos_config),
            )
            for record in records[:kill_at]:
                first.feed(record)
            hard_kill(first)
            second = DurableStream(
                base / "ckpt", period=period, window=window, slide=slide,
                min_conf=0.6, strategy=strategy, checkpoint_every=5,
                out=out, chaos=FileChaos(chaos_config),
            )
            assert second.resumed
            for record in records[second.records_logged:]:
                second.feed(record)
            second.finish()
            assert out.read_text().splitlines() == reference, (
                f"seed={seed} kill_at={kill_at} {strategy} {geometry}"
            )

    def test_double_kill(self, tmp_path):
        """Kill, resume, kill the resumed run, resume again: still exact."""
        period, window, slide = 3, 9, 3
        records = random_records(99, length=120)
        reference = reference_lines(
            records, period, window, slide, "decrement"
        )
        out = tmp_path / "out.jsonl"

        def make() -> DurableStream:
            return DurableStream(
                tmp_path / "ckpt", period=period, window=window,
                slide=slide, min_conf=0.6, strategy="decrement",
                checkpoint_every=6, out=out,
            )

        stream = make()
        for record in records[:40]:
            stream.feed(record)
        hard_kill(stream)
        stream = make()
        for record in records[stream.records_logged:80]:
            stream.feed(record)
        hard_kill(stream)
        stream = make()
        for record in records[stream.records_logged:]:
            stream.feed(record)
        stream.finish()
        assert out.read_text().splitlines() == reference

    def test_kill_between_snapshot_and_rotation_is_idempotent(
        self, tmp_path
    ):
        """Records below the snapshot watermark replay as no-ops."""
        records = random_records(5, length=30)
        reference = reference_lines(records, 3, 9, 3, "ring")
        out = tmp_path / "out.jsonl"
        stream = DurableStream(
            tmp_path / "ckpt", period=3, window=9, slide=3, min_conf=0.6,
            strategy="ring", checkpoint_every=1000, out=out,
        )
        for record in records[:20]:
            stream.feed(record)
        stream.checkpoint()  # snapshot now; WAL keeps the old records too
        hard_kill(stream)
        resumed = DurableStream(
            tmp_path / "ckpt", period=3, window=9, slide=3, min_conf=0.6,
            strategy="ring", checkpoint_every=1000, out=out,
        )
        assert resumed.recovery.replayed == 0
        for record in records[resumed.records_logged:]:
            resumed.feed(record)
        resumed.finish()
        assert out.read_text().splitlines() == reference

    def test_config_mismatch_refuses(self, tmp_path):
        stream = DurableStream(
            tmp_path / "ckpt", period=3, window=9, min_conf=0.6,
            checkpoint_every=2,
        )
        for record in random_records(1, length=12):
            stream.feed(record)
        stream.finish()
        with pytest.raises(DurabilityError, match="different"):
            DurableStream(
                tmp_path / "ckpt", period=3, window=12, min_conf=0.6,
            )

    def test_stdout_mode_reports_replayed_windows(self, tmp_path):
        records = random_records(2, length=30)
        stream = DurableStream(
            tmp_path / "ckpt", period=3, window=9, slide=3, min_conf=0.6,
            checkpoint_every=4,
        )
        live = []
        for record in records[:25]:
            live.extend(stream.feed(record))
        hard_kill(stream)
        resumed = DurableStream(
            tmp_path / "ckpt", period=3, window=9, slide=3, min_conf=0.6,
            checkpoint_every=4,
        )
        # Replayed windows are surfaced (at-least-once without a sink).
        replayed = {w.index for w in resumed.replayed_windows}
        assert replayed <= {w.index for w in live}


# ---------------------------------------------------------------------------
# Out-of-order events across the kill point
# ---------------------------------------------------------------------------


def event_records(seed: int) -> list[list[object]]:
    """Timed event records, locally shuffled, with a few hopeless
    stragglers that must be quarantined identically on both runs."""
    rng = random.Random(seed)
    events = []
    for i in range(150):
        when = i * 1.0 + rng.uniform(0.0, 0.9)
        feature = ALPHABET[i % 3] if rng.random() < 0.7 else rng.choice(
            ALPHABET
        )
        events.append((when, feature))
    # Local shuffle within a bounded distance — within the lateness.
    for i in range(0, len(events) - 3, 3):
        chunk = events[i:i + 3]
        rng.shuffle(chunk)
        events[i:i + 3] = chunk
    # Hopeless stragglers: far older than the watermark allows.
    events.insert(60, (events[40][0] - 30.0, "z"))
    events.insert(120, (events[100][0] - 30.0, "z"))
    return [[when, [feature]] for when, feature in events]


class TestEventModeKillResume:
    @pytest.mark.parametrize("strategy", ["decrement", "ring"])
    def test_out_of_order_across_kill_point(self, tmp_path, strategy):
        for seed in (0, 3, 11):
            records = event_records(seed)
            # Uninterrupted reference via the plain buffer + engine.
            buffer = ArrivalBuffer(slot_width=1.0, lateness=4.0)
            miner = StreamingMiner(
                period=3, window=9, slide=3, min_conf=0.6,
                retirement=strategy,
            )
            reference = []
            for when, features in records:
                for feature in features:
                    buffer.add(when, feature)
                for window in miner.extend(buffer.drain()):
                    reference.append(json.dumps(window_to_dict(window)))
            for window in miner.extend(buffer.flush()):
                reference.append(json.dumps(window_to_dict(window)))
            ref_report = buffer.report.to_dict()

            base = tmp_path / f"{strategy}-{seed}"
            out = base / "out.jsonl"
            kill_at = 50 + seed * 13
            first = DurableStream(
                base / "ckpt", period=3, window=9, slide=3, min_conf=0.6,
                strategy=strategy, events=True, slot_width=1.0,
                lateness=4.0, checkpoint_every=7, out=out,
            )
            for record in records[:kill_at]:
                first.feed(record)
            hard_kill(first)
            second = DurableStream(
                base / "ckpt", period=3, window=9, slide=3, min_conf=0.6,
                strategy=strategy, events=True, slot_width=1.0,
                lateness=4.0, checkpoint_every=7, out=out,
            )
            assert second.resumed
            for record in records[second.records_logged:]:
                second.feed(record)
            second.finish()
            assert out.read_text().splitlines() == reference, (
                f"seed={seed} {strategy}"
            )
            # The quarantine report survives the kill exactly too.
            assert second.buffer.report.to_dict() == ref_report
