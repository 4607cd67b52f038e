"""The write-ahead log: framing, recovery, exactly-once, tooling.

The crash model throughout: a ``SIGKILL`` leaves the log either intact,
missing its buffered tail, or torn mid-frame.  Every test reduces one of
those states to "reopen and check the survivors form a batch-atomic
prefix" — the property the gateway's zero-producer-replay recovery
stands on.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import faults
from repro.cli import main as cli_main
from repro.persistence import (
    CheckpointCorruptError, CheckpointError, load_session_meta,
)
from repro.service.config import TenantConfig, WalConfig
from repro.service.gateway import Tenant
from repro.service.wal import (
    DedupIndex, WriteAheadLog, _encode_frame, inspect_wal, scan_segment,
)

from .conftest import CHAIN_DSL, chain_records


def _entries(n, start=0):
    return [{"e": {"src": f"s{start + i}", "dst": "d", "src_label": "A",
                   "dst_label": "B", "timestamp": float(start + i + 1)}}
            for i in range(n)]


def _segments(directory):
    return sorted(name for name in os.listdir(directory)
                  if name.startswith("wal-"))


# --------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------- #
class TestFraming:
    def test_scan_roundtrip(self, tmp_path):
        path = tmp_path / "seg.log"
        frames = [{"base": 1}, {"n": 2, "entries": _entries(2)},
                  {"n": 0, "entries": [], "rid": "r1", "invalid": 3}]
        with open(path, "wb") as handle:
            for frame in frames:
                handle.write(_encode_frame(frame))
        scan = scan_segment(str(path))
        assert scan["frames"] == frames
        assert scan["torn_bytes"] == 0
        assert scan["error"] is None

    def test_torn_tail_detected_not_fatal(self, tmp_path):
        path = tmp_path / "seg.log"
        good = _encode_frame({"base": 1}) \
            + _encode_frame({"n": 1, "entries": _entries(1)})
        with open(path, "wb") as handle:
            handle.write(good + _encode_frame(
                {"n": 1, "entries": _entries(1, 1)})[:-3])
        scan = scan_segment(str(path))
        assert len(scan["frames"]) == 2
        assert scan["good_bytes"] == len(good)
        assert scan["torn_bytes"] > 0
        assert scan["error"] is not None

    def test_bitflip_detected(self, tmp_path):
        path = tmp_path / "seg.log"
        blob = _encode_frame({"base": 1}) \
            + _encode_frame({"n": 1, "entries": _entries(1)})
        blob = blob[:len(blob) - 4] + b"\xff" + blob[len(blob) - 3:]
        with open(path, "wb") as handle:
            handle.write(blob)
        scan = scan_segment(str(path))
        assert len(scan["frames"]) == 1      # the header survived
        assert scan["error"] is not None


#: One CRC-clean frame per field that open, replay and the CLI read, with
#: that field of the wrong type: each is corruption at its offset.
HOSTILE_FIELDS = [
    ("base", {"base": "1"}),
    ("n", {"n": "x", "entries": []}),
    ("n-bool", {"n": True, "entries": _entries(1)}),
    ("n-negative", {"n": -1, "entries": []}),
    ("invalid", {"n": 0, "entries": [], "invalid": "3"}),
    ("skip", {"n": 1, "skip": ["0"], "invalid": 1, "body": [{}]}),
    ("rid", {"n": 0, "entries": [], "rid": 7}),
    ("entries", {"n": 1, "entries": {"e": _entries(1)[0]["e"]}}),
]


@pytest.mark.parametrize("frame", [frame for _, frame in HOSTILE_FIELDS],
                         ids=[name for name, _ in HOSTILE_FIELDS])
class TestHostileFrameFields:
    def test_a_final_segment_keeps_the_frames_before_it(
            self, tmp_path, capsys, frame):
        directory = str(tmp_path / "wal")
        wal = WriteAheadLog(directory)
        wal.append(_entries(2))
        wal.append(_entries(2, 2))
        wal.close()
        (name,) = _segments(directory)
        path = os.path.join(directory, name)
        with open(path, "ab") as handle:
            handle.write(_encode_frame(frame)
                         + _encode_frame({"n": 1, "entries": _entries(1, 4)}))
        scan = scan_segment(path)
        assert len(scan["frames"]) == 3
        assert scan["error"].startswith("frame field")
        report = inspect_wal(directory)
        assert (report["edges"], report["errors"]) == (4, [])
        assert cli_main(["wal", "verify", directory]) == 0
        capsys.readouterr()
        reopened = WriteAheadLog(directory)
        assert reopened.appended_lsn == 4
        assert reopened.truncated_bytes > 0
        assert [first for first, _ in reopened.replay(0)] == [1, 3]
        reopened.close()

    def test_an_interior_segment_drops_the_rest(self, tmp_path, capsys,
                                                frame):
        directory = str(tmp_path / "wal")
        wal = WriteAheadLog(directory, segment_bytes=1024)
        for i in range(40):
            wal.append(_entries(2, i * 2))
        wal.close()
        names = _segments(directory)
        assert len(names) >= 3
        first = os.path.join(directory, names[0])
        frames = scan_segment(first)["frames"]
        Path(first).write_bytes(b"".join(
            map(_encode_frame, [*frames[:2], frame, *frames[2:]])))
        assert "interior corruption" in inspect_wal(directory)["errors"][0]
        assert cli_main(["wal", "verify", directory]) == 1
        capsys.readouterr()
        reopened = WriteAheadLog(directory, segment_bytes=1024)
        assert _segments(directory) == names[:1]
        assert reopened.appended_lsn == 2
        assert [first for first, _ in reopened.replay(0)] == [1]
        reopened.close()


# --------------------------------------------------------------------- #
# The log itself
# --------------------------------------------------------------------- #
class TestWriteAheadLog:
    def test_append_sync_lsn_accounting(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        last, ticket = wal.append(_entries(3))
        assert (last, wal.appended_lsn) == (3, 3)
        assert wal.durable_lsn == 0
        wal.sync(ticket)
        assert wal.durable_lsn == 3
        last, ticket = wal.append(_entries(2, 3), rid="r9", invalid=1)
        assert last == 5
        wal.sync()                           # None = everything
        assert wal.durable_lsn == 5
        wal.close()

    def test_rid_only_frame_needs_sync_but_no_lsn(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        last, ticket = wal.append([], rid="all-invalid", invalid=4)
        assert last == 0                     # no edges, no LSN advance
        wal.sync(ticket)                     # still durably journaled
        frames = [frame for _, frame in wal.replay(0)]
        assert frames == [{"n": 0, "entries": [], "rid": "all-invalid",
                           "invalid": 4}]
        wal.close()

    def test_rotation_and_replay_continuity(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), segment_bytes=1024)
        total = 0
        for i in range(40):
            wal.append(_entries(2, total))
            total += 2
        wal.close()
        assert len(_segments(tmp_path / "wal")) > 1
        reopened = WriteAheadLog(str(tmp_path / "wal"), segment_bytes=1024)
        lsns = []
        for first, frame in reopened.replay(0):
            lsns.extend(range(first, first + frame["n"]))
        assert lsns == list(range(1, total + 1))
        reopened.close()

    def test_replay_after_lsn_skips_covered_batches(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        for i in range(5):
            wal.append(_entries(2, i * 2))
        wal.sync()
        got = [(first, frame["n"]) for first, frame in wal.replay(6)]
        assert got == [(7, 2), (9, 2)]
        # A cut inside a batch re-yields the whole frame: the caller
        # filters per-edge (batch atomicity, not per-edge addressing).
        got = [first for first, _ in wal.replay(5)]
        assert got == [5, 7, 9]
        wal.close()

    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        wal.append(_entries(2))
        wal.append(_entries(2, 2))
        wal.close()
        (path,) = [os.path.join(tmp_path / "wal", name)
                   for name in _segments(tmp_path / "wal")]
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 5)        # tear the last frame
        reopened = WriteAheadLog(str(tmp_path / "wal"))
        assert reopened.appended_lsn == 2
        assert reopened.truncated_bytes > 0
        lsns = [first for first, _ in reopened.replay(0)]
        assert lsns == [1]
        # The log keeps going where the survivors end.
        last, ticket = reopened.append(_entries(2, 2))
        assert last == 4
        reopened.sync(ticket)
        reopened.close()

    def test_interior_corruption_drops_later_segments(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), segment_bytes=1024)
        total = 0
        for i in range(40):
            wal.append(_entries(2, total))
            total += 2
        wal.close()
        names = _segments(tmp_path / "wal")
        assert len(names) >= 3
        first_seg = os.path.join(tmp_path / "wal", names[0])
        data = bytearray(Path(first_seg).read_bytes())
        data[len(data) // 2] ^= 0xFF
        Path(first_seg).write_bytes(bytes(data))
        reopened = WriteAheadLog(str(tmp_path / "wal"), segment_bytes=1024)
        # Only an unbroken prefix of segment 1 survives; everything
        # after the damage is gone (a hole would corrupt replay order).
        assert len(_segments(tmp_path / "wal")) == 1
        assert reopened.corrupt_dropped_frames > 0
        lsns = []
        for first, frame in reopened.replay(0):
            lsns.extend(range(first, first + frame["n"]))
        assert lsns == list(range(1, reopened.appended_lsn + 1))
        assert reopened.appended_lsn < total
        reopened.close()

    def test_reclaim_spares_active_and_uncovered(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), segment_bytes=1024)
        total = 0
        for i in range(40):
            wal.append(_entries(2, total))
            total += 2
        before = len(_segments(tmp_path / "wal"))
        assert before >= 3
        assert wal.reclaim(0) == 0
        removed = wal.reclaim(wal.appended_lsn)
        assert removed > 0
        after = _segments(tmp_path / "wal")
        assert len(after) == before - removed
        # Replay past a reclaimed prefix still yields the survivors.
        survivors = [first for first, _ in wal.replay(0)]
        assert survivors and survivors[0] > 1
        wal.close()

    def test_abort_then_reopen_is_a_prefix(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        wal.append(_entries(2))
        wal.sync()
        wal.append(_entries(2, 2))
        wal.abort()                          # no fsync for the tail
        reopened = WriteAheadLog(str(tmp_path / "wal"))
        lsns = []
        for first, frame in reopened.replay(0):
            lsns.extend(range(first, first + frame["n"]))
        # Whatever survived is a contiguous prefix that includes every
        # synced edge.
        assert lsns == list(range(1, len(lsns) + 1))
        assert len(lsns) >= 2
        reopened.close()

    def test_frame_boundary_cut_of_an_interior_segment_is_a_hole(
            self, tmp_path, capsys):
        """A non-final segment cut exactly between two frames still
        passes every CRC, so only the next segment's base LSN shows the
        loss: recovery keeps the contiguous prefix, drops the rest and
        says so, and ``wal verify`` refuses the log beforehand."""
        def build(directory):
            wal = WriteAheadLog(directory, segment_bytes=1024)
            total = 0
            for _ in range(40):
                wal.append(_entries(2, total))
                total += 2
            wal.close()
            return _segments(directory)

        names = build(str(tmp_path / "probe"))
        assert len(names) >= 3
        for victim in names[:-1]:
            directory = str(tmp_path / victim)
            assert build(directory) == names
            path = os.path.join(directory, victim)
            frames = scan_segment(path)["frames"]
            # Keep the header and every data frame but the last two.
            keep = sum(len(_encode_frame(frame)) for frame in frames[:-2])
            assert 0 < keep < os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(keep)
            assert scan_segment(path)["error"] is None      # CRCs all fine
            assert cli_main(["wal", "verify", directory]) == 1
            assert "leaves a hole" in capsys.readouterr().out
            reopened = WriteAheadLog(directory, segment_bytes=1024)
            assert "leaves a hole" in capsys.readouterr().err
            assert reopened.corrupt_dropped_frames > 0
            lsns = []
            for first, frame in reopened.replay(0):
                lsns.extend(range(first, first + frame["n"]))
            assert lsns == list(range(1, reopened.appended_lsn + 1))
            assert _segments(directory) == names[:names.index(victim) + 1]
            # The log keeps going where the survivors end.
            last, _ = reopened.append(_entries(1, len(lsns)))
            assert last == len(lsns) + 1
            reopened.close()

    @settings(max_examples=25, deadline=None)
    @given(batches=st.lists(st.integers(min_value=1, max_value=4),
                            min_size=1, max_size=8),
           cut=st.integers(min_value=0, max_value=10_000),
           victim=st.integers(min_value=0, max_value=7))
    # The first segment cut at the end of its third data frame: every CRC
    # checks, and the second segment's base used to be taken on trust.
    @example(batches=[3, 4, 4, 4, 1], cut=10_000, victim=0)
    def test_recovery_yields_batch_atomic_prefix(self, tmp_path_factory,
                                                 batches, cut, victim):
        """Tear the log at *any* byte: reopening must yield a prefix of
        whole batches — never a partial batch, never a hole."""
        directory = str(tmp_path_factory.mktemp("wal"))
        wal = WriteAheadLog(directory, segment_bytes=1024)
        sizes = []
        total = 0
        for size in batches:
            wal.append(_entries(size, total))
            sizes.append(size)
            total += size
        wal.close()
        names = _segments(directory)
        victim = os.path.join(directory, names[victim % len(names)])
        size = os.path.getsize(victim)
        with open(victim, "r+b") as handle:
            handle.truncate(min(cut % (size + 1), size))
        reopened = WriteAheadLog(directory, segment_bytes=1024)
        recovered = []
        for first, frame in reopened.replay(0):
            assert first == len(recovered) + 1      # contiguous
            recovered.extend(
                item["e"]["src"] for item in frame["entries"])
        # A prefix of the original admission order, on batch boundaries.
        expected = [f"s{i}" for i in range(total)]
        assert recovered == expected[:len(recovered)]
        boundaries = {0}
        acc = 0
        for size in sizes:
            acc += size
            boundaries.add(acc)
        assert len(recovered) in boundaries
        reopened.close()

    def test_mid_fsync_crash_is_retry_safe(self, tmp_path):
        """An fsync that dies (EIO) leaves the ticket unsynced; a retry
        completes the same commit without duplicating frames."""
        wal = WriteAheadLog(str(tmp_path / "wal"))
        plan = faults.FaultPlan([faults.FaultSpec(
            site="wal.fsync", kind="io_error", at=1)])
        with faults.active(plan):
            last, ticket = wal.append(_entries(2))
            with pytest.raises(OSError):
                wal.sync(ticket)
            assert wal.durable_lsn == 0
            wal.sync(ticket)                 # retry: same commit
        assert wal.durable_lsn == 2
        lsns = [first for first, _ in wal.replay(0)]
        assert lsns == [1]
        wal.close()

    @staticmethod
    def _sync_in_delay(wal, ticket, plan):
        """Start ``wal.sync(ticket)`` on a thread; return it once the sync
        sits inside ``plan``'s ``wal.fsync`` delay."""
        syncer = threading.Thread(target=wal.sync, args=(ticket,))
        syncer.start()
        while plan.report()["wal.fsync"]["fires"] < 1:
            time.sleep(0.001)
        return syncer

    def test_appends_and_counters_do_not_wait_for_an_fsync(self, tmp_path):
        """Only the flush holds the append lock: while one sync sits in
        its fsync, another thread appends and reads the counters."""
        wal = WriteAheadLog(str(tmp_path / "wal"))
        _, ticket = wal.append(_entries(1))
        plan = faults.FaultPlan([faults.FaultSpec(
            site="wal.fsync", kind="delay", at=1, delay=0.5)])
        with faults.active(plan):
            started = time.monotonic()
            syncer = self._sync_in_delay(wal, ticket, plan)
            wal.append(_entries(1, 1))
            counters = wal.counters()
            elapsed = time.monotonic() - started
            syncer.join()
        assert elapsed < 0.4
        assert counters["appended_lsn"] == 2 and counters["durable_lsn"] == 0
        assert wal.durable_lsn == 1     # the sync covers what it flushed
        wal.sync()
        assert wal.durable_lsn == 2
        wal.close()

    def test_rotation_waits_for_the_fsync_of_the_handle_it_closes(
            self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "wal"), segment_bytes=1024)
        while wal._active_bytes < wal.segment_bytes:
            _, ticket = wal.append(_entries(2))
        plan = faults.FaultPlan([faults.FaultSpec(
            site="wal.fsync", kind="delay", at=1, delay=0.3)])
        with faults.active(plan):
            started = time.monotonic()
            syncer = self._sync_in_delay(wal, ticket, plan)
            wal.append(_entries(2, 100))        # rotates first
            elapsed = time.monotonic() - started
            syncer.join()
        assert elapsed >= 0.25
        assert len(_segments(tmp_path / "wal")) == 2
        assert wal.durable_lsn == wal.appended_lsn - 2
        wal.close()
        reopened = WriteAheadLog(str(tmp_path / "wal"))
        assert reopened.appended_lsn == wal.appended_lsn
        reopened.close()


# --------------------------------------------------------------------- #
# Dedup window
# --------------------------------------------------------------------- #
class TestDedupIndex:
    def test_bounded_fifo(self):
        index = DedupIndex(capacity=2)
        for i in range(3):
            index.put(f"r{i}", {"accepted": i})
        assert index.get("r0") is None       # displaced, oldest first
        assert index.get("r2") == {"accepted": 2}
        assert len(index) == 2

    def test_snapshot_restore_roundtrip(self):
        index = DedupIndex(capacity=8)
        index.put("a", {"accepted": 1})
        index.put("b", {"accepted": 2})
        other = DedupIndex(capacity=8)
        other.put("stale", {"accepted": 0})
        other.restore(index.snapshot())
        assert other.get("stale") is None    # restore replaces
        assert other.get("b") == {"accepted": 2}
        other.restore(None)                  # pre-WAL checkpoint meta
        assert len(other) == 0


# --------------------------------------------------------------------- #
# Checkpoint container corruption (satellite: typed errors)
# --------------------------------------------------------------------- #
class TestCheckpointCorruption:
    def _write_checkpoint(self, tmp_path):
        from repro.api import Session
        from repro.persistence import save_session

        session = Session(window=6.0)
        session.register("chain", CHAIN_DSL)
        path = str(tmp_path / "checkpoint.pkl")
        save_session(session, path, meta={"edges_offered": 0})
        return path

    def test_truncation_raises_typed_error(self, tmp_path):
        path = self._write_checkpoint(tmp_path)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointCorruptError) as info:
            load_session_meta(path)
        assert info.value.path == path
        assert "truncated" in info.value.reason

    def test_bitflip_raises_typed_error(self, tmp_path):
        path = self._write_checkpoint(tmp_path)
        data = bytearray(Path(path).read_bytes())
        data[-10] ^= 0xFF
        Path(path).write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError) as info:
            load_session_meta(path)
        assert "CRC" in info.value.reason

    def test_garbage_pickle_raises_typed_error(self, tmp_path):
        import zlib
        from repro.persistence import _FRAME_HEADER, _FRAME_MAGIC
        path = str(tmp_path / "checkpoint.pkl")
        garbage = b"not a pickle at all"
        Path(path).write_bytes(_FRAME_MAGIC + _FRAME_HEADER.pack(
            zlib.crc32(garbage), len(garbage)) + garbage)
        with pytest.raises(CheckpointCorruptError) as info:
            load_session_meta(path)
        assert "unreadable pickle" in info.value.reason
        # Without the frame the bytes never reach pickle at all; the
        # gateway's chain walk catches this base-class error the same way.
        Path(path).write_bytes(garbage)
        with pytest.raises(CheckpointError, match="not a timingsubg"):
            load_session_meta(path)

    def test_typed_error_is_a_checkpoint_error(self):
        # The gateway's chain walk catches the base class.
        assert issubclass(CheckpointCorruptError, CheckpointError)


# --------------------------------------------------------------------- #
# Tenant-level recovery (the tentpole end to end)
# --------------------------------------------------------------------- #
def _wal_tenant_config(**wal_overrides):
    return TenantConfig(
        name="t0", queries={"chain": CHAIN_DSL},
        wal=WalConfig(**wal_overrides)).validate()


def _drain(tenant, count, timeout=5.0):
    deadline = time.monotonic() + timeout
    while tenant.edges_offered < count and time.monotonic() < deadline:
        time.sleep(0.01)
    assert tenant.edges_offered >= count


class TestTenantRecovery:
    def test_unapplied_journal_entries_replay_exactly_once(self, tmp_path):
        config = TenantConfig(
            name="t0", queries={"chain": CHAIN_DSL},
            queue_capacity=4, wal=WalConfig()).validate()
        tenant = Tenant(config, str(tmp_path))
        # No worker: the batch is journaled and queued, never applied.
        ack = tenant.ingest_json(chain_records())
        assert ack["accepted"] == 4 and ack["durable"]
        assert tenant.queue.depth() == 4 and tenant.edges_offered == 0
        tenant.abort()

        # The queue died with the process; the WAL alone re-delivers,
        # each edge once.
        reborn = Tenant(config, str(tmp_path))
        assert reborn.replayed_edges == 4
        assert reborn.edges_offered == 4
        assert reborn.matches_delivered == 3
        reborn.abort()

    def test_sync_failure_fails_http_but_not_tailers(self, tmp_path):
        from repro.graph.edge import StreamEdge

        config = _wal_tenant_config()
        tenant = Tenant(config, str(tmp_path))
        # Four specs: one per retry attempt of the first HTTP sync plus
        # one for the tailer path (each sync retries up to 3 times).
        plan = faults.FaultPlan([
            faults.FaultSpec(site="wal.fsync", kind="io_error", every=1,
                             limit=6)])
        with faults.active(plan):
            with pytest.raises(OSError):
                tenant.ingest_json(chain_records()[:1],
                                   request_id="will-retry")
            assert tenant.wal_sync_errors == 1
            assert tenant.health.state == "degraded"
            # The tailer path swallows: the batch stays journaled and
            # buffered, the offset only moves via checkpoints.
            edge = StreamEdge("x1", "y1", src_label="A", dst_label="B",
                              timestamp=9.0)
            admitted = tenant.ingest_edges([edge], offset=("feed", 10))
            assert admitted == 1
            assert tenant.wal_sync_errors == 2
        # Post-fault, a retry of the HTTP batch dedups (the ack was
        # recorded with the journal entry, exactly-once holds).
        retry = tenant.ingest_json(chain_records()[:1],
                                   request_id="will-retry")
        assert retry["deduplicated"] is True
        tenant.start_worker()
        _drain(tenant, 2)
        tenant.abort()

    def test_deduplicated_retry_is_durable_before_it_says_so(self, tmp_path):
        """A batch whose fsync failed every retry is journaled, so its
        request id is in the dedup window; a retry answered from there
        claims ``durable`` only once the journal is on disk, and fails
        like the first attempt while the disk still does."""
        tenant = Tenant(_wal_tenant_config(), str(tmp_path))
        wal = tenant.wal
        # Six fires: every retry of the first attempt's sync and of the
        # first retry's.
        plan = faults.FaultPlan([
            faults.FaultSpec(site="wal.fsync", kind="io_error", every=1,
                             limit=6)])
        with faults.active(plan):
            for _attempt in range(2):
                with pytest.raises(OSError):
                    tenant.ingest_json(chain_records(), request_id="r1")
            assert (wal.durable_lsn, wal.appended_lsn, wal.fsyncs) \
                == (0, 4, 0)
        retry = tenant.ingest_json(chain_records(), request_id="r1")
        assert retry["deduplicated"] is True and retry["durable"] is True
        assert (wal.durable_lsn, wal.appended_lsn, wal.fsyncs) == (4, 4, 1)
        assert tenant.dedup_hits == 2 and wal.appends == 1
        tenant.abort()

    def test_non_wal_tenant_acks_keep_their_shape(self, tmp_path):
        config = TenantConfig(
            name="t0", queries={"chain": CHAIN_DSL}).validate()
        tenant = Tenant(config, str(tmp_path))
        ack = tenant.ingest_json(chain_records())
        assert ack == {"accepted": 4, "invalid": 0, "position": 4}
        assert tenant.wal is None
        tenant.start_worker()
        _drain(tenant, 4)
        tenant.abort()

    def test_empty_batch_costs_no_frame_and_no_fsync(self, tmp_path):
        """No edge and no request id is nothing to recover; a request id
        alone still is (a retry must find it after a crash)."""
        tenant = Tenant(_wal_tenant_config(), str(tmp_path))
        tenant.ingest_json(chain_records()[:1])
        wal = tenant.wal
        before = (wal.appends, wal.fsyncs)
        assert tenant.ingest_json([]) == {
            "accepted": 0, "invalid": 0, "position": 1, "durable": True}
        assert tenant.ingest_json([{"src": "a"}, 7]) == {
            "accepted": 0, "invalid": 2, "position": 1, "durable": True}
        assert (wal.appends, wal.fsyncs) == before
        assert tenant.ingest_json([], request_id="r") == {
            "accepted": 0, "invalid": 0, "position": 1, "durable": True}
        assert wal.appends == before[0] + 1 and wal.fsyncs > before[1]
        assert tenant.ingest_json([], request_id="r")["deduplicated"] is True
        tenant.abort()

    def test_status_exposes_wal_counters(self, tmp_path):
        config = _wal_tenant_config()
        tenant = Tenant(config, str(tmp_path))
        tenant.ingest_json(chain_records()[:1], request_id="r")
        status = tenant.status()
        wal = status["wal"]
        assert wal["appends"] == 1
        assert wal["fsyncs"] >= 1
        assert wal["durable_lsn"] == 1
        assert wal["dedup_window"] == 1
        assert status["checkpoint_fallbacks"] == 0
        assert status["dlq_replayed"] == 0
        tenant.abort()


# --------------------------------------------------------------------- #
# CLI tooling
# --------------------------------------------------------------------- #
class TestWalCli:
    def test_inspect_and_verify_clean(self, tmp_path, capsys):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        wal.append(_entries(3))
        wal.close()
        assert cli_main(["wal", "inspect", str(tmp_path / "wal")]) == 0
        out = capsys.readouterr().out
        assert "3 edge(s)" in out
        assert cli_main(["wal", "verify", str(tmp_path / "wal")]) == 0

    def test_verify_fails_on_interior_corruption(self, tmp_path, capsys):
        wal = WriteAheadLog(str(tmp_path / "wal"), segment_bytes=1024)
        for i in range(40):
            wal.append(_entries(2, i * 2))
        wal.close()
        names = _segments(tmp_path / "wal")
        victim = os.path.join(tmp_path / "wal", names[0])
        data = bytearray(Path(victim).read_bytes())
        data[len(data) // 2] ^= 0xFF
        Path(victim).write_bytes(bytes(data))
        assert cli_main(["wal", "verify", str(tmp_path / "wal")]) == 1
        assert "interior corruption" in capsys.readouterr().err

    def test_inspect_json(self, tmp_path, capsys):
        wal = WriteAheadLog(str(tmp_path / "wal"))
        wal.append(_entries(1))
        wal.close()
        assert cli_main(["wal", "inspect", str(tmp_path / "wal"),
                         "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["edges"] == 1
        assert inspect_wal(str(tmp_path / "wal"))["edges"] == 1


class TestDlqCli:
    def _dead_letter_file(self, tmp_path):
        path = tmp_path / "deadletter.jsonl"
        rows = [
            {"at": 1.0, "reason": "poison_edge",
             "payload": {"src": "a1", "dst": "b1", "src_label": "A",
                         "dst_label": "B", "timestamp": 1.0}},
            {"at": 2.0, "reason": "sink_write", "payload": {"m": 1},
             "error": "OSError(...)"},
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return str(path)

    def test_list_and_inspect(self, tmp_path, capsys):
        path = self._dead_letter_file(tmp_path)
        assert cli_main(["dlq", "list", path]) == 0
        out = capsys.readouterr().out
        assert "poison_edge: 1" in out and "sink_write: 1" in out
        assert cli_main(["dlq", "inspect", path,
                         "--reason", "poison_edge"]) == 0
        out = capsys.readouterr().out
        assert "a1" in out and "sink_write" not in out

    def test_torn_last_line_is_skipped_and_counted(self, tmp_path, capsys):
        """A crash mid-write leaves a torn final line: ``repro dlq`` reads
        the file with the queue's own reader, which skips it and counts
        it."""
        path = self._dead_letter_file(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"at": 3.0, "reason": "poison_e')
        assert cli_main(["dlq", "list", path]) == 0
        captured = capsys.readouterr()
        assert "2 dead letter(s)" in captured.out
        assert captured.err.count("warning:") == 1
        assert "1 line(s)" in captured.err

    def test_replay_dry_run(self, tmp_path, capsys):
        path = self._dead_letter_file(tmp_path)
        assert cli_main(["dlq", "replay", path, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would POST 1 edge(s)" in out

    def test_replay_against_live_gateway(self, tmp_path, capsys):
        import urllib.request

        from repro.service import ServerConfig, ServiceGateway

        path = self._dead_letter_file(tmp_path)
        tenant = TenantConfig(name="t0", queries={"chain": CHAIN_DSL},
                              wal=WalConfig())
        config = ServerConfig(state_dir=str(tmp_path / "state"), port=0,
                              checkpoint_interval=0.0, tenants=(tenant,))
        gateway = ServiceGateway(config).start_background()
        try:
            url = f"http://127.0.0.1:{gateway.port}"
            assert cli_main(["dlq", "replay", path, "--url", url]) == 0
            out = capsys.readouterr().out
            assert "replayed 1 edge(s)" in out
            live = gateway.tenant("t0")
            assert live.dlq_replayed == 1
            # Same file, same ids: a re-run dedups instead of doubling.
            assert cli_main(["dlq", "replay", path, "--url", url]) == 0
            assert "deduplicated" in capsys.readouterr().out
            assert live.dlq_replayed == 1
            with urllib.request.urlopen(url + "/stats", timeout=5) as resp:
                stats = json.loads(resp.read())
            assert stats["tenants"]["t0"]["wal"]["dedup_hits"] == 1
        finally:
            gateway.shutdown()
