"""``body`` journal frames: the request text is the frame.

Three properties.  A tenant that crashed and replayed its journal is
indistinguishable from one that never stopped, whichever frame shape
each batch took.  The two shapes share one LSN numbering, so a journal
holding both replays in order.  And a batch whose frame recovery would
refuse is refused at the door, not acked and then thrown away.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.service import ServiceGateway
from repro.service import wal as wal_module
from repro.service.config import TenantConfig, WalConfig
from repro.service.gateway import Tenant
from repro.service.http import ServiceHTTPServer, _parse_edge_body
from repro.service.wal import WalFrameTooLarge, WriteAheadLog, scan_segment

from .conftest import CHAIN_DSL, WSClient, chain_config, chain_records
from .test_http import post


def _record(src, dst, ts, src_label, dst_label, **extra):
    return {"src": src, "dst": dst, "timestamp": ts,
            "src_label": src_label, "dst_label": dst_label, **extra}


#: Ten arrivals over CHAIN_DSL (A -> B -> C inside 6 time units).
STREAM = [
    _record("a1", "b1", 1.0, "A", "B"), _record("b1", "c1", 2.0, "B", "C"),
    _record("a2", "b1", 3.0, "A", "B"), _record("b1", "c2", 4.0, "B", "C"),
    _record("a3", "b2", 5.0, "A", "B"), _record("b2", "c3", 6.0, "B", "C"),
    _record("a4", "b2", 7.0, "A", "B"), _record("b1", "c4", 8.0, "B", "C"),
    _record("a5", "b1", 9.0, "A", "B"), _record("b1", "c5", 10.0, "B", "C"),
]
JUNK = [7, {"src": "a"}, "edge", None, {**STREAM[0], "weight": 1}]


def _dumps(payload, **kwargs) -> bytes:
    return json.dumps(payload, **kwargs).encode()


def _bare_arrays():
    return [_dumps(STREAM[i:i + 3]) for i in range(0, 10, 3)]


def _single_objects():
    return [_dumps(record) for record in STREAM]


def _envelopes():
    return [_dumps({"edges": STREAM[i:i + 4], "request_id": f"r{i}"})
            for i in range(0, 10, 4)]


def _junk_interleaved():
    bodies = []
    for i in range(0, 10, 2):
        records = [JUNK[i % 5], STREAM[i], JUNK[(i + 1) % 5], STREAM[i + 1]]
        bodies.append(_dumps({"edges": records, "request_id": f"j{i}"}
                             if i % 4 else records))
    bodies.append(_dumps({"edges": JUNK, "request_id": "all-junk"}))
    return bodies


def _dlq_replays():
    return [_dumps({"edges": STREAM[i:i + 5], "dlq_replay": True,
                    "request_id": f"d{i}"}) for i in (0, 5)]


def _non_ascii():
    tagged = [dict(record, label="café") for record in STREAM]
    return [_dumps(tagged[i:i + 5], ensure_ascii=False) for i in (0, 5)]


def _utf16():
    return [json.dumps(STREAM[i:i + 5]).encode("utf-16-le") for i in (0, 5)]


def _unstamped():
    bare = [{k: v for k, v in record.items() if k != "timestamp"}
            for record in STREAM]
    return [_dumps({"edges": bare[i:i + 5], "request_id": f"s{i}"})
            for i in (0, 5)]


#: name -> (bodies, tenant overrides, frame shape the journal must hold)
CASES = {
    "bare_arrays": (_bare_arrays, {}, "body"),
    "single_objects": (_single_objects, {}, "body"),
    "envelopes_with_request_id": (_envelopes, {}, "body"),
    "invalid_interleaved": (_junk_interleaved, {}, "body"),
    "dlq_replay": (_dlq_replays, {}, "body"),
    "non_ascii_falls_back": (_non_ascii, {}, "entries"),
    "utf16_falls_back": (_utf16, {}, "entries"),
    "server_timestamps_fall_back": (
        _unstamped, {"timestamps": "server"}, "entries"),
}


def _config(**overrides) -> TenantConfig:
    return TenantConfig(name="t0", queries={"chain": CHAIN_DSL},
                        wal=WalConfig(), **overrides).validate()


def front_door(tenant: Tenant, body: bytes) -> dict:
    """What ``POST /ingest`` does with a request body."""
    records, request_id, dlq_replay = _parse_edge_body(body)
    return tenant.ingest_json(records, request_id=request_id,
                              dlq_replay=dlq_replay, body=body)


def _settle(tenant: Tenant, timeout: float = 5.0) -> None:
    """Wait until the worker has applied everything admitted since boot
    (``replayed_edges`` were applied before the queue existed)."""
    deadline = time.monotonic() + timeout
    while tenant.edges_offered - tenant.replayed_edges \
            < tenant.queue.enqueued:
        assert time.monotonic() < deadline, "worker never caught up"
        time.sleep(0.005)


def _match_log(state_dir) -> list:
    match_dir = os.path.join(str(state_dir), "t0", "matches")
    lines = []
    for name in sorted(os.listdir(match_dir)):
        with open(os.path.join(match_dir, name), encoding="utf-8") as fh:
            lines.extend(fh.read().splitlines())
    return lines


def _sans_position(ack: dict) -> dict:
    """``position`` counts admissions since boot (it restarts with the
    queue), so it is the one ack field a crash may change."""
    return {key: value for key, value in ack.items() if key != "position"}


def _observe(tenant: Tenant, state_dir) -> dict:
    """Everything a crash must not change."""
    _settle(tenant)
    status = tenant.status()
    tenant.close_sinks()
    seen = {
        "match_log": _match_log(state_dir),
        "edges_offered": tenant.edges_offered,
        "wal_applied_lsn": tenant.wal_applied_lsn,
        "dedup": [[rid, _sans_position(ack)]
                  for rid, ack in tenant.dedup.snapshot()],
        "server_clock": tenant._server_clock,
        "stats": {key: status[key] for key in (
            "edges_offered", "edges_pushed", "rejected_nonmonotonic",
            "rejected_duplicate", "matches_delivered", "worker_errors")},
        "wal": {key: status["wal"][key] for key in (
            "appended_lsn", "durable_lsn", "applied_lsn", "dedup_window",
            "truncated_bytes", "corrupt_dropped_frames")},
    }
    tenant.abort()
    return seen


def _run(state_dir, config, bodies, crash_after=None, worker=True) -> dict:
    tenant = Tenant(config, str(state_dir))
    acks = []
    if crash_after is not None:
        if worker:
            tenant.start_worker()
        acks += [front_door(tenant, body) for body in bodies[:crash_after]]
        if worker:
            _settle(tenant)
        tenant.abort()
        bodies = bodies[crash_after:]
        tenant = Tenant(config, str(state_dir))
    tenant.start_worker()
    acks += [front_door(tenant, body) for body in bodies]
    seen = _observe(tenant, state_dir)
    seen["acks"] = [_sans_position(ack) for ack in acks]
    return seen


def _frame_shapes(state_dir) -> set:
    log = WriteAheadLog(os.path.join(str(state_dir), "t0", "wal"))
    try:
        return {"body" if "body" in frame else "entries"
                for _, frame in log.replay(0)}
    finally:
        log.close()


class TestRestoredEqualsUninterrupted:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("worker", [True, False],
                             ids=["applied-then-killed", "killed-unapplied"])
    def test_crash_midstream_changes_nothing(self, tmp_path, case, worker):
        make_bodies, overrides, shape = CASES[case]
        config, bodies = _config(**overrides), make_bodies()
        straight = _run(tmp_path / "straight", config, bodies)
        assert straight["match_log"], "the stream must produce matches"
        assert _frame_shapes(tmp_path / "straight") == {shape}
        crashed = _run(tmp_path / "crashed", config, bodies,
                       crash_after=len(bodies) // 2, worker=worker)
        assert crashed == straight

    def test_retry_after_the_crash_is_answered_from_the_journal(
            self, tmp_path):
        config, bodies = _config(), _junk_interleaved()
        tenant = Tenant(config, str(tmp_path))
        acks = [front_door(tenant, body) for body in bodies]
        tenant.abort()
        reborn = Tenant(config, str(tmp_path))
        for body, ack in zip(bodies, acks):
            if b"request_id" not in body:
                continue
            retry = front_door(reborn, body)
            assert retry.pop("deduplicated") is True
            assert retry == ack
        # Replay restored all ten; the retries admitted nothing new.
        assert reborn.edges_offered == 10 and reborn.queue.enqueued == 0
        reborn.abort()


class TestMixedJournal:
    def test_entries_then_body_frames_replay_in_lsn_order(self, tmp_path):
        """The first half is journaled the way every earlier build did
        (``ingest_json(records)``, no body), the second half spliced."""
        config = _config()
        straight = _run(tmp_path / "straight", config, _bare_arrays())

        tenant = Tenant(config, str(tmp_path / "mixed"))
        bodies = _bare_arrays()
        for body in bodies[:2]:
            tenant.ingest_json(json.loads(body))
        for body in bodies[2:]:
            front_door(tenant, body)
        frames = list(tenant.wal.replay(0))
        assert [lsn for lsn, _ in frames] == [1, 4, 7, 10]
        assert ["body" in frame for _, frame in frames] \
            == [False, False, True, True]
        tenant.abort()

        reborn = Tenant(config, str(tmp_path / "mixed"))
        assert reborn.replayed_edges == 10
        seen = _observe(reborn, tmp_path / "mixed")
        for key in ("match_log", "edges_offered", "wal_applied_lsn", "wal"):
            assert seen[key] == straight[key]

    def test_a_record_that_stopped_decoding_keeps_its_lsn(self, tmp_path):
        """Position 1 was valid when the frame was written (it is not in
        ``skip``) and is not now; position 2 was invalid then."""
        records = [STREAM[0], {**STREAM[1], "gone": 1}, 7, STREAM[2],
                   STREAM[3]]
        log = WriteAheadLog(os.path.join(str(tmp_path), "t0", "wal"))
        last, ticket = log.append_body(_dumps(records), 4, skip=[2])
        log.sync(ticket)
        log.close()
        assert last == 4

        tenant = Tenant(_config(), str(tmp_path))
        assert tenant.replayed_edges == 3
        assert tenant.edges_offered == 3
        assert tenant.wal_applied_lsn == 4      # STREAM[3] is LSN 4, not 3
        tenant.start_worker()
        ack = front_door(tenant, _dumps(STREAM[4:6]))
        assert ack["accepted"] == 2
        _settle(tenant)
        assert tenant.wal_applied_lsn == 6
        tenant.abort()

    def test_a_body_nested_past_the_stack_keeps_the_head(self, tmp_path):
        """CRC-clean, so authentic: not corruption, and nothing after it
        may be truncated away."""
        deep = b"[" * 5000 + b"]" * 5000
        log = WriteAheadLog(str(tmp_path / "wal"))
        log.append_body(_dumps(STREAM[:2]), 2)
        log.append_body(b'{"edges":[' + deep + b'],"request_id":"deep"}',
                        0, rid="deep", skip=[0])
        _, ticket = log.append_body(_dumps(STREAM[2:4]), 2)
        log.sync(ticket)
        log.close()

        reopened = WriteAheadLog(str(tmp_path / "wal"))
        assert reopened.appended_lsn == 4
        assert reopened.truncated_bytes == 0
        frames = [frame for _, frame in reopened.replay(0)]
        assert [frame["n"] for frame in frames] == [2, 0, 2]
        assert frames[1] == {"n": 0, "rid": "deep", "invalid": 1,
                             "skip": [0]}
        reopened.close()


class TestOversizedFrameIsRefused:
    """``scan_segment`` reads a frame longer than ``_MAX_PAYLOAD`` as
    corruption and recovery truncates the log there, so an append must
    never write one."""

    LIMIT = 2000

    def test_every_acked_append_survives_reopen(self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "_MAX_PAYLOAD", self.LIMIT)
        log = WriteAheadLog(str(tmp_path))
        small = [{"e": record} for record in STREAM[:1]]
        large = [{"e": record} for record in STREAM] * 4
        assert log.append(small)[0] == 1
        before = log.counters()
        with pytest.raises(WalFrameTooLarge):
            log.append(large)
        with pytest.raises(WalFrameTooLarge):
            log.append_body(_dumps(STREAM * 4), 40)
        assert log.counters() == before         # refused before mutation
        last, ticket = log.append_body(_dumps(STREAM[1:2]), 1)
        log.sync(ticket)
        log.close()
        assert last == 2

        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.appended_lsn == 2
        assert reopened.truncated_bytes == 0
        reopened.close()

    @pytest.mark.parametrize("with_body", [True, False])
    def test_tenant_journals_and_enqueues_nothing(self, tmp_path,
                                                  monkeypatch, with_body):
        monkeypatch.setattr(wal_module, "_MAX_PAYLOAD", self.LIMIT)
        tenant = Tenant(_config(), str(tmp_path))
        body = _dumps({"edges": STREAM * 4, "request_id": "big"})
        with pytest.raises(WalFrameTooLarge):
            if with_body:
                front_door(tenant, body)
            else:
                tenant.ingest_json(STREAM * 4, request_id="big")
        assert tenant.wal.appends == 0 and tenant.queue.enqueued == 0
        assert tenant.dedup.get("big") is None
        assert front_door(tenant, _dumps(STREAM[:2]))["accepted"] == 2
        tenant.abort()

    def test_http_answers_413_and_websocket_a_final_error(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(wal_module, "_MAX_PAYLOAD", self.LIMIT)
        gateway = ServiceGateway(
            chain_config(tmp_path / "state", wal=WalConfig()))
        server = ServiceHTTPServer(gateway).start_background()
        try:
            with pytest.raises(Exception) as excinfo:
                post(server.port, "/ingest", {"edges": STREAM * 4})
            assert excinfo.value.code == 413
            assert "journal frame" in json.loads(
                excinfo.value.read())["error"]
            client = WSClient(server.port, "/tenants/t0/ingest")
            client.send_text(json.dumps(STREAM * 4))
            _opcode, payload = client.recv_frame()
            reply = json.loads(payload)
            assert reply["retryable"] is False and "error" in reply
            client.send_text(json.dumps(chain_records()))
            _opcode, payload = client.recv_frame()
            assert json.loads(payload)["accepted"] == 4
            client.close()
            tenant = gateway.tenant("t0")
            assert tenant.wal.appends == 1 and tenant.queue.enqueued == 4
        finally:
            gateway.shutdown()
            server.stop()


def test_spliced_frame_is_the_request_verbatim(tmp_path):
    """The journal holds the body's own bytes under the usual CRC frame,
    and ``skip`` only when something was invalid."""
    tenant = Tenant(_config(), str(tmp_path))
    clean = _dumps({"edges": STREAM[:2], "request_id": "r"})
    dirty = _dumps([STREAM[2], 7, STREAM[3]])
    front_door(tenant, clean)
    front_door(tenant, dirty)
    tenant.abort()
    segment = os.path.join(str(tmp_path), "t0", "wal", "wal-00000001.log")
    raw = open(segment, "rb").read()
    assert b'{"n":2,"rid":"r","body":' + clean + b"}" in raw
    assert b'{"n":2,"invalid":1,"skip":[1],"body":' + dirty + b"}" in raw
    scan = scan_segment(segment)
    assert scan["error"] is None and len(scan["frames"]) == 3
    assert scan["frames"][1]["body"] == json.loads(clean)
