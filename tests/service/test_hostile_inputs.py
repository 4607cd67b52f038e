"""Hostile edge inputs through every entry point that decodes edges.

:data:`HOSTILE` is one named table of what a careless or malicious
producer can send where an edge belongs: missing or extra keys, wrong
types, unhashable vertices and labels, bool, huge-int and non-finite
timestamps, deep nesting, non-object bodies, truncated JSON and bytes
that are not UTF-8.  Each case is its JSON text, the CSV row that says
the same where CSV can, and whether it is wrong as a whole body or as
one record inside an acceptable one.

Every case is driven through ``POST /ingest``, a WebSocket ingest frame,
a tailed JSONL line, a tailed CSV row, and the WAL replay of an authentic
(CRC-valid) ``entries`` frame and ``body`` frame holding it — a frame only
holds what parses as JSON, and a ``body`` frame only an edge object.  The
stream around it is the chain feed: two good edges before, two after.
Every case must end in a typed error (a 400, an error frame) or a counter
(``invalid``, ``parse_errors``, ``replay_skipped``): never a 500, a
traceback, a hang, a dead letter, a worker error or a moved tenant clock —
and the good edges after it are accepted and matched.
"""

import json
import os
import time
import urllib.error
import urllib.request
from typing import NamedTuple, Optional

import pytest

from repro.service import ServiceGateway, TailConfig
from repro.service.config import ServerConfig, TenantConfig, WalConfig
from repro.service.http import ServiceHTTPServer
from repro.service.wal import WriteAheadLog

from .conftest import CHAIN_DSL, WSClient, chain_config, chain_records


class Case(NamedTuple):
    text: bytes                 #: the JSON text
    csv: Optional[bytes]        #: the CSV row, where CSV can say it
    whole_body: bool            #: refused as a body, not as one record


def edge_text(**changes) -> bytes:
    """A chain edge ``a9 -A-> b9`` at 2.5 — between the feed's two
    halves — with fields changed (``None`` drops one)."""
    record = {"src": "a9", "dst": "b9", "src_label": "A", "dst_label": "B",
              "timestamp": 2.5}
    record.update(changes)
    record = {key: value for key, value in record.items()
              if value is not None}
    return json.dumps(record).encode()


def nested(depth: int) -> list:
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


HUGE = "1" + "0" * 400

HOSTILE = {
    "missing-key": Case(edge_text(dst_label=None), b"a9,b9,2.5,A", False),
    "extra-key": Case(edge_text(weight=1), b"a9,b9,2.5,A,B,,surplus",
                      False),
    "record-not-an-object": Case(b'[["a9", "b9", 2.5, "A", "B"]]', None,
                                 False),
    "object-vertex": Case(edge_text(src={"ip": "a9"}), None, False),
    "object-label": Case(edge_text(label={"port": 80}), None, False),
    "object-in-label-tuple": Case(edge_text(src_label=["A", {"k": 1}]),
                                  None, False),
    "object-vertex-behind-edge-id": Case(
        edge_text(dst={"ip": "b9"}, edge_id="e9"), None, False),
    "timestamp-string": Case(edge_text(timestamp="soon"),
                             b"a9,b9,soon,A,B,", False),
    "timestamp-bool": Case(edge_text(timestamp=True), b"a9,b9,true,A,B,",
                           False),
    "timestamp-null": Case(edge_text().replace(b"2.5", b"null"),
                           b"a9,b9,,A,B,", False),
    "timestamp-array": Case(edge_text(timestamp=[2.5]), None, False),
    "timestamp-huge-int": Case(edge_text().replace(b"2.5", HUGE.encode()),
                               b"a9,b9," + HUGE.encode() + b",A,B,", False),
    "timestamp-overflows-to-infinity": Case(
        edge_text().replace(b"2.5", b"1e400"), b"a9,b9,1e400,A,B,", False),
    "timestamp-nan": Case(edge_text(timestamp=float("nan")),
                          b"a9,b9,nan,A,B,", True),
    "timestamp-infinity": Case(edge_text(timestamp=float("inf")),
                               b"a9,b9,inf,A,B,", True),
    "timestamp-minus-infinity": Case(edge_text(timestamp=float("-inf")),
                                     b"a9,b9,-inf,A,B,", True),
    "deep-label": Case(edge_text(label=nested(600)), None, False),
    "deep-body": Case(b"[" * 100_000 + b"]" * 100_000, None, True),
    "non-object-number": Case(b"42", None, True),
    "non-object-string": Case(b'"a9 -> b9"', None, True),
    "non-object-null": Case(b"null", None, True),
    "edges-not-a-list": Case(b'{"edges": 5}', None, True),
    "truncated": Case(edge_text()[:30], b'a9,"b9,2.5,A,B,', True),
    "not-utf8": Case(edge_text(src="a9").replace(b"a9", b"\xff\xfe"),
                     b"a9,b9,2.5,\xff,B,", True),
}


def lenient_json(text: bytes):
    """What a journal frame can hold: ``json.loads`` reads NaN and
    Infinity, but not broken text."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return None


JOURNALED = [name for name, case in HOSTILE.items()
             if lenient_json(case.text) is not None]
EDGE_OBJECTS = [name for name in JOURNALED
                if isinstance(lenient_json(HOSTILE[name].text), dict)
                and "edges" not in lenient_json(HOSTILE[name].text)]
CSV_ROWS = [name for name, case in HOSTILE.items() if case.csv is not None]

BEFORE, AFTER = chain_records()[:2], chain_records()[2:]


def assert_unharmed(tenant) -> None:
    """The chain feed's four edges and three matches, as if the hostile
    input had never been sent."""
    stats = tenant.status()
    assert (stats["edges_pushed"], stats["matches_delivered"],
            stats["rejected_nonmonotonic"], stats["worker_errors"],
            stats["dead_letters"]["recorded"], stats["health"]) \
        == (4, 3, 0, 0, 0, "healthy"), stats
    assert tenant.safe.session.current_time == 4.0


def wait_for(predicate, timeout=10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# --------------------------------------------------------------------- #
# The front door
# --------------------------------------------------------------------- #

@pytest.fixture
def served(tmp_path):
    gateway = ServiceGateway(chain_config(tmp_path / "state"))
    server = ServiceHTTPServer(gateway).start_background()
    yield gateway, server.port
    gateway.shutdown()
    server.stop()


def post(port, body: bytes):
    """``(status, raw reply)``; a 4xx/5xx comes back, not raised."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/ingest", data=body,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def assert_typed(reply: dict, case: Case) -> None:
    """A refused body gets an error; a refused record is counted."""
    text = json.dumps(reply)
    assert "Traceback" not in text and "Error(" not in text, text
    if case.whole_body:
        assert set(reply) == {"error"}, reply
    else:
        assert (reply["accepted"], reply["invalid"]) == (0, 1), reply


@pytest.mark.parametrize("name", HOSTILE)
def test_http_ingest(served, name):
    gateway, port = served
    tenant, case = gateway.tenant("t0"), HOSTILE[name]
    assert post(port, json.dumps(BEFORE).encode())[0] == 200
    assert gateway.wait_idle(10)
    status, raw = post(port, case.text)
    assert status == (400 if case.whole_body else 200), raw
    assert_typed(json.loads(raw), case)
    assert gateway.wait_idle(10)
    assert tenant.safe.session.current_time == 2.0
    assert post(port, json.dumps(AFTER).encode())[0] == 200
    assert gateway.wait_idle(10)
    assert_unharmed(tenant)


@pytest.mark.parametrize("name", HOSTILE)
def test_websocket_ingest(served, name):
    gateway, port = served
    tenant, case = gateway.tenant("t0"), HOSTILE[name]
    client = WSClient(port, "/tenants/t0/ingest")
    try:
        assert client.request(BEFORE)["accepted"] == 2
        client.send_frame(0x1, case.text)
        opcode, raw = client.recv_frame()
        assert opcode == 0x1
        reply = json.loads(raw)
        if case.whole_body:
            assert reply == {"error": "bad edge payload"}
        else:
            assert_typed(reply, case)
        assert client.request(AFTER)["accepted"] == 2
    finally:
        client.close()
    assert gateway.wait_idle(10)
    assert_unharmed(tenant)


# --------------------------------------------------------------------- #
# Tailed files
# --------------------------------------------------------------------- #

def tail_feed(tmp_path, fmt: str, lines) -> None:
    """Tail a file of ``lines`` (bytes) and hold the tenant to the chain
    feed with exactly one line counted as unparseable."""
    feed = tmp_path / f"feed.{fmt}"
    feed.write_bytes(b"".join(line + b"\n" for line in lines))
    tail = TailConfig(path=str(feed), format=fmt, poll_interval=0.01)
    tenant_config = TenantConfig(name="t0", queries={"chain": CHAIN_DSL},
                                 tails=(tail,))
    gateway = ServiceGateway(ServerConfig(
        state_dir=str(tmp_path / "state"), port=0,
        checkpoint_interval=0.0, tenants=(tenant_config,)))
    gateway.start_tailers()
    try:
        (tailer,) = gateway.tenant("t0").tailers
        tenant = gateway.tenant("t0")
        rows = len(lines) - (fmt == "csv")      # the header is not a row
        assert wait_for(lambda: tailer.lines_read == rows
                        and tenant.safe.edges_pushed == 4), tailer.status()
        assert gateway.wait_idle(10)
        assert tailer.is_alive()
        assert (tailer.parse_errors, tailer.edges_enqueued) == (1, 4)
        assert_unharmed(tenant)
    finally:
        gateway.shutdown()


def csv_row(record) -> bytes:
    return (f"{record['src']},{record['dst']},{record['timestamp']!r},"
            f"{record['src_label']},{record['dst_label']},").encode()


@pytest.mark.parametrize("name", HOSTILE)
def test_jsonl_tailer(tmp_path, name):
    tail_feed(tmp_path, "jsonl", [
        *(json.dumps(record).encode() for record in BEFORE),
        HOSTILE[name].text,
        *(json.dumps(record).encode() for record in AFTER)])


@pytest.mark.parametrize("name", CSV_ROWS)
def test_csv_tailer(tmp_path, name):
    tail_feed(tmp_path, "csv", [
        b"src,dst,timestamp,src_label,dst_label,label",
        *map(csv_row, BEFORE), HOSTILE[name].csv, *map(csv_row, AFTER)])


# --------------------------------------------------------------------- #
# WAL replay of authentic frames
# --------------------------------------------------------------------- #

def replay(tmp_path, journal_hostile) -> None:
    """Journal the chain feed around one hostile frame, boot a WAL
    tenant on it, and hold the replay to the chain feed with exactly one
    record skipped."""
    config = chain_config(tmp_path / "state", wal=WalConfig())
    wal = WriteAheadLog(os.path.join(str(tmp_path / "state"), "t0", "wal"))
    wal.append([{"e": record} for record in BEFORE])
    journal_hostile(wal)
    wal.append([{"e": record} for record in AFTER])
    wal.close()
    gateway = ServiceGateway(config)
    try:
        tenant = gateway.tenant("t0")
        wal_stats = tenant.status()["wal"]
        assert (wal_stats["replayed_edges"], wal_stats["replay_skipped"],
                wal_stats["applied_lsn"]) == (4, 1, 5), wal_stats
        assert gateway.wait_idle(10)
        assert_unharmed(tenant)
    finally:
        gateway.shutdown()


@pytest.mark.parametrize("name", JOURNALED)
def test_wal_entries_frame(tmp_path, name):
    record = lenient_json(HOSTILE[name].text)
    replay(tmp_path, lambda wal: wal.append([{"e": record}]))


@pytest.mark.parametrize("name", EDGE_OBJECTS)
def test_wal_body_frame(tmp_path, name):
    replay(tmp_path, lambda wal: wal.append_body(HOSTILE[name].text, 1))

