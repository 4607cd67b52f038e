"""One model of the served gateway, against the naive matcher.

The paper's correctness yardstick is the naive per-snapshot recomputation
of §III-A1 under streaming consistency (Definition 11).  This Hypothesis
state machine drives a gateway only through its front door — ``POST
/ingest`` and WebSocket ingest batches carrying ``request_id``s, ``POST
/checkpoint``, ``/stats`` and one ``/tenants/t0/stream`` subscriber — and
holds it to one ``NaiveSnapshotMatcher`` per query, fed the stream the
tenant admitted.

Rules: post a batch; retry an acked batch (a WAL tenant answers
``deduplicated`` and admits nothing); checkpoint; crash —
``ServiceGateway.abort()``, the state a SIGKILL leaves — and boot on the
same state dir, perhaps with a batch journaled but never acked, perhaps
with the newest ``checkpoint.pkl`` bit-flipped; on process shards, kill a
shard worker: the next batch finds it dead, and the tenant restarts from
its last checkpoint while one more batch is in flight.

Draws: a write-ahead log or none; ``sharding`` ``none`` or ``process``; a
rate limit whose ``TokenBucket`` runs on a test clock, so the producer
honours a 429 or a WebSocket backoff frame by moving the clock instead of
sleeping; a seeded fault plan.  Its ``sink.write`` errors never come twice
in a row, so the match log's retry ladder absorbs each; a ``wal.fsync``
ladder may fail whole, which the producer sees as a retryable reply.

The producer keeps the documented contract.  At a WAL tenant it re-sends
only a batch it holds no ack for, under the same id, and trusts the
journal for everything else; without a WAL it rewinds to ``/stats``
``edges_offered`` after a crash or a ``restarts`` bump and sends the
stream again from there.

After every step ``result_counts()`` and the ``/stats`` counters agree with
the reference: the stream position, ``applied_lsn == durable_lsn ==
appended_lsn``, the edges replayed, ``restarts``, the checkpoint
fallbacks, and no non-monotonic arrival, dead letter or dropped stream
frame.  At every checkpoint, crash and teardown the match log holds each
reference match exactly once, and the subscriber's frames are the log
lines written since it subscribed, in order.

``test_scripted_run`` plays fixed rule sequences in chosen draws, so the
crash corners are checked on every run; ``test_serve_subprocess_story``
takes a real ``python -m repro serve`` through two SIGKILLs and a
corrupted checkpoint with the same producer.
"""

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
    run_state_machine_as_test,
)

import repro
from repro import faults
from repro.baselines.naive import NaiveSnapshotMatcher
from repro.concurrency.sharding import shard_of
from repro.io.dsl import parse_query
from repro.service import (
    RateLimitConfig, ServerConfig, ServiceGateway, TenantConfig,
)
from repro.service.codec import edge_from_json
from repro.service.config import WalConfig
from repro.service.resilience import RetryPolicy, TokenBucket
from repro.sinks import match_record

from .conftest import WSClient

#: The committed budget: tier-1 runs exactly these examples.
SETTINGS = settings(max_examples=8, stateful_step_count=6, deadline=None,
                    derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

WINDOW = 4.0
SHARDS = 2
QUERIES = {
    "chain": "vertex a A\nvertex b B\nvertex c C\nedge e1 a -> b\n"
             "edge e2 b -> c\norder e1 < e2\nwindow 4\n",
    "relay": "vertex x D\nvertex y E\nedge e1 x -> y\nwindow 4\n",
}
#: Edge kinds as (source, destination) labels: ``chain`` joins an ``A ->
#: B`` and a later ``B -> C`` through one ``B`` vertex, ``relay`` is each
#: ``D -> E``.  On two shards the queries live apart, so a killed worker
#: always held one.
KINDS = (("A", "B"), ("B", "C"), ("D", "E"))
assert sorted(shard_of(name, SHARDS) for name in QUERIES) == [0, 1]

VIA = st.sampled_from(["http", "http", "ws"])
SEEDS = st.integers(0, 2 ** 32)


def arrivals(rng, after, kinds):
    """One record per kind, 0.5 to 1.5 time units apart after ``after``,
    over two vertices per label."""
    records = []
    for src, dst in kinds:
        after += rng.choice((0.5, 1.0, 1.5))
        records.append({"src": f"{src.lower()}{rng.randrange(2)}",
                        "dst": f"{dst.lower()}{rng.randrange(2)}",
                        "src_label": src, "dst_label": dst,
                        "timestamp": after})
    return records


def post(port, path, payload):
    """One POST: ``(status, JSON reply, headers)``."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status, json.loads(reply.read()), reply.headers
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read()), error.headers


def tenant_stats(port):
    """The tenant's node of ``/stats``."""
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/stats",
                                timeout=30) as reply:
        return json.loads(reply.read())["tenants"]["t0"]


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


def settle(port, ref, wal):
    """Wait until the tenant applied everything it admitted; returns its
    ``/stats`` node."""
    stats = {}

    def applied():
        stats.update(tenant_stats(port))
        return stats["edges_offered"] >= len(ref.records) \
            and stats["queue"]["depth"] == 0 and not (
                wal and stats["wal"]["applied_lsn"]
                < stats["wal"]["appended_lsn"])
    assert wait_for(applied), stats
    return stats


def take_checkpoint(port, ref):
    """``POST /checkpoint``: the barrier lands at the stream position."""
    status, reply, _ = post(port, "/checkpoint", {})
    assert status == 200, reply
    assert reply["checkpoints"]["t0"]["edges_offered"] == len(ref.records)


def read_log(state_dir):
    """The match log's lines, segment after segment, in write order."""
    directory = os.path.join(state_dir, "t0", "matches")
    lines = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            lines.extend(line.rstrip("\n") for line in handle if line.strip())
    return lines


def check_log(host, ref, subscriber):
    """Each reference match is in the log once, and the subscriber got
    the lines written since it subscribed, in order."""
    host.flush_log()
    log = read_log(host.state_dir)
    assert Counter(log) == ref.log()
    subscriber.check(log)


def bit_flip(path):
    """Flip the middle byte of ``path``."""
    with open(path, "r+b") as handle:
        blob = handle.read()
        handle.seek(len(blob) // 2)
        handle.write(bytes([blob[len(blob) // 2] ^ 0xFF]))


class Reference:
    """The stream the tenant admitted, and what the naive matcher makes
    of it: ``lines[i]`` are the match-log lines arrival ``i`` completes."""

    def __init__(self):
        self.naive = {name: NaiveSnapshotMatcher(parse_query(text)[0], WINDOW)
                      for name, text in QUERIES.items()}
        self.records, self.lines = [], []

    @property
    def last(self):
        """The latest admitted timestamp."""
        return self.records[-1]["timestamp"] if self.records else 0.0

    def admit(self, records):
        for record in records:
            edge = edge_from_json(record)
            self.records.append(record)
            self.lines.append([
                json.dumps(match_record(name, match), sort_keys=True)
                for name, naive in self.naive.items()
                for match in naive.push(edge)])

    def log(self):
        """The match-log multiset of the whole stream."""
        return Counter(line for lines in self.lines for line in lines)

    def written(self, end=None):
        """How many log lines the first ``end`` arrivals write."""
        return sum(map(len, self.lines[:end]))

    def result_counts(self):
        return {name: len(naive.current_matches())
                for name, naive in self.naive.items()}


class Producer:
    """Sends the stream as the documented contract asks (see the module
    docstring); ``wait(seconds)`` honours a 429 or a backoff frame."""

    def __init__(self, ref, *, wal, wait):
        self.ref, self.wal, self.wait = ref, wal, wait
        self.port = self.ws = None
        #: ``(payload, ack)`` of every new batch acked.
        self.acked = []
        #: A WAL batch journaled but never acked.
        self.unacked = None
        self.batches = self.rate_limited = self.backoffs = self.failed = 0

    def attach(self, port):
        self.detach()
        self.port = port

    def detach(self):
        if self.ws is not None:
            self.ws.close()
            self.ws = None

    def payload(self, records, invalid_at=None):
        """A new batch of ``records`` under a fresh request id, with one
        invalid record at ``invalid_at``."""
        edges = list(records)
        if invalid_at is not None:
            edges.insert(invalid_at % (len(edges) + 1), {"src": "x"})
        self.batches += 1
        return {"edges": edges, "request_id": f"batch-{self.batches}"}

    def attempt(self, payload, via):
        """One try: ``("ack", ack)``, ``("wait", seconds)`` or
        ``("failed", reply)``."""
        if via == "ws":
            if self.ws is None:
                self.ws = WSClient(self.port, "/tenants/t0/ingest")
            reply = self.ws.request(payload)
            if reply.get("backoff"):
                self.backoffs += 1
                return "wait", reply["retry_after"]
            status = 200 if "error" not in reply else 500
            assert status == 200 or reply.get("retryable"), reply
        else:
            status, reply, headers = post(self.port, "/ingest", payload)
            if status == 429:
                self.rate_limited += 1
                return "wait", float(headers["Retry-After"])
        if status >= 500:
            # Every fsync of the commit failed: journaled, not durable.
            self.failed += 1
            return "failed", reply
        assert status == 200, (status, reply)
        return "ack", reply

    def send(self, payload, via="http", *, until_acked=True):
        """Send one batch, honouring waits, until it is acked; ``None``
        on a durability failure unless ``until_acked``."""
        while True:
            outcome, reply = self.attempt(payload, via)
            if outcome == "ack":
                return reply
            if outcome == "wait":
                self.wait(reply)
            elif not until_acked:
                return None

    def accept(self, payload, ack):
        valid = sum("timestamp" in record for record in payload["edges"])
        assert (ack["accepted"], ack["invalid"]) \
            == (valid, len(payload["edges"]) - valid), ack
        self.acked.append((payload, ack))

    def post(self, records, via="http", invalid_at=None):
        """A new batch: in the stream once acked — or, at a WAL tenant,
        once journaled, when its durability failed and it is owed an
        ack.  Returns the ack, or ``None``."""
        payload = self.payload(records, invalid_at)
        ack = self.send(payload, via, until_acked=False)
        self.ref.admit(records)
        if ack is None:
            assert self.wal, payload
            self.unacked = payload
            return None
        assert not ack.get("deduplicated"), ack
        assert ack.get("durable", False) is self.wal, ack
        self.accept(payload, ack)
        return ack

    def settle(self, via="http"):
        """Re-send the batch owed an ack under its id: it was journaled,
        so the answer is its cached ack."""
        if self.unacked is not None:
            ack = self.send(self.unacked, via)
            assert ack.get("deduplicated") is True, ack
            self.accept(self.unacked, ack)
            self.unacked = None

    def retry(self, index, via="http"):
        """Send an acked batch again: its cached ack, nothing admitted."""
        payload, first = self.acked[index % len(self.acked)]
        ack = self.send(payload, via)
        assert ack.get("deduplicated") is True, ack
        assert (ack["accepted"], ack["invalid"]) \
            == (first["accepted"], first["invalid"]), (ack, first)

    def rewind(self, position, size=6):
        """Send the stream again from ``position``."""
        records = self.ref.records[position:]
        for start in range(0, len(records), size):
            chunk = records[start:start + size]
            assert self.send(self.payload(chunk))["accepted"] == len(chunk)


class Subscriber:
    """The ``/tenants/t0/stream`` client; ``written`` is how many lines
    the match log held when it subscribed."""

    def __init__(self, port, written):
        self.written, self.frames = written, []
        self.client = WSClient(port, "/tenants/t0/stream")
        self.client.sock.settimeout(0.2)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        assert wait_for(lambda: tenant_stats(port)["subscribers"] == 1)

    def _read(self):
        while True:
            try:
                opcode, payload = self.client.recv_frame()
            except TimeoutError:
                continue
            except OSError:     # closed here, or the gateway is gone
                return
            if opcode == 0x8:
                return
            if opcode == 0x1:
                self.frames.append(payload.decode())

    def check(self, log):
        expected = log[self.written:]
        assert wait_for(lambda: len(self.frames) >= len(expected), 10)
        assert self.frames == expected

    def close(self, port=None):
        """Unsubscribe; given the ``port`` of a live gateway, wait until
        it has seen that."""
        self.client.close()
        self.reader.join(5)
        assert not self.reader.is_alive()
        if port is not None:
            assert wait_for(lambda: tenant_stats(port)["subscribers"] == 0)


class Clock:
    """The rate limiter's test clock: the producer moves it to honour a
    wait."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class InProcessHost:
    """A gateway and its listener in this process.  ``crash`` is
    ``abort()``, which leaves the state dir as a SIGKILL would;
    ``doubles(tenant)`` installs the test doubles at every boot."""

    def __init__(self, config, doubles):
        self.config, self.doubles = config, doubles
        self.state_dir = config.state_dir
        self.boot()

    def boot(self):
        self.gateway = ServiceGateway(self.config).start_background()
        self.port = self.gateway.port
        self.doubles(self.tenant)

    @property
    def tenant(self):
        return self.gateway.tenant("t0")

    def flush_log(self):
        self.tenant.match_sink.flush()

    def crash(self):
        self.gateway.abort()

    def stop(self):
        self.gateway.shutdown()


def serve_toml(state_dir):
    """A WAL tenant over QUERIES with a rate limit, for ``repro serve``."""
    queries = "".join(f"\n[[tenant.query]]\nname = \"{name}\"\n"
                      f"text = '''\n{text}'''\n"
                      for name, text in QUERIES.items())
    return f"""\
[server]
host = "127.0.0.1"
port = 0
state_dir = {json.dumps(state_dir)}
checkpoint_interval = 0.0
checkpoint_keep = 2

[[tenant]]
name = "t0"
window = {WINDOW}
batch_size = 4

[tenant.rate_limit]
rps = 100.0
burst = 12

[tenant.wal]
enabled = true
{queries}"""


class ServeProcess:
    """``python -m repro serve`` under a ``REPRO_FAULTS`` plan: ``crash``
    is SIGKILL, ``stop`` SIGTERM (drain, final checkpoint).  Its match
    log is on disk only after a checkpoint or a stop."""

    def __init__(self, root, fault_plan):
        self.state_dir = os.path.join(root, "state")
        self.config = os.path.join(root, "server.toml")
        with open(self.config, "w", encoding="utf-8") as handle:
            handle.write(serve_toml(self.state_dir))
        self.output = os.path.join(root, "serve.log")
        package = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        self.env = dict(os.environ, REPRO_FAULTS=fault_plan,
                        PYTHONPATH=os.pathsep.join(filter(None, [
                            package, os.environ.get("PYTHONPATH")])))
        self.boot()

    def boot(self):
        start = os.path.getsize(self.output) \
            if os.path.exists(self.output) else 0
        with open(self.output, "ab") as output:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--config", self.config],
                stdout=output, stderr=subprocess.STDOUT, env=self.env)
        text = ""

        def listening():
            nonlocal text
            with open(self.output, "rb") as handle:
                handle.seek(start)
                text = handle.read().decode(errors="replace")
            found = re.search(r"listening on http://[^:]+:(\d+)", text)
            assert found or self.proc.poll() is None, text
            self.port = found and int(found.group(1))
            return found
        assert wait_for(listening), text

    def flush_log(self):
        pass

    def alive(self):
        return self.proc.poll() is None

    def crash(self):
        self.proc.kill()
        self.proc.wait(30)

    def stop(self):
        self.proc.send_signal(signal.SIGTERM)
        assert self.proc.wait(60) == 0


class RestartGate:
    """Stands in for a tenant's restart budget: the supervised restart
    waits here until the model lets it go, then goes on with no
    backoff."""

    def __init__(self):
        self.entered, self.go = threading.Event(), threading.Event()

    def next_delay(self):
        self.entered.set()
        self.go.wait(30)
        return 0.0

    def counters(self):
        return {}


class SyncHold:
    """Holds the next batch's commit — its ticketed WAL sync — until the
    tenant has restarted ``restarts`` times: the batch is journaled, and
    not yet released, while the restart rebuilds the session."""

    def __init__(self, tenant, restarts):
        self.entered = threading.Event()
        self.wal, sync = tenant.wal, tenant.wal.sync

        def held(ticket=None):
            if ticket is not None and not self.entered.is_set():
                self.entered.set()
                wait_for(lambda: tenant.restarts >= restarts)
            return sync(ticket)
        self.wal.sync = held

    def release(self):
        del self.wal.sync


class GatewayModel(RuleBasedStateMachine):
    settled = False

    @initialize(wal=st.booleans(),
                sharding=st.sampled_from(["none", "none", "process"]),
                limit=st.sampled_from([None, None, (20.0, 6), (50.0, 12)]),
                sink_every=st.sampled_from([0, 2, 3]),
                fsync_rate=st.sampled_from([0.0, 0.3, 0.6]),
                seed=SEEDS)
    def boot(self, wal, sharding, limit, sink_every, fsync_rate, seed):
        """A one-tenant gateway over QUERIES in the drawn modes, its
        subscriber, and a first batch."""
        self.outer_plan = faults.current()
        self.wal, self.sharding = wal, sharding
        self.root = tempfile.mkdtemp(prefix="gateway-model-")
        self.clock = Clock()
        specs = []
        if sink_every:
            specs.append(faults.FaultSpec(
                site="sink.write", kind="io_error", every=sink_every))
        if fsync_rate:
            specs.append(faults.FaultSpec(
                site="wal.fsync", kind="io_error", rate=fsync_rate))
        faults.install(faults.FaultPlan(specs, seed=seed))
        tenant = TenantConfig(
            name="t0", queries=QUERIES, window=WINDOW, sharding=sharding,
            shards=SHARDS if sharding == "process" else 1, batch_size=4,
            rate_limit=RateLimitConfig(*limit) if limit else None,
            wal=WalConfig() if wal else None)
        self.ref = Reference()
        self.producer = Producer(self.ref, wal=wal, wait=self.clock.advance)
        #: The checkpoints on disk, newest first: each one's stream
        #: position, ``None`` once corrupted.
        self.chain = []
        self.restarts = self.fallbacks = self.replayed = 0
        self.host = InProcessHost(ServerConfig(
            state_dir=os.path.join(self.root, "state"), port=0,
            checkpoint_interval=0.0, checkpoint_keep=2, tenants=(tenant,)),
            self._doubles)
        self.producer.attach(self.host.port)
        self.subscriber = Subscriber(self.host.port, 0)
        self.post_batch(seed, 4, "http", None)

    def _doubles(self, tenant):
        """Every boot builds a rate limiter on the wall clock; this one
        runs on the model's."""
        limit = tenant.config.rate_limit
        if limit is not None:
            tenant.rate_limiter = TokenBucket(
                limit.rps, limit.effective_burst, clock=self.clock)

    def teardown(self):
        host = getattr(self, "host", None)
        try:
            if host is not None and self.settled:
                host.stop()             # drain, final checkpoint, log closed
                log = read_log(host.state_dir)
                assert Counter(log) == self.ref.log()
                self.subscriber.check(log)
            elif host is not None:
                host.crash()
        finally:
            if getattr(self, "subscriber", None) is not None:
                self.subscriber.close()
            if host is not None:
                self.producer.detach()
            if hasattr(self, "outer_plan"):
                faults.install(self.outer_plan)
                shutil.rmtree(self.root, ignore_errors=True)

    def _recover(self):
        """A boot, or a supervised restart, restored the newest readable
        capture and (at a WAL tenant) replayed the journal past it; the
        producer does the rest."""
        skipped = next((i for i, position in enumerate(self.chain)
                        if position is not None), len(self.chain))
        position = self.chain[skipped] if skipped < len(self.chain) else 0
        self.fallbacks += skipped
        stats = tenant_stats(self.host.port)
        assert stats["restored"] is (skipped < len(self.chain)), stats
        self.producer.attach(self.host.port)
        if self.wal:
            self.replayed += len(self.ref.records) - position
            self.subscriber = Subscriber(self.host.port, self.ref.written())
            self.producer.settle()
        else:
            assert stats["edges_offered"] == position, stats
            self.subscriber = Subscriber(
                self.host.port, self.ref.written(position))
            self.producer.rewind(position)
        settle(self.host.port, self.ref, self.wal)
        check_log(self.host, self.ref, self.subscriber)

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #
    @rule(seed=SEEDS, size=st.integers(1, 6), via=VIA,
          invalid_at=st.sampled_from([None, None, None, 0, 3]))
    def post_batch(self, seed, size, via, invalid_at):
        self.settled = False
        rng = random.Random(seed)
        self.producer.post(
            arrivals(rng, self.ref.last, rng.choices(KINDS, k=size)),
            via, invalid_at)
        self.producer.settle(via)

    @precondition(lambda self: self.wal and self.producer.acked)
    @rule(index=st.integers(0, 2 ** 16), via=VIA)
    def retry_acked(self, index, via):
        self.settled = False
        self.producer.retry(index, via)

    @rule()
    def checkpoint(self):
        self.settled = False
        take_checkpoint(self.host.port, self.ref)
        self.chain = [len(self.ref.records)] + self.chain[:1]
        check_log(self.host, self.ref, self.subscriber)

    @rule(unacked=st.booleans(), corrupt=st.booleans(), seed=SEEDS)
    def crash_and_reboot(self, unacked, corrupt, seed):
        """``abort()`` — after a batch whose every fsync failed, if
        ``unacked`` — then boot on the same state dir, with the newest
        checkpoint bit-flipped if ``corrupt``."""
        self.settled = False
        check_log(self.host, self.ref, self.subscriber)
        if unacked and self.wal:
            doomed = faults.FaultPlan([faults.FaultSpec(
                site="wal.fsync", kind="io_error", every=1, limit=3)])
            rng = random.Random(seed)
            with faults.active(doomed):
                assert self.producer.post(
                    arrivals(rng, self.ref.last, KINDS)) is None
        self.subscriber.close()
        self.producer.detach()
        self.host.crash()
        if corrupt and self.chain and self.chain[0] is not None:
            bit_flip(os.path.join(self.host.state_dir, "t0",
                                  "checkpoint.pkl"))
            self.chain[0] = None
        self.restarts = self.fallbacks = self.replayed = 0
        self.host.boot()
        self._recover()

    @precondition(lambda self: self.sharding == "process")
    @rule(victim=st.integers(0, SHARDS - 1), seed=SEEDS, via=VIA)
    def kill_shard(self, victim, seed, via):
        """SIGKILL a shard worker.  The next batch finds it dead and the
        tenant restarts from its last checkpoint; one more batch arrives
        before the restart and, at a WAL tenant, is journaled but not yet
        released while the session is rebuilt."""
        self.settled = False
        check_log(self.host, self.ref, self.subscriber)
        self.subscriber.close(self.host.port)   # the restart rewrites
        tenant = self.host.tenant
        gate = tenant.restart_budget = RestartGate()
        process = tenant.safe.session._shards[victim].handle.process
        process.kill()
        process.join(10)
        rng = random.Random(seed)
        # One arrival of each kind: both shards hear from this batch.
        self.producer.post(arrivals(rng, self.ref.last, KINDS), via)
        self.producer.settle(via)
        assert gate.entered.wait(30)
        hold = SyncHold(tenant, self.restarts + 1) if self.wal else None
        errors = []

        def post_inflight(records):
            try:
                self.producer.post(records)
            except BaseException as error:   # raised again below
                errors.append(error)
                raise
        inflight = threading.Thread(target=post_inflight, args=(
            arrivals(rng, self.ref.last, rng.choices(KINDS, k=3)),))
        inflight.start()
        if hold is None:
            inflight.join(30)           # queued behind the dead batch
        else:
            assert hold.entered.wait(30)
        gate.go.set()
        inflight.join(30)
        assert not inflight.is_alive() and not errors, errors
        if hold is not None:
            hold.release()
        self.producer.settle()
        assert wait_for(lambda: tenant_stats(self.host.port)["restarts"]
                        == self.restarts + 1)
        self.restarts += 1
        self._recover()

    # ------------------------------------------------------------------ #
    # After every step
    # ------------------------------------------------------------------ #
    @invariant()
    def agrees_with_the_reference(self):
        stats = settle(self.host.port, self.ref, self.wal)
        n = len(self.ref.records)
        assert (stats["edges_offered"], stats["edges_pushed"],
                stats["restarts"], stats["checkpoint_fallbacks"],
                stats["rejected_nonmonotonic"],
                stats["dead_letters"]["recorded"],
                stats["stream_frames_dropped"], stats["health"]) \
            == (n, n, self.restarts, self.fallbacks, 0, 0, 0,
                "healthy"), stats
        if self.wal:
            wal = stats["wal"]
            assert (wal["applied_lsn"], wal["durable_lsn"],
                    wal["appended_lsn"], wal["replayed_edges"]) \
                == (n, n, n, self.replayed), wal
        with self.host.tenant.safe.locked() as session:
            assert session.result_counts() == self.ref.result_counts()
        self.settled = True


def no_backoff(monkeypatch):
    """The retry ladders keep their attempts but sleep nothing between
    them (the kill rule's gate stands in for the restart backoff)."""
    monkeypatch.setattr(RetryPolicy, "delay_for",
                        lambda self, attempt, rng: 0.0)


def test_gateway_agrees_with_the_naive_matcher(monkeypatch):
    no_backoff(monkeypatch)
    run_state_machine_as_test(GatewayModel, settings=SETTINGS)


# ---------------------------------------------------------------------- #
# Scripted runs: the same machine with fixed draws
# ---------------------------------------------------------------------- #

#: ``boot``'s draws, which a script may override.
OPENING = dict(wal=True, sharding="none", limit=None, sink_every=0,
               fsync_rate=0.0, seed=1)

#: ``name -> (opening overrides, [(rule, *args)], what must have
#: happened)``.
SCRIPTS = {
    # Retries of batches from before a checkpoint and after it, across a
    # plain crash and one with an un-acked batch and a corrupt checkpoint.
    "wal-crashes": (
        dict(limit=(20.0, 6), sink_every=2, fsync_rate=0.5), [
            ("post_batch", 2, 5, "ws", 0), ("checkpoint",),
            ("post_batch", 3, 4, "http", None),
            ("crash_and_reboot", False, False, 4),
            ("retry_acked", 0, "ws"), ("retry_acked", 1, "http"),
            ("post_batch", 5, 6, "http", 3), ("checkpoint",),
            ("post_batch", 6, 4, "ws", None),
            ("crash_and_reboot", True, True, 7),
            ("retry_acked", 2, "http"), ("post_batch", 8, 3, "http", None)],
        lambda model: model.fallbacks == 1 and model.producer.failed
        and model.producer.rate_limited and model.producer.backoffs),
    "wal-kills": (
        dict(sharding="process", sink_every=3), [
            ("post_batch", 2, 5, "http", None), ("checkpoint",),
            ("post_batch", 3, 5, "ws", None), ("kill_shard", 0, 4, "http"),
            ("post_batch", 5, 4, "http", None), ("kill_shard", 1, 6, "ws")],
        lambda model: model.restarts == 2),
    "rewinds": (
        dict(wal=False, limit=(50.0, 12), sink_every=2), [
            ("post_batch", 2, 6, "ws", 1), ("checkpoint",),
            ("post_batch", 3, 5, "http", None), ("checkpoint",),
            ("post_batch", 4, 4, "http", None),
            ("crash_and_reboot", False, True, 5),
            ("post_batch", 6, 5, "ws", None),
            ("crash_and_reboot", False, False, 7),
            ("post_batch", 8, 3, "http", None)],
        lambda model: model.fallbacks == 1),
    "rewinds-after-kill": (
        dict(wal=False, sharding="process"), [
            ("post_batch", 2, 5, "http", None), ("checkpoint",),
            ("post_batch", 3, 5, "http", None),
            ("kill_shard", 1, 4, "http"), ("post_batch", 5, 3, "ws", None)],
        lambda model: model.restarts == 1),
}


def play(opening, steps):
    """Run ``steps`` on a machine booted with ``opening``, checking the
    invariant after each; the machine is returned torn down."""
    model = GatewayModel()
    try:
        model.boot(**{**OPENING, **opening})
        model.agrees_with_the_reference()
        for rule_name, *args in steps:
            getattr(model, rule_name)(*args)
            model.agrees_with_the_reference()
    finally:
        model.teardown()
    return model


@pytest.mark.parametrize("script", SCRIPTS)
def test_scripted_run(monkeypatch, script):
    no_backoff(monkeypatch)
    opening, steps, happened = SCRIPTS[script]
    model = play(opening, steps)
    assert model.ref.written() and happened(model)


def test_serve_subprocess_story(tmp_path):
    """A real ``repro serve`` with a WAL tenant, under seeded
    ``wal.fsync`` errors and a wall-clock rate limit: SIGKILLed with a
    batch in flight; rebooted, it has replayed the journal and answers
    every acked batch ``deduplicated``; two checkpoints around a
    WebSocket leg; SIGKILLed again and its newest checkpoint bit-flipped,
    it falls back down the chain and replays further; SIGTERMed, its
    match log holds each reference match once."""
    ref = Reference()
    producer = Producer(ref, wal=True, wait=time.sleep)
    host = ServeProcess(str(tmp_path), "seed=5;wal.fsync=io_error:0.3:6")
    rng = random.Random(29)
    subscriber = None

    def batch(size):
        return arrivals(rng, ref.last, rng.choices(KINDS, k=size))

    def post_victim(payload):
        try:
            producer.send(payload)
        except Exception:       # whatever the kill did to the exchange
            pass

    try:
        producer.attach(host.port)
        subscriber = Subscriber(host.port, 0)
        for _ in range(3):
            producer.post(batch(8))
            producer.settle()
        records = batch(8)
        victim = producer.payload(records)
        poster = threading.Thread(target=post_victim, args=(victim,))
        poster.start()
        time.sleep(0.005)
        host.crash()
        poster.join(30)
        assert not poster.is_alive()
        subscriber.close()

        host.boot()
        producer.attach(host.port)
        assert tenant_stats(host.port)["wal"]["replayed_edges"] > 0
        # Journaled before the kill: its cached ack; lost: admitted now.
        ack = producer.send(victim)
        ref.admit(records)
        producer.accept(victim, ack)
        for index in range(3):
            producer.retry(index)
        settle(host.port, ref, True)
        subscriber = Subscriber(host.port, ref.written())
        take_checkpoint(host.port, ref)
        older = len(ref.records)
        check_log(host, ref, subscriber)
        for _ in range(3):
            producer.post(batch(10), "ws")
            producer.settle("ws")
        settle(host.port, ref, True)
        take_checkpoint(host.port, ref)
        check_log(host, ref, subscriber)
        assert producer.rate_limited and producer.backoffs
        subscriber.close()
        producer.detach()
        host.crash()
        bit_flip(os.path.join(host.state_dir, "t0", "checkpoint.pkl"))

        host.boot()
        producer.attach(host.port)
        stats = tenant_stats(host.port)
        assert stats["checkpoint_fallbacks"] == 1 and stats["restored"]
        assert stats["wal"]["replayed_edges"] == len(ref.records) - older > 0
        subscriber = Subscriber(host.port, ref.written())
        for _ in range(3):
            producer.post(batch(8))
            producer.settle()
        stats = settle(host.port, ref, True)
        assert (stats["edges_offered"], stats["restarts"],
                stats["rejected_nonmonotonic"],
                stats["dead_letters"]["recorded"],
                stats["stream_frames_dropped"], stats["health"]) \
            == (len(ref.records), 0, 0, 0, 0, "healthy"), stats
        host.stop()
        log = read_log(host.state_dir)
        assert Counter(log) == ref.log()
        subscriber.check(log)
    finally:
        if subscriber is not None:
            subscriber.close()
        producer.detach()
        if host.alive():
            host.crash()
