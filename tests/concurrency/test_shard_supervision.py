"""Shard supervision: dead workers raise ShardDeadError instead of hanging.

Regression tests for the pipe-RPC shutdown hang — before supervision, a
crashed shard process left ``ShardedSession`` blocked in ``conn.recv()``
forever.  Now every RPC polls with a liveness check and an overall
deadline, and ``shard_health()`` reports per-shard liveness.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro import Session, ShardDeadError, StreamEdge
from repro import faults
from repro.concurrency.sharding import DEFAULT_RPC_TIMEOUT

PAIR_DSL = """
vertex a A
vertex b B
edge e1 a -> b
window 100
"""


def edge(i: int) -> StreamEdge:
    return StreamEdge(f"a{i}", f"b{i}", src_label="A", dst_label="B",
                      timestamp=float(i))


def make_sharded(mode: str, shards: int = 2) -> Session:
    session = Session(sharding=mode, shards=shards)
    session.register("pair", PAIR_DSL)
    return session


def wait_for_death(proc, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while proc.is_alive() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not proc.is_alive(), "killed shard still alive"


class TestKilledShard:
    def test_os_kill_mid_stream_raises_shard_dead_error(self):
        session = make_sharded("process")
        try:
            session.push_many([edge(i) for i in range(4)])
            # Kill the shard that hosts the query — pushes only address
            # shards with members.
            owner = session.shard_assignments()["pair"]
            victim = session._shards[owner].handle.process
            os.kill(victim.pid, signal.SIGKILL)
            wait_for_death(victim)
            with pytest.raises(ShardDeadError):
                for i in range(4, 16):
                    session.push(edge(i))
        finally:
            # The regression: close() used to hang on the dead worker.
            session.close()

    def test_stats_after_kill_raises_not_hangs(self):
        session = make_sharded("process")
        try:
            session.push_many([edge(i) for i in range(4)])
            for shard in session._shards:
                shard.handle.process.kill()
                wait_for_death(shard.handle.process)
            with pytest.raises(ShardDeadError):
                session.stats()
        finally:
            session.close()

    def test_shard_health_reports_dead_worker(self):
        session = make_sharded("process")
        try:
            victim = session._shards[0].handle.process
            victim.kill()
            wait_for_death(victim)
            health = session.shard_health(ping_timeout=1.0)
            assert [h["shard"] for h in health] == [0, 1]
            assert health[0]["alive"] is False
            assert health[0]["responsive"] is False
            assert health[1]["alive"] is True
            assert health[1]["responsive"] is True
        finally:
            session.close()

    def test_shard_health_all_healthy(self):
        session = make_sharded("process")
        try:
            session.push_many([edge(i) for i in range(4)])
            health = session.shard_health(ping_timeout=2.0)
            for entry in health:
                assert entry["alive"] and entry["responsive"]
            assert sum(entry["queries"] for entry in health) == 1
        finally:
            session.close()


class TestRpcDeadline:
    def test_thread_recv_deadline_raises(self):
        session = make_sharded("thread")
        try:
            handle = session._shards[0].handle
            # No request in flight: the worker is alive but will never
            # answer, so only the deadline can end the wait.
            started = time.monotonic()
            with pytest.raises(ShardDeadError, match="RPC deadline"):
                handle.recv(timeout=0.2)
            assert time.monotonic() - started < 5.0
        finally:
            session.close()

    def test_default_rpc_timeout_is_bounded(self):
        assert 0 < DEFAULT_RPC_TIMEOUT < float("inf")


class TestFaultInjectedKill:
    def test_kill_worker_fault_surfaces_as_shard_dead(self):
        # Pin the pipe transport: under shm the batch hot path never
        # touches shard.rpc.send (only control RPCs do).
        plan = faults.FaultPlan.parse(
            "seed=7;shard.rpc.send=kill_worker:at:5")
        session = Session(sharding="process", shards=2, transport="pipe")
        try:
            with faults.active(plan):
                session.register("pair", PAIR_DSL)
                with pytest.raises(ShardDeadError):
                    for i in range(64):
                        session.push(edge(i))
            assert plan.report()["shard.rpc.send"]["fires"] == 1
        finally:
            session.close()

    def test_kill_worker_on_ring_write_surfaces_as_shard_dead(self):
        plan = faults.FaultPlan.parse(
            "seed=7;shard.ring.write=kill_worker:at:5")
        session = Session(sharding="process", shards=2, transport="shm")
        try:
            with faults.active(plan):
                session.register("pair", PAIR_DSL)
                with pytest.raises(ShardDeadError):
                    for i in range(64):
                        session.push(edge(i))
            assert plan.report()["shard.ring.write"]["fires"] == 1
        finally:
            session.close()


def test_shard_dead_error_reexports():
    import repro

    assert repro.ShardDeadError is ShardDeadError
