"""Sharded sessions: parallel matcher shards over one shared stream.

A multi-query :class:`~repro.api.Session` already makes per-arrival work
sparse (the routing index) and de-duplicates state (the shared window and
sub-plan stores), but every engine still runs in the calling thread.  This
module adds the next scale step: :class:`ShardedSession` partitions the
registered matchers across ``N`` worker shards — OS processes
(``sharding="process"``) or threads (``sharding="thread"``) — so a heavy
query set parallelises over one ingested stream, the way production stream
processors scale continuous pattern queries.

Construction is transparent: ``Session(sharding="process", shards=4)``
(or an :class:`~repro.api.EngineConfig` carrying the knobs) dispatches
here via ``Session.__new__``; the facade exposes the same registration,
streaming, introspection and checkpoint surface and produces the same
``(name, match)`` stream as an unsharded session.

How the work is split
---------------------
* **Partitioning.**  Each registered query is assigned to the shard given
  by a stable hash of its name (:func:`shard_of`), so the placement is
  deterministic, independent of registration order, and survives
  checkpoint/restore.  Register/deregister rebalance the facade's routing
  tables; a shard whose last matcher leaves simply stops receiving
  arrivals.
* **Each shard is a full sub-session.**  A worker owns a plain
  (unsharded) :class:`~repro.api.Session` holding its subset of matchers:
  its own shared window buffer per window policy, its own routing index,
  and its own refcounted sub-plan registry — so cross-query sub-plan
  sharing keeps working *within* a shard and shared stores never cross
  process boundaries.
* **Routed fan-out.**  ``push``/``push_many``/``ingest`` batches are
  staged per shard through the facade's own
  :class:`~repro.ingest.RouteIndex` — the same index an unsharded
  session routes with, its payloads shard indexes instead of matchers —
  so a shard only receives the arrivals its matchers can consume.
  Shards hosting count-based-window members are always routed: a count
  window expires by stream position, so the non-matching arrivals are
  still capacity ballast.
* **Stream-level duplicates.**  The facade runs the same
  :class:`~repro.ingest.Admission` stage over the *full* stream,
  because a shard's buffer only holds the arrivals routed to it — a
  strict subset that could miss a live bearer.  Duplicate arrivals are
  therefore judged exactly as an unsharded session judges them
  (``raise`` rejects side-effect-free before any shard ingests; ``skip``
  / ``count`` drop per group) and the affected group keys ride along
  with the dispatched row as *forced duplicates* (see
  :meth:`repro.ingest.Admission.admit`).
* **Deterministic merge.**  Workers tag every match with the arrival's
  batch index; the facade merges the per-shard result lists by
  ``(arrival, registration ordinal)``, so sinks and return values see
  the same order as an unsharded session.

What does *not* shard
---------------------
Factory backends and custom window-policy classes cannot cross a shard
boundary; registering one on a sharded session raises — use
``sharding="none"`` for those.  Sink callbacks run in the facade process
at batch granularity.

Because CPython's GIL serialises bytecode, ``sharding="thread"`` cannot
show wall-clock speed-up (it exists for cheap equivalence testing and
for workloads dominated by I/O); ``sharding="process"`` gives real
parallelism at the cost of serialising batches across process
boundaries.  ``session_stats()`` reports the facade's CPU time and each
shard's busy time, the stage costs of a pipeline model of the sharded
session.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
import time as time_module
import weakref
import zlib
from collections import deque
from time import monotonic as time_monotonic
from time import process_time, thread_time
from typing import Dict, Iterable, List, Optional, Tuple

from .. import faults
from ..api import (
    BACKENDS, DUPLICATE_POLICIES, EngineConfig, MatchCallback, Session,
    _QueryRecord,
)
from ..core.matches import Match
from ..graph.edge import StreamEdge
from ..ingest import ALWAYS_ROUTED, Admission, group_key
from ..persistence import rebuild, snapshot
from .transport import (
    RESULT_EMPTY, RESULT_ERROR, RESULT_PICKLED, RESULT_VIA_PIPE,
    FacadeChannel, TransportError, WorkerChannel,
)

#: Arrivals staged per dispatch round by ``push_many``/``ingest``.  One
#: round costs one message exchange per targeted shard, so larger batches
#: amortise serialisation; smaller ones tighten sink latency.
DEFAULT_BATCH_SIZE = 1024

#: Per-RPC deadline (seconds) for shard workers.  Generous — it exists
#: to bound *hangs*, not to police slow batches.
DEFAULT_RPC_TIMEOUT = 60.0

#: Dispatch rounds in flight per ``push_many``/``ingest`` before the
#: facade blocks collecting the oldest.  Two is enough to keep every
#: shard busy while the facade stages the next round; deeper pipelines
#: only add result latency.
DEFAULT_OVERLAP_DEPTH = 2


class ShardDeadError(RuntimeError):
    """A shard worker died (or stopped answering within the RPC
    deadline) mid-call.

    The facade's in-flight state for that shard is unrecoverable: the
    session should be closed and rebuilt — the service layer restores
    the owning tenant from its last checkpoint
    (:mod:`repro.service.gateway`), preserving the kill-restore match
    contract.
    """


def shard_of(name, num_shards: int) -> int:
    """The shard index a query name hashes to.

    Stable across processes and interpreter runs (CRC-32 of the name's
    text, *not* the salted builtin ``hash``), so a restored session
    reassembles the exact same partitioning.
    """
    return zlib.crc32(str(name).encode("utf-8", "backslashreplace")) \
        % num_shards


def _edge_to_wire(edge: StreamEdge) -> tuple:
    """Flatten an edge to a primitive tuple for cheap cross-process
    pickling (reconstructed by :func:`_edge_from_wire`)."""
    return (edge.src, edge.dst, edge.src_label, edge.dst_label,
            edge.timestamp, edge.label, edge.edge_id)


def _edge_from_wire(row: tuple) -> StreamEdge:
    """Rebuild a :class:`StreamEdge` from its :func:`_edge_to_wire` form."""
    src, dst, src_label, dst_label, timestamp, label, edge_id = row
    return StreamEdge(src, dst, src_label=src_label, dst_label=dst_label,
                      timestamp=timestamp, label=label, edge_id=edge_id)


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #

class _ShardServer:
    """The worker-side half of a shard: owns the shard's sub-session.

    Runs inside the worker thread/process; one instance serves one
    shard's command stream (register/deregister, batches, reads,
    checkpoint data out and in).  The sub-session is a plain unsharded
    :class:`~repro.api.Session`, so every shared-window and sub-plan
    sharing invariant holds within the shard unchanged.
    """

    def __init__(self, clock=process_time) -> None:
        self.session = Session()
        #: CPU-time clock for :attr:`busy_seconds` — ``process_time`` for
        #: a (single-threaded) worker process, ``thread_time`` for a
        #: worker thread.  CPU time, not wall time: a worker descheduled
        #: by CPU contention is not *busy*, and a pipeline model of the
        #: sharded session needs each stage's genuine cost.
        self.clock = clock
        #: CPU seconds spent processing batches (plus, for process
        #: workers, deserialising them off the pipe) — the shard's stage
        #: cost in a pipeline model.
        self.busy_seconds = 0.0
        #: The last batch's handler interval (lets the process loop add
        #: its wire overhead without double-charging the handler time).
        self.last_batch_seconds = 0.0
        self.edges_received = 0
        self.batches = 0

    def handle(self, cmd: str, payload):
        """Execute one command; returns its result (exceptions propagate
        to the dispatch loop, which reports them to the facade)."""
        if cmd == "push_batch":
            return self._push_batch(payload)
        if cmd == "advance":
            self.session.advance_time(payload)
            return None
        if cmd == "register":
            self.session.register(
                payload["name"], payload["query"], window=payload["window"],
                backend=payload["backend"], config=payload["config"],
                **payload["options"])
            return None
        if cmd == "deregister":
            self.session.deregister(payload)
            return None
        if cmd == "collect":
            return getattr(self.session, payload)()
        if cmd == "snapshot":
            return snapshot(self.session)
        if cmd == "adopt":
            self.session = rebuild(payload)
            return None
        if cmd == "perf":
            return {"busy_seconds": self.busy_seconds,
                    "edges_received": self.edges_received,
                    "batches": self.batches}
        if cmd == "ping":
            # Liveness heartbeat: proves the worker's dispatch loop is
            # responsive, not just that its process exists.
            return {"pong": True, "queries": len(self.session),
                    "edges_received": self.edges_received}
        raise ValueError(f"unknown shard command: {cmd!r}")

    def _push_batch(self, rows) -> List[Tuple[int, str, Match]]:
        """Ingest one staged batch; returns ``(arrival index, query name,
        match)`` triples for the facade's deterministic merge.

        Every row carries the facade's stream-level duplicate judgement
        (the *forced* group keys), which the sub-session folds into its
        own — local-buffer — probe.  The rows run through the session's
        own ingest loop.
        """
        started = self.clock()
        results: List[Tuple[int, str, Match]] = []

        def edges():
            for _, payload, _ in rows:
                edge = payload if isinstance(payload, StreamEdge) \
                    else _edge_from_wire(payload)
                self.edges_received += 1
                yield edge

        try:
            self.session._ingest(
                edges(),
                lambda i, pairs: results.extend(
                    (rows[i][0], name, match) for name, match in pairs),
                [forced for _, _, forced in rows])
        finally:
            self.last_batch_seconds = self.clock() - started
            self.busy_seconds += self.last_batch_seconds
            self.batches += 1
        return results


def _serve_rpc(conn, server: "_ShardServer") -> bool:
    """Serve exactly one pipe RPC; ``False`` when the worker must exit
    (shutdown command, or the facade end of the pipe disappeared).

    Batch (de)serialisation CPU is charged to the shard's busy time:
    it is genuine per-shard stage cost the sharded layout pays and the
    unsharded one does not, and a pipeline model of the session must
    see it.  ``process_time`` does not tick while ``recv`` blocks, so
    idle waiting is not counted.
    """
    started = process_time()
    try:
        cmd, payload = conn.recv()
    except (EOFError, OSError):            # facade gone: die quietly
        return False
    if cmd == "shutdown":
        try:
            conn.send(("ok", None))
        except (BrokenPipeError, OSError):
            pass
        return False
    try:
        result = server.handle(cmd, payload)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - reported to facade
        try:
            conn.send(("error", exc))
        except Exception:
            conn.send(("error", RuntimeError(
                f"shard worker error (unpicklable): {exc!r}")))
    if cmd == "push_batch":
        # Wire overhead around the handler (which already charged
        # its own interval): recv deserialisation + result send.
        server.busy_seconds += (process_time() - started) \
            - server.last_batch_seconds
    return True


def _shard_worker_main(conn, transport_spec=None) -> None:
    """Entry point of a process-mode shard worker.

    Without a ``transport_spec`` this is a plain request/response loop
    over the duplex pipe: receive ``(cmd, payload)``, run it on the
    :class:`_ShardServer`, answer ``("ok", result)`` or ``("error",
    exception)``.  With a spec the worker also attaches the facade's
    shared-memory rings and serves batch frames off the data ring —
    results answered through the result ring (or flagged
    ``RESULT_VIA_PIPE`` and sent over the pipe when oversized) — while
    the pipe keeps carrying control RPCs and fallback batches.

    A torn ring frame is unrecoverable by construction
    (:class:`~repro.concurrency.transport.TornFrameError`): the worker
    dies and supervision restarts the tenant from its checkpoint.
    """
    server = _ShardServer()
    if transport_spec is None:
        while _serve_rpc(conn, server):
            pass
        return
    channel = WorkerChannel.attach(transport_spec)
    parent = multiprocessing.parent_process()
    active = 0
    try:
        while True:
            payload = channel.try_read()    # raises on a torn frame
            if payload is not None:
                active = 64                 # stay hot through a burst
                faults.fire("shard.ring.read")
                started = process_time()
                batches_before = server.batches
                seq = channel.peek_seq(payload)
                results: List[tuple] = []
                try:
                    _, rows = channel.decode(payload)
                    results = server._push_batch(rows)
                    if not results:
                        status, blob = RESULT_EMPTY, b""
                    else:
                        blob = pickle.dumps(
                            results, pickle.HIGHEST_PROTOCOL)
                        if channel.result_fits(blob):
                            status = RESULT_PICKLED
                        else:
                            status, blob = RESULT_VIA_PIPE, b""
                except BaseException as exc:  # noqa: BLE001 - reported
                    status = RESULT_ERROR
                    try:
                        blob = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
                    except Exception:
                        blob = pickle.dumps(RuntimeError(
                            f"shard worker error (unpicklable): {exc!r}"),
                            pickle.HIGHEST_PROTOCOL)
                handled = server.batches - batches_before
                server.busy_seconds += (process_time() - started) \
                    - (server.last_batch_seconds if handled else 0.0)
                while not channel.try_send_result(seq, status, blob):
                    if parent is not None and not parent.is_alive():
                        return              # facade gone: die quietly
                    time_module.sleep(0.0005)
                if status == RESULT_VIA_PIPE:
                    # The marker reserves the pipe's next message for
                    # this batch (the facade never interleaves control
                    # RPCs with outstanding batches).
                    try:
                        conn.send(("ok", results))
                    except (BrokenPipeError, OSError):
                        return
                continue
            # Idle ring: serve the pipe (control RPCs, fallback
            # batches), with a tighter poll while a burst is running.
            if conn.poll(0.0005 if active else 0.005):
                if not _serve_rpc(conn, server):
                    return
            elif active:
                active -= 1
    finally:
        channel.close()


def _thread_worker_main(server: "_ShardServer", requests: "queue.Queue",
                        responses: "queue.Queue") -> None:
    """Entry point of a thread-mode shard worker (same protocol as the
    process loop, over in-memory queues — no serialisation)."""
    while True:
        cmd, payload = requests.get()
        if cmd == "shutdown":
            responses.put(("ok", None))
            return
        try:
            responses.put(("ok", server.handle(cmd, payload)))
        except BaseException as exc:  # noqa: BLE001 - reported to facade
            responses.put(("error", exc))


# --------------------------------------------------------------------- #
# Facade side
# --------------------------------------------------------------------- #

class _ProcessHandle:
    """Facade-side endpoint of a process shard.

    Always carries the duplex pipe (control RPCs, oversized fallbacks);
    under ``transport="shm"`` it additionally owns a
    :class:`~repro.concurrency.transport.FacadeChannel` — a pair of
    shared-memory rings the batch hot path rides with zero pickling.
    When shared memory is unavailable the handle silently degrades to
    pipe-only (``transport`` records what it actually got).
    """

    __slots__ = ("conn", "process", "channel", "transport",
                 "_result_backlog")

    def __init__(self, transport: str = "shm") -> None:
        self.channel: Optional[FacadeChannel] = None
        self.transport = "pipe"
        self._result_backlog: deque = deque()
        spec = None
        if transport == "shm":
            try:
                self.channel = FacadeChannel()
            except (TransportError, OSError):
                self.channel = None     # degraded: pipe carries batches
            else:
                self.transport = "shm"
                spec = self.channel.spec()
        # The platform's default start method: forcing fork would be
        # faster but unsafe when workers are (re-)spawned from a
        # threaded host — e.g. Session.restore in an application with
        # background threads — where a forked child can inherit a held
        # lock and deadlock.  _shard_worker_main is a top-level function
        # precisely so spawn/forkserver can import it.
        ctx = multiprocessing.get_context()
        self.conn, child = ctx.Pipe(duplex=True)
        try:
            self.process = ctx.Process(
                target=_shard_worker_main, args=(child, spec), daemon=True)
            self.process.start()
        except BaseException:
            if self.channel is not None:
                self.channel.close()
            raise
        child.close()

    def kill(self) -> None:
        """Hard-kill the worker (``SIGKILL``) — the chaos path a
        ``kill_worker`` fault takes."""
        self.process.kill()

    def is_alive(self) -> bool:
        """Whether the worker process is still running."""
        return self.process.is_alive()

    # -- ring transport ------------------------------------------------ #
    @property
    def ring_capable(self) -> bool:
        """Whether batches can ride the shared-memory rings."""
        return self.channel is not None

    def encode_batch(self, rows):
        """Encode one batch for the data ring; ``None`` when the frame
        could never fit (caller takes the pipe fallback)."""
        return self.channel.encode_batch(rows)

    def ring_send(self, frame, timeout: Optional[float]) -> None:
        """Publish one encoded batch frame, blocking while the data
        ring is full.  The wait loop keeps draining the return path
        into the backlog — the worker may itself be blocked publishing
        results, and only the facade can break that cycle.
        """
        faults.fire("shard.ring.write", kill=self.kill)
        channel = self.channel
        deadline = None if timeout is None \
            else time_monotonic() + timeout
        try:
            while not channel.try_send(frame):
                drained = self._drain_results()
                if not self.process.is_alive():
                    raise ShardDeadError(
                        f"shard worker died (exitcode="
                        f"{self.process.exitcode})")
                if deadline is not None and time_monotonic() > deadline:
                    raise ShardDeadError(
                        f"shard worker unresponsive past the {timeout}s "
                        "RPC deadline (data ring full)")
                if not drained:
                    time_module.sleep(0.0005)
        except TransportError as exc:
            raise ShardDeadError(
                f"shard ring transport failed: {exc}") from exc

    def _drain_results(self) -> bool:
        """Move every available result frame into the backlog (filling
        via-pipe payloads opportunistically); ``True`` if anything
        moved.  Keeps the worker's result ring from wedging while the
        facade waits on the data ring."""
        moved = False
        while True:
            got = self.channel.try_recv()
            if got is None:
                break
            status, blob = got
            # Via-pipe payloads are materialised lazily: [status, blob]
            # with blob None until the pipe delivers it (strictly FIFO —
            # the worker reserves the pipe's next message per marker).
            self._result_backlog.append(
                [status, None if status == RESULT_VIA_PIPE else blob])
            moved = True
        for entry in self._result_backlog:
            if entry[0] != RESULT_VIA_PIPE or entry[1] is not None:
                continue
            try:
                if not self.conn.poll(0):
                    break
                status, result = self.conn.recv()
            except (EOFError, OSError) as exc:
                raise ShardDeadError(
                    "shard worker died mid-result") from exc
            if status == "error":   # pragma: no cover - defensive
                raise result
            entry[1] = result
            moved = True
            break       # at most one pending via-pipe payload at a time
        return moved

    def ring_recv(self, timeout: Optional[float]):
        """Collect one ring batch's results (in dispatch order);
        re-raises worker exceptions, same liveness/deadline contract as
        :meth:`recv`."""
        faults.fire("shard.ring.read", kill=self.kill)
        deadline = None if timeout is None \
            else time_monotonic() + timeout
        try:
            while not self._result_backlog:
                if self._drain_results():
                    continue
                if not self.process.is_alive():
                    # One final drain: the worker may have answered and
                    # then exited between checks.
                    if self._drain_results():
                        continue
                    raise ShardDeadError(
                        f"shard worker died (exitcode="
                        f"{self.process.exitcode})")
                if deadline is not None and time_monotonic() > deadline:
                    raise ShardDeadError(
                        f"shard worker unresponsive past the {timeout}s "
                        "RPC deadline")
                time_module.sleep(0.0005)
            status, blob = self._result_backlog.popleft()
        except TransportError as exc:
            raise ShardDeadError(
                f"shard ring transport failed: {exc}") from exc
        if status == RESULT_EMPTY:
            return []
        if status == RESULT_PICKLED:
            return pickle.loads(blob)
        if status == RESULT_VIA_PIPE:
            if blob is not None:
                return blob
            result = self.recv(timeout)
            return result
        if status == RESULT_ERROR:
            raise pickle.loads(blob)
        raise ShardDeadError(             # pragma: no cover - defensive
            f"unknown result status {status}")

    def send(self, cmd: str, payload) -> None:
        """Dispatch a command without waiting for its result."""
        faults.fire("shard.rpc.send", kill=self.kill)
        try:
            self.conn.send((cmd, payload))
        except (BrokenPipeError, OSError) as exc:
            raise ShardDeadError(
                f"shard worker pipe broken sending {cmd!r}") from exc

    def recv(self, timeout: Optional[float] = None):
        """Collect one command's result; re-raises worker exceptions.

        Polls the pipe in short steps, checking worker liveness between
        them, so a crashed shard raises :class:`ShardDeadError` promptly
        instead of blocking the facade forever.  ``timeout`` bounds the
        whole wait (``None`` = only the liveness check applies).
        """
        faults.fire("shard.rpc.recv", kill=self.kill)
        deadline = None if timeout is None \
            else time_monotonic() + timeout
        while True:
            try:
                if self.conn.poll(0.05):
                    status, result = self.conn.recv()
                    break
            except (EOFError, OSError) as exc:
                raise ShardDeadError("shard worker died mid-call") from exc
            if not self.process.is_alive():
                # One final drain: the worker may have answered and then
                # exited between our poll and the liveness check.
                try:
                    if self.conn.poll(0):
                        status, result = self.conn.recv()
                        break
                except (EOFError, OSError):
                    pass
                raise ShardDeadError(
                    f"shard worker died (exitcode="
                    f"{self.process.exitcode})")
            if deadline is not None and time_monotonic() > deadline:
                raise ShardDeadError(
                    f"shard worker unresponsive past the {timeout}s "
                    "RPC deadline")
        if status == "error":
            raise result
        return result

    def shutdown(self) -> None:
        """Stop the worker process (graceful, then terminate) and
        unlink the shared-memory rings."""
        try:
            self.conn.send(("shutdown", None))
            if self.conn.poll(2.0):
                self.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():    # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=1.0)
        try:
            self.conn.close()
        except OSError:                # pragma: no cover - defensive
            pass
        if self.channel is not None:
            try:
                self.channel.close()
            except Exception:          # pragma: no cover - defensive
                pass
            self.channel = None


class _ThreadHandle:
    """Facade-side endpoint of a thread shard (request/response queues).

    Never ring-capable: thread shards share the facade's address space,
    so "serialisation" is already free — ``transport`` reads
    ``"inline"`` in stats to make that explicit.
    """

    __slots__ = ("requests", "responses", "thread", "server")

    #: Thread shards pass objects by reference; rings would only add
    #: copies.
    ring_capable = False
    transport = "inline"

    def __init__(self) -> None:
        self.server = _ShardServer(clock=thread_time)
        self.requests: queue.Queue = queue.Queue()
        self.responses: queue.Queue = queue.Queue()
        self.thread = threading.Thread(
            target=_thread_worker_main,
            args=(self.server, self.requests, self.responses), daemon=True)
        self.thread.start()

    def kill(self) -> None:
        """Threads cannot be hard-killed; poison the request queue so
        the dispatch loop exits (the closest chaos analogue)."""
        self.requests.put(("shutdown", None))

    def is_alive(self) -> bool:
        """Whether the worker thread is still running."""
        return self.thread.is_alive()

    def send(self, cmd: str, payload) -> None:
        """Enqueue a command without waiting for its result."""
        faults.fire("shard.rpc.send", kill=self.kill)
        self.requests.put((cmd, payload))

    def recv(self, timeout: Optional[float] = None):
        """Collect one command's result; re-raises worker exceptions.
        Same liveness/deadline contract as the process handle."""
        faults.fire("shard.rpc.recv", kill=self.kill)
        deadline = None if timeout is None \
            else time_monotonic() + timeout
        while True:
            try:
                status, result = self.responses.get(timeout=0.05)
                break
            except queue.Empty:
                if not self.thread.is_alive():
                    raise ShardDeadError(
                        "shard worker thread exited mid-call") from None
                if deadline is not None and time_monotonic() > deadline:
                    raise ShardDeadError(
                        f"shard worker unresponsive past the {timeout}s "
                        "RPC deadline") from None
        if status == "error":
            raise result
        return result

    def shutdown(self) -> None:
        """Stop the worker thread."""
        self.requests.put(("shutdown", None))
        self.thread.join(timeout=2.0)


def _spawn_handle(mode: str, transport: str = "shm"):
    """A fresh worker endpoint for ``mode`` (``"process"``/``"thread"``);
    ``transport`` picks the process batch path (``"shm"``/``"pipe"``)."""
    return _ProcessHandle(transport) if mode == "process" \
        else _ThreadHandle()


def _shutdown_handles(handles: List) -> None:
    """GC/exit finalizer: stop every live worker (must not close over the
    session — it runs after the session is unreachable)."""
    for handle in handles:
        if handle is not None:
            try:
                handle.shutdown()
            except Exception:          # pragma: no cover - defensive
                pass


class _ShardState:
    """Facade-side record of one shard: its head-count and worker."""

    __slots__ = ("index", "members", "handle")

    def __init__(self, index: int, handle) -> None:
        self.index = index
        self.members = 0
        self.handle = handle


class ShardedSession(Session):
    """A :class:`~repro.api.Session` whose matchers run on worker shards.

    Constructed transparently by ``Session(sharding="process"|"thread",
    shards=N)`` (see :data:`repro.api.SHARDING_MODES` and the module
    docstring for the architecture).  The facade keeps the public session
    surface; each shard worker owns an unsharded sub-session with the
    queries whose names hash to it.

    Differences from an unsharded session, all by construction:

    * ``register`` requires a shareable window (a duration, or a fresh
      time/count policy object) and a built-in backend name — factory
      backends and custom window policies cannot cross a shard boundary;
    * ``register``/``matcher`` return the live engine only under
      ``sharding="thread"``; under ``"process"`` the engine lives in a
      worker, so ``register`` returns ``None`` and ``matcher`` returns a
      read-only *snapshot* (mutating it affects nothing);
    * sink callbacks fire in the facade process after each dispatched
      batch (``push`` is a batch of one, so per-arrival delivery is
      preserved for single pushes);
    * workers are OS resources: call :meth:`close` (or use the session
      as a context manager) when done — a garbage-collected session
      shuts its workers down as a fallback.

    The ``(name, match)`` stream, per-query results, stats and
    checkpoint round-trips are those of the naive matcher, as for
    ``sharding="none"``; ``tests/test_session_model.py`` pins that.
    """

    def __init__(self, **session_options) -> None:
        super().__init__(**session_options)
        if self.config.sharding == "none":      # pragma: no cover
            raise ValueError("ShardedSession requires a sharding mode; "
                             "use Session for sharding='none'")
        self._mode = self.config.sharding
        self._shard_count = self.config.shards
        self._transport = self.config.transport
        # The facade admits over the full stream but hosts no engine, so
        # nobody needs to hear about expiries; the inherited route index
        # carries shard indexes as payloads, and the inherited query
        # table's records name a shard instead of holding a matcher.
        self._admission = Admission()
        self._facade_seconds = 0.0
        self._closed = False
        # Attached first: a spawn failing part-way leaves nothing running.
        self._handles: List = []
        self._finalizer = weakref.finalize(
            self, _shutdown_handles, self._handles)
        self._shards: List[_ShardState] = []
        for i in range(self._shard_count):
            self._handles.append(_spawn_handle(self._mode, self._transport))
            self._shards.append(_ShardState(i, self._handles[-1]))

    # ------------------------------------------------------------------ #
    # Worker plumbing
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker shards down (idempotent).  The session cannot
        be used afterwards; checkpoint first if the state matters."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _shutdown_handles(self._handles)

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def _call(self, shard: _ShardState, cmd: str, payload=None, *,
              timeout: float = DEFAULT_RPC_TIMEOUT):
        shard.handle.send(cmd, payload)
        return shard.handle.recv(timeout)

    def _call_all(self, cmd: str, payload=None) -> List:
        """One command to every shard, gathered in shard order.  All
        responses are collected before any error is raised, so the
        request/response streams never desynchronise."""
        for shard in self._shards:
            shard.handle.send(cmd, payload)
        results, errors = [], []
        for shard in self._shards:
            try:
                results.append(shard.handle.recv(DEFAULT_RPC_TIMEOUT))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            raise errors[0]
        return results

    def shard_health(self, *, ping_timeout: float = 2.0) -> List[dict]:
        """Per-shard liveness: worker alive + heartbeat answered.

        Degrades gracefully — a dead or wedged shard yields
        ``{"alive": False, ...}`` rather than raising, so health probes
        never take the gateway down.
        """
        self._check_open()
        out = []
        for shard in self._shards:
            entry = {"shard": shard.index, "queries": shard.members,
                     "alive": False, "responsive": False}
            handle = shard.handle
            if handle is not None and handle.is_alive():
                entry["alive"] = True
                try:
                    beat = self._call(shard, "ping", timeout=ping_timeout)
                    entry["responsive"] = bool(beat.get("pong"))
                    entry["edges_received"] = beat.get("edges_received", 0)
                except Exception:     # wedged or died under the probe
                    entry["alive"] = handle.is_alive()
            out.append(entry)
        return out

    def _sync_shards(self) -> None:
        """Advance every shard to the facade clock so reads observe the
        same expiries an unsharded session would have applied."""
        if self.current_time > float("-inf"):
            self._call_all("advance", self.current_time)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, name: str, query, *, window=None, backend="timing",
                 config: Optional[EngineConfig] = None,
                 callback: Optional[MatchCallback] = None,
                 **engine_options):
        """Add a named query on the shard its name hashes to.

        Same contract as :meth:`repro.api.Session.register` with the
        sharding restrictions: ``backend`` must be a built-in name and
        the window must be shareable (see the class docstring).  Returns
        the engine under ``sharding="thread"`` and ``None`` under
        ``"process"`` (the engine lives in a worker process).
        """
        self._check_open()
        query, window = self._resolve_registration(name, query, window)
        if callable(backend) and backend not in BACKENDS:
            raise ValueError(
                "factory backends cannot cross a shard boundary; register "
                "them on a sharding='none' session instead")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend: {backend!r} "
                             f"(expected one of {BACKENDS})")
        key = group_key(window)
        if key is None:
            raise ValueError(
                "sharded sessions require a shareable window (a duration, "
                "or a time-/count-based policy object); register "
                f"query {name!r} on a sharding='none' session instead")
        config = (config if config is not None else self.config).validate()
        config = config.replace(sharding="none")
        policy = engine_options.get(
            "duplicate_policy", config.duplicate_policy)
        if policy not in DUPLICATE_POLICIES:
            raise ValueError(
                f"unknown duplicate policy: {policy!r} "
                f"(expected one of {DUPLICATE_POLICIES})")
        query.validate()
        # Worker first: a failed registration must leave the facade
        # untouched (and the worker's own register is transactional).
        shard = self._shards[shard_of(name, self._shard_count)]
        self._call(shard, "register", {
            "name": name, "query": query, "window": window,
            "backend": backend, "config": config,
            "options": engine_options})
        self._install(_QueryRecord(
            name, self._next_ordinal, None, callback, window, query=query,
            backend=backend, config=config, options=engine_options))
        self._next_ordinal += 1
        return self.matcher(name) if self._mode == "thread" else None

    def _install(self, record: _QueryRecord) -> None:
        """The facade's half of a registration: roster, route index and
        head-count."""
        key = record.group_key = group_key(record.window)
        shard = self._shards[shard_of(record.name, self._shard_count)]
        record.shard = shard.index
        self._queries[record.name] = record
        policy = record.options.get("duplicate_policy",
                                    record.config.duplicate_policy)
        self._admission.enroll(key, (record.ordinal, record), policy)
        # A count window expires by stream position, not labels: its
        # shard needs every arrival as capacity ballast.
        self._index.add(record.name, shard.index,
                        ALWAYS_ROUTED if key[0] == "count"
                        else record.query.label_signatures())
        shard.members += 1

    def deregister(self, name: str) -> None:
        """Remove a query: its worker drains outstanding work, releases
        its shared-window subscription and sub-plan refcounts, and the
        facade rebalances its routing tables (a shard left empty stops
        receiving arrivals)."""
        self._check_open()
        record = self._record(name)
        shard = self._shards[record.shard]
        self._call(shard, "deregister", name)
        del self._queries[name]
        self._admission.withdraw(record.group_key, (record.ordinal, record))
        self._index.remove(name)
        shard.members -= 1
        # Sinks filtered to this query die with it, like the base class.
        self._sinks = [(q, s) for q, s in self._sinks if q != name]

    def matcher(self, name: str):
        """The query's engine: the live object under ``"thread"``, a
        read-only snapshot under ``"process"`` (rebuilt from its shard's
        checkpoint data; stream through the session, not the snapshot)."""
        self._check_open()
        shard = self._shards[self._record(name).shard]
        if self.current_time > float("-inf"):
            self._call(shard, "advance", self.current_time)
        if self._mode == "thread":
            return shard.handle.server.session.matcher(name)
        return rebuild(self._call(shard, "snapshot")).matcher(name)

    def shard_assignments(self) -> Dict[str, int]:
        """``query name -> shard index`` for every registered query."""
        return {name: record.shard
                for name, record in self._queries.items()}

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def _stage(self, idx: int, edge: StreamEdge,
               per_shard: List[list]) -> None:
        """Admit one arrival (raises side-effect-free like the base
        class) and stage it on the shards the route index names."""
        live = self._admission.admit(edge)
        targets = self._index.targets(edge)
        if live is not None:
            # Count-policy members of a duplicate's group keep their
            # skipped-arrival accounting in their own shard, so those
            # shards must hear about the arrival even when no member
            # could consume it.
            groups = self._admission.groups
            extra = {record.shard for key in live
                     for _, record in groups[key].entries("count")}
            extra.difference_update(targets)
            if extra:
                targets = targets + sorted(extra)
        wire = edge if self._mode == "thread" else _edge_to_wire(edge)
        targeted = 0
        for index in targets:
            per_shard[index].append((idx, wire, live))
            targeted += self._shards[index].members
        self.skipped_matchers += len(self._queries) - targeted

    def _send_round(self, per_shard: List[list], drain):
        """Dispatch one staged round without collecting; returns the
        token :meth:`_collect_round` consumes.

        Ring-capable shards get a zero-pickle frame on their data ring.
        A batch too large for a ring (or staged for a pipe-only shard)
        rides the pipe; for a ring-capable shard that fallback must not
        overtake in-flight ring frames — the worker polls its ring
        first — so ``drain`` (collect every outstanding round) runs
        before the fallback is sent, and the fallback is collected
        inline before this method returns.
        """
        pending: List[Tuple[_ShardState, bool]] = []
        fallbacks: List[_ShardState] = []
        for shard in self._shards:
            rows = per_shard[shard.index]
            if not rows:
                continue
            handle = shard.handle
            if handle.ring_capable:
                frame = handle.encode_batch(rows)
                if frame is None:
                    fallbacks.append(shard)
                    continue
                handle.ring_send(frame, DEFAULT_RPC_TIMEOUT)
                pending.append((shard, True))
            else:
                handle.send("push_batch", rows)
                pending.append((shard, False))
        inline: List[Tuple[int, str, Match]] = []
        if fallbacks:
            drain()
            for shard in fallbacks:
                shard.handle.send("push_batch", per_shard[shard.index])
            errors: List[BaseException] = []
            for shard in fallbacks:
                try:
                    inline.extend(shard.handle.recv(DEFAULT_RPC_TIMEOUT))
                except BaseException as exc:  # noqa: BLE001 - below
                    errors.append(exc)
            if errors:
                raise errors[0]
        return pending, inline

    def _collect_round(self, token) -> List[Tuple[str, Match]]:
        """Gather one dispatched round, merge it in ``(arrival,
        registration ordinal)`` order and deliver to sinks."""
        pending, merged = token
        errors: List[BaseException] = []
        for shard, via_ring in pending:
            try:
                if via_ring:
                    merged.extend(
                        shard.handle.ring_recv(DEFAULT_RPC_TIMEOUT))
                else:
                    merged.extend(shard.handle.recv(DEFAULT_RPC_TIMEOUT))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            raise errors[0]
        queries = self._queries
        rows = [(idx, queries[name], match)
                for idx, name, match in merged if name in queries]
        rows.sort(key=lambda row: (row[0], row[1].ordinal))
        results: List[Tuple[str, Match]] = []
        for _, record, match in rows:
            # A query a sink callback deregistered since dispatch emits
            # nothing more, as in the unsharded loop.
            if queries.get(record.name) is record:
                results.append((record.name, match))
                self._deliver(record, match)
        return results

    def _pump(self, edges: Iterable[StreamEdge], consume) -> None:
        """Overlapped batch driver behind the inherited ``push`` /
        ``push_many`` / ``ingest``: arrivals are staged in
        :data:`DEFAULT_BATCH_SIZE` rounds and round ``N+1`` is dispatched
        while the shards are still chewing round ``N``, keeping up to
        :data:`DEFAULT_OVERLAP_DEPTH` rounds in flight.  ``consume``
        receives each collected round's deterministically merged
        ``(name, match)`` list, in round order.

        Same partial-progress contract as the base class: a mid-batch
        rejection still dispatches (and delivers) the staged prefix — and
        every already-dispatched round — before the error propagates.

        The facade's CPU across the whole call (admission, staging,
        serialisation, gather, merge, sink delivery) is accumulated as
        its pipeline-stage cost; ``thread_time`` does not tick while
        waiting on workers.
        """
        self._check_open()
        outstanding: deque = deque()

        def drain() -> None:
            while outstanding:
                consume(self._collect_round(outstanding.popleft()))

        def flush(batch: List[StreamEdge]) -> None:
            per_shard: List[list] = [[] for _ in self._shards]
            try:
                for idx, edge in enumerate(batch):
                    self._stage(idx, edge, per_shard)
            except BaseException:
                outstanding.append(self._send_round(per_shard, drain))
                raise
            outstanding.append(self._send_round(per_shard, drain))

        started = thread_time()
        try:
            try:
                batch: List[StreamEdge] = []
                for edge in edges:
                    batch.append(edge)
                    if len(batch) >= DEFAULT_BATCH_SIZE:
                        flush(batch)
                        batch = []
                        while len(outstanding) >= DEFAULT_OVERLAP_DEPTH:
                            consume(self._collect_round(
                                outstanding.popleft()))
                if batch:
                    flush(batch)
            except BaseException:
                drain()
                raise
            drain()
        finally:
            self._facade_seconds += thread_time() - started

    def advance_time(self, timestamp: float) -> None:
        """Slide every shard's windows forward without an arrival."""
        self._check_open()
        self._admission.advance(timestamp)
        self._call_all("advance", timestamp)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def _merged(self, collect: str) -> Dict:
        self._check_open()
        self._sync_shards()
        merged: Dict = {}
        for result in self._call_all("collect", collect):
            merged.update(result)
        return merged

    def result_counts(self) -> Dict[str, int]:
        """Per-query current-window match counts, merged across shards."""
        return self._merged("result_counts")

    def current_matches(self) -> Dict[str, List[Match]]:
        """Per-query answer sets, merged across shards."""
        return self._merged("current_matches")

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-query engine counters, merged across shards."""
        return self._merged("stats")

    def space_cells(self) -> int:
        """Physical partial-match cells across all shards (shard stores
        are disjoint, so the sum is exact)."""
        self._check_open()
        self._sync_shards()
        return sum(self._call_all("collect", "space_cells"))

    def shared_window_cells(self) -> int:
        """Edges held across every shard's shared window buffers.  Each
        shard buffers only its routed arrivals, so the sum is the actual
        replication cost of sharding the window."""
        self._check_open()
        self._sync_shards()     # count against the facade clock
        return sum(self._call_all("collect", "shared_window_cells"))

    def window_cells(self) -> int:
        """Total window buffer cells across all shards."""
        self._check_open()
        self._sync_shards()     # count against the facade clock
        return sum(self._call_all("collect", "window_cells"))

    def session_stats(self) -> Dict[str, object]:
        """Merged session counters: the unsharded keys (summed across
        shards where additive) plus ``sharding``/``shards``, the facade
        dispatch time, and a ``per_shard`` breakdown with each worker's
        busy seconds — the stage costs of a pipeline model.
        """
        self._check_open()
        self._sync_shards()
        inner = self._call_all("collect", "session_stats")
        perf = self._call_all("perf")
        per_shard = []
        for shard, stats, timing in zip(self._shards, inner, perf):
            per_shard.append({
                "shard": shard.index,
                "queries": shard.members,
                "transport": shard.handle.transport,
                "edges_received": timing["edges_received"],
                "batches": timing["batches"],
                "busy_seconds": round(timing["busy_seconds"], 4),
                "routed_pushes": stats["routed_pushes"],
            })
        if self._mode == "thread":
            transport = "inline"
        elif all(s.handle.ring_capable for s in self._shards):
            transport = "shm"
        else:
            transport = "pipe"
        return {
            "sharding": self._mode,
            "shards": self._shard_count,
            "transport": transport,
            "queries": len(self._queries),
            "shared_groups": len(self._admission.groups),
            "edges_pushed": self.edges_pushed,
            "routed_pushes": sum(s["routed_pushes"] for s in inner),
            "skipped_matchers": self.skipped_matchers
            + sum(s["skipped_matchers"] for s in inner),
            "stateless_queries": sum(s["stateless_queries"] for s in inner),
            "shared_window_cells": sum(
                s["shared_window_cells"] for s in inner),
            "window_cells": sum(s["window_cells"] for s in inner),
            "subplan_sharing": self.config.subplan_sharing,
            "shared_subplans": sum(s["shared_subplans"] for s in inner),
            "subplan_consumers": sum(s["subplan_consumers"] for s in inner),
            "subplan_store_cells": sum(
                s["subplan_store_cells"] for s in inner),
            "subplan_reuses": sum(s["subplan_reuses"] for s in inner),
            "predicate_entries": len(self._index.router),
            "predicate_trie_nodes": self._index.router.node_count(),
            "route_memo_clears": self._index.memo_clears,
            "route_memo_entries": len(self._index.memo),
            "facade_cpu_seconds": round(self._facade_seconds, 4),
            "per_shard": per_shard,
        }

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def shard_snapshots(self) -> List[dict]:
        """Each sub-session's checkpoint data, at the facade clock."""
        self._check_open()
        self._sync_shards()
        return self._call_all("snapshot")

    def adopt_shards(self, snapshots: List[dict]) -> None:
        """Each worker rebuilds its sub-session from its entry."""
        for shard, data in zip(self._shards, snapshots):
            self._call(shard, "adopt", data)

    def __repr__(self) -> str:
        status = "closed" if self._closed else "open"
        return (f"ShardedSession({len(self._queries)} queries, "
                f"{self._mode} x {self._shard_count}, {status}, "
                f"t={self.current_time})")
