"""Deterministic discrete-event simulation of the concurrent executor.

Why this exists: the paper's Figs. 19/20 measure wall-clock *speed-up* of the
fine-grained locking scheme (``Timing-N``) against a coarse comparator
(``All-locks-N``) on real C++ threads.  CPython's GIL serialises bytecode, so
a pure-Python reproduction cannot observe parallel speed-up directly.  What
those figures actually quantify, however, is the **degree of concurrency the
locking protocol admits** — a property of the lock-request traces, not of
the hardware.  This module therefore:

1. replays the stream through the *serial* engine with a
   :class:`~repro.core.guard.TraceGuard`, recording each transaction's
   elementary operations ``(item, mode, cost)`` and its worst-case predicted
   lock requests (what the main thread would dispatch);
2. simulates ``N`` workers executing those transactions under either
   protocol, with chronological wait-lists exactly as in
   :mod:`repro.concurrency.locks`;
3. reports makespans; ``speed-up(N) = makespan(1) / makespan(N)``.

Service time of an operation is ``base + unit · cost`` where ``cost`` is the
number of partial matches the real engine touched — so the simulation is
workload-faithful, not synthetic.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.engine import TimingMatcher
from ..core.guard import TraceGuard
from ..graph.edge import StreamEdge
from .transactions import (
    Request, lock_requests_for_delete, lock_requests_for_insert, strongest,
)

Item = Tuple
Op = Tuple[Item, str, int]  # (item, mode, cost)


class TxnTrace:
    """One transaction's recorded behaviour: predicted requests + actual ops."""

    __slots__ = ("kind", "timestamp", "requests", "ops")

    def __init__(self, kind: str, timestamp: float,
                 requests: List[Request], ops: List[Op]) -> None:
        self.kind = kind            # "ins" or "del"
        self.timestamp = timestamp
        self.requests = requests    # worst-case dispatch (superset of ops)
        self.ops = ops              # what the engine actually did

    def __repr__(self) -> str:
        return (f"TxnTrace({self.kind}@{self.timestamp}, "
                f"{len(self.ops)} ops)")


def collect_trace(matcher: TimingMatcher,
                  stream: Iterable[StreamEdge]) -> List[TxnTrace]:
    """Replay ``stream`` serially, recording one trace per transaction.

    Transactions appear in chronological order: each arrival first triggers
    the deletions it expires, then its own insertion (Algorithm 3).
    Transactions that would touch no expansion-list item (the arrival matches
    no query edge, or the expiree was never stored) are skipped, as the main
    thread skips them (Algorithm 3 lines 4/12).
    """
    traces: List[TxnTrace] = []
    for edge in stream:
        expired = matcher.window.push(edge)
        for old in expired:
            requests = lock_requests_for_delete(matcher, old)
            if not requests:
                matcher.delete_edge(old)
                continue
            guard = TraceGuard()
            matcher.delete_edge(old, guard)
            traces.append(TxnTrace("del", edge.timestamp, requests, guard.ops))
        requests = lock_requests_for_insert(matcher, edge)
        if not requests:
            matcher.insert_edge(edge)
            continue
        guard = TraceGuard()
        matcher.insert_edge(edge, guard)
        traces.append(TxnTrace("ins", edge.timestamp, requests, guard.ops))
    return traces


class _SimLock:
    """Wait-list + state of one item inside the simulator."""

    __slots__ = ("waitlist", "mode", "holders")

    def __init__(self) -> None:
        self.waitlist: List[Tuple[int, str]] = []  # (txn index, mode) FIFO
        self.mode: Optional[str] = None
        self.holders: Set[int] = set()

    def grantable(self, txn: int) -> bool:
        if not self.waitlist or self.waitlist[0][0] != txn:
            return False
        mode = self.waitlist[0][1]
        if self.mode is None:
            return True
        return self.mode == "S" and mode == "S"

    def grant(self, txn: int) -> None:
        _, mode = self.waitlist.pop(0)
        self.holders.add(txn)
        if mode == "X" or self.mode is None:
            self.mode = mode

    def release(self, txn: int) -> None:
        self.holders.discard(txn)
        if not self.holders:
            self.mode = None

    def cancel(self, txn: int) -> None:
        self.waitlist = [(t, m) for t, m in self.waitlist if t != txn]


class ConcurrencySimulator:
    """Simulates N workers executing recorded transaction traces.

    ``all_locks=True`` models the paper's comparator: a transaction acquires
    the strongest lock it needs on every item up-front (in request order),
    performs all its work, then releases everything.  The fine-grained model
    acquires/releases around each elementary operation, exactly like the real
    executor.
    """

    def __init__(self, traces: Sequence[TxnTrace], *,
                 base_cost: float = 1.0, unit_cost: float = 1.0) -> None:
        self.traces = list(traces)
        self.base_cost = base_cost
        self.unit_cost = unit_cost

    # ------------------------------------------------------------------ #
    def makespan(self, num_threads: int, *, all_locks: bool = False) -> float:
        """Simulated completion time of all transactions on N workers."""
        if num_threads < 1:
            raise ValueError("num_threads must be ≥ 1")
        if not self.traces:
            return 0.0

        # Build per-transaction schedules.
        schedules: List[List[Tuple[str, Item, float]]] = []
        dispatch: Dict[Item, List[Tuple[int, str]]] = {}
        for idx, trace in enumerate(self.traces):
            if all_locks:
                requests = strongest(trace.requests)
                plan = [("acq", item, 0.0) for item, _ in requests]
                work = sum(self.base_cost + self.unit_cost * cost
                           for _, _, cost in trace.ops)
                plan.append(("work", None, work))
                plan.extend(("rel", item, 0.0) for item, _ in requests)
                request_list: List[Request] = requests
            else:
                plan = []
                for item, mode, cost in trace.ops:
                    plan.append(("acq", item, 0.0))
                    plan.append(("work", item,
                                 self.base_cost + self.unit_cost * cost))
                    plan.append(("rel", item, 0.0))
                # Fine-grained dispatch is the worst-case prediction; the
                # actual ops consume a prefix-subsequence and the rest is
                # cancelled at commit.  Using the actual ops as the dispatch
                # keeps wait-lists exact without modelling cancellation lag.
                request_list = [(item, mode) for item, mode, _ in trace.ops]
            schedules.append(plan)
            for item, mode in request_list:
                dispatch.setdefault(item, []).append((idx, mode))

        locks: Dict[Item, _SimLock] = {}
        for item, requests in dispatch.items():
            lock = _SimLock()
            lock.waitlist = list(requests)  # chronological by construction
            locks[item] = lock

        # Worker pool state.
        next_txn = 0
        n_txns = len(self.traces)
        step: List[int] = [0] * n_txns            # program counter per txn
        assigned: List[Optional[int]] = [None] * num_threads
        blocked: Set[int] = set()                  # blocked worker ids
        events: List[Tuple[float, int, int]] = []  # (time, seq, worker)
        seq = 0
        clock = 0.0

        def try_advance(worker: int, now: float) -> None:
            """Run the worker's txn until it blocks, finishes a timed op, or
            completes the transaction."""
            nonlocal next_txn, seq
            while True:
                txn = assigned[worker]
                if txn is None:
                    if next_txn >= n_txns:
                        return
                    txn = next_txn
                    next_txn += 1
                    assigned[worker] = txn
                    step[txn] = 0
                plan = schedules[txn]
                if step[txn] >= len(plan):
                    # Commit: cancel leftover dispatch entries.
                    for lock in locks.values():
                        lock.cancel(txn)
                    assigned[worker] = None
                    continue
                kind, item, duration = plan[step[txn]]
                if kind == "acq":
                    lock = locks[item]
                    if not lock.grantable(txn):
                        blocked.add(worker)
                        return
                    lock.grant(txn)
                    step[txn] += 1
                    continue
                if kind == "rel":
                    locks[item].release(txn)
                    step[txn] += 1
                    continue
                # Timed work: schedule completion.
                step[txn] += 1
                heapq.heappush(events, (now + duration, seq, worker))
                seq += 1
                return

        for worker in range(num_threads):
            try_advance(worker, 0.0)
        while events:
            clock, _, worker = heapq.heappop(events)
            try_advance(worker, clock)
            # Lock releases may unblock others; iterate to fixpoint.
            progressed = True
            while progressed:
                progressed = False
                for other in list(blocked):
                    txn = assigned[other]
                    if txn is None:
                        blocked.discard(other)
                        progressed = True
                        continue
                    kind, item, _ = schedules[txn][step[txn]]
                    if kind == "acq" and locks[item].grantable(txn):
                        blocked.discard(other)
                        try_advance(other, clock)
                        progressed = True
        if any(assigned[w] is not None for w in range(num_threads)) \
                or next_txn < n_txns:
            raise RuntimeError("simulation deadlocked — protocol bug")
        return clock

    def speedup(self, num_threads: int, *, all_locks: bool = False) -> float:
        """``makespan(1, fine-grained) / makespan(N, protocol)``.

        The single-thread baseline is protocol-free (no waiting with one
        worker), matching the paper's normalisation where ``Timing-1`` and
        ``All-locks-1`` coincide at 1.0 — with one caveat reproduced from
        the paper: All-locks-N hovers near a constant because conflicting
        transactions fully serialise.
        """
        return self.makespan(1) / self.makespan(num_threads,
                                                all_locks=all_locks)

    def speedup_curve(self, thread_counts: Sequence[int], *,
                      all_locks: bool = False) -> List[float]:
        return [self.speedup(n, all_locks=all_locks) for n in thread_counts]
