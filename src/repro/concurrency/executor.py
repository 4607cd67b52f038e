"""Multi-threaded streaming executor (paper §V, Algorithm 3).

One main thread walks the stream.  Per tick it models the expiries and the
arrival as *transactions*: it dispatches each transaction's predicted lock
requests to the item wait-lists (in chronological order — the property
Theorem 4's streaming-consistency proof rests on) and then launches the
transaction on a worker thread.  Workers execute the exact same engine code
as the serial path, with an :class:`~repro.concurrency.locks.ItemLockGuard`
supplying the S/X locking around every item access.

Because CPython's GIL serialises bytecode execution, this executor cannot
demonstrate wall-clock *speed-up* — that is the job of the deterministic
simulator in :mod:`repro.concurrency.simulation`, which replays the same
lock traces.  What the real threads demonstrate (and the tests verify) is
**streaming consistency**: the reported matches and the final store state
equal the serial chronological execution, for any thread count.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, Hashable, Iterable, List, Tuple

from ..core.engine import TimingMatcher
from ..core.matches import Match
from ..graph.edge import StreamEdge
from .locks import AllLocksGuard, ItemLockGuard, LockTable, TxnId
from .transactions import (
    Request, lock_requests_for_delete, lock_requests_for_insert, strongest,
)


class ConcurrentStreamExecutor:
    """Drives a :class:`TimingMatcher` with concurrent edge transactions.

    Parameters
    ----------
    matcher:
        The engine to drive.  Its internal window is bypassed — the executor
        owns expiry so that Del/Ins transactions can be interleaved.
    num_threads:
        Worker-pool size (the paper's ``Timing-N``).
    all_locks:
        ``True`` reproduces the ``All-locks-N`` comparator: a transaction
        acquires *every* predicted lock up-front and holds them to the end.
    """

    def __init__(self, matcher: TimingMatcher, num_threads: int = 4, *,
                 all_locks: bool = False) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be ≥ 1")
        self.matcher = matcher
        self.num_threads = num_threads
        self.all_locks = all_locks
        self._table = LockTable()
        self._serial = itertools.count()
        self._results: List[Tuple[float, Match]] = []
        self._results_lock = threading.Lock()
        # Edge id -> the future of its Ins, until its Del is launched.
        self._inserts: Dict[Hashable, Future] = {}

    # ------------------------------------------------------------------ #
    def run(self, stream: Iterable[StreamEdge]) -> List[Match]:
        """Process the whole stream; returns all reported matches.

        The matcher's sliding window object is used purely as the expiry
        bookkeeper (main thread); insertions/deletions against the expansion
        lists run on the worker pool.
        """
        window = self.matcher.window
        with ThreadPoolExecutor(max_workers=self.num_threads) as pool:
            pending = []
            for edge in stream:
                expired = window.push(edge)
                for old in expired:
                    pending.append(self._launch_delete(pool, old))
                pending.append(self._launch_insert(pool, edge))
            for future in pending:
                future.result()  # propagate worker exceptions
        return [match for _, match in sorted(
            self._results, key=lambda pair: pair[0])]

    def contention_report(self):
        """Per-item (grants, waits) from the run — see LockTable."""
        return self._table.contention_report()

    # ------------------------------------------------------------------ #
    def _next_txn(self, timestamp: float) -> TxnId:
        return (timestamp, next(self._serial))

    def _dispatch(self, txn: TxnId, requests: List[Request]) -> None:
        for item, mode in requests:
            self._table.lock_for(item).enqueue(txn, mode)

    def _withdraw(self, txn: TxnId) -> None:
        for lock in self._table.items():
            lock.cancel(txn)

    def _launch_insert(self, pool: ThreadPoolExecutor, edge: StreamEdge):
        txn = self._next_txn(edge.timestamp)
        requests = lock_requests_for_insert(self.matcher, edge)
        self._dispatch(txn, requests)
        future = pool.submit(self._run_insert, txn, edge, requests)
        self._inserts[edge.edge_id] = future
        return future

    def _launch_delete(self, pool: ThreadPoolExecutor, edge: StreamEdge):
        txn = self._next_txn(self.matcher.window.current_time)
        requests = lock_requests_for_delete(self.matcher, edge)
        self._dispatch(txn, requests)
        return pool.submit(self._run_delete, txn, edge, requests,
                           self._inserts.pop(edge.edge_id))

    # ------------------------------------------------------------------ #
    def _run_insert(self, txn: TxnId, edge: StreamEdge,
                    requests: List[Request]) -> None:
        guard = self._make_guard(txn, requests)
        try:
            matches = self.matcher.insert_edge(edge, guard)
        finally:
            self._finish(txn, requests)
        if matches:
            with self._results_lock:
                self._results.extend((edge.timestamp, m) for m in matches)

    def _run_delete(self, txn: TxnId, edge: StreamEdge,
                    requests: List[Request], inserted: Future) -> None:
        try:
            # Del(σ) reads what Ins(σ) recorded about σ (the engine matches
            # labels once, at insertion), so it must not overtake it.  The
            # locks already keep Del(σ) behind Ins(σ) on every item they
            # share; this covers the record, which is read before the
            # first lock.  Ins(σ) was submitted first and never waits on a
            # later transaction, so the wait cannot deadlock.
            inserted.result()
            guard = self._make_guard(txn, requests)
            self.matcher.delete_edge(edge, guard)
        finally:
            self._finish(txn, requests)

    def _make_guard(self, txn: TxnId, requests: List[Request]):
        if not self.all_locks:
            return ItemLockGuard(self._table, txn)
        # All-locks: take every predicted lock now (wait-list order), hold
        # until _finish; per-item guard calls become no-ops.
        for item, mode in strongest(requests):
            self._table.lock_for(item).acquire(txn, mode)
        return AllLocksGuard()

    def _finish(self, txn: TxnId, requests: List[Request]) -> None:
        if self.all_locks:
            for item, _ in strongest(requests):
                self._table.lock_for(item).release(txn)
        self._withdraw(txn)
