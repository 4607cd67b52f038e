"""Concurrency management: S/X locks and the executor/simulator pair
(paper §V).

:class:`ConcurrentStreamExecutor` runs one engine's edge transactions on
worker threads under S/X item locks, and :class:`ConcurrencySimulator`
replays the recorded lock traces to model the speed-up the GIL hides.
"""

from .executor import ConcurrentStreamExecutor
from .locks import AllLocksGuard, ItemLock, ItemLockGuard, LockTable
from .simulation import ConcurrencySimulator, TxnTrace, collect_trace
from .transactions import lock_requests_for_delete, lock_requests_for_insert

__all__ = [
    "ConcurrentStreamExecutor",
    "ItemLock", "LockTable", "ItemLockGuard", "AllLocksGuard",
    "ConcurrencySimulator", "TxnTrace", "collect_trace",
    "lock_requests_for_insert", "lock_requests_for_delete",
]
