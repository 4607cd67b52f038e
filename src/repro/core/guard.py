"""Access-guard protocol: the seam between the engine and concurrency.

The paper's concurrent algorithms (§V) are the *same* insertion/deletion
algorithms as the serial ones, except that every elementary operation over an
expansion-list item is bracketed by lock acquire/release.  To keep one code
path, ``insert_edge(edge, guard)`` / ``delete_edge(edge, guard)`` call the
guard they are passed around each item access:

* :class:`TraceGuard` — records the (item, mode, cost) sequence; feeds the
  discrete-event concurrency simulator (§VII-D reproduction);
* ``ItemLockGuard`` (in :mod:`repro.concurrency.locks`) — real S/X locks with
  chronological wait-lists for the multi-threaded executor;
* :class:`NullGuard` — an explicit no-op, for a caller that wants the
  bracket sequence walked without effect.

A serial call passes no guard (``guard=None``, what ``push`` and a session
do) and pays for none: the engine then names no item and makes no call.
Passing one yields exactly §V's bracket sequence.

Items are identified by hashable tuples:

* ``("L", i, j)`` — item ``Lᵢʲ`` of TC-subquery ``Qⁱ⁺¹``'s expansion list
  (``i`` is the 0-based subquery index, ``j`` the 1-based level);
* ``("L0", j)`` — item ``L₀ʲ`` of the global expansion list (``j ≥ 2``;
  ``L₀¹`` is virtual and aliases the first subquery's last item).

``cost`` passed at release is the number of partial matches touched — the
unit the simulator uses as service time.
"""

from __future__ import annotations

from typing import List, Tuple

Item = Tuple
Mode = str  # "S" (shared) or "X" (exclusive)


class NullGuard:
    """No-op guard: every bracket is walked, none does anything."""

    __slots__ = ()

    def acquire(self, item: Item, mode: Mode) -> None:
        pass

    def release(self, item: Item, cost: int = 0) -> None:
        pass


class TraceGuard:
    """Records the elementary-operation trace of one transaction.

    The trace is a list of ``(item, mode, cost)`` triples in *acquire* order
    (the order that must match the main thread's dispatch); the cost of an
    operation only becomes known at release time, so acquire appends a
    zero-cost entry that the matching release completes.  Releases must be
    LIFO with respect to acquires (which the engine guarantees).
    """

    __slots__ = ("ops", "_open")

    def __init__(self) -> None:
        self.ops: List[Tuple[Item, Mode, int]] = []
        self._open: List[int] = []  # stack of indices into ops

    def acquire(self, item: Item, mode: Mode) -> None:
        self._open.append(len(self.ops))
        self.ops.append((item, mode, 0))

    def release(self, item: Item, cost: int = 0) -> None:
        if not self._open:
            raise RuntimeError(f"unbalanced guard release for {item!r}")
        index = self._open.pop()
        recorded_item, mode, _ = self.ops[index]
        if recorded_item != item:
            raise RuntimeError(
                f"non-LIFO guard release: expected {recorded_item!r}, "
                f"got {item!r}")
        self.ops[index] = (item, mode, cost)
