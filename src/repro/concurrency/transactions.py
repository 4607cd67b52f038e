"""Transaction modelling: lock-request prediction for Ins(σ)/Del(σ).

The paper's main thread dispatches *all* lock requests of a transaction to
the item wait-lists before launching it (Algorithm 3, Fig. 13).  Requests are
computed in the worst case — "we always assume that the join result is not
empty" (§V-A) — so the predicted sequence is a superset of what the
transaction actually acquires; unconsumed requests are withdrawn when the
transaction finishes.  A join whose result is empty by the timing order
alone (see :func:`~repro.core.engine.timing_reach`) is not a worst case
but a certainty: the engine never runs it, and it is not predicted.

The prediction must mirror :class:`repro.core.engine.TimingMatcher`'s access
order exactly (same items, same relative order per matched query edge);
the unit test ``tests/concurrency/test_transactions.py`` asserts that the
engine's :class:`~repro.core.guard.TraceGuard` trace is always a subsequence
of the prediction.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.engine import TimingMatcher
from ..graph.edge import StreamEdge

Item = Tuple
Request = Tuple[Item, str]  # (item, "S" | "X")


def _prefix_read_item(matcher: TimingMatcher, prefix_level: int) -> Item:
    """The item read for ``Ω(L₀^{prefix_level})`` — level 1 is virtual and
    aliases the first subquery's last item (see GlobalMSTreeStore.read)."""
    if prefix_level >= 2:
        return ("L0", prefix_level)
    return ("L", 0, len(matcher.join_order[0]))


def lock_requests_for_insert(matcher: TimingMatcher,
                             edge: StreamEdge) -> List[Request]:
    """Worst-case lock-request sequence of ``Ins(edge)`` (cf. Fig. 13).
    A stateless (one-edge) plan has no items, hence no requests."""
    requests: List[Request] = []
    if matcher.stateless:
        return requests
    k = matcher.k
    for eid in matcher._match(edge):
        si, j, is_last = matcher._steps[eid]
        if j == 0:
            requests.append((("L", si, 1), "X"))
        else:
            requests.append((("L", si, j), "S"))
            requests.append((("L", si, j + 1), "X"))
        if is_last and k > 1:
            # σ may complete Qⁱ: fold into the global list, up to the
            # first timing-dead join — the engine skips it, so a request
            # for it would only hold a wait-list head until withdrawn.
            level = si + 1
            reach = matcher._reach[si]
            if si > 0:
                if reach == si:
                    continue
                requests.append((_prefix_read_item(matcher, si), "S"))
                requests.append((("L0", si + 1), "X"))
            while level < reach:
                next_si = level
                requests.append(
                    (("L", next_si, len(matcher.join_order[next_si])), "S"))
                requests.append((("L0", level + 1), "X"))
                level += 1
    return requests


def lock_requests_for_delete(matcher: TimingMatcher,
                             edge: StreamEdge) -> List[Request]:
    """Lock-request sequence of ``Del(edge)`` — all X, canonical order
    (matching ``TimingMatcher.delete_edge``).

    Computed from the labels, not from the engine's match-once record:
    the main thread predicts ``Del(σ)`` when ``σ`` expires, which may be
    before the worker running ``Ins(σ)`` has written that record."""
    if matcher.stateless:
        return []
    matched = matcher._match(edge)
    if not matched:
        return []
    touched = sorted({matcher._steps[eid][0] for eid in matched})
    requests: List[Request] = [
        (("L", si, level), "X")
        for si in touched
        for level in range(1, len(matcher.join_order[si]) + 1)]
    if matcher.k > 1:
        requests += [(("L0", level), "X")
                     for level in range(2, matcher.k + 1)]
    return requests


def strongest(requests: List[Request]) -> List[Request]:
    """Deduplicate requests per item, keeping the strongest mode, in first-
    occurrence order (all-locks acquires each item exactly once)."""
    seen = {}
    order = []
    for item, mode in requests:
        if item not in seen:
            seen[item] = mode
            order.append(item)
        elif mode == "X":
            seen[item] = "X"
    return [(item, seen[item]) for item in order]
