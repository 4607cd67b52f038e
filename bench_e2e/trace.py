"""Span recording at layer boundaries, attached from outside.

:class:`Tracer` replaces a method on a class with a wrapper that records
one span per call — name, start, end, the span that caused it (the
innermost open span on the same thread) and the measured batch the load
generator was on — and restores the original on exit.  Spans stay in
memory until :meth:`Tracer.write`.  A layer's *self time* is its spans'
duration minus the part their direct children cover.

The wrapper costs a few hundred nanoseconds per call and that cost lands
in the parent's self time, so traced passes are never used for
end-to-end metrics; ``harness.trace_overhead_ratio`` says how much
slower they ran.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from typing import Dict, Iterator, List, Sequence, Tuple

# (owner import path, attribute, span name).  The session's shared path
# feeds engines through ``_insert``/``_expire`` and tenants process
# worker batches in ``_process``; those are wrapped where no public call
# sits on the boundary.
TARGETS: Sequence[Tuple[str, str, str]] = (
    ("repro.service.gateway:Tenant", "ingest_json", "service.gateway.ingest_json"),
    ("repro.service.gateway:Tenant", "_process", "service.gateway.process"),
    ("repro.service.gateway:Tenant", "_deliver", "service.gateway.deliver"),
    ("repro.service.wal:WriteAheadLog", "append", "service.wal.append"),
    ("repro.service.wal:WriteAheadLog", "sync", "service.wal.sync"),
    ("repro.service.queues:BoundedEdgeQueue", "put", "service.queues.put"),
    ("repro.service.queues:BoundedEdgeQueue", "get_batch",
     "service.queues.get_batch"),
    ("repro.api:Session", "push_many", "api.session.push_many"),
    ("repro.api:Session", "ingest", "api.session.ingest"),
    ("repro.api:Session", "register", "api.session.register"),
    ("repro.api:Session", "deregister", "api.session.deregister"),
    ("repro.api:Session", "_deliver", "api.session.deliver"),
    ("repro.core.labeltrie:PredicateRouter", "match", "core.labeltrie.match"),
    ("repro.core.labeltrie:PredicateRouter", "add", "core.labeltrie.add"),
    ("repro.core.labeltrie:PredicateRouter", "remove",
     "core.labeltrie.remove"),
    ("repro.graph.shared_window:SharedSlidingWindow", "push",
     "graph.shared_window.push"),
    ("repro.core.engine:TimingMatcher", "push", "core.engine.push"),
    ("repro.core.engine:TimingMatcher", "_insert", "core.engine.insert"),
    ("repro.core.engine:TimingMatcher", "_expire", "core.engine.expire"),
    ("repro.sinks:RotatingJSONLSink", "__call__", "sinks.write"),
)


def targets(*names: str) -> List[Tuple[str, str, str]]:
    """The :data:`TARGETS` entries whose span name is in ``names``."""
    return [target for target in TARGETS if target[2] in names]


def _resolve(path: str):
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


class Tracer:
    """Records spans as ``[id, name, parent id, batch, start, end]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Measured batch the load generator is on (-1 = set-up).
        self.batch = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, original, name: str):
        spans, ids, local, clock = (self.spans, self._ids, self._local,
                                    time.perf_counter)

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span = [next(ids), name, stack[-1][0] if stack else None,
                    self.batch, clock(), 0.0]
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
                spans.append(span)
        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the ``with`` block."""
        patched = []
        try:
            for path, attribute, name in targets:
                owner = _resolve(path)
                # The class's own attribute if it defines one, so an
                # inherited method is wrapped on the subclass only.
                original = getattr(owner, attribute)
                own = owner.__dict__.get(attribute)
                setattr(owner, attribute, self._wrap(original, name))
                patched.append((owner, attribute, own))
            yield self
        finally:
            for owner, attribute, own in reversed(patched):
                if own is None:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, own)

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        covered: Dict[int, float] = {}
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        table: Dict[str, Dict[str, float]] = {}
        for ident, name, _, _, start, end in self.spans:
            row = table.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - covered.get(ident, 0.0)
        return table

    def write(self, path: str) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w", encoding="utf-8") as handle:
            for ident, name, parent, batch, start, end in self.spans:
                cause = "null" if parent is None else parent
                handle.write(
                    f'{{"id":{ident},"name":"{name}","parent":{cause},'
                    f'"batch":{batch},"start":{start!r},"end":{end!r}}}\n')
