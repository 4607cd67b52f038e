"""The frozen benchmark's seams into the product, checked in tier-1.

``bench_e2e`` may not change with a PR that claims a gain, so what it
wraps (``trace.TARGETS``), imports and calls by signature has to keep
existing here — a rename should fail this file, not a CI artifact job
after the merge.  Read-only: nothing under ``bench_e2e`` is edited.
"""

import ast
import importlib
import inspect
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench_e2e import trace  # noqa: E402

BENCH_DIR = os.path.join(ROOT, "bench_e2e")


@pytest.mark.parametrize("path, attribute, span", trace.TARGETS,
                         ids=[target[2] for target in trace.TARGETS])
def test_every_traced_target_resolves(path, attribute, span):
    owner = trace._resolve(path)
    assert callable(getattr(owner, attribute)), f"{span}: {path}.{attribute}"


def _product_imports():
    """``(file, module, name)`` for every ``from repro... import name``
    in the benchmark's sources, wherever in the file it sits."""
    found = []
    for name in sorted(os.listdir(BENCH_DIR)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(BENCH_DIR, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").split(".")[0] == "repro":
                found += [(name, node.module, alias.name)
                          for alias in node.names]
    return found


def test_every_product_name_the_benchmark_imports_exists():
    imports = _product_imports()
    assert ("layers.py", "repro.service.wal", "WriteAheadLog") in imports
    for source, module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"bench_e2e/{source}: from {module} import {name}"


def test_the_calls_layers_py_makes_still_bind(tmp_path):
    """The shapes ``bench_e2e/layers.py`` calls with, exercised once."""
    from repro import StreamEdge
    from repro.service.codec import (
        edge_from_json, edge_to_json, match_to_json,
    )
    from repro.service.gateway import Tenant
    from repro.service.queues import BoundedEdgeQueue, _Entry
    from repro.service.wal import WriteAheadLog
    from repro.sinks import RotatingJSONLSink

    # Tenant.ingest_json(records): one positional, everything else
    # optional — then the batch journals as an ``entries`` frame.
    inspect.signature(Tenant.ingest_json).bind(None, [{}])
    for method in (Tenant._process, Tenant._deliver):
        assert callable(method)

    edge = StreamEdge("a", "b", src_label="A", dst_label="B", timestamp=1.0)
    record = edge_to_json(edge)
    assert edge_from_json(record) == edge
    assert callable(match_to_json)

    wal = WriteAheadLog(str(tmp_path / "wal"))
    lsn, ticket = wal.append([{"e": record}, {"e": record}])
    wal.sync(ticket)
    assert lsn == 2
    assert sum(frame["n"] for _, frame in wal.replay(0)) == 2
    assert {"fsyncs", "appends", "bytes_written"} <= set(wal.counters())
    wal.close()

    queue = BoundedEdgeQueue(8, policy="block")
    queue.put(edge)
    entries, closed = queue.get_batch(4, timeout=0)
    assert len(entries) == 1 and closed is False
    assert isinstance(entries[0], _Entry)
    assert entries[0].enqueued_at > 0

    with RotatingJSONLSink(str(tmp_path / "sink")) as sink:
        inspect.signature(sink.__call__).bind("q", object())
        sink.flush()
        assert list(sink.segment_files())
