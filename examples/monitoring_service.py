#!/usr/bin/env python3
"""A small monitoring service: many patterns, checkpointing.

Puts the production-facing pieces together the way a deployment would:

* patterns are loaded from `.tq` files (the query DSL) straight into a
  :class:`~repro.api.Session`, which routes the stream to all of them
  and reports its ``session_stats()``;
* alerts flow through sinks: a per-pattern callback and a JSONL audit log;
* a new pattern is registered *while the stream is live*;
* the whole service is checkpointed and restored mid-stream with one call
  (sinks are re-attached after restore — they are runtime wiring, not
  data).

Run:  python examples/monitoring_service.py [--edges N]
"""

import argparse
import io
import os
from collections import Counter

from repro import JSONLSink, Session
from repro.datasets import generate_netflow_stream, inject_attack

QUERY_DIR = os.path.join(os.path.dirname(__file__), "queries")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--edges", type=int, default=4000,
                        help="synthetic stream length (default 4000)")
    args = parser.parse_args(argv)

    # Traffic with one exfiltration attack spliced in.
    stream = list(inject_attack(
        generate_netflow_stream(args.edges, seed=123, num_ips=150)))
    half = len(stream) // 2

    alerts = Counter()

    def alarm(name, match):
        alerts[name] += 1
        print(f"  ⚠ [{name}] alert at t={match.latest_timestamp():.3f}")

    audit_log = io.StringIO()        # a real deployment passes a file path

    def attach_sinks(session):
        session.add_sink(alarm)
        session.add_sink(JSONLSink(audit_log))

    service = Session(window=30.0)
    service.register_file("exfiltration",
                          os.path.join(QUERY_DIR, "exfiltration.tq"))
    attach_sinks(service)
    print(f"service started with patterns: {service.names()}")

    # Phase 1: first half of the stream.
    service.ingest(stream[:half])

    # Checkpoint the whole service (queries, windows, lock-step clock).
    print("\ncheckpointing the service mid-stream...")
    buffer = io.BytesIO()
    service.checkpoint(buffer)
    print(f"  checkpoint: {len(buffer.getvalue()):,} bytes")

    # Simulated restart: one call restores every engine; sinks are
    # re-attached (they are not part of the checkpoint by design).
    buffer.seek(0)
    restored = Session.restore(buffer)
    attach_sinks(restored)
    print(f"restored from checkpoint: patterns {restored.names()}")

    # Phase 2: second half, plus a pattern registered live from its DSL
    # file (it only sees arrivals from now on).
    for index, edge in enumerate(stream[half:]):
        if index == 500:
            print("\nregistering a new pattern while the stream is live...")
            restored.register_file(
                "beaconing", os.path.join(QUERY_DIR, "beaconing.tq"))
        restored.push(edge)

    print(f"\nalert totals: {dict(alerts)}")
    print("per-pattern stats: "
          f"{ {n: s['edges_discarded'] for n, s in restored.stats().items()} }"
          " arrivals pruned as discardable")
    stats = restored.session_stats()
    print(f"session stats: {stats['queries']} queries, "
          f"{stats['edges_pushed']} edges pushed, "
          f"{stats['routed_pushes']} routed")
    audit_lines = audit_log.getvalue().strip().splitlines()
    print(f"audit log: {len(audit_lines)} JSONL record(s)")
    assert alerts["exfiltration"] == 1, "the injected attack must be caught"


if __name__ == "__main__":
    main()
