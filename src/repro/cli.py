"""Command-line interface: run, explain, and generate.

Subcommands
-----------
``repro explain QUERY.tq``
    Parse a query file (see :mod:`repro.io.dsl`) and print its plan —
    decomposition, join order, expansion-list layout, cost estimate.

``repro run QUERY.tq STREAM.csv [--window W] [--quiet]``
    Replay a CSV edge stream (see :mod:`repro.io.csv_stream`) through the
    Timing engine and print every match as it is found.

``repro generate {netflow,wikitalk,lsbench} N OUT.csv [--seed S]``
    Write a seeded synthetic stream to CSV.

``repro serve --config SERVER.toml``
    Run the long-running ingestion gateway (:mod:`repro.service`):
    HTTP/WebSocket ingestion, bounded-queue backpressure, periodic
    checkpoints, and a Prometheus ``/metrics`` endpoint.  ``SIGINT`` /
    ``SIGTERM`` trigger a graceful drain → checkpoint → exit.

``repro wal {inspect,verify} DIR``
    Offline tooling for a tenant's write-ahead log directory
    (``state/<tenant>/wal``): ``inspect`` prints per-segment frame and
    edge counts plus any damage found; ``verify`` exits 1 when the log
    carries interior corruption (a torn final tail is normal
    crash debris, not an error).

``repro dlq {list,inspect,replay} FILE``
    Operate on a tenant's dead-letter file
    (``state/<tenant>/deadletter.jsonl``): ``list`` summarises records
    by reason, ``inspect`` prints them, and ``replay`` re-ingests the
    poison-edge records into a running gateway over HTTP (each batch
    tagged with a deterministic ``request_id`` so a re-run of the same
    file cannot double-ingest on a WAL-enabled tenant).

Invoke as ``python -m repro ...`` or through the console entry point.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .api import (
    BACKENDS, DUPLICATE_POLICIES, INDEXING_MODES, SHARDING_MODES,
    SUBPLAN_SHARING_MODES, TRANSPORT_MODES, EngineConfig, Session,
)
from .core.engine import TimingMatcher
from .core.plan import explain
from .datasets import (
    generate_lsbench_stream, generate_netflow_stream,
    generate_wikitalk_stream,
)
from .io.csv_stream import read_stream, write_stream
from .io.dsl import parse_query

GENERATORS = {
    "netflow": generate_netflow_stream,
    "wikitalk": generate_wikitalk_stream,
    "lsbench": generate_lsbench_stream,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Time-constrained continuous subgraph search "
                    "(Li et al., ICDE 2019 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_explain = sub.add_parser("explain", help="show the plan for a query")
    p_explain.add_argument("query_file")

    p_run = sub.add_parser("run", help="replay a CSV stream through a query")
    p_run.add_argument("query_file")
    p_run.add_argument("stream_file")
    p_run.add_argument("--window", type=float, default=None,
                       help="window duration (overrides the query file)")
    p_run.add_argument("--no-mstree", action="store_true",
                       help="use independent storage (Timing-IND)")
    p_run.add_argument("--indexing", choices=sorted(INDEXING_MODES),
                       default="hash",
                       help="insert-path join strategy: hash-indexed "
                            "(default) or paper-faithful full scans")
    p_run.add_argument("--subplan-sharing",
                       choices=sorted(SUBPLAN_SHARING_MODES),
                       default="shared",
                       help="cross-query sub-plan sharing: one store per "
                            "canonical TC-subquery (default) or private "
                            "per-engine stores (ablation)")
    p_run.add_argument("--sharding", choices=sorted(SHARDING_MODES),
                       default="none",
                       help="partition matchers across worker shards: "
                            "none (default, in-process), thread, or "
                            "process")
    p_run.add_argument("--shards", type=int, default=None,
                       help="worker-shard count when --sharding is not "
                            "none (default 4)")
    p_run.add_argument("--transport", choices=sorted(TRANSPORT_MODES),
                       default="shm",
                       help="process-shard batch transport: zero-pickle "
                            "shared-memory rings (default) or "
                            "pickle-over-pipe (ablation); only "
                            "meaningful with --sharding process")
    p_run.add_argument("--backend", choices=sorted(BACKENDS),
                       default="timing",
                       help="matcher engine (default: timing)")
    p_run.add_argument("--duplicates", choices=sorted(DUPLICATE_POLICIES),
                       default="raise",
                       help="in-window duplicate edge-id policy")
    p_run.add_argument("--jsonl", default=None, metavar="OUT.jsonl",
                       help="also append matches to a JSONL file")
    p_run.add_argument("--quiet", action="store_true",
                       help="print only the final summary")

    p_gen = sub.add_parser("generate", help="write a synthetic stream CSV")
    p_gen.add_argument("dataset", choices=sorted(GENERATORS))
    p_gen.add_argument("num_edges", type=int)
    p_gen.add_argument("output")
    p_gen.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser(
        "simulate",
        help="simulate concurrent speed-up of a query over a stream")
    p_sim.add_argument("query_file")
    p_sim.add_argument("stream_file")
    p_sim.add_argument("--window", type=float, default=None)
    p_sim.add_argument("--threads", type=int, nargs="+",
                       default=[1, 2, 3, 4, 5])

    p_analyze = sub.add_parser(
        "analyze", help="stream statistics and query selectivity")
    p_analyze.add_argument("stream_file")
    p_analyze.add_argument("--query", default=None,
                           help="query file for a selectivity report")
    p_analyze.add_argument("--window-edges", type=float, default=1000,
                           help="window size in edges for estimates")

    p_serve = sub.add_parser(
        "serve", help="run the long-running ingestion gateway")
    p_serve.add_argument("--config", required=True, metavar="SERVER.toml",
                         help="gateway config file (see docs/service.md)")
    p_serve.add_argument("--host", default=None,
                         help="override the configured bind host")
    p_serve.add_argument("--port", type=int, default=None,
                         help="override the configured port (0 = "
                              "OS-assigned)")
    p_serve.add_argument("--state-dir", default=None,
                         help="override the checkpoint/state directory")
    p_serve.add_argument("--checkpoint-interval", type=float, default=None,
                         help="override the checkpoint period in seconds "
                              "(0 disables)")
    p_serve.add_argument("--validate-config", action="store_true",
                         help="parse and validate the config (incl. "
                              "[faults] and rate-limit keys), print a "
                              "summary, and exit 0/1 without serving")

    p_wal = sub.add_parser(
        "wal", help="inspect or verify a tenant's write-ahead log")
    wal_sub = p_wal.add_subparsers(dest="wal_command", required=True)
    for name, blurb in (("inspect", "print per-segment frame/edge counts"),
                        ("verify", "exit 1 on interior corruption")):
        p = wal_sub.add_parser(name, help=blurb)
        p.add_argument("directory", metavar="DIR",
                       help="the tenant's wal/ directory")
        p.add_argument("--json", action="store_true",
                       help="emit the raw report as JSON")

    p_dlq = sub.add_parser(
        "dlq", help="list, inspect, or re-ingest dead letters")
    dlq_sub = p_dlq.add_subparsers(dest="dlq_command", required=True)
    p_dlq_list = dlq_sub.add_parser(
        "list", help="summarise dead letters by reason")
    p_dlq_list.add_argument("file", metavar="DEADLETTER.jsonl")
    p_dlq_inspect = dlq_sub.add_parser(
        "inspect", help="print dead-letter records")
    p_dlq_inspect.add_argument("file", metavar="DEADLETTER.jsonl")
    p_dlq_inspect.add_argument("--reason", default=None,
                               help="only records with this reason")
    p_dlq_inspect.add_argument("--limit", type=int, default=20,
                               help="print at most N records (default 20)")
    p_dlq_replay = dlq_sub.add_parser(
        "replay", help="re-ingest poison edges into a running gateway")
    p_dlq_replay.add_argument("file", metavar="DEADLETTER.jsonl")
    p_dlq_replay.add_argument("--url", default="http://127.0.0.1:8080",
                              help="gateway base URL "
                                   "(default http://127.0.0.1:8080)")
    p_dlq_replay.add_argument("--tenant", default=None,
                              help="target tenant (default: the "
                                   "gateway's sole tenant)")
    p_dlq_replay.add_argument("--batch-size", type=int, default=100,
                              help="edges per ingest request (default 100)")
    p_dlq_replay.add_argument("--dry-run", action="store_true",
                              help="print what would be sent, send "
                                   "nothing")
    return parser


def _cmd_explain(args: argparse.Namespace) -> int:
    with open(args.query_file, encoding="utf-8") as handle:
        query, window = parse_query(handle.read())
    plan = explain(query)
    print(plan.render())
    if window is not None:
        print(f"window hint: {window}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.query_file, encoding="utf-8") as handle:
        query, window_hint = parse_query(handle.read())
    window = args.window if args.window is not None else window_hint
    if window is None:
        print("error: no window given (use --window or a 'window' line)",
              file=sys.stderr)
        return 2

    if args.no_mstree and args.backend != "timing":
        print("error: --no-mstree only applies to the timing backend",
              file=sys.stderr)
        return 2
    if args.indexing != "hash" and args.backend != "timing":
        print("error: --indexing only applies to the timing backend",
              file=sys.stderr)
        return 2
    if args.shards is not None and args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.sharding == "none" and args.shards is not None \
            and args.shards > 1:
        print("error: --shards needs --sharding thread or process "
              "(with --sharding none there are no worker shards)",
              file=sys.stderr)
        return 2
    shards = args.shards if args.shards is not None else 4
    config = EngineConfig(
        storage="independent" if args.no_mstree else "mstree",
        indexing=args.indexing,
        subplan_sharing=args.subplan_sharing,
        sharding=args.sharding,
        shards=shards,
        transport=args.transport,
        duplicate_policy=args.duplicates)
    session = Session(window=window, config=config)
    session.register("query", query, backend=args.backend)

    def report(name, match):
        if not args.quiet:
            mapping = match.vertex_mapping(query)
            binding = " ".join(
                f"{qv}={dv}" for qv, dv in sorted(
                    mapping.items(), key=lambda kv: str(kv[0])))
            print(f"match @ {match.latest_timestamp()}: {binding}")

    session.add_sink(report)
    jsonl = None
    if args.jsonl is not None:
        from .sinks import JSONLSink
        jsonl = session.add_sink(JSONLSink(args.jsonl))
    try:
        # collect=False: matches reach the sinks; don't also hold the
        # whole run's result list in memory.
        total = session.ingest_csv(args.stream_file, collect=False)
    except ValueError as exc:
        # Duplicate edge ids (--duplicates raise) or a broken stream
        # invariant: a diagnosis, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if jsonl is not None:
            jsonl.close()
    stats = session.stats()["query"]
    # Session-level arrival count: the engine only sees the arrivals
    # routed to it, so its edges_seen is not the stream length.
    summary = f"processed {session.edges_pushed} edges, {total} matches"
    if args.backend == "timing":
        # Only the Timing engine prunes discardable arrivals (Lemma 1).
        summary += f", {stats['edges_discarded']} discardable arrivals pruned"
    if args.duplicates == "count":
        summary += f", {stats['edges_skipped']} duplicate arrivals skipped"
    print(summary)
    ss = session.session_stats()
    print(f"routing: {ss['routed_pushes']} routed pushes, "
          f"{ss['skipped_matchers']} matcher visits skipped, "
          f"{ss['shared_window_cells']} shared window cells")
    if ss["shared_subplans"]:
        print(f"sub-plans: shared — {ss['shared_subplans']} store(s) "
              f"for {ss['subplan_consumers']} consumer(s), "
              f"{ss['subplan_reuses']} memoised insertions, "
              f"{ss['subplan_store_cells']} shared store cells")
    if args.sharding != "none":
        busy = ", ".join(
            f"shard {p['shard']}: {p['queries']} queries "
            f"{p['busy_seconds']}s busy" for p in ss["per_shard"])
        print(f"sharding: {ss['sharding']} x {ss['shards']} — {busy}")
    if hasattr(session, "close"):
        session.close()
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = GENERATORS[args.dataset]
    stream = generator(args.num_edges, seed=args.seed)
    written = write_stream(stream, args.output)
    print(f"wrote {written} edges to {args.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .concurrency.simulation import ConcurrencySimulator, collect_trace

    with open(args.query_file, encoding="utf-8") as handle:
        query, window_hint = parse_query(handle.read())
    window = args.window if args.window is not None else window_hint
    if window is None:
        print("error: no window given (use --window or a 'window' line)",
              file=sys.stderr)
        return 2
    matcher = TimingMatcher.from_config(query, window)
    if matcher.stateless:
        print("nothing to simulate — a one-edge query gets the stateless "
              "plan, which keeps no expansion-list item to lock")
        return 0
    traces = collect_trace(matcher, read_stream(args.stream_file))
    if not traces:
        print("no transactions recorded — the stream never matched the query")
        return 0
    sim = ConcurrencySimulator(traces)
    print(f"{len(traces)} transactions recorded")
    print(f"{'threads':>8} | {'fine-grained':>13} | {'all-locks':>10}")
    print("-" * 38)
    for n in args.threads:
        fine = sim.speedup(n)
        coarse = sim.speedup(n, all_locks=True)
        print(f"{n:>8} | {fine:>12.2f}x | {coarse:>9.2f}x")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analyze_selectivity, analyze_stream

    edges = list(read_stream(args.stream_file))
    print(analyze_stream(edges).render())
    if args.query is not None:
        with open(args.query, encoding="utf-8") as handle:
            query, _ = parse_query(handle.read())
        print()
        report = analyze_selectivity(query, edges, args.window_edges)
        print(report.render())
        if report.dead_edges:
            print(f"warning: {len(report.dead_edges)} query edge(s) can "
                  "never match this stream", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses
    import signal
    import threading

    from .service import ConfigError, ServiceGateway, load_config

    # --validate-config is a dry run: 0/1 with one-line errors (a real
    # serve keeps its historical exit code 2 for config trouble).
    bad_config = 1 if args.validate_config else 2
    try:
        config = load_config(args.config)
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return bad_config
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return bad_config
    overrides = {
        key: value for key, value in (
            ("host", args.host), ("port", args.port),
            ("state_dir", args.state_dir),
            ("checkpoint_interval", args.checkpoint_interval))
        if value is not None}
    if overrides:
        config = dataclasses.replace(config, **overrides)
    try:
        config.validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return bad_config
    if args.validate_config:
        names = ", ".join(tenant.name for tenant in config.tenants)
        limited = sum(1 for tenant in config.tenants
                      if tenant.rate_limit is not None)
        summary = (f"ok: {args.config}: {len(config.tenants)} tenant(s) "
                   f"[{names}], {limited} rate-limited, "
                   f"state_dir={config.state_dir}")
        if config.faults is not None:
            summary += ", [faults] plan present"
        print(summary)
        return 0
    try:
        gateway = ServiceGateway(config, start_workers=False)
        gateway.start_background()
    except OSError as exc:
        print(f"error: cannot start gateway: {exc}", file=sys.stderr)
        return 1

    stop = threading.Event()

    def _signalled(signum, frame):
        del signum, frame
        stop.set()

    signal.signal(signal.SIGINT, _signalled)
    signal.signal(signal.SIGTERM, _signalled)
    restored = sorted(name for name, tenant in gateway.tenants.items()
                      if tenant.restored)
    print(f"repro gateway listening on http://{config.host}:{gateway.port} "
          f"— {len(gateway.tenants)} tenant(s): "
          f"{', '.join(sorted(gateway.tenants))}", flush=True)
    if restored:
        print(f"restored from checkpoint: {', '.join(restored)}",
              flush=True)
    stop.wait()
    print("shutting down: draining queues, writing final checkpoint",
          flush=True)
    gateway.shutdown()
    print("gateway stopped", flush=True)
    return 0


def _cmd_wal(args: argparse.Namespace) -> int:
    import json as _json
    import os

    from .service.wal import inspect_wal

    if not os.path.isdir(args.directory):
        print(f"error: {args.directory} is not a directory",
              file=sys.stderr)
        return 2
    report = inspect_wal(args.directory)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(f"{args.directory}: {len(report['segments'])} segment(s), "
              f"{report['frames']} frame(s), {report['edges']} edge(s), "
              f"last lsn {report['last_lsn']}")
        for seg in report["segments"]:
            line = (f"  {seg['name']}: base {seg['base_lsn']}, "
                    f"{seg['frames']} frame(s), {seg['edges']} edge(s), "
                    f"{seg['bytes']} byte(s)")
            if seg["torn_bytes"]:
                line += f", {seg['torn_bytes']} torn byte(s)"
            if seg.get("error"):
                line += f" [{seg['error']}]"
            print(line)
        for error in report["errors"]:
            print(f"  error: {error}")
    if args.wal_command == "verify":
        if report["errors"]:
            print("verify: FAILED — the log carries interior corruption; "
                  "frames after the damage were dropped at recovery",
                  file=sys.stderr)
            return 1
        print("verify: ok (torn final tail, if any, is normal crash "
              "debris)")
    return 0


def _read_dead_letters(path: str):
    import json as _json

    records = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_json.loads(line))
            except ValueError:
                print(f"warning: line {number} is not JSON; skipped",
                      file=sys.stderr)
    return records


def _cmd_dlq(args: argparse.Namespace) -> int:
    import json as _json

    try:
        records = _read_dead_letters(args.file)
    except OSError as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2

    if args.dlq_command == "list":
        by_reason: dict = {}
        for record in records:
            by_reason.setdefault(record.get("reason", "?"), []).append(record)
        print(f"{args.file}: {len(records)} dead letter(s)")
        for reason in sorted(by_reason):
            bucket = by_reason[reason]
            newest = max((r.get("at", 0) for r in bucket), default=0)
            print(f"  {reason}: {len(bucket)} (newest at {newest})")
        return 0

    if args.dlq_command == "inspect":
        shown = 0
        for record in records:
            if args.reason is not None \
                    and record.get("reason") != args.reason:
                continue
            if shown >= args.limit:
                remaining = sum(
                    1 for r in records
                    if args.reason is None or r.get("reason") == args.reason
                ) - shown
                print(f"... {remaining} more (raise --limit)")
                break
            print(_json.dumps(record, sort_keys=True))
            shown += 1
        return 0

    # replay: only poison_edge payloads are edges; sink_* payloads are
    # match records and cannot be re-ingested.
    edges = [record["payload"] for record in records
             if record.get("reason") == "poison_edge"
             and isinstance(record.get("payload"), dict)]
    skipped = len(records) - len(edges)
    if not edges:
        print(f"nothing to replay: {len(records)} record(s), none with "
              f"reason poison_edge")
        return 0
    path = "/ingest" if args.tenant is None \
        else f"/tenants/{args.tenant}/ingest"
    url = args.url.rstrip("/") + path
    batches = [edges[i:i + max(1, args.batch_size)]
               for i in range(0, len(edges), max(1, args.batch_size))]
    if args.dry_run:
        print(f"dry run: would POST {len(edges)} edge(s) in "
              f"{len(batches)} batch(es) to {url} "
              f"({skipped} non-replayable record(s) skipped)")
        return 0
    import hashlib
    import urllib.error
    import urllib.request

    sent = 0
    for index, batch in enumerate(batches):
        # Deterministic id over file + batch content: re-running the
        # same replay against a WAL-enabled tenant dedups instead of
        # double-ingesting.
        digest = hashlib.sha256(
            _json.dumps([args.file, index, batch],
                        sort_keys=True).encode()).hexdigest()[:24]
        body = _json.dumps({"edges": batch, "dlq_replay": True,
                            "request_id": f"dlq-{digest}"}).encode()
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=30.0) as response:
                ack = _json.loads(response.read())
        except urllib.error.URLError as exc:
            print(f"error: POST {url} failed after {sent} edge(s): {exc}",
                  file=sys.stderr)
            return 1
        sent += len(batch)
        note = " (deduplicated)" if ack.get("deduplicated") else ""
        print(f"batch {index + 1}/{len(batches)}: accepted "
              f"{ack.get('accepted')}, invalid {ack.get('invalid')}"
              f"{note}")
    print(f"replayed {sent} edge(s); {skipped} non-replayable "
          f"record(s) skipped")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"explain": _cmd_explain, "run": _cmd_run,
                "generate": _cmd_generate, "simulate": _cmd_simulate,
                "analyze": _cmd_analyze, "serve": _cmd_serve,
                "wal": _cmd_wal, "dlq": _cmd_dlq}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `head`) closed the pipe — not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
