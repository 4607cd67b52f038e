"""The declared metric tables: ``/stats`` is one tree, ``/metrics`` renders
it from the owners' ``STATS`` tables (see :mod:`repro.stats`).

One gateway with a rate limit and a file tailer (and, like every tenant,
a WAL) is booted behind
a real listener; the pages it serves are checked against the names the
service exported before the tables existed (nothing renamed; dropped
only the series of a removed mode), against the declarations (every ``# TYPE`` and every numeric
leaf), and for the tailer's counters and source offsets.
"""

import json
import re
import time
import urllib.request

import pytest

from repro.service import RateLimitConfig, ServiceGateway, TailConfig
from repro.service.metrics import declared_series
from repro.stats import SETTING, Group

from .conftest import chain_config, chain_records

#: ``/stats`` leaves of the tenant (dotted, below ``tenants.t0``) and of
#: the gateway, as the service served them before the tables existed.
PINNED_STATS = """
    breakers.checkpoint.short_circuits breakers.checkpoint.state
    breakers.checkpoint.trips breakers.match_log.short_circuits
    breakers.match_log.state breakers.match_log.trips checkpoint_failures
    checkpoint_fallbacks checkpoints_written dead_letters.dropped
    dead_letters.recorded dlq_replayed edges_offered edges_pushed health
    health_reason last_checkpoint_seconds matches_delivered name queries
    queue.capacity queue.depth queue.dequeued queue.dropped queue.enqueued
    queue.high_water queue.lag_seconds queue.rejected_closed
    rate_limit.admitted rate_limit.burst rate_limit.limited rate_limit.rate
    rejected_duplicate rejected_nonmonotonic restored sink_write_errors
    stream_frames_dropped subscribers wal.appended_lsn wal.appends
    wal.applied_lsn wal.bytes_written wal.corrupt_dropped_frames
    wal.dedup_hits wal.dedup_window wal.durable_lsn wal.fsyncs
    wal.replay_skipped wal.replayed_edges wal.segments wal.segments_created
    wal.segments_reclaimed wal.sync_errors wal.truncated_bytes worker_errors
""".split()
PINNED_GATEWAY_STATS = ["checkpoint_interval", "uptime_seconds"]

#: ``/metrics`` series served before the tables existed.
PINNED_SERIES = ["repro_" + name for name in """
    breaker_open breaker_short_circuits breaker_trips checkpoint_failures
    checkpoint_fallbacks checkpoints_written dead_letters_dropped
    dead_letters_recorded dlq_replayed edges_offered edges_pushed
    health_state last_checkpoint_seconds matches_delivered queries
    queue_capacity queue_depth queue_dequeued queue_dropped queue_enqueued
    queue_high_water queue_lag_seconds queue_rejected_closed
    rate_limit_admitted rate_limit_burst rate_limit_limited rate_limit_rate
    rejected_duplicate rejected_nonmonotonic restored session_edges_pushed
    session_predicate_entries session_predicate_trie_nodes session_queries
    session_route_resolved_lists session_routed_pushes session_shared_groups
    session_shared_subplans session_shared_window_cells
    session_skipped_matchers session_stateless_queries
    session_subplan_consumers session_subplan_reuses
    session_subplan_store_cells session_window_cells sink_write_errors
    stream_frames_dropped subscribers tenant_info tenants uptime_seconds
    wal_appended_lsn wal_appends wal_applied_lsn wal_bytes_written
    wal_corrupt_dropped_frames wal_dedup_hits wal_dedup_window
    wal_durable_lsn wal_fsyncs wal_replay_skipped wal_replayed_edges
    wal_segments wal_segments_created wal_segments_reclaimed wal_sync_errors
    wal_truncated_bytes worker_errors
""".split()]
#: Pinned series since dropped: ``repro_tenant_info`` carried only the
#: sub-plan sharing mode, which is no longer a mode; the queue sheds no
#: entry, so it counts no eviction.
DROPPED_SERIES = ["repro_tenant_info", "repro_queue_dropped"]
#: Pinned ``/stats`` leaves since dropped, for the same reason.
DROPPED_STATS = ["queue.dropped"]

#: What the tables add: the session's stats and the tailer's counters
#: and source offsets (``<path>`` stands for the tailed file).
ADDED_STATS = [f"session.{name}" for name in """
    edges_pushed predicate_entries predicate_trie_nodes queries
    route_resolved_lists routed_pushes shared_groups shared_subplans
    shared_window_cells skipped_matchers stateless_queries
    subplan_consumers subplan_reuses subplan_store_cells
    window_cells""".split()] + [f"tails.<path>.{name}" for name in """
    path format lines_read parse_errors edges_enqueued read_errors
    truncations rotations""".split()] + ["source_offsets.<path>"]
ADDED_SERIES = ["repro_source_offset"] + [f"repro_tail_{name}" for name in """
    lines_read parse_errors edges_enqueued read_errors truncations
    rotations""".split()]


def leaves(node, prefix=""):
    """``dotted path -> value`` for every non-dict leaf of ``node``."""
    found = {}
    for key, value in node.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            found.update(leaves(value, path))
        else:
            found[path] = value
    return found


def page_types(text):
    """``series -> [# TYPE kinds]`` of a rendered page."""
    types = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types.setdefault(name, []).append(kind)
    return types


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """``(feed path, /stats, /metrics, status())`` of a rate-limit +
    tailer gateway after the chain stream went in through
    the tailer."""
    root = tmp_path_factory.mktemp("metrics")
    feed = root / "feed.jsonl"
    feed.write_text("".join(json.dumps(record) + "\n"
                            for record in chain_records()))
    config = chain_config(
        root / "state", rate_limit=RateLimitConfig(rps=1000.0),
        tails=(TailConfig(path=str(feed), poll_interval=0.02),))
    with ServiceGateway(config, start_workers=False) as gateway:
        gateway.start_background()
        tenant = gateway.tenant("t0")
        deadline = time.monotonic() + 10
        while tenant.source_offsets.get(str(feed)) != feed.stat().st_size \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gateway.wait_idle(10) and tenant.matches_delivered == 3

        def get(path):
            url = f"http://127.0.0.1:{gateway.port}{path}"
            with urllib.request.urlopen(url, timeout=10) as response:
                return response.read().decode()

        stats, text = json.loads(get("/stats")), get("/metrics")
        status = gateway.status()
    return str(feed), stats, text, status


class TestNothingRenamedOrDropped:
    def test_stats_keys_are_the_pinned_ones_plus_the_additions(self, served):
        feed, stats, _, _ = served
        tenant = sorted(path.replace(feed, "<path>") for path in
                        leaves(stats["tenants"]["t0"]))
        assert tenant == sorted(
            set(PINNED_STATS) - set(DROPPED_STATS) | set(ADDED_STATS))
        assert sorted(key for key in stats if key != "tenants") \
            == PINNED_GATEWAY_STATS

    def test_series_are_the_pinned_ones_plus_the_tailer(self, served):
        _, _, text, _ = served
        assert sorted(page_types(text)) == sorted(
            set(PINNED_SERIES) - set(DROPPED_SERIES) | set(ADDED_SERIES))

    def test_duplicate_numbers_stay(self, served):
        """``edges_pushed`` is the tenant's and the session's; the window
        cells are reported twice; every copy agrees."""
        _, stats, text, _ = served
        tenant = stats["tenants"]["t0"]
        assert tenant["edges_pushed"] == tenant["session"]["edges_pushed"] \
            == 4
        assert tenant["queue"]["depth"] == 0
        for line in ('repro_session_window_cells{tenant="t0"} 4',
                     'repro_session_shared_window_cells{tenant="t0"} 4',
                     'repro_session_edges_pushed{tenant="t0"} 4',
                     'repro_edges_pushed{tenant="t0"} 4'):
            assert line in text

    def test_no_sharing_mode_is_reported(self, served):
        """Sub-plan sharing is not a mode: neither ``/stats`` nor a
        ``/metrics`` label names one."""
        _, stats, text, _ = served
        assert "subplan_sharing" not in stats["tenants"]["t0"]["session"]
        assert "subplan_sharing" not in text
        assert "repro_tenant_info" not in text


class TestDeclaredTypes:
    def test_monotonic_counts_render_as_counters(self, served):
        _, _, text, _ = served
        for name in ("repro_checkpoint_fallbacks",
                     "repro_session_routed_pushes",
                     "repro_session_skipped_matchers"):
            assert f"# TYPE {name} counter" in text

    def test_every_type_and_help_matches_its_declaration(self, served):
        _, _, text, _ = served
        declared = declared_series()
        types = page_types(text)
        for name, kinds in types.items():
            assert kinds == [declared[name][0]], name
        helps = dict(re.findall(r"^# HELP (\S+) (.+)$", text, re.M))
        assert helps.keys() == types.keys()
        assert helps == {name: declared[name][1] for name in types}

    def test_every_numeric_leaf_has_a_declaration(self, served):
        """Walk ``status()`` beside the tables: each number (a bool or a
        list included) finds its ``(kind, help)``."""
        _, _, _, status = served
        found = {}

        def walk(node, table, path):
            for key, value in node.items():
                declared = table.get(key)
                if isinstance(declared, Group):
                    children = value.items() if declared.label \
                        else [("", value)]
                    for owner, child in children:
                        where = f"{path}{key}.{owner}".rstrip(".")
                        if isinstance(declared.table, tuple):
                            found[where] = declared.table
                        else:
                            walk(child, declared.table, where + ".")
                elif isinstance(value, (int, float, list)):
                    found[path + key] = declared

        walk(status, ServiceGateway.STATS, "")
        numeric = [path for path, value in leaves(status).items()
                   if isinstance(value, (int, float, list))]
        assert sorted(found) == sorted(numeric)
        assert [path for path, declared in found.items()
                if declared is None] == []
        assert found["checkpoint_interval"][0] == SETTING
        assert "repro_checkpoint_interval" not in declared_series()


class TestTailerExported:
    def test_tailer_counters_and_offsets_reach_both_pages(self, served):
        feed, stats, text, _ = served
        tenant = stats["tenants"]["t0"]
        tail = tenant["tails"][feed]
        assert tail["path"] == feed and tail["format"] == "jsonl"
        assert tail["lines_read"] == tail["edges_enqueued"] == 4
        assert tail["parse_errors"] == tail["read_errors"] == 0
        size = len("".join(json.dumps(record) + "\n"
                           for record in chain_records()))
        assert tenant["source_offsets"] == {feed: size}
        label = f'{{path="{feed}",tenant="t0"}}'
        assert f"repro_tail_lines_read{label} 4" in text
        assert f"repro_tail_edges_enqueued{label} 4" in text
        assert f"repro_source_offset{label} {size}" in text
        assert "# TYPE repro_tail_lines_read counter" in text
        assert "# TYPE repro_source_offset gauge" in text

