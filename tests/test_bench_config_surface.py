"""The frozen benchmark's server config and the numbers it reads, in tier-1.

``bench_e2e/serve.py`` writes the server TOML it boots
(``serve.config_text``) and reads ``/stats`` keys and ``repro_session_*``
gauges off the tenant; ``bench_e2e/workloads.py`` reads a few more of
the same.  The benchmark may not change with the product, so a cut to
the config surface or the stats tree must fail here, not in a benchmark
run.  Read-only: nothing under ``bench_e2e`` is edited, and the
benchmark's own readers parse what an in-process gateway serves.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench_e2e import serve  # noqa: E402
from repro.service import (  # noqa: E402
    ServiceGateway, WalConfig, load_config, render_metrics,
)

QUERY = "vertex a A\nvertex b B\nedge e1 a -> b\nwindow 5\n"

#: ``/stats`` keys of the tenant the benchmark reads (dotted).
STATS_READ = ["queue.depth", "queue.high_water", "edges_pushed",
              "rejected_nonmonotonic", "rejected_duplicate",
              "worker_errors", "matches_delivered"]
#: ``repro_session_*`` gauges the benchmark reads off ``/metrics``.
GAUGES_READ = ["window_cells", "shared_window_cells", "subplan_store_cells"]


@pytest.fixture
def booted(tmp_path, monkeypatch):
    """The benchmark's config loaded and booted without workers, with
    ``serve.get`` answering from the gateway instead of a socket."""
    path = tmp_path / "server.toml"
    path.write_text(serve.config_text(
        str(tmp_path / "state"), {"q": QUERY}, 5.0))
    config = load_config(str(path))
    gateway = ServiceGateway(config, start_workers=False)

    def get(_port, route):
        status = gateway.status()
        if route == "/stats":
            return json.dumps(status).encode()
        assert route == "/metrics", route
        return render_metrics(status).encode()
    monkeypatch.setattr(serve, "get", get)
    yield config, gateway
    gateway.shutdown()


def test_the_benchmark_config_loads_as_written(booted):
    config, _ = booted
    (tenant,) = config.tenants
    assert (tenant.name, tenant.queue_capacity, tenant.backpressure,
            tenant.batch_size) == (serve.TENANT, serve.QUEUE_CAPACITY,
                                   "block", serve.WORKER_BATCH)
    assert tenant.wal == WalConfig()        # ``enabled = true``: the default
    assert tenant.queries == {"q": QUERY}


def test_every_stat_the_benchmark_reads_is_served(booted):
    _, gateway = booted
    stats = serve.tenant_stats(0)
    for dotted in STATS_READ:
        node = stats
        for key in dotted.split("."):
            assert key in node, dotted
            node = node[key]
        assert isinstance(node, (int, float)), dotted
    tenant = gateway.tenant(serve.TENANT)
    tenant.ingest_json([{"src": "a1", "dst": "b1", "src_label": "A",
                         "dst_label": "B", "timestamp": 1.0}])
    tenant.apply_released()
    assert serve.wait_drained(0, 1)["edges_pushed"] == 1


def test_every_session_gauge_the_benchmark_reads_is_served(booted):
    gauges = serve.session_metrics(0)
    for name in GAUGES_READ:
        assert name in gauges, name
