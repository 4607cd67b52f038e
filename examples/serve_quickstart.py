#!/usr/bin/env python3
"""Serve quickstart: the ingestion gateway end-to-end over HTTP.

The :mod:`repro.service` gateway turns a :class:`~repro.api.Session`
into a long-running server: edges arrive over HTTP (or WebSockets, or
tailed files), are journaled to the tenant's write-ahead log and
fsynced before the ack, flow through a bounded queue (a full one makes
the producer wait; nothing is ever shed) into the tenant's session, and
matches stream out to an on-disk JSONL log plus any live subscribers.
This example drives that whole pipeline headlessly:

1. write a ``server.toml`` declaring one tenant with a two-hop pattern
   (no ``[tenant.wal]`` table: every tenant journals by default);
2. boot the gateway on an ephemeral port (the same path as
   ``repro serve --config server.toml``);
3. POST a small stream to ``/ingest`` — the ack says it is durable — and
   watch the matches land;
4. scrape Prometheus-format counters from ``/metrics``;
5. shut down gracefully (drain + final checkpoint), then boot a second
   gateway on the same state directory and verify it restores.

Run:  python examples/serve_quickstart.py
"""

import json
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.service import ServiceGateway, load_config

SERVER_TOML = """\
[server]
host = "127.0.0.1"
port = 0                      # ephemeral: the bound port is published
state_dir = "state"           # checkpoints + match logs live here
checkpoint_interval = 60.0

[[tenant]]
name = "demo"
window = 10.0
queue_capacity = 1000         # a full queue makes producers wait

[[tenant.query]]
name = "two-hop"
text = '''
vertex a A
vertex b B
vertex c C
edge e1 a -> b
edge e2 b -> c
order e1 < e2
window 10
'''
"""

STREAM = [
    {"src": "x1", "dst": "y1", "src_label": "A", "dst_label": "B",
     "timestamp": 1.0},
    {"src": "y1", "dst": "z1", "src_label": "B", "dst_label": "C",
     "timestamp": 2.0},
    {"src": "x2", "dst": "y1", "src_label": "A", "dst_label": "B",
     "timestamp": 3.0},
    {"src": "y1", "dst": "z2", "src_label": "B", "dst_label": "C",
     "timestamp": 4.0},
]
# e1 < e2 within the window: (x1,y1,z1), (x1,y1,z2), (x2,y1,z2).
EXPECTED_MATCHES = 3


def http_get(port: int, path: str) -> str:
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10) as resp:
        return resp.read().decode()


def http_post(port: int, path: str, payload) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as resp:
        return json.loads(resp.read())


def wait_for_matches(port: int, want: int, timeout: float = 10.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = json.loads(http_get(port, "/stats"))["tenants"]["demo"]
        if stats["matches_delivered"] >= want:
            return stats
        time.sleep(0.05)
    raise AssertionError(f"matches never reached {want}")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serve-demo-") as root:
        config_path = Path(root) / "server.toml"
        config_path.write_text(SERVER_TOML)
        config = load_config(str(config_path))

        # --- boot, ingest over HTTP, watch the counters -------------- #
        with ServiceGateway(config, start_workers=False) as gateway:
            gateway.start_background()
            port = gateway.port
            print(f"gateway listening on 127.0.0.1:{port}")

            reply = http_post(port, "/ingest", {"edges": STREAM})
            print(f"POST /ingest -> {reply}")
            assert reply["accepted"] == len(STREAM)
            assert reply["durable"] is True     # journaled and fsynced

            stats = wait_for_matches(port, EXPECTED_MATCHES)
            print(f"matches delivered: {stats['matches_delivered']}")
            assert stats["matches_delivered"] == EXPECTED_MATCHES

            metrics = http_get(port, "/metrics")
            sample = f'repro_matches_delivered{{tenant="demo"}} ' \
                     f"{EXPECTED_MATCHES}"
            assert sample in metrics, sample
            print(f"/metrics sample: {sample}")
        # __exit__ drains the queue and writes the final checkpoint.
        print("graceful shutdown complete (final checkpoint written)")

        # --- restart on the same state dir: the session comes back --- #
        with ServiceGateway(config, start_workers=False) as gateway:
            gateway.start_background()
            stats = json.loads(
                http_get(gateway.port, "/stats"))["tenants"]["demo"]
            print(f"after restart: restored={stats['restored']} "
                  f"edges_pushed={stats['edges_pushed']}")
            assert stats["restored"] is True
            assert stats["edges_pushed"] == len(STREAM)

        match_log = sorted(
            (Path(root) / "state" / "demo" / "matches").glob("*.jsonl"))
        records = [json.loads(line)
                   for path in match_log
                   for line in path.read_text().splitlines()]
        print(f"on-disk match log: {len(records)} records "
              f"in {len(match_log)} segment(s)")
        assert len(records) == EXPECTED_MATCHES

    print("OK")


if __name__ == "__main__":
    main()
