"""File tailers: JSONL and CSV follow, resume offsets, bad lines."""

import json
import time

import pytest

from repro.io.csv_stream import write_stream
from repro.service import ServiceGateway, TailConfig
from repro.service.config import TenantConfig, ServerConfig

from .conftest import CHAIN_DSL, chain_edges, chain_records


def tail_config(state_dir, feed_path, **tail_kwargs):
    tail = TailConfig(path=str(feed_path), poll_interval=0.02,
                      **tail_kwargs)
    tenant = TenantConfig(name="t0", queries={"chain": CHAIN_DSL},
                          tails=(tail,))
    return ServerConfig(state_dir=str(state_dir), port=0,
                        checkpoint_interval=0.0, tenants=(tenant,))


def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestJSONLTail:
    def test_follows_appends(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        config = tail_config(tmp_path / "state", feed)
        gateway = ServiceGateway(config)
        gateway.start_tailers()
        try:
            records = chain_records()
            with open(feed, "w", encoding="utf-8") as fh:
                for record in records[:2]:
                    fh.write(json.dumps(record) + "\n")
            tenant = gateway.tenant("t0")
            assert wait_for(lambda: tenant.safe.edges_pushed == 2)
            with open(feed, "a", encoding="utf-8") as fh:
                for record in records[2:]:
                    fh.write(json.dumps(record) + "\n")
            assert wait_for(lambda: tenant.matches_delivered == 3)
        finally:
            gateway.shutdown()

    def test_file_created_after_start(self, tmp_path):
        feed = tmp_path / "late.jsonl"
        config = tail_config(tmp_path / "state", feed)
        gateway = ServiceGateway(config)
        gateway.start_tailers()
        try:
            time.sleep(0.1)          # tailer is polling for the file
            with open(feed, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(chain_records()[0]) + "\n")
            tenant = gateway.tenant("t0")
            assert wait_for(lambda: tenant.safe.edges_pushed == 1)
        finally:
            gateway.shutdown()

    def test_bad_lines_counted_not_fatal(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        config = tail_config(tmp_path / "state", feed)
        gateway = ServiceGateway(config)
        gateway.start_tailers()
        try:
            with open(feed, "w", encoding="utf-8") as fh:
                fh.write("{broken json\n")
                fh.write(json.dumps({"wrong": "shape"}) + "\n")
                fh.write(json.dumps(chain_records()[0]) + "\n")
            tenant = gateway.tenant("t0")
            assert wait_for(lambda: tenant.safe.edges_pushed == 1)
            (tailer,) = gateway.tenant("t0").tailers
            assert tailer.parse_errors == 2
        finally:
            gateway.shutdown()

    def test_resume_does_not_reread_committed_lines(self, tmp_path):
        feed = tmp_path / "feed.jsonl"
        config = tail_config(tmp_path / "state", feed)
        with open(feed, "w", encoding="utf-8") as fh:
            for record in chain_records():
                fh.write(json.dumps(record) + "\n")
        gateway = ServiceGateway(config)
        gateway.start_tailers()
        tenant = gateway.tenant("t0")
        assert wait_for(lambda: tenant.safe.edges_pushed == 4)
        tenant.checkpoint()
        gateway.shutdown()

        restored = ServiceGateway(config)
        restored.start_tailers()
        try:
            time.sleep(0.3)
            tenant = restored.tenant("t0")
            (tailer,) = restored.tenant("t0").tailers
            assert tailer.lines_read == 0
            assert tenant.rejected_nonmonotonic == 0
            assert tenant.safe.edges_pushed == 4
        finally:
            restored.shutdown()


class TestCSVTail:
    def test_follows_csv_with_header(self, tmp_path):
        feed = tmp_path / "feed.csv"
        write_stream(chain_edges(), str(feed))
        config = tail_config(tmp_path / "state", feed, format="csv")
        gateway = ServiceGateway(config)
        gateway.start_tailers()
        try:
            tenant = gateway.tenant("t0")
            assert wait_for(lambda: tenant.matches_delivered == 3)
            assert tenant.safe.edges_pushed == 4
        finally:
            gateway.shutdown()

    def test_csv_resume_skips_header_and_committed_rows(self, tmp_path):
        feed = tmp_path / "feed.csv"
        edges = chain_edges()
        write_stream(edges[:2], str(feed))
        config = tail_config(tmp_path / "state", feed, format="csv")
        gateway = ServiceGateway(config)
        gateway.start_tailers()
        tenant = gateway.tenant("t0")
        assert wait_for(lambda: tenant.safe.edges_pushed == 2)
        tenant.checkpoint()
        gateway.shutdown()

        # Append two more rows (no header) and restart.
        import csv as _csv
        with open(feed, "a", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh)
            for edge in edges[2:]:
                writer.writerow([edge.src, edge.dst, repr(edge.timestamp),
                                 edge.src_label, edge.dst_label, ""])
        restored = ServiceGateway(config)
        restored.start_tailers()
        try:
            tenant = restored.tenant("t0")
            assert wait_for(lambda: tenant.safe.edges_pushed == 4)
            (tailer,) = restored.tenant("t0").tailers
            assert tailer.lines_read == 2       # only the new rows
            assert tenant.rejected_nonmonotonic == 0
        finally:
            restored.shutdown()
