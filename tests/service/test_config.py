"""Server config: TOML loading and strict validation."""

import dataclasses
import json
import re
import tomllib

import pytest

from repro.service import (
    ConfigError, ServerConfig, TailConfig, TenantConfig, WalConfig,
    load_config,
)
from repro.service.config import parse_config

from .conftest import CHAIN_DSL

SERVER_TOML = """\
# gateway deployment
[server]
host = "127.0.0.1"
port = 0
state_dir = "state"
checkpoint_interval = 5.0

[defaults]
window = 30.0
queue_capacity = 500
backpressure = "block"

[[tenant]]
name = "fraud"
window = 60.0
batch_size = 32

[tenant.wal]
segment_bytes = 65536

[[tenant.query]]
name = "chain"
text = '''
vertex a A
vertex b B
edge e1 a -> b
window 10
'''

[[tenant]]
name = "audit"

[[tenant.query]]
name = "from-file"
file = "audit.tq"

[[tenant.tail]]
path = "feed.jsonl"
poll_interval = 0.05
"""


@pytest.fixture
def config_dir(tmp_path):
    (tmp_path / "server.toml").write_text(SERVER_TOML)
    (tmp_path / "audit.tq").write_text(CHAIN_DSL)
    return tmp_path


class TestLoadConfig:
    def test_full_file_round_trip(self, config_dir):
        config = load_config(str(config_dir / "server.toml"))
        assert config.port == 0
        assert config.checkpoint_interval == 5.0
        assert config.state_dir == str(config_dir / "state")
        assert [t.name for t in config.tenants] == ["fraud", "audit"]
        fraud = config.tenant("fraud")
        assert fraud.window == 60.0            # tenant overrides default
        assert fraud.queue_capacity == 500     # default applies
        assert fraud.batch_size == 32
        assert fraud.backpressure == "block"
        assert "vertex a A" in fraud.queries["chain"]
        # Every tenant journals; a [tenant.wal] table only tunes it.
        assert fraud.wal == WalConfig(segment_bytes=65536)
        assert config.tenant("audit").wal == WalConfig()

    def test_query_files_resolve_relative_to_config(self, config_dir):
        config = load_config(str(config_dir / "server.toml"))
        assert "order e1 < e2" in config.tenant("audit").queries["from-file"]

    def test_tail_paths_resolve_relative_to_config(self, config_dir):
        config = load_config(str(config_dir / "server.toml"))
        (tail,) = config.tenant("audit").tails
        assert tail.path == str(config_dir / "feed.jsonl")
        assert tail.poll_interval == 0.05

    @pytest.mark.parametrize("text", [
        "just words\n", "[unclosed\n", 'x = """never closed\n'])
    def test_malformed_toml_is_one_line_error(self, tmp_path, text):
        (tmp_path / "server.toml").write_text(text)
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(str(tmp_path / "server.toml"))

    def test_missing_query_file_is_one_line_error(self, config_dir):
        (config_dir / "audit.tq").unlink()
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(config_dir / "server.toml"))


class TestParseConfigValidation:
    def base(self):
        return {
            "server": {"state_dir": "s"},
            "tenant": [{"name": "t0",
                        "query": [{"name": "q", "text": CHAIN_DSL}]}],
        }

    def test_unknown_top_level_key(self):
        data = self.base()
        data["srever"] = {}
        with pytest.raises(ConfigError, match="unknown top-level keys"):
            parse_config(data)

    def test_unknown_server_key(self):
        data = self.base()
        data["server"]["prot"] = 80
        with pytest.raises(ConfigError, match=r"unknown \[server\] keys"):
            parse_config(data)

    def test_unknown_tenant_key(self):
        data = self.base()
        data["tenant"][0]["windw"] = 3
        with pytest.raises(ConfigError, match="unknown tenant keys"):
            parse_config(data)

    @pytest.mark.parametrize("key, value", [
        ("sharding", "process"), ("shards", 2), ("transport", "shm"),
        ("max_restarts", 5), ("restart_window", 300.0)])
    @pytest.mark.parametrize("table", ["tenant", "defaults"])
    def test_removed_knobs_are_unknown_keys(self, key, value, table):
        """A tenant is one in-process session with no supervised
        restart: the old shard and restart knobs are typos now."""
        data = self.base()
        if table == "tenant":
            data["tenant"][0][key] = value
        else:
            data["defaults"] = {key: value}
        with pytest.raises(ConfigError, match=f"unknown .*{key}"):
            parse_config(data)

    @pytest.mark.parametrize("key, value", [
        ("fsync_interval_ms", 2.0), ("fsync_batch", 64)])
    def test_removed_wal_knobs_are_unknown_keys(self, key, value):
        """The WAL fsyncs at once, with no gather window to tune."""
        data = self.base()
        data["tenant"][0]["wal"] = {"enabled": True, key: value}
        with pytest.raises(ConfigError, match=f"unknown .*{key}"):
            parse_config(data)

    def test_drop_oldest_is_refused_at_load_saying_why(self):
        """Shedding queued edges would change the answer, so the old
        load-shedding policy fails with the reason."""
        data = self.base()
        data["defaults"] = {"backpressure": "drop_oldest"}
        with pytest.raises(ConfigError, match=(
                r"'drop_oldest' \(expected one of \('block',\)\): a "
                "full queue blocks its producer, as shedding queued "
                "edges would change the answer")):
            parse_config(data)

    @pytest.mark.parametrize("table", ["tenant", "defaults"])
    def test_an_unjournaled_tenant_is_refused_at_load(self, table):
        """``[tenant.wal] enabled = false`` asked for the removed
        journal-less tenant; ``true`` is still accepted."""
        data = self.base()
        target = data["tenant"][0] if table == "tenant" \
            else data.setdefault("defaults", {})
        target["wal"] = {"enabled": False}
        with pytest.raises(ConfigError, match=(
                "enabled = False is not supported: every tenant journals "
                "each batch it acks")):
            parse_config(data)
        target["wal"] = {"enabled": True, "dedup_window": 8}
        assert parse_config(data).tenants[0].wal == WalConfig(dedup_window=8)

    def test_spill_in_defaults_is_refused(self):
        """No policy parks edges on disk beside the WAL, so an old
        config that asked for one fails with the accepted list."""
        data = self.base()
        data["defaults"] = {"backpressure": "spill"}
        with pytest.raises(ConfigError,
                           match=r"expected one of \('block',\)"):
            parse_config(data)

    def test_query_needs_exactly_one_of_text_or_file(self):
        data = self.base()
        data["tenant"][0]["query"][0]["file"] = "also.tq"
        with pytest.raises(ConfigError, match="exactly one of"):
            parse_config(data)

    def test_no_tenants_rejected(self):
        with pytest.raises(ConfigError, match="no tenants"):
            parse_config({"server": {"state_dir": "s"}})

    def test_duplicate_tenant_names_rejected(self):
        data = self.base()
        data["tenant"].append(dict(data["tenant"][0]))
        with pytest.raises(ConfigError, match="duplicate tenant"):
            parse_config(data)

    def test_duplicate_query_names_rejected(self):
        data = self.base()
        data["tenant"][0]["query"].append(
            {"name": "q", "text": CHAIN_DSL})
        with pytest.raises(ConfigError, match="duplicate query"):
            parse_config(data)


class TestDataclassValidation:
    def tenant(self, **overrides):
        return TenantConfig(name="t0", queries={"q": CHAIN_DSL},
                            **overrides)

    def test_bad_backpressure(self):
        with pytest.raises(ConfigError, match="backpressure"):
            self.tenant(backpressure="best_effort").validate()
        with pytest.raises(ConfigError,
                           match=r"expected one of \('block',\)"):
            self.tenant(backpressure="spill").validate()

    def test_every_tenant_has_a_journal(self):
        """The default tenant journals with the default settings; there
        is no value of ``wal`` that turns the journal off."""
        assert self.tenant().validate().wal == WalConfig()
        with pytest.raises(ConfigError, match="wal must be a table"):
            self.tenant(wal=None).validate()

    def test_duplicate_policies_are_the_engines(self):
        """The tenant check reads the engine's vocabulary."""
        from repro.matcher import DUPLICATE_POLICIES
        for policy in DUPLICATE_POLICIES:
            self.tenant(duplicate_policy=policy).validate()
        with pytest.raises(ConfigError, match=re.escape(
                f"expected one of {DUPLICATE_POLICIES}")):
            self.tenant(duplicate_policy="ignore").validate()

    def test_bad_timestamps_mode(self):
        with pytest.raises(ConfigError, match="timestamps"):
            self.tenant(timestamps="ntp").validate()

    def test_tenant_name_must_be_directory_safe(self):
        with pytest.raises(ConfigError, match="directory"):
            TenantConfig(name="a/b",
                         queries={"q": CHAIN_DSL}).validate()

    @pytest.mark.parametrize("window", ["nan", "inf", "-inf"])
    def test_non_finite_tenant_window_rejected(self, window):
        """TOML spells NaN and infinity as bare ``nan`` / ``inf``."""
        data = tomllib.loads(
            f'[server]\nstate_dir = "s"\n[[tenant]]\nname = "t0"\n'
            f'window = {window}\n[[tenant.query]]\nname = "q"\n'
            f'text = {json.dumps(CHAIN_DSL)}\n')
        with pytest.raises(ConfigError, match="positive, finite duration"):
            parse_config(data)

    def test_queryless_tenant_rejected(self):
        with pytest.raises(ConfigError, match="no queries"):
            TenantConfig(name="t0").validate()

    def test_negative_checkpoint_interval_rejected(self):
        config = ServerConfig(state_dir="s", checkpoint_interval=-1.0,
                              tenants=(self.tenant(),))
        with pytest.raises(ConfigError, match="checkpoint_interval"):
            config.validate()

    def test_port_range(self):
        config = ServerConfig(state_dir="s", port=70000,
                              tenants=(self.tenant(),))
        with pytest.raises(ConfigError, match="port"):
            config.validate()

    def test_bad_tail_format(self):
        with pytest.raises(ConfigError, match="tail format"):
            TailConfig(path="f", format="xml").validate()


class TestOverrides:
    def test_dataclasses_replace_keeps_validation(self, config_dir):
        config = load_config(str(config_dir / "server.toml"))
        bumped = dataclasses.replace(config, port=9000)
        assert bumped.validate().port == 9000
