"""Server config: TOML loading and strict validation."""

import dataclasses

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
backpressure = "drop_oldest"

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
        assert fraud.backpressure == "drop_oldest"
        assert "vertex a A" in fraud.queries["chain"]

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

    def test_drop_oldest_refused_when_the_wal_is_a_default(self):
        data = self.base()
        data["defaults"] = {"wal": {"enabled": True}}
        data["tenant"][0]["backpressure"] = "drop_oldest"
        with pytest.raises(ConfigError, match="drop_oldest"):
            parse_config(data)

    def test_spill_in_defaults_is_refused(self):
        """No policy parks edges on disk beside the WAL, so an old
        config that asked for one fails with the accepted list."""
        data = self.base()
        data["defaults"] = {"backpressure": "spill"}
        with pytest.raises(ConfigError,
                           match=r"expected one of \('block', 'drop_oldest'\)"):
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
                           match=r"expected one of \('block', 'drop_oldest'\)"):
            self.tenant(backpressure="spill").validate()

    def test_drop_oldest_refused_with_an_enabled_wal(self):
        """An acked WAL batch is applied in full, so a WAL tenant may
        not shed queued edges."""
        with pytest.raises(ConfigError, match="drop_oldest"):
            self.tenant(backpressure="drop_oldest",
                        wal=WalConfig()).validate()
        tenant = self.tenant(backpressure="drop_oldest",
                             wal=WalConfig(enabled=False))
        assert tenant.validate() is tenant

    def test_bad_timestamps_mode(self):
        with pytest.raises(ConfigError, match="timestamps"):
            self.tenant(timestamps="ntp").validate()

    def test_tenant_name_must_be_directory_safe(self):
        with pytest.raises(ConfigError, match="directory"):
            TenantConfig(name="a/b",
                         queries={"q": CHAIN_DSL}).validate()

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
