"""Checkpoint/restore: a resumed one-query session behaves as if never
interrupted (whole sessions in every mode: ``tests/test_session_model.py``;
what a restore may change: ``tests/test_logical_checkpoint.py``)."""

import io

import pytest

from repro import EngineConfig, Session
from repro.persistence import CheckpointError, load_session

from .conftest import fig3_stream, fig5_query, path_query, random_stream


def one_query_session(query, window, **config):
    session = Session(window=window, config=EngineConfig(**config))
    session.register("q", query)
    return session


class TestRoundTrip:
    def test_restore_equals_continuous_run(self, tmp_path):
        stream = random_stream(21, 200, 8, labels="abcdef")
        half = len(stream) // 2
        path = str(tmp_path / "engine.ckpt")

        continuous = one_query_session(fig5_query(), 5.0)
        continuous_matches = continuous.push_many(stream)

        interrupted = one_query_session(fig5_query(), 5.0)
        matches = interrupted.push_many(stream[:half])
        interrupted.checkpoint(path)
        resumed = load_session(path)
        matches += resumed.push_many(stream[half:])

        assert matches == continuous_matches
        assert set(resumed.current_matches()["q"]) == \
            set(continuous.current_matches()["q"])
        assert resumed.matcher("q").store_profile() == \
            continuous.matcher("q").store_profile()

    def test_deep_mstree_store_checkpoints_without_recursion(self, tmp_path):
        """An MS-tree level holds its nodes on an intrusive linked list,
        thousands long on a realistically sized store; a checkpoint holds
        the window's edges, not the nodes, so its depth does not grow
        with the store.  Checkpoint a store far deeper than the default
        recursion limit and resume it."""
        stream = random_stream(5, 3000, 6, labels="ab")
        # Window spans the whole stream: nothing ever expires.
        session = one_query_session(path_query(2, labels="ab"), 1e9)
        session.push_many(stream)
        matcher = session.matcher("q")
        assert matcher.store_profile()["L1^1"] > 800
        path = str(tmp_path / "deep.ckpt")
        session.checkpoint(path)                # must not RecursionError
        resumed = load_session(path).matcher("q")
        assert resumed.store_profile() == matcher.store_profile()
        assert resumed.result_count() == matcher.result_count()

    def test_wildcard_labels_survive_pickling(self, tmp_path):
        """ANY is a singleton compared with ``is`` — restoring must keep
        wildcard matching working."""
        from repro.datasets import (
            exfiltration_attack_query, generate_netflow_stream, inject_attack,
        )
        stream = inject_attack(generate_netflow_stream(800, seed=4))
        session = one_query_session(exfiltration_attack_query(), 30.0)
        edges = list(stream)
        midpoint = len(edges) // 3
        session.push_many(edges[:midpoint])
        buffer = io.BytesIO()
        session.checkpoint(buffer)
        buffer.seek(0)
        resumed = load_session(buffer)
        assert len(resumed.push_many(edges[midpoint:])) == 1

    def test_independent_storage_checkpoint(self, tmp_path):
        path = str(tmp_path / "ind.ckpt")
        session = one_query_session(fig5_query(), 9.0,
                                    storage="independent")
        session.push_many(fig3_stream()[:8])
        session.checkpoint(path)
        resumed = load_session(path)
        assert not resumed.matcher("q").use_mstree
        assert resumed.result_counts() == session.result_counts() == {"q": 1}


class TestEnvelope:
    """Envelopes are written through the real CRC frame, so each test
    reaches the check it names."""

    @staticmethod
    def framed(tmp_path, envelope):
        from repro.persistence import _dump
        path = str(tmp_path / "envelope.ckpt")
        _dump(envelope, path)
        return path

    def test_unframed_bytes_are_refused_before_unpickling(self, tmp_path):
        import pickle

        class Boom:
            def __reduce__(self):
                return (pytest.fail, ("unframed bytes were unpickled",))

        path = tmp_path / "bare.ckpt"
        path.write_bytes(pickle.dumps(Boom()))
        with pytest.raises(CheckpointError, match="not a timingsubg"):
            load_session(str(path))

    def test_not_a_checkpoint(self, tmp_path):
        path = self.framed(tmp_path, {"something": "else"})
        with pytest.raises(CheckpointError, match="not a timingsubg"):
            load_session(path)

    @pytest.mark.parametrize("version", [0, 9, 10, 11, 12, 13, 14, 15, 16])
    def test_version_mismatch(self, tmp_path, version):
        """There is no reader for any earlier schema."""
        from repro.persistence import _MAGIC
        path = self.framed(tmp_path, {
            "magic": _MAGIC, "version": version, "session": None})
        with pytest.raises(
                CheckpointError,
                match=f"version {version} incompatible with 17"):
            load_session(path)

    def test_wrong_payload_type(self, tmp_path):
        from repro.persistence import _MAGIC, CHECKPOINT_VERSION
        path = self.framed(tmp_path, {
            "magic": _MAGIC, "version": CHECKPOINT_VERSION,
            "session": "nope"})
        with pytest.raises(CheckpointError, match="does not contain"):
            load_session(path)
