"""Checkpoint/restore: a resumed engine behaves as if never interrupted."""

import io

import pytest

from repro import EngineConfig, TimingMatcher
from repro.persistence import (
    CheckpointError, load_checkpoint, save_checkpoint,
)

from .conftest import fig3_stream, fig5_query, path_query, random_stream


class TestRoundTrip:
    def test_restore_equals_continuous_run(self, tmp_path):
        stream = random_stream(21, 200, 8, labels="abcdef")
        half = len(stream) // 2
        path = str(tmp_path / "engine.ckpt")

        continuous = TimingMatcher(fig5_query(), 5.0)
        continuous_matches = []
        for edge in stream:
            continuous_matches.extend(continuous.push(edge))

        interrupted = TimingMatcher(fig5_query(), 5.0)
        matches = []
        for edge in stream[:half]:
            matches.extend(interrupted.push(edge))
        save_checkpoint(interrupted, path)
        resumed = load_checkpoint(path)
        for edge in stream[half:]:
            matches.extend(resumed.push(edge))

        assert set(matches) == set(continuous_matches)
        assert set(resumed.current_matches()) == \
            set(continuous.current_matches())
        assert resumed.store_profile() == continuous.store_profile()

    def test_deep_mstree_store_checkpoints_without_recursion(self, tmp_path):
        """An MS-tree level holds its nodes on an intrusive linked list;
        naive pickling would recurse node→next→next… and blow the
        recursion limit on any realistically sized store (thousands of
        stored partials).  Regression: checkpoint a store far deeper than
        the default recursion limit and resume it."""
        stream = random_stream(5, 3000, 6, labels="ab")
        matcher = TimingMatcher(path_query(2, labels="ab"), 1e9)
        # Window spans the whole stream: nothing ever expires.
        for edge in stream:
            matcher.push(edge)
        # Several pickle frames per linked node: ~900 chained nodes blow
        # the default 1000-frame recursion limit many times over.
        assert matcher.store_profile()["L1^1"] > 800
        path = str(tmp_path / "deep.ckpt")
        save_checkpoint(matcher, path)          # must not RecursionError
        resumed = load_checkpoint(path)
        assert resumed.store_profile() == matcher.store_profile()
        assert resumed.result_count() == matcher.result_count()

    def test_wildcard_labels_survive_pickling(self, tmp_path):
        """ANY is a singleton compared with ``is`` — restoring must keep
        wildcard matching working."""
        from repro.datasets import (
            exfiltration_attack_query, generate_netflow_stream, inject_attack,
        )
        stream = inject_attack(generate_netflow_stream(800, seed=4))
        matcher = TimingMatcher(exfiltration_attack_query(), 30.0)
        edges = list(stream)
        midpoint = len(edges) // 3
        for edge in edges[:midpoint]:
            matcher.push(edge)
        buffer = io.BytesIO()
        save_checkpoint(matcher, buffer)
        buffer.seek(0)
        resumed = load_checkpoint(buffer)
        detections = []
        for edge in edges[midpoint:]:
            detections.extend(resumed.push(edge))
        assert len(detections) == 1

    def test_independent_storage_checkpoint(self, tmp_path):
        path = str(tmp_path / "ind.ckpt")
        matcher = TimingMatcher(fig5_query(), 9.0,
                                config=EngineConfig(storage="independent"))
        for edge in fig3_stream()[:8]:
            matcher.push(edge)
        save_checkpoint(matcher, path)
        resumed = load_checkpoint(path)
        assert resumed.result_count() == matcher.result_count() == 1


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
            load_checkpoint(str(path))

    def test_not_a_checkpoint(self, tmp_path):
        path = self.framed(tmp_path, {"something": "else"})
        with pytest.raises(CheckpointError, match="not a timingsubg"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [0, 9, 10, 11, 12, 13, 14])
    def test_version_mismatch(self, tmp_path, version):
        from repro.persistence import _MAGIC
        path = self.framed(tmp_path, {
            "magic": _MAGIC, "version": version, "matcher": None})
        with pytest.raises(
                CheckpointError,
                match=f"version {version} incompatible with 15"):
            load_checkpoint(path)

    def test_wrong_payload_type(self, tmp_path):
        from repro.persistence import _MAGIC, CHECKPOINT_VERSION
        path = self.framed(tmp_path, {
            "magic": _MAGIC, "version": CHECKPOINT_VERSION,
            "matcher": "nope"})
        with pytest.raises(CheckpointError, match="TimingMatcher"):
            load_checkpoint(path)
