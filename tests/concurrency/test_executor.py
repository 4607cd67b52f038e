"""Streaming consistency (Definition 11) of the multi-threaded executor.

The paper's Theorem 4/6: the concurrent schedule must produce the same
answers at every time point as the serial chronological execution.  We
verify the observable consequences — identical reported match multisets and
identical final store state — across thread counts, protocols and seeds.
"""

from collections import Counter

import pytest

from repro import EngineConfig, TimingMatcher
from repro.concurrency import ConcurrentStreamExecutor

from ..conftest import fig3_stream, fig5_query, random_stream


def serial_reference(query_factory, window, stream):
    matcher = query_factory(window)
    matches = []
    for edge in stream:
        matches.extend(matcher.push(edge))
    return matches, set(matcher.current_matches()), matcher.store_profile()


def fig5_factory(window):
    return TimingMatcher(fig5_query(), window)


class TestStreamingConsistency:
    @pytest.mark.parametrize("num_threads", [1, 2, 4])
    def test_running_example(self, num_threads):
        stream = fig3_stream()
        expected, final, profile = serial_reference(fig5_factory, 9.0, stream)
        matcher = fig5_factory(9.0)
        executor = ConcurrentStreamExecutor(matcher, num_threads=num_threads)
        got = executor.run(stream)
        assert Counter(got) == Counter(expected)
        assert set(matcher.current_matches()) == final
        assert matcher.store_profile() == profile

    @pytest.mark.parametrize("num_threads", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_streams(self, num_threads, seed):
        stream = random_stream(seed, 200, 8, labels="abcdef")
        expected, final, profile = serial_reference(fig5_factory, 4.0, stream)
        matcher = fig5_factory(4.0)
        executor = ConcurrentStreamExecutor(matcher, num_threads=num_threads)
        got = executor.run(stream)
        assert Counter(got) == Counter(expected)
        assert set(matcher.current_matches()) == final
        assert matcher.store_profile() == profile

    @pytest.mark.parametrize("num_threads", [2, 4])
    def test_all_locks_protocol_also_consistent(self, num_threads):
        stream = random_stream(5, 150, 8, labels="abcdef")
        expected, final, _ = serial_reference(fig5_factory, 4.0, stream)
        matcher = fig5_factory(4.0)
        executor = ConcurrentStreamExecutor(
            matcher, num_threads=num_threads, all_locks=True)
        got = executor.run(stream)
        assert Counter(got) == Counter(expected)
        assert set(matcher.current_matches()) == final

    def test_independent_storage_under_concurrency(self):
        stream = random_stream(9, 150, 8, labels="abcdef")
        expected, final, _ = serial_reference(fig5_factory, 4.0, stream)
        matcher = TimingMatcher(fig5_query(), 4.0,
                                config=EngineConfig(storage="independent"))
        executor = ConcurrentStreamExecutor(matcher, num_threads=4)
        got = executor.run(stream)
        assert Counter(got) == Counter(expected)
        assert set(matcher.current_matches()) == final

    def test_thread_count_validation(self):
        with pytest.raises(ValueError):
            ConcurrentStreamExecutor(fig5_factory(9.0), num_threads=0)
