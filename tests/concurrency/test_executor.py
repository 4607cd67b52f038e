"""Streaming consistency (Definition 11) of the multi-threaded executor.

The paper's Theorem 4/6: the concurrent schedule must produce the same
answers at every time point as the serial chronological execution.  We
verify the observable consequences — identical reported match multisets and
identical final store state — across thread counts, protocols and seeds.
"""

import threading
from collections import Counter

import pytest

from repro import EngineConfig, TimingMatcher
from repro.concurrency import ConcurrentStreamExecutor
from repro.concurrency.locks import ItemLockGuard
from repro.concurrency.transactions import lock_requests_for_insert

from ..conftest import (
    fig3_stream, fig5_query, fork_query, fork_stream, random_stream,
)


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


class TestTimingDeadJoin:
    def test_is_neither_predicted_nor_locked(self, monkeypatch):
        """An arrival completing ``Q⁴ = (e4)`` of the fork query skips
        ``∆(Q⁴) ⋈ Ω(L₀³)`` (``e4 ≺ e3``; see ``timing_reach``).  Its
        transaction takes no ``S(L₀³)``, and the main thread does not
        predict one: a predicted request would hold the head of
        ``L₀³``'s wait-list, stalling the next transaction's ``X(L₀³)``
        until this one ended.  What it did predict and not take is
        withdrawn when it ends; the next transaction is then granted
        ``X(L₀³)`` at once."""
        matcher = TimingMatcher(fork_query(), 20.0)
        stream = fork_stream(0, 600)
        dead = ("L0", 3)
        for edge in stream:
            if matcher._global.count(3) \
                    and matcher.query.edge_matches("e4", edge):
                break
            matcher.push(edge)
        for old in matcher.window.push(edge):
            matcher.delete_edge(old)
        executor = ConcurrentStreamExecutor(matcher, num_threads=1)
        table = executor._table
        txn = executor._next_txn(edge.timestamp)
        requests = lock_requests_for_insert(matcher, edge)
        assert (dead, "S") not in requests
        executor._dispatch(txn, requests)
        following = executor._next_txn(edge.timestamp)
        executor._dispatch(following, [(dead, "X")])

        taken, at_end = [], []
        acquire = ItemLockGuard.acquire
        monkeypatch.setattr(
            ItemLockGuard, "acquire", lambda guard, item, mode: (
                taken.append((item, mode)), acquire(guard, item, mode)))
        withdraw = executor._withdraw
        monkeypatch.setattr(executor, "_withdraw", lambda txn: (
            at_end.extend(table.lock_for(dead)._waitlist), withdraw(txn)))
        executor._run_insert(txn, edge, requests)

        assert (dead, "S") not in taken
        assert (txn, "S") not in at_end and at_end[-1] == (following, "X")
        assert list(table.lock_for(dead)._waitlist) == [(following, "X")]
        granted = threading.Thread(
            target=table.lock_for(dead).acquire, args=(following, "X"))
        granted.start()
        granted.join(timeout=5)
        assert not granted.is_alive()
        assert table.lock_for(dead).waits == 0

    @pytest.mark.parametrize("num_threads", [2, 4])
    def test_fork_query_streams_consistently(self, num_threads):
        stream = fork_stream(1, 300)
        expected, final, profile = serial_reference(
            lambda window: TimingMatcher(fork_query(), window), 20.0, stream)
        matcher = TimingMatcher(fork_query(), 20.0)
        got = ConcurrentStreamExecutor(matcher, num_threads).run(stream)
        assert expected and Counter(got) == Counter(expected)
        assert set(matcher.current_matches()) == final
        assert matcher.store_profile() == profile
