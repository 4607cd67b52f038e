"""The fault-containment primitives (repro.service.resilience)."""

import random

import pytest

from repro.service.resilience import (
    HEALTH_STATES, CircuitBreaker, DeadLetterQueue, HealthTracker,
    RateLimited, RetryPolicy, TokenBucket, call_with_retry,
)


class FakeClock:
    """A manually advanced monotonic clock for deterministic tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRetry:
    def test_retries_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "done"

        slept = []
        result = call_with_retry(
            flaky, policy=RetryPolicy(attempts=3, base_delay=0.01),
            sleep=slept.append)
        assert result == "done" and len(calls) == 3 and len(slept) == 2

    def test_last_failure_propagates(self):
        def broken():
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            call_with_retry(broken, policy=RetryPolicy(attempts=2),
                            sleep=lambda _s: None)

    def test_non_retryable_exception_propagates_at_once(self):
        calls = []

        def wrong():
            calls.append(1)
            raise ValueError("a bug, not a transient")

        with pytest.raises(ValueError):
            call_with_retry(wrong, policy=RetryPolicy(attempts=5),
                            sleep=lambda _s: None)
        assert len(calls) == 1

    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=0.5,
                             multiplier=2.0, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay_for(attempt, rng) for attempt in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=1.0, jitter=0.25)
        rng = random.Random(42)
        for attempt in range(50):
            assert 0.75 <= policy.delay_for(attempt, rng) <= 1.25


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset=10.0):
        return CircuitBreaker("test", failure_threshold=threshold,
                              reset_timeout=reset, clock=clock)

    def test_trips_after_threshold(self):
        breaker = self.make(FakeClock())
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 1 and breaker.short_circuits == 1

    def test_success_resets_the_failure_streak(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_closes_on_success(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == "half_open" and breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_half_open_probe_reopens_on_failure(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == "half_open"
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_counters_snapshot(self):
        breaker = self.make(FakeClock())
        assert breaker.counters() == {
            "state": "closed", "trips": 0, "short_circuits": 0}


class TestTokenBucket:
    def test_burst_admits_then_limits(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=4, clock=clock)
        assert bucket.try_acquire(4) == 0.0
        wait = bucket.try_acquire(2)
        assert wait == pytest.approx(0.2)
        assert bucket.admitted == 4 and bucket.limited == 2

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=4, clock=clock)
        bucket.try_acquire(4)
        clock.advance(0.2)          # +2 tokens
        assert bucket.try_acquire(2) == 0.0
        assert bucket.try_acquire(1) > 0.0

    def test_oversized_batch_admitted_at_full_bucket(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=4, clock=clock)
        assert bucket.try_acquire(100) == 0.0, \
            "a batch larger than burst must be throttled, not unservable"
        assert bucket.try_acquire(1) > 0.0

    def test_wait_is_never_zero(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1000.0, burst=1, clock=clock)
        bucket.try_acquire(1)
        assert bucket.try_acquire(1) >= 0.001

    def test_validation(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate=1.0, burst=0)

    def test_rate_limited_carries_retry_after(self):
        exc = RateLimited(1.5)
        assert exc.retry_after == 1.5 and "1.500" in str(exc)


class TestHealthTracker:
    def test_transitions_recorded_with_reasons(self):
        clock = FakeClock()
        tracker = HealthTracker(clock=clock)
        assert tracker.state == "healthy" and tracker.reason == ""
        tracker.set_state("degraded", "disk on fire")
        clock.advance(1.0)
        tracker.set_state("healthy")
        assert tracker.state == "healthy" and tracker.reason == ""
        transitions = tracker.snapshot()["transitions"]
        assert transitions == [
            {"state": "degraded", "reason": "disk on fire", "at": 0.0},
            {"state": "healthy", "reason": "", "at": 1.0}]

    def test_same_state_is_not_rerecorded(self):
        tracker = HealthTracker()
        tracker.set_state("degraded", "x")
        tracker.set_state("degraded", "y")
        assert len(tracker.snapshot()["transitions"]) == 1

    def test_history_is_bounded(self):
        tracker = HealthTracker(history=4)
        for i in range(10):
            tracker.set_state("degraded", str(i))
            tracker.set_state("healthy")
        assert len(tracker.snapshot()["transitions"]) == 4

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown health state"):
            HealthTracker().set_state("on-fire")
        with pytest.raises(ValueError, match="unknown health state"):
            HealthTracker().set_state("recovering")

    def test_states_constant(self):
        assert HEALTH_STATES == ("healthy", "degraded")


class TestDeadLetterQueue:
    def test_records_reason_error_and_payload(self, tmp_path):
        dlq = DeadLetterQueue(str(tmp_path / "dead.jsonl"))
        assert dlq.record("poison_edge", {"src": "a"},
                          error=ValueError("bad")) is True
        (entry,) = dlq.read_all()
        assert entry["reason"] == "poison_edge"
        assert entry["payload"] == {"src": "a"}
        assert "ValueError" in entry["error"]

    def test_bounded_past_capacity(self, tmp_path):
        dlq = DeadLetterQueue(str(tmp_path / "dead.jsonl"), max_records=2)
        for i in range(4):
            dlq.record("r", {"i": i})
        assert dlq.recorded == 2 and dlq.dropped == 2
        assert len(dlq.read_all()) == 2

    def test_existing_file_counts_toward_the_bound(self, tmp_path):
        path = str(tmp_path / "dead.jsonl")
        DeadLetterQueue(path, max_records=10).record("r", {})
        adopted = DeadLetterQueue(path, max_records=10)
        assert adopted.recorded == 1

    def test_record_never_raises_on_disk_trouble(self, tmp_path):
        dlq = DeadLetterQueue(str(tmp_path / "no-such-dir" / "dead.jsonl"))
        assert dlq.record("r", {}) is False
        assert dlq.dropped == 1
