"""Fault containment primitives: retries, breakers, rate limits, health.

The gateway's reliability story is built from four small, independently
testable pieces, all stdlib-only and thread-safe:

:class:`RetryPolicy` / :func:`call_with_retry`
    Jittered exponential backoff around a transient operation (a sink
    write, a WAL append or fsync, a checkpoint).
:class:`CircuitBreaker`
    After ``failure_threshold`` consecutive failures a component stops
    being attempted (*open* = degraded) until a cool-down passes, then a
    probe either closes it again or re-opens it.  Breakers let a broken
    match log or checkpoint disk degrade that one component while
    ingestion keeps flowing.
:class:`TokenBucket`
    Per-tenant request admission: ``rate`` tokens/second refill up to
    ``burst``; a rejected acquisition names the seconds to wait (the
    HTTP layer's ``Retry-After``).
:class:`HealthTracker`
    The ``healthy | degraded`` state machine every tenant (and the
    gateway as a whole) exposes on ``/healthz``, with a bounded
    transition history so operators can verify a ``degraded -> healthy``
    arc actually happened.

:class:`DeadLetterQueue` rounds it out: poison arrivals (edges whose
ingestion raises even in isolation) are appended to a bounded JSONL file
instead of being silently dropped, with counters surfaced in
``/metrics``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import threading
import time
from typing import Callable, List, Optional, Tuple

from ..stats import COUNTER, GAUGE, IS_OPEN, Table, snapshot

#: The tenant/gateway health states (see :class:`HealthTracker`).
HEALTH_STATES = ("healthy", "degraded")


# --------------------------------------------------------------------- #
# Retries
# --------------------------------------------------------------------- #

@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Shape of a retry ladder (see :func:`call_with_retry`).

    ``attempts`` counts the *total* tries (1 = no retry).  Delays grow
    from ``base_delay`` by ``multiplier`` up to ``max_delay``, each
    multiplied by a uniform jitter in ``[1 - jitter, 1 + jitter]`` so
    synchronized failures do not retry in lockstep.  Only exception
    types in ``retry_on`` are retried; everything else propagates at
    once.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.1
    retry_on: Tuple[type, ...] = (OSError,)

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """The post-failure sleep before try ``attempt + 1`` (0-based)."""
        delay = min(self.max_delay,
                    self.base_delay * (self.multiplier ** attempt))
        if self.jitter:
            delay *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(0.0, delay)


def call_with_retry(fn: Callable, *args,
                    policy: RetryPolicy = RetryPolicy(),
                    sleep: Callable[[float], None] = time.sleep,
                    rng: Optional[random.Random] = None,
                    **kwargs):
    """Run ``fn(*args, **kwargs)`` under ``policy``.

    Retries only ``policy.retry_on`` exceptions, sleeping the jittered
    exponential delay between tries.  The last failure propagates.
    """
    rng = rng if rng is not None else random
    for attempt in range(policy.attempts):
        try:
            return fn(*args, **kwargs)
        except policy.retry_on:
            if attempt >= policy.attempts - 1:
                raise
            sleep(policy.delay_for(attempt, rng))
    raise AssertionError("unreachable")    # pragma: no cover


# --------------------------------------------------------------------- #
# Circuit breaker
# --------------------------------------------------------------------- #

class CircuitBreaker:
    """Trip a persistently failing component to degraded mode.

    *Closed* (normal): calls flow; ``failure_threshold`` consecutive
    failures trip it.  *Open*: :meth:`allow` refuses for
    ``reset_timeout`` seconds — the component is skipped entirely, so a
    dead disk cannot add per-call latency.  *Half-open*: after the
    cool-down one probe call is allowed through; success closes the
    breaker, failure re-opens it.

    """

    #: What :meth:`counters` reports (see :mod:`repro.stats`).
    STATS: Table = {
        "state": (IS_OPEN, "Whether the circuit breaker is open."),
        "trips": (COUNTER, "Circuit breaker trips (closed to open)."),
        "short_circuits": (COUNTER, "Calls the breaker refused while "
                                    "open."),
    }

    def __init__(self, name: str, *, failure_threshold: int = 5,
                 reset_timeout: float = 30.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.name = name
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self.trips = 0
        self.short_circuits = 0

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half_open``."""
        with self._lock:
            return self._peek()

    def _peek(self) -> str:
        if self._state == "open" \
                and self._clock() - self._opened_at >= self.reset_timeout:
            self._state = "half_open"
        return self._state

    def allow(self) -> bool:
        """Whether the component should be attempted right now."""
        with self._lock:
            state = self._peek()
            if state == "open":
                self.short_circuits += 1
                return False
            return True

    def record_success(self) -> None:
        """Note a successful call (closes a half-open breaker)."""
        with self._lock:
            self._failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        """Note a failed call (may trip the breaker)."""
        with self._lock:
            if self._state == "half_open":
                self._state = "open"
                self._opened_at = self._clock()
                return
            self._failures += 1
            if self._state == "closed" \
                    and self._failures >= self.failure_threshold:
                self._state = "open"
                self._opened_at = self._clock()
                self.trips += 1

    def counters(self) -> dict:
        """A JSON-able snapshot of :attr:`STATS` for ``/stats``."""
        return snapshot(self, self.STATS)


# --------------------------------------------------------------------- #
# Rate limiting
# --------------------------------------------------------------------- #

class TokenBucket:
    """The classic token-bucket admission controller.

    ``rate`` tokens per second refill continuously up to ``burst``.
    :meth:`try_acquire` either admits (returns ``0.0``) or names how
    long the caller should wait before retrying — the number the HTTP
    layer sends as ``Retry-After`` and the WebSocket layer puts in its
    backoff frame.
    """

    #: What :meth:`counters` reports (see :mod:`repro.stats`).
    STATS: Table = {
        "rate": (GAUGE, "Tokens (edges) refilled per second."),
        "burst": (GAUGE, "Bucket size: the largest burst."),
        "admitted": (COUNTER, "Edges the rate limiter admitted."),
        "limited": (COUNTER, "Edges refused with a retry-after."),
    }

    def __init__(self, rate: float, burst: float, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst!r}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()
        self.admitted = 0
        self.limited = 0

    def try_acquire(self, tokens: int = 1) -> float:
        """Admit ``tokens`` units or say how long to wait.

        Returns ``0.0`` on admission, else the seconds until the bucket
        will hold the requested tokens (at least a millisecond, so a
        caller that sleeps the returned value always makes progress).
        Requests larger than ``burst`` are admitted whenever the bucket
        is *full* — an oversized batch is throttled, not unservable.
        """
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            needed = min(float(tokens), self.burst)
            if self._tokens >= needed:
                self._tokens -= needed
                self.admitted += tokens
                return 0.0
            self.limited += tokens
            return max(0.001, (needed - self._tokens) / self.rate)

    def counters(self) -> dict:
        """A JSON-able snapshot of :attr:`STATS` for ``/stats``."""
        return snapshot(self, self.STATS)


class RateLimited(RuntimeError):
    """Raised by the gateway when a tenant's bucket rejects a batch;
    carries the suggested wait in :attr:`retry_after` (seconds)."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(
            f"rate limit exceeded; retry in {retry_after:.3f}s")
        self.retry_after = retry_after


# --------------------------------------------------------------------- #
# Health
# --------------------------------------------------------------------- #

class HealthTracker:
    """The ``healthy | degraded`` state machine.

    Transitions are timestamped and kept in a bounded history so
    ``/stats`` can show *that* a component dipped and came back, not
    just its instantaneous state.
    """

    def __init__(self, *, history: int = 32,
                 clock: Callable[[], float] = time.time) -> None:
        self._lock = threading.Lock()
        self._state = "healthy"
        self._reason = ""
        self._clock = clock
        self._history_cap = history
        self._history: List[dict] = []

    @property
    def state(self) -> str:
        """The current health state."""
        with self._lock:
            return self._state

    @property
    def reason(self) -> str:
        """Why the component is not healthy ("" when healthy)."""
        with self._lock:
            return self._reason

    def set_state(self, state: str, reason: str = "") -> None:
        """Transition (no-op when already in ``state``)."""
        if state not in HEALTH_STATES:
            raise ValueError(f"unknown health state: {state!r}")
        with self._lock:
            if state == self._state:
                return
            self._state = state
            self._reason = reason if state != "healthy" else ""
            self._history.append({
                "state": state, "reason": reason,
                "at": round(self._clock(), 3)})
            del self._history[:-self._history_cap]

    def snapshot(self) -> dict:
        """A JSON-able snapshot for ``/stats`` and ``/healthz``."""
        with self._lock:
            return {"state": self._state, "reason": self._reason,
                    "transitions": list(self._history)}


# --------------------------------------------------------------------- #
# Dead letters
# --------------------------------------------------------------------- #

def read_dead_letters(path: str) -> Tuple[List[dict], int]:
    """The records of the dead-letter file at ``path`` and the number of
    lines skipped as unreadable: a line that is not a JSON object (a
    torn final write, say) names no dead letter.  Blank lines are not
    counted.  ``OSError`` when the file cannot be read."""
    records, skipped = [], 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped


class DeadLetterQueue:
    """A bounded JSONL sink for poison arrivals.

    An edge whose ingestion raises — even retried in isolation — is
    *recorded* here (reason, error, the edge's wire form, a timestamp)
    instead of vanishing into a counter.  The file is bounded: past
    ``max_records`` new poison is counted in :attr:`dropped` but not
    written, so a poison storm cannot fill the disk.
    """

    #: What :meth:`counters` reports (see :mod:`repro.stats`).
    STATS: Table = {
        "recorded": (COUNTER, "Dead letters on file, those written before "
                              "boot included."),
        "dropped": (COUNTER, "Dead letters shed: over the bound, or the "
                             "disk refused."),
    }

    def __init__(self, path: str, *, max_records: int = 1000) -> None:
        self.path = path
        self.max_records = max_records
        self._lock = threading.Lock()
        self.recorded = 0
        self.dropped = 0
        #: Whether the file ends mid-line (a torn final write): the next
        #: record then starts on a fresh line instead of gluing onto it.
        self._torn = False
        if os.path.exists(path):
            try:
                self.recorded = len(read_dead_letters(path)[0])
                with open(path, "rb") as handle:
                    if handle.seek(0, os.SEEK_END):
                        handle.seek(-1, os.SEEK_END)
                        self._torn = handle.read(1) != b"\n"
            except OSError:            # pragma: no cover - disk trouble
                pass

    def record(self, reason: str, payload: dict,
               error: Optional[BaseException] = None) -> bool:
        """Append one dead letter; ``False`` when over the bound (or the
        disk refused — dead-lettering must never raise into the
        worker)."""
        with self._lock:
            if self.recorded >= self.max_records:
                self.dropped += 1
                return False
            entry = {"at": round(time.time(), 3), "reason": reason,
                     "payload": payload}
            if error is not None:
                entry["error"] = repr(error)
            line = json.dumps(entry, sort_keys=True) + "\n"
            try:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write("\n" + line if self._torn else line)
            except OSError:
                # The write may have left part of a line behind.
                self._torn = True
                self.dropped += 1
                return False
            self._torn = False
            self.recorded += 1
            return True

    def read_all(self) -> List[dict]:
        """Every readable dead letter on file (see
        :func:`read_dead_letters`)."""
        if not os.path.exists(self.path):
            return []
        return read_dead_letters(self.path)[0]

    def counters(self) -> dict:
        """A JSON-able snapshot of :attr:`STATS` for ``/stats``."""
        return snapshot(self, self.STATS)
