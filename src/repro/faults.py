"""Deterministic fault injection for resilience testing.

Production failures — a disk that starts returning ``EIO``, a slow
fsync, a tailer racing log rotation — are rare, racy, and nearly
impossible to reproduce in CI.  This module makes them *ordinary test
inputs*: the service layer calls :func:`fire` at a handful of named
**injection points** (queue put/get, sink write/flush, tailer reads,
checkpoint writes, WAL append/fsync), and an installed
:class:`FaultPlan` decides — deterministically, from a seed — whether
that call crashes, delays, or raises an ``OSError``.

With no plan installed (the default, and the production configuration)
:func:`fire` is a single global load and compare — the injection points
cost nothing.

A plan comes from three places, in priority order:

1. the ``REPRO_FAULTS`` environment variable (tests, chaos jobs) — JSON
   or the compact form below;
2. the ``[faults]`` table of ``server.toml`` (see
   :mod:`repro.service.config`);
3. :func:`install` called directly (unit tests use the :func:`active`
   context manager instead, which restores the previous plan).

Compact form: semicolon-separated entries, each either ``seed=N`` or
``site=kind:trigger[:limit]`` where ``trigger`` is a probability
(``0.01``), ``every:N`` (every Nth call), or ``at:N`` (exactly the Nth
call).  Example::

    REPRO_FAULTS="seed=7;sink.write=io_error:0.01;queue.get=crash:at:40"

The same fields spell the JSON / TOML form::

    {"seed": 7, "inject": [
        {"site": "sink.write", "kind": "io_error", "rate": 0.01},
        {"site": "queue.get", "kind": "crash", "at": 40}]}

Determinism: each spec owns a private RNG seeded from the plan seed, the
site name, and the spec's position, and fires as a pure function of its
call counter — two runs of the same workload under the same plan inject
exactly the same faults at exactly the same calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import json
import random
import threading
import time
import zlib
from typing import Dict, Iterable, List, Optional, Tuple

#: The named injection points the service layer exposes.  ``fire`` calls
#: with a site outside this tuple are a programming error (rejected at
#: plan validation, so a typo in a plan never silently never-fires).
#: ``queue.put`` fires once per ``put``/``put_batch`` *call* — an ingest
#: batch is one call whatever its size, so ``every:N`` counts batches.
SITES = (
    "queue.put", "queue.get",
    "sink.write", "sink.flush",
    "tailer.read",
    "checkpoint.write",
    "wal.append", "wal.fsync",
)

#: Supported fault kinds (see :class:`FaultSpec`).
KINDS = ("crash", "delay", "io_error")


class FaultError(ValueError):
    """Raised on a malformed fault plan (bad site, kind, or trigger)."""


class InjectedFault(RuntimeError):
    """The exception a ``crash`` fault raises — an "unexpected bug" the
    surrounding supervision must contain."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault source attached to an injection site.

    Exactly one trigger should be set: ``rate`` (per-call probability,
    judged by the spec's seeded RNG), ``every`` (every Nth call), or
    ``at`` (exactly the Nth call, which implies ``limit = 1``).
    ``limit`` caps total fires (0 = unlimited); ``delay`` is the sleep
    for ``kind = "delay"``.
    """

    site: str
    kind: str
    rate: float = 0.0
    every: int = 0
    at: int = 0
    limit: int = 0
    delay: float = 0.05

    def validate(self) -> "FaultSpec":
        """Raise :class:`FaultError` on bad values; returns ``self``."""
        if self.site not in SITES:
            raise FaultError(f"unknown fault site: {self.site!r} "
                             f"(expected one of {SITES})")
        if self.kind not in KINDS:
            raise FaultError(f"unknown fault kind: {self.kind!r} "
                             f"(expected one of {KINDS})")
        triggers = [self.rate > 0, self.every > 0, self.at > 0]
        if sum(triggers) != 1:
            raise FaultError(
                f"fault at {self.site!r} needs exactly one trigger: "
                "rate (probability), every:N, or at:N")
        if not (0.0 < self.rate <= 1.0) and self.rate:
            raise FaultError(
                f"fault rate must be in (0, 1], got {self.rate!r}")
        for name in ("every", "at", "limit"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise FaultError(
                    f"fault {name} must be a non-negative int, "
                    f"got {value!r}")
        if not isinstance(self.delay, (int, float)) \
                or isinstance(self.delay, bool) or self.delay < 0:
            raise FaultError(f"fault delay must be >= 0, got {self.delay!r}")
        return self


class _SpecState:
    """Runtime state of one spec: call counter, fire counter, RNG."""

    __slots__ = ("spec", "calls", "fires", "rng")

    def __init__(self, spec: FaultSpec, plan_seed: int, index: int) -> None:
        self.spec = spec
        self.calls = 0
        self.fires = 0
        self.rng = random.Random(
            zlib.crc32(f"{plan_seed}:{spec.site}:{index}".encode()))

    def should_fire(self) -> bool:
        self.calls += 1
        spec = self.spec
        if spec.limit and self.fires >= spec.limit:
            return False
        if spec.at:
            hit = self.calls == spec.at
        elif spec.every:
            hit = self.calls % spec.every == 0
        else:
            hit = self.rng.random() < spec.rate
        if hit:
            self.fires += 1
        return hit


class FaultPlan:
    """A validated set of :class:`FaultSpec` with deterministic runtime
    state (see the module docstring).

    Thread-safe: injection points are hit from worker threads, tailers,
    and the asyncio loop concurrently.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (),
                 *, seed: int = 0) -> None:
        self.seed = int(seed)
        self.specs: Tuple[FaultSpec, ...] = tuple(
            spec.validate() for spec in specs)
        self._lock = threading.Lock()
        self._states: Dict[str, List[_SpecState]] = {}
        for index, spec in enumerate(self.specs):
            self._states.setdefault(spec.site, []).append(
                _SpecState(spec, self.seed, index))

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Build a plan from the JSON / ``[faults]`` table shape:
        ``{"seed": N, "inject": [{...spec fields...}, ...]}``."""
        if not isinstance(data, dict):
            raise FaultError("fault plan must be a table/object")
        unknown = set(data) - {"seed", "inject"}
        if unknown:
            raise FaultError(f"unknown [faults] keys: {sorted(unknown)}")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise FaultError(f"faults seed must be an int, got {seed!r}")
        raw = data.get("inject", [])
        if isinstance(raw, dict):
            raw = [raw]
        if not isinstance(raw, list):
            raise FaultError("[[faults.inject]] must be an array of tables")
        specs = []
        fields = {f.name for f in dataclasses.fields(FaultSpec)}
        for entry in raw:
            if not isinstance(entry, dict):
                raise FaultError("fault inject entries must be tables")
            unknown = set(entry) - fields
            if unknown:
                raise FaultError(
                    f"unknown fault spec keys: {sorted(unknown)}")
            if "site" not in entry or "kind" not in entry:
                raise FaultError("a fault spec needs 'site' and 'kind'")
            specs.append(FaultSpec(**entry))
        return cls(specs, seed=seed)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` value: JSON (leading ``{``) or the
        compact ``seed=N;site=kind:trigger[:limit]`` form."""
        text = text.strip()
        if not text:
            return cls()
        if text.startswith("{"):
            try:
                data = json.loads(text)
            except ValueError as exc:
                raise FaultError(f"bad REPRO_FAULTS JSON: {exc}") from exc
            return cls.from_dict(data)
        seed = 0
        specs: List[FaultSpec] = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, sep, rest = chunk.partition("=")
            if not sep:
                raise FaultError(f"bad fault entry (no '='): {chunk!r}")
            key = key.strip()
            rest = rest.strip()
            if key == "seed":
                try:
                    seed = int(rest)
                except ValueError:
                    raise FaultError(f"bad faults seed: {rest!r}") from None
                continue
            parts = rest.split(":")
            if len(parts) < 2:
                raise FaultError(
                    f"fault entry {chunk!r} needs site=kind:trigger")
            kind = parts[0]
            fields: dict = {"site": key, "kind": kind}
            trigger = parts[1]
            if trigger in ("every", "at"):
                if len(parts) < 3:
                    raise FaultError(
                        f"fault entry {chunk!r}: {trigger}:N needs N")
                try:
                    fields[trigger] = int(parts[2])
                except ValueError:
                    raise FaultError(
                        f"fault entry {chunk!r}: bad count "
                        f"{parts[2]!r}") from None
                extra = parts[3:]
            else:
                try:
                    fields["rate"] = float(trigger)
                except ValueError:
                    raise FaultError(
                        f"fault entry {chunk!r}: bad trigger "
                        f"{trigger!r}") from None
                extra = parts[2:]
            if extra:
                try:
                    fields["limit"] = int(extra[0])
                except ValueError:
                    raise FaultError(
                        f"fault entry {chunk!r}: bad limit "
                        f"{extra[0]!r}") from None
            specs.append(FaultSpec(**fields))
        return cls(specs, seed=seed)

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """The plan named by ``REPRO_FAULTS``, or ``None`` when unset."""
        import os
        value = (environ if environ is not None else os.environ).get(
            "REPRO_FAULTS")
        if not value:
            return None
        return cls.parse(value)

    # ------------------------------------------------------------------ #
    # Runtime
    # ------------------------------------------------------------------ #
    def fire(self, site: str) -> None:
        """Judge one call at ``site`` and act on any fault it draws.

        Raises :class:`InjectedFault` (``crash``) or :class:`OSError`
        (``io_error``); ``delay`` sleeps and returns.
        """
        states = self._states.get(site)
        if not states:
            return
        with self._lock:
            firing = [state.spec for state in states if state.should_fire()]
        for spec in firing:
            if spec.kind == "delay":
                time.sleep(spec.delay)
            elif spec.kind == "io_error":
                raise OSError(
                    errno.EIO, f"injected I/O error at {site}")
            else:
                raise InjectedFault(f"injected crash at {site}")

    def report(self) -> Dict[str, Dict[str, int]]:
        """Per-site ``{"calls": n, "fires": m}`` totals (summed over the
        site's specs) — surfaced in ``/stats`` and asserted by tests."""
        with self._lock:
            out: Dict[str, Dict[str, int]] = {}
            for site, states in self._states.items():
                out[site] = {
                    "calls": max(state.calls for state in states),
                    "fires": sum(state.fires for state in states),
                }
            return out

    def describe(self) -> List[str]:
        """One compact line per spec (for logs and ``/stats``)."""
        lines = []
        for spec in self.specs:
            if spec.at:
                trigger = f"at:{spec.at}"
            elif spec.every:
                trigger = f"every:{spec.every}"
            else:
                trigger = f"rate:{spec.rate}"
            line = f"{spec.site}={spec.kind}:{trigger}"
            if spec.limit:
                line += f":limit:{spec.limit}"
            lines.append(line)
        return lines

    def __repr__(self) -> str:    # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, {'; '.join(self.describe())})"


# --------------------------------------------------------------------- #
# The installed plan
# --------------------------------------------------------------------- #

_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as the process-wide fault plan (``None`` clears
    it).  The gateway installs its configured plan at boot; tests should
    prefer :func:`active`."""
    global _PLAN
    _PLAN = plan


def current() -> Optional[FaultPlan]:
    """The installed plan, if any."""
    return _PLAN


@contextlib.contextmanager
def active(plan: FaultPlan):
    """Install ``plan`` for the duration of a ``with`` block, restoring
    whatever was installed before."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def fire(site: str) -> None:
    """The injection point hook (see the module docstring).  A no-op —
    one global load — unless a plan is installed."""
    plan = _PLAN
    if plan is not None:
        plan.fire(site)
