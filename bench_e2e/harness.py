"""Calibrated passes: the timing method every workload shares.

A *pass* builds the system from nothing, pushes a warm-up prefix that
fills the window, then feeds the measured batches in order, timing each.
A *run* is several passes over byte-identical inputs.

This host (2 vCPUs of a shared machine) slows by 10-50 % for phases that
last from milliseconds to tens of seconds, so neither a single pass nor
the per-batch minimum over six passes ("floor of passes") repeats within
a tenth; README.md has the numbers.  What does repeat:

1. **Calibration.**  After every measured batch the load generator runs
   a fixed reference kernel (:class:`Calibrator`, ~0.3 ms of dict and
   tuple work over a 100k-entry table) and times it.  A batch's
   *calibrated* time is its wall time divided by the host's slowness at
   that moment: the median kernel time of the surrounding
   ``2*SMOOTH+1`` batches over the kernel's nominal time.  Times are
   therefore stated at the declared machine's nominal speed.
2. **Median of passes.**  ``typical[b] = median_r calibrated[r][b]``;
   every timed end-to-end metric is computed from these, never from one
   pass.  (Calibration errs both ways, so the minimum over passes is no
   longer the steadiest choice: on 30 recorded ``engine_join`` passes
   the median's run-to-run range was half the minimum's.)

The plain wall-clock floors are printed beside them as ``info.wall.*``.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

MIN_PASSES = 6
MAX_PASSES = 12
QUICK_PASSES = 2
TRACE_UNTRACED_PASSES = 3
TRACED_PASSES = 2


class PassResult:
    """What one pass measured and what it answered."""

    def __init__(self) -> None:
        #: Set-up ("inputs ready" to "ready for the first measured
        #: batch") as wall seconds per part — construct and register,
        #: then each warm-up chunk — and the kernel sample after each.
        self.setup_parts_s: List[float] = []
        self.setup_kernel_s: List[float] = []
        #: Hand-over -> return wall time of each measured batch, and the
        #: kernel sample taken right after it.
        self.batch_s: List[float] = []
        self.batch_kernel_s: List[float] = []
        #: Serve only: last ack -> everything pushed and delivered.
        self.drain_s = 0.0
        #: ``inputs.answer_digest`` over every match of the pass (warm-up
        #: included) and how many there were.
        self.answer = ""
        self.matches = 0
        #: In-process: matches completed by each measured batch (their
        #: latency is that batch's hand-over -> return time).
        self.match_counts: List[int] = []
        #: Serve: match key -> (batch index, batch send -> record read
        #: off the stream, wall seconds).
        self.match_latency_s: Optional[Dict[str, Tuple[int, float]]] = None
        self.space_cells = 0
        self.peak_rss_mb = 0.0
        self.expired_in_warmup = 0
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        self.notes.append(note)

    @classmethod
    def from_json(cls, fields: dict) -> "PassResult":
        """Rebuild a result a child process printed as ``vars(result)``."""
        result = cls()
        vars(result).update(fields)
        return result


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of ``values`` (``share`` in 0..1)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


class Calibrator:
    """A fixed reference kernel whose cost tracks the host's speed.

    Dict probes with tuple keys plus list churn over a table too big for
    the cache slow down with the interpreter-bound system under test far
    more faithfully than an arithmetic spin loop does (over 24
    ``engine_join`` passes, pass time over kernel time ranged over 20 %
    with a spin loop and over 14 % with this kernel, most passes within
    4 % of each other).
    The kernel belongs to the load generator: it never touches ``repro``.
    """

    KEYS = 100_000
    PROBES = 800
    STRIDE = 7919
    #: The kernel's typical interleaved cost on the declared machine when
    #: it is quiet; calibrated times are wall times on such a machine.
    NOMINAL_S = 0.30e-3
    #: Kernel samples on each side of a batch that vote on its speed.
    SMOOTH = 4

    def __init__(self) -> None:
        self._keys = [(f"10.{i % 250}.{i % 97}.{i % 13}", i % 1024, float(i))
                      for i in range(self.KEYS)]
        self._table = {key: [key] for key in self._keys}
        self._position = 0

    def __call__(self) -> float:
        """Run the kernel once; its duration in seconds."""
        start = time.perf_counter()
        position = self._position
        get = self._table.get
        total = 0
        for key in self._keys[position:position + self.PROBES]:
            row = get(key)
            total += len(row) + hash(key[0]) % 3
            row.append(total)
            row.pop()
        self._position = (position + self.STRIDE) % (self.KEYS - self.PROBES)
        return time.perf_counter() - start

    @classmethod
    def speeds(cls, kernel_s: Sequence[float]) -> List[float]:
        """Host slowness per sample (1.0 = nominal): the running median
        of the kernel times over the nominal kernel time."""
        k = cls.SMOOTH
        return [statistics.median(kernel_s[max(0, i - k):i + k + 1])
                / cls.NOMINAL_S for i in range(len(kernel_s))]


def floor_of(function: Callable[[], object], repeats: int):
    """``(min seconds, last result)`` of ``function`` over ``repeats``."""
    best = math.inf
    result = None
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def run_passes(run_pass: Callable[[], PassResult], *, seconds: float,
               min_passes: int) -> List[PassResult]:
    """At least ``min_passes`` passes, then more while they fit inside
    ``seconds``."""
    passes: List[PassResult] = []
    started = time.monotonic()
    while len(passes) < MAX_PASSES:
        elapsed = time.monotonic() - started
        if len(passes) >= min_passes and \
                elapsed + elapsed / len(passes) > seconds:
            break
        gc.collect()
        passes.append(run_pass())
    return passes


def _per_batch(columns: Sequence[Sequence[float]], pick) -> List[float]:
    return [pick(column) for column in zip(*columns)]


def _calibrated(walls: Sequence[float],
                kernel_s: Sequence[float]) -> List[float]:
    return [wall / speed
            for wall, speed in zip(walls, Calibrator.speeds(kernel_s))]


def calibrated_batches(result: PassResult) -> List[float]:
    """Each measured batch's time at nominal host speed."""
    return _calibrated(result.batch_s, result.batch_kernel_s)


def _summary(pick, batch_columns, setups, drains, latency,
             measured_edges: int) -> Dict[str, float]:
    """The timed metrics with ``pick`` (``min`` or the median) choosing
    one value out of the passes' values of the same quantity (a batch,
    a part of the set-up, the drain, one match's latency)."""
    batches = _per_batch(batch_columns, pick)
    matches = latency(batches, pick)
    return {
        "setup_s": sum(_per_batch(setups, pick)),
        "edges_per_s": measured_edges / (sum(batches) + pick(drains)),
        "ack_p50_ms": percentile(batches, 0.50) * 1e3,
        "ack_p95_ms": percentile(batches, 0.95) * 1e3,
        "ack_p99_ms": percentile(batches, 0.99) * 1e3,
        "match_p50_ms": percentile(matches, 0.50) * 1e3,
        "match_p95_ms": percentile(matches, 0.95) * 1e3,
    }


def end_to_end(passes: Sequence[PassResult],
               measured_edges: int) -> Dict[str, float]:
    """The end-to-end metrics of a run — per-batch medians over passes of
    calibrated times — plus extras that are printed but never gated:
    ``info.wall.*`` is the per-batch floor over passes of plain wall
    times, ``info.*`` the rest."""
    walls = [p.batch_s for p in passes]
    speeds = [Calibrator.speeds(p.batch_kernel_s) for p in passes]
    served = passes[0].match_latency_s is not None

    def latency_of(scale):
        """Per-match latencies; ``scale[r][b]`` divides pass ``r``'s wall
        latency of a match completed by batch ``b``."""
        def latency(batches, pick):
            if not served:
                # A --quick run's short measured region may hold no match.
                return [batches[b] for b, count in enumerate(
                    passes[0].match_counts) for _ in range(count)] or batches
            return [pick([p.match_latency_s[key][1]
                          / scale[r][p.match_latency_s[key][0]]
                          for r, p in enumerate(passes)
                          if key in p.match_latency_s])
                    for key in passes[0].match_latency_s]
        return latency

    values = _summary(
        statistics.median, [calibrated_batches(p) for p in passes],
        [_calibrated(p.setup_parts_s, p.setup_kernel_s) for p in passes],
        [p.drain_s / s[-1] for p, s in zip(passes, speeds)],
        latency_of(speeds), measured_edges)
    wall = _summary(
        min, walls, [p.setup_parts_s for p in passes],
        [p.drain_s for p in passes],
        latency_of([[1.0] * len(column) for column in walls]),
        measured_edges)
    values["peak_rss_mb"] = statistics.median(p.peak_rss_mb for p in passes)
    values["space_cells"] = float(passes[0].space_cells)
    for name in ("ack_p99_ms", "match_p95_ms"):
        values["info." + name] = values.pop(name)
    values.update({"info.wall." + name: value
                   for name, value in wall.items()})
    medians = _per_batch(walls, statistics.median)
    totals = [sum(p.batch_s) + p.drain_s for p in passes]
    kernel_ms = [sample * 1e3 for p in passes
                 for sample in p.setup_kernel_s + p.batch_kernel_s]
    values.update({
        "info.wall.edges_per_s_median_pass":
            measured_edges / statistics.median(totals),
        "info.passes": float(len(passes)),
        "info.batches": float(len(medians)),
        "info.matches_measured": float(
            len(passes[0].match_latency_s) if served
            else sum(passes[0].match_counts)),
        "info.matches_total": float(passes[0].matches),
        "harness.noise_ratio": sum(medians) / sum(_per_batch(walls, min)),
        "harness.pass_spread": (max(totals) - min(totals)) / min(totals),
        "harness.machine_calib_ms_min": min(kernel_ms),
        "harness.machine_calib_ms_p50": statistics.median(kernel_ms),
        "harness.machine_calib_ms_max": max(kernel_ms),
        "harness.nproc": float(os.cpu_count() or 1),
    })
    return values


def trace_overhead(traced: Sequence[PassResult],
                   untraced: Sequence[PassResult]) -> float:
    """Traced over untraced sum of per-batch calibrated medians."""
    def total(passes):
        return sum(_per_batch([calibrated_batches(p) for p in passes],
                              statistics.median))
    return total(traced) / total(untraced)
