"""Measurement utilities: throughput and deterministic space accounting.

Throughput is the paper's metric: edges handled per second (the whole
``push`` path — expiry plus insertion).  Space is *logical*: every store
reports cells (see ``MS_NODE_CELLS`` / ``IND_ENTRY_OVERHEAD``), converted
here to KB at a fixed cell width.  Logical accounting keeps the space
figures deterministic and machine-independent, which is what lets the test
suite assert the paper's orderings (Timing < Timing-IND < SJ-tree < IncMat)
rather than hoping the allocator cooperates.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, List, Optional

from ..graph.edge import StreamEdge

#: Bytes charged per logical cell (one pointer-sized slot).
CELL_BYTES = 8


def cells_to_kb(cells: int) -> float:
    """Convert logical cells to kilobytes."""
    return cells * CELL_BYTES / 1024.0


class RunResult:
    """Outcome of streaming one workload through one engine."""

    __slots__ = ("engine_name", "edges_processed", "elapsed_seconds",
                 "matches_emitted", "space_samples_cells", "final_answer_count")

    def __init__(self, engine_name: str) -> None:
        self.engine_name = engine_name
        self.edges_processed = 0
        self.elapsed_seconds = 0.0
        self.matches_emitted = 0
        self.space_samples_cells: List[int] = []
        self.final_answer_count = 0

    @property
    def throughput(self) -> float:
        """Edges per second (0 when nothing ran)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.edges_processed / self.elapsed_seconds

    @property
    def avg_space_cells(self) -> float:
        if not self.space_samples_cells:
            return 0.0
        return sum(self.space_samples_cells) / len(self.space_samples_cells)

    @property
    def avg_space_kb(self) -> float:
        """Average per-window space in KB (the paper's Figs. 17/18/24)."""
        return cells_to_kb(int(self.avg_space_cells))

    def __repr__(self) -> str:
        return (f"RunResult({self.engine_name}: "
                f"{self.throughput:.0f} edges/s, {self.avg_space_kb:.1f} KB, "
                f"{self.matches_emitted} matches)")


class LatencyRecorder:
    """Per-arrival processing-latency distribution (production metric).

    Records one latency sample per ``push`` and reports percentiles —
    throughput alone hides tail behaviour, and the expiry-heavy arrivals
    (one edge triggering many deletions) are exactly the tail.
    """

    __slots__ = ("samples",)

    def __init__(self) -> None:
        self.samples: List[float] = []

    def record(self, seconds: float) -> None:
        self.samples.append(seconds)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank percentile in seconds: the smallest sample with at
        least ``fraction`` of all samples at or below it (0 when empty)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def max(self) -> float:
        return max(self.samples) if self.samples else 0.0


def run_stream(engine, edges: Iterable[StreamEdge], *,
               name: Optional[str] = None,
               space_sample_every: int = 200,
               latency: Optional[LatencyRecorder] = None) -> RunResult:
    """Push ``edges`` through ``engine``, measuring time / space / matches.

    ``engine`` is anything with the streaming interface (``push`` returning
    new matches, ``space_cells``, ``result_count``) — all engines and
    baselines in this library qualify.
    """
    result = RunResult(name if name is not None
                       else getattr(engine, "name", type(engine).__name__))
    started = time.perf_counter()
    for index, edge in enumerate(edges):
        if latency is not None:
            before = time.perf_counter()
            result.matches_emitted += len(engine.push(edge))
            latency.record(time.perf_counter() - before)
        else:
            result.matches_emitted += len(engine.push(edge))
        if index % space_sample_every == 0:
            result.space_samples_cells.append(engine.space_cells())
        result.edges_processed += 1
    result.elapsed_seconds = time.perf_counter() - started
    result.space_samples_cells.append(engine.space_cells())
    result.final_answer_count = engine.result_count()
    return result
