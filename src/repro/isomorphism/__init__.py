"""Static subgraph-isomorphism substrate (baseline algorithms)."""

from .base import StaticMatcher
from .boostiso import BoostISO
from .quicksi import QuickSI
from .turboiso import TurboISO

#: The algorithms the paper plugs into IncMat (§VII), by name.
ALGORITHMS = {
    "QuickSI": QuickSI,
    "TurboISO": TurboISO,
    "BoostISO": BoostISO,
}

__all__ = ["StaticMatcher", "QuickSI", "TurboISO", "BoostISO", "ALGORITHMS"]
