"""Summary statistics for timing samples."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

# Percentiles considered for the tail, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it.

    ``None`` when even the median has fewer than ten samples above it.
    """
    chosen = None
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            chosen = p
    return chosen


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    rank = max(1, -(-len(sorted_values) * p // 100))   # ceil(n * p / 100)
    return sorted_values[int(rank) - 1]


def summarize(values: Sequence[float]) -> Dict:
    """Count, median and the tail percentile the sample count supports."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    return {"n": len(ordered),
            "median": statistics.median(ordered) if ordered else None,
            "tail_percentile": p,
            "tail": percentile(ordered, p) if p is not None else None}
