"""Latency summaries in which a refused task ranks as infinitely slow."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence


def ranked(latencies: Sequence[float], refused: int) -> List[float]:
    """All attempted tasks in rank order; each refusal sorts last as +inf."""
    return sorted(latencies) + [math.inf] * refused


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-quantile (0 < q <= 1) of sorted values by the nearest-rank rule."""
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError(f"quantile {q} is outside (0, 1]")
    k = max(1, math.ceil(q * len(values) - 1e-9))
    return values[k - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples rank strictly after the q-quantile's rank."""
    return len(values) - max(1, math.ceil(q * len(values) - 1e-9))


def summarize(
    latencies: Sequence[float], refused: int, tail_q: float, ceiling: float
) -> Dict[str, float]:
    """Median over every attempt and a tail over the answered tasks.

    ``latencies`` holds the answered tasks only.  The median ranks each of
    the ``refused`` tasks as infinitely slow; when it lands on one, the
    finite ``ceiling`` (the whole timed wall, slower than any single task)
    is reported in its place.  The tail is the ``tail_q`` quantile of the
    answered tasks, with the number of answered samples ranked beyond it.
    """
    everything = ranked(latencies, refused)
    p50 = nearest_rank(everything, 0.5)
    answered = sorted(latencies)
    return {
        "p50": ceiling if math.isinf(p50) else p50,
        "p50_refused": math.isinf(p50),
        "tail": nearest_rank(answered, tail_q) if answered else ceiling,
        "tail_q": tail_q,
        "tail_beyond": beyond(answered, tail_q) if answered else 0,
    }
