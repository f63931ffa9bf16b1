"""Summary statistics of the benchmark: the timing tail and TTS99."""
from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Target confidence of the time-to-solution figure.
CONFIDENCE = 0.99


def tts99(t_shot: float, p_hit: float) -> float | None:
    """Time to reach the ground state at least once with 99 % confidence.

    ``t_shot * ln(1 - 0.99) / ln(1 - p_hit)`` (Ronnow et al. 2014,
    Science 345, 420), with the repeat count held at one shot or more, so
    ``p_hit = 1`` gives ``t_shot``.  ``p_hit = 0`` never succeeds: the
    result is ``None`` ("unreachable"), never a number.
    """
    if not t_shot > 0 or math.isinf(t_shot):
        raise ValueError(f"t_shot must be positive and finite, got {t_shot!r}")
    if not 0.0 <= p_hit <= 1.0:
        raise ValueError(f"p_hit must lie in [0, 1], got {p_hit!r}")
    if p_hit == 0.0:
        return None
    if p_hit == 1.0:
        return t_shot
    repeats = math.log(1.0 - CONFIDENCE) / math.log(1.0 - p_hit)
    return t_shot * max(1.0, repeats)


def tail(values: Sequence[float]) -> float:
    """The highest whole percentile with at least ten samples above it
    (p95 at 200 samples); below 20 samples, the maximum."""
    if not values:
        raise ValueError("percentile of no values")
    n = len(values)
    if n < 20:
        return max(values)
    pct = math.floor(100 * (n - 10) / n)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]

