"""The tail percentile, shared by the harness and the worker."""

from __future__ import annotations

import math

# Candidates for the tail percentile, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) at the highest candidate percentile that leaves at
    least ten samples beyond it, by the nearest-rank rule; None when the
    samples are too few for any candidate."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None
