"""The one latency statistic every report in the repo quotes.

Server-side :class:`~repro.serving.engine.ServingStats`, the load
generator's :class:`~repro.serving.loadgen.LoadReport`, the autoscaler's
p95 signal and the experiment grid's rows all call
:func:`nearest_rank_percentile`, so a client's and a server's p99 over the
same sample are the same number.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["nearest_rank_percentile"]


def nearest_rank_percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile over an already-sorted sample (NaN when empty).

    Always an observed value — no interpolation between two latencies
    nobody measured.
    """
    n = len(sorted_values)
    if n == 0:
        return float("nan")
    return float(sorted_values[max(0, math.ceil(pct / 100.0 * n) - 1)])
