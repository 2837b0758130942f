"""Best-of wall-clock timers shared by the in-process timing gates.

``best_seconds_each`` times several sides of a ratio gate, alternating
them inside every repeat; ``best_seconds_per_call`` times one function as
the mean of ``loops`` back-to-back calls, best of ``repeats``.  Both warm
every function up once first (BLAS thread state, caches, arenas).
"""

from __future__ import annotations

import time


def best_seconds_each(*fns, repeats):
    """Best-of-``repeats`` wall time of each function, sides alternating.

    The host changes speed for seconds at a time; timing one side after
    the other would let such a shift land on one side only.
    """
    for fn in fns:
        fn()  # warmup (builds BLAS thread state, touches caches)
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def best_seconds_per_call(fn, loops, repeats=5):
    """Best-of-``repeats`` mean seconds per call over ``loops`` calls."""
    fn()  # warmup
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            fn()
        times.append((time.perf_counter() - start) / loops)
    return float(min(times))
