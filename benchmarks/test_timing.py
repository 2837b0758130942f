"""The best-of timers: what they call, in what order, and what they keep.

A fake ``time.perf_counter`` advances only when a timed function runs, by
the duration scripted for that call, so each reading is exact.
"""

from __future__ import annotations

from unittest import mock

from . import timing


class _Clock:
    """A ``perf_counter`` stand-in that scripted functions advance."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def function(self, durations, calls=None, name=None):
        """A function that advances the clock by the next of ``durations``."""
        durations = iter(durations)

        def fn():
            if calls is not None:
                calls.append(name)
            self.now += next(durations)

        return fn


def test_best_seconds_each_warms_up_then_alternates_and_keeps_each_minimum():
    clock, calls = _Clock(), []
    a = clock.function([9.0, 3.0, 1.0, 2.0], calls, "a")
    b = clock.function([9.0, 5.0, 6.0, 4.0], calls, "b")
    with mock.patch.object(timing.time, "perf_counter", clock):
        best = timing.best_seconds_each(a, b, repeats=3)
    # one untimed warm-up per side, then the sides alternate in every repeat
    assert calls == ["a", "b"] + ["a", "b"] * 3
    assert best == [1.0, 4.0]


def test_best_seconds_per_call_keeps_the_best_mean_over_loops():
    clock = _Clock()
    # an untimed warm-up, then three repeats of two loops: means 2, 1 and 3
    fn = clock.function([100.0, 1.0, 3.0, 1.0, 1.0, 0.5, 5.5])
    with mock.patch.object(timing.time, "perf_counter", clock):
        best = timing.best_seconds_per_call(fn, loops=2, repeats=3)
    # the best mean, not the fastest single call (0.5)
    assert best == 1.0
