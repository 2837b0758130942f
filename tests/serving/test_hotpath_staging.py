"""Hot-path observability: content-keyed cache stats end to end.

The content-keyed activation cache is observable end-to-end: repeated
request bytes hit (``ServingStats.cache_hits``), a zero-downtime
``swap_model`` invalidates (the first post-swap batch misses), and the
process backend reports the same counters on its workers' replies.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.serving import ServingConfig, ServingEngine

NUM_SAMPLES = 6

X = np.random.default_rng(11).normal(size=(8, 1, 12, 12))


def _model(seed=0):
    return MultiExitBayesNet(
        lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5),
        MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=seed),
    )


# --------------------------------------------------------------------------- #
# content-keyed cache: hits, misses, swap invalidation — via ServingStats
# --------------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_cache_hits_on_repeated_bytes_and_invalidates_on_swap_thread():
    def serve(defeat_cache: bool):
        server = ServingEngine(
            _model(),
            ServingConfig(num_samples=NUM_SAMPLES, workers=1, worker_backend="thread"),
        )

        async def main():
            async with server:
                results, snapshots = [], []
                # same bytes in a fresh buffer every time: only the content
                # key can hit.  MC draws still differ per batch seq — the
                # guarantee under test is hit == cold path *at the same seq*
                for _ in range(3):
                    if defeat_cache:
                        server._pool._replicas[0].engine.invalidate_cache()
                    results.append(await server.submit(np.array(X[0])))
                    snapshots.append(server.stats())
                await server.swap_model(_model(seed=1))
                results.append(await server.submit(np.array(X[0])))
                snapshots.append(server.stats())
                return results, snapshots

        return asyncio.run(main())

    results, stats = serve(defeat_cache=False)
    cold_results, _ = serve(defeat_cache=True)
    s1, s2, s3, s_swap = stats
    assert s1.cache_misses >= 1 and s1.cache_hits == 0
    # identical bytes in different buffers: the content key hits
    assert s2.cache_hits == s1.cache_hits + 1
    assert s2.cache_misses == s1.cache_misses
    assert s3.cache_hits == s1.cache_hits + 2
    # a hit reuses the memoised backbone, whose bytes are exactly what a
    # cold recompute would produce: responses bit-equal to the cold run
    for hit, cold in zip(results, cold_results):
        np.testing.assert_array_equal(hit.probs, cold.probs)
        assert hit.entropy == cold.entropy
        assert hit.mutual_information == cold.mutual_information
    # swap_model invalidates: the swapped cohort starts cold and misses
    assert s_swap.cache_misses > s3.cache_misses
    assert s_swap.cache_hits == s3.cache_hits
    # retired-cohort traffic was banked, not lost, across the swap
    assert s_swap.cache_hits + s_swap.cache_misses > s3.cache_hits


@pytest.mark.timeout(120)
def test_cache_counters_cross_the_process_boundary():
    server = ServingEngine(
        _model(),
        ServingConfig(num_samples=NUM_SAMPLES, workers=1, worker_backend="process"),
    )

    async def main():
        async with server:
            await server.submit(X[0])
            await server.submit(np.array(X[0]))
            return server.stats()

    stats = asyncio.run(main())
    # the worker process saw one cold batch and one repeated-bytes batch;
    # the per-reply deltas reassemble to the same totals in the parent
    assert stats.cache_hits >= 1
    assert stats.cache_misses >= 1
