"""ServingEngine integration tests over small real models.

Covers: response correctness against the batch engines (deterministic
model, so batched serving must agree with direct batch inference), the
early-exit serving mode, serving a one-exit model, overload
behaviour under both backpressure policies, input validation, and the
stats surface.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import MultiExitBayesNet, MultiExitConfig, single_exit_bayesnet
from repro.nn.architectures import lenet5_spec
from repro.serving import BatcherConfig, ServerOverloaded, ServingConfig, ServingEngine


def _small_spec():
    return lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)


def _model(num_exits=2, mcd=1, seed=0):
    return MultiExitBayesNet(
        _small_spec(),
        MultiExitConfig(num_exits=num_exits, mcd_layers_per_exit=mcd, seed=seed),
    )


RNG = np.random.default_rng(7)
X = RNG.normal(size=(12, 1, 12, 12))


def test_served_predictions_match_batch_engine_for_deterministic_model():
    # mcd=0 makes every pass deterministic, so serving (whatever batches it
    # forms) must agree with direct batch inference up to GEMM batch-shape ULPs
    model = _model(mcd=0)
    direct = model.engine.predict_mc(X, num_samples=2)

    async def main():
        async with model.serving_engine(
            ServingConfig(
                num_samples=2,
                batcher=BatcherConfig(max_batch_size=5, max_batch_latency=0.01),
            )
        ) as server:
            return await server.submit_many(X)

    results = asyncio.run(main())
    assert len(results) == X.shape[0]
    for i, res in enumerate(results):
        np.testing.assert_allclose(res.probs, direct.mean_probs[i], atol=1e-9)
        assert res.label == int(direct.mean_probs[i].argmax())
        assert res.num_samples == 2
        # mcd=0 removes dropout noise, but predict_mc draws samples
        # round-robin across exits, so exit disagreement still shows up as MI
        assert res.mutual_information is not None and res.mutual_information >= -1e-9
        assert res.latency_s is not None and res.latency_s > 0
        assert res.exit_index is None


def test_bayesian_serving_returns_uncertainty():
    model = _model(mcd=1)

    async def main():
        async with model.serving_engine(
            ServingConfig(num_samples=8, batcher=BatcherConfig(max_batch_size=8))
        ) as server:
            return await server.submit_many(X[:4])

    results = asyncio.run(main())
    for res in results:
        assert res.probs.shape == (5,)
        assert res.probs.sum() == pytest.approx(1.0)
        assert res.entropy >= 0.0
        assert res.mutual_information is not None and res.mutual_information >= -1e-9
        assert res.num_samples == 8


def test_early_exit_serving_mode():
    # deterministic comparison needs deterministic heads (stochastic heads
    # would make exit decisions draw-dependent), so use the mcd=0 model
    model_det = _model(mcd=0)
    direct = model_det.engine.early_exit_predict(X, 0.5)

    async def main_det():
        async with model_det.serving_engine(
            ServingConfig(
                early_exit_threshold=0.5,
                batcher=BatcherConfig(
                    max_batch_size=X.shape[0], max_batch_latency=0.02
                ),
            ),
        ) as server:
            results = await server.submit_many(X)
            return results, server.stats()

    results, stats = asyncio.run(main_det())
    for i, res in enumerate(results):
        assert res.exit_index == int(direct.exit_indices[i])
        np.testing.assert_allclose(res.probs, direct.probs[i], atol=1e-9)
        assert res.mutual_information is None
    assert stats.exit_counts is not None
    assert sum(stats.exit_counts) == X.shape[0]
    np.testing.assert_array_equal(
        stats.exit_counts, np.bincount(direct.exit_indices, minlength=2)
    )


def test_one_exit_model_serves_early_exit_at_exit_zero():
    # a one-exit model's only exit is its last: every row retires there
    model = _model(num_exits=1)

    async def main():
        async with model.serving_engine(
            ServingConfig(early_exit_threshold=0.99)
        ) as server:
            return await server.submit_many(X), server.stats()

    results, stats = asyncio.run(main())
    assert [res.exit_index for res in results] == [0] * X.shape[0]
    assert stats.exit_counts == [X.shape[0]]


def test_serving_engine_rejects_a_flat_network():
    net = single_exit_bayesnet(_small_spec(), num_mcd_layers=1, seed=0)
    with pytest.raises(TypeError, match="MultiExitBayesNet"):
        ServingEngine(net)


def test_serving_one_exit_model():
    model = _model(num_exits=1)

    async def main():
        async with ServingEngine(
            model, ServingConfig(num_samples=4, batcher=BatcherConfig(max_batch_size=4))
        ) as server:
            return await server.submit_many(X[:6])

    results = asyncio.run(main())
    for res in results:
        assert res.probs.shape == (5,)
        assert res.num_samples == 4
        assert res.mutual_information is not None


def test_overload_rejection_policy():
    model = _model(mcd=0)

    async def main():
        server = model.serving_engine(
            ServingConfig(
                num_samples=1,
                batcher=BatcherConfig(
                    max_batch_size=1,
                    max_batch_latency=0.001,
                    max_queue_size=4,
                    reject_on_full=True,
                ),
            ),
        )
        async with server:
            outcomes = await asyncio.gather(
                *(server.submit(x) for x in np.repeat(X, 4, axis=0)),
                return_exceptions=True,
            )
        return outcomes, server.stats()

    outcomes, stats = asyncio.run(main())
    rejected = [o for o in outcomes if isinstance(o, ServerOverloaded)]
    completed = [o for o in outcomes if not isinstance(o, Exception)]
    assert len(rejected) + len(completed) == len(outcomes)
    assert rejected, "flooding a 4-deep queue with 48 requests must shed load"
    assert completed, "the queue capacity that was accepted must still be served"
    assert stats.requests_rejected == len(rejected)
    assert stats.requests_completed == len(completed)


def test_overload_await_policy_completes_everything():
    model = _model(mcd=0)

    async def main():
        async with model.serving_engine(
            ServingConfig(
                num_samples=1,
                batcher=BatcherConfig(
                    max_batch_size=4,
                    max_batch_latency=0.001,
                    max_queue_size=2,
                    reject_on_full=False,
                ),
            ),
        ) as server:
            results = await asyncio.gather(*(server.submit(x) for x in X))
            return results, server.stats()

    results, stats = asyncio.run(main())
    assert len(results) == X.shape[0]
    assert stats.requests_rejected == 0
    assert stats.requests_completed == X.shape[0]
    assert stats.queue_peak <= 2


def test_mis_shaped_request_fails_fast_without_poisoning_batch():
    model = _model(mcd=0)

    async def main():
        async with model.serving_engine(
            ServingConfig(num_samples=1, batcher=BatcherConfig(max_batch_size=4))
        ) as server:
            good = server.submit(X[0])
            with pytest.raises(ValueError, match="expected a single example"):
                await server.submit(np.zeros((3, 3)))
            return await good

    res = asyncio.run(main())
    assert res.probs.shape == (5,)


def test_stats_surface():
    model = _model(mcd=1)

    async def main():
        async with model.serving_engine(
            ServingConfig(num_samples=4, batcher=BatcherConfig(max_batch_size=6))
        ) as server:
            await server.submit_many(X)
            return server.stats()

    stats = asyncio.run(main())
    assert stats.requests_completed == X.shape[0]
    assert stats.num_batches >= 1
    assert 1.0 <= stats.mean_batch_size <= 6.0
    assert stats.throughput_rps > 0
    assert (
        0
        < stats.latency_p50_s
        <= stats.latency_p95_s
        <= stats.latency_p99_s
        <= stats.latency_max_s
    )
    assert stats.to_dict()["latency_p99_s"] == stats.latency_p99_s
    assert stats.exit_counts is None


def test_serving_engine_rejects_bad_arguments():
    model = _model()
    with pytest.raises(ValueError, match="num_samples"):
        ServingEngine(model, ServingConfig(num_samples=0))
    with pytest.raises(ValueError, match="early_exit_threshold"):
        ServingEngine(model, ServingConfig(early_exit_threshold=1.5))
    with pytest.raises(TypeError, match="model must be"):
        ServingEngine(object())


def test_submit_many_propagates_deadlines():
    # regression: submit_many used to drop deadlines silently — under the
    # shed policy a lapsed per-example budget must now surface as
    # DeadlineExceeded for exactly the deadlined examples
    from repro.serving import DeadlineExceeded

    model = _model(mcd=1)
    config = ServingConfig(
        num_samples=512, batcher=BatcherConfig(max_batch_size=1, admission_timeout=5.0)
    )

    async def main():
        async with ServingEngine(model, config) as server:
            # occupy the single batch slot with fillers, then ask for a
            # nanosecond budget: it has always lapsed by the time assembly
            # re-checks the backlog, however fast this host computes
            fillers = asyncio.ensure_future(server.submit_many(X[:3]))
            await asyncio.sleep(0.001)
            results = await asyncio.gather(
                server.submit_many(X[3:5], deadline=[None, 1e-9]),
                return_exceptions=True,
            )
            await fillers
            return results[0]

    outcome = asyncio.run(main())
    assert isinstance(outcome, DeadlineExceeded)


def test_submit_many_scalar_deadline_and_length_check():
    model = _model(mcd=1)

    async def main():
        async with ServingEngine(model, ServingConfig(num_samples=2)) as server:
            # a generous scalar budget applies to all and all complete
            results = await server.submit_many(X[:3], deadline=30.0)
            assert len(results) == 3
            with pytest.raises(ValueError, match="deadline sequence has 2"):
                await server.submit_many(X[:3], deadline=[1.0, 1.0])

    asyncio.run(main())
