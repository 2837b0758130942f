"""Per-layer probes of the traced run: a replay through public functions.

After the live rounds, the traced run pushes the first batches of the same
inputs through each layer of the program *one layer at a time*, on a
fresh seed-0 model of the workload's architecture, and times every call
as a span.  Layers are named after the modules of ``src/repro``.  Only
public functions are called, and only from here — spans inside the
program are a later change (ROADMAP item 1).

Every probe runs on every workload, with the workload's own geometry
(model, S, batch size), so each per-layer metric is a measurement on each
of them.  A probe whose target a later change removed reports 0.0 and
says so on stderr; it does not take the run down with it.
"""

from __future__ import annotations

import asyncio
import re
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

from .loop import closed_loop, encode_get, encode_predict, median_of
from .tracer import Tracer
from .workloads import HOST, ServerChild, build_model, cpu_seconds

__all__ = ["live_metrics", "probe_server", "replay"]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _timed(tracer: Tracer, name: str, fn, items) -> tuple[list, float]:
    """``fn(k, item)`` under a ``name`` span per item: (results, median s)."""
    out, seconds = [], []
    for k, item in enumerate(items):
        start = time.perf_counter()
        with tracer.span(name, op=k):
            out.append(fn(k, item))
        seconds.append(time.perf_counter() - start)
    return out, _median(seconds)


@contextmanager
def skipping(name: str):
    """A program API that is gone costs only the metrics of its probe.

    The runner reports a per-layer metric nobody produced as 0.0, so a
    later change may delete a probed function without editing this file.
    """
    try:
        yield
    except (ImportError, AttributeError) as exc:
        print(f"layer probe {name} skipped: {exc!r}", file=sys.stderr, flush=True)


def _spread(values: list[float]) -> float:
    """(Q3 - Q1) / median; 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------- #
# the live rounds: client diagnostics and the program's own counters
# ---------------------------------------------------------------------- #
def live_metrics(workload, live: dict, replayed: dict, reference_stats) -> dict:
    """Per-layer metrics read off the live rounds.

    The counters are the workload's own ``ServingStats`` over the timed
    rounds; a workload with no serving engine (``train_distill``) reports
    those of the engine the replay just ran, so the metric is a
    measurement there too.
    """
    plain, traced = live["plain"], live["traced"]
    rounds = plain + traced
    ops = sum(r.ops for r in rounds)
    after = live["stats1"] or reference_stats.to_dict()
    before = live["stats0"] or dict.fromkeys(after, 0)

    def delta(key: str) -> float:
        return after[key] - before[key]

    batches = max(delta("num_batches"), 1)
    lookups = delta("cache_hits") + delta("cache_misses")
    replay_s = replayed.get("engine.replay_submit_ms_per_batch", 0.0) / 1e3
    # wall time one batch takes: live where there is a live engine
    batch_s = sum(r.wall_s for r in rounds) / batches if live["stats1"] else replay_s
    throughput = median_of(plain, lambda r: r.throughput)
    return {
        "batcher.mean_batch_size": delta("requests_completed") / batches,
        "batcher.queue_peak": float(after["queue_peak"]),
        "workers.ring_batches_share": delta("transport_ring_batches") / batches,
        "workers.crashes": float(after["worker_crashes"]),
        "workers.cpu_us_per_req": live["cpu_s"] / max(ops, 1) * 1e6,
        "engine.latency_p50_ms": after["latency_p50_s"] * 1e3,
        "engine.requests_failed": float(
            after["requests_rejected"]
            + after["requests_shed"]
            + after["requests_cancelled"]
        ),
        "engine.glue_self_us_per_batch": batch_s * 1e6
        - replayed.get("workers.compute_ms_per_batch", 0.0) * 1e3
        - replayed.get("workers.assemble_us_per_batch", 0.0),
        "inference.cache_hit_ratio": delta("cache_hits") / lookups if lookups else 0.0,
        "client.latency_p95_ms": median_of(plain, lambda r: r.latency_ms(95)),
        "client.latency_p99_ms": median_of(plain, lambda r: r.latency_ms(99)),
        "client.round_spread": _spread([r.throughput for r in plain]),
        "trace.overhead_share": 1.0
        - median_of(traced, lambda r: r.throughput) / throughput,
        "trace.replay_to_live_ratio": replay_s / batch_s if batch_s else 0.0,
    }


# ---------------------------------------------------------------------- #
# repro.serving.server
# ---------------------------------------------------------------------- #
_STAMP = re.compile(rb'"latency_s": ([0-9.e+-]+)')


async def probe_server(workload, count: int) -> dict:
    """Sequential keep-alive traffic to a fresh server child of the workload.

    One connection, one request at a time: framing and wire cost without
    queueing.  The child is fresh so that the first reply is batch 0 of
    its engine — the same bytes every run at one seed, apart from the
    digits of its own ``latency_s`` stamp, which are not counted.
    """
    requests = [encode_predict(x, HOST) for x in workload.pool[:64]]
    server = ServerChild(workload.kind, workload.reference_config())
    try:
        await server.start()
        conn = await server.connect()
        try:
            overheads, replies, non_200 = [], [], 0
            cpu0 = cpu_seconds(server.pid)
            for k in range(count):
                t0 = time.perf_counter()
                status, body = await conn.exchange(requests[k % len(requests)])
                elapsed = time.perf_counter() - t0
                replies.append(body)
                if status != 200:
                    non_200 += 1
                    continue
                overheads.append(elapsed - float(_STAMP.search(body).group(1)))
            cpu = cpu_seconds(server.pid) - cpu0
            health = encode_get("/v1/health", HOST)
            rtts = []
            for _ in range(count):
                t0 = time.perf_counter()
                await conn.exchange(health)
                rtts.append(time.perf_counter() - t0)
        finally:
            await conn.close()
    finally:
        await server.stop()
    stamp = _STAMP.search(replies[0])
    return {
        "server.health_rtt_us": _median(rtts) * 1e6,
        "server.wire_overhead_us": _median(overheads) * 1e6,
        "server.cpu_us_per_req": cpu / count * 1e6,
        "server.probe_request_bytes": float(len(requests[0])),
        "server.probe_response_bytes": float(
            len(replies[0]) - (len(stamp.group(1)) if stamp else 0)
        ),
        "server.non_200": float(non_200),
    }


# ---------------------------------------------------------------------- #
# the replay
# ---------------------------------------------------------------------- #
async def replay(workload, reference, tracer: Tracer, batches: int) -> dict:
    """Every layer probe on ``workload``'s geometry; returns the metrics.

    ``reference`` is the running thread-K=1 ``ServingEngine`` over a fresh
    model that already answered the bit-identity probe.
    """
    metrics: dict[str, float] = {}
    size, samples = workload.replay_size, workload.num_samples
    chunks = [workload.pool[k * size : (k + 1) * size] for k in range(batches)]
    with tracer.span("replay") as root:
        tracer.foster_parent = root
        with skipping("engine"):
            metrics.update(await _probe_served(tracer, reference, chunks))
        tracer.foster_parent = root
        # a replica for the direct calls: what they leave in its activation
        # cache (the cache-hit probe most of all) is not served traffic
        infer = reference.engine.replicate()
        tracer.wrap(infer, "predict_mc", "inference.predict_mc")
        tracer.wrap(infer, "backbone_activations", "inference.backbone_activations")
        with skipping("workers"):
            metrics.update(_probe_workers(tracer, infer, chunks, samples))
        with skipping("inference"):
            metrics.update(_probe_inference(tracer, infer, chunks, samples))
        with skipping("batcher.stage"):
            metrics.update(_probe_stage(tracer, chunks))
        with skipping("batcher"):
            metrics.update(await _probe_bare_batcher(size, batches))
        with skipping("nn"):
            metrics.update(_probe_nn(tracer, workload, chunks))
        with skipping("core"):
            metrics.update(_probe_core(tracer, workload, infer.model))
        with skipping("hw"):
            metrics.update(_probe_hw(tracer, workload))
    return metrics


async def _probe_served(tracer, reference, chunks) -> dict:
    """One batch at a time through ``submit``, with the engine's calls nested.

    The reference engine's inference engine is replica 0 of its thread
    pool, so the two public methods wrapped on that instance record their
    spans from the worker thread, under the batch being served:
    ``engine.submit`` contains ``inference.predict_mc`` contains
    ``inference.backbone_activations``.
    """
    infer = reference.engine
    submit_s: list[float] = []
    predict_s: list[float] = []
    backbone_s: list[float] = []
    unwrap = [
        tracer.wrap(infer, "predict_mc", "inference.predict_mc", predict_s),
        tracer.wrap(
            infer, "backbone_activations", "inference.backbone_activations", backbone_s
        ),
    ]
    try:
        for k, chunk in enumerate(chunks):
            start = time.perf_counter()
            with tracer.span("engine.submit", op=k) as batch_span:
                tracer.foster_parent = batch_span
                await asyncio.gather(*(reference.submit(x) for x in chunk))
            submit_s.append(time.perf_counter() - start)
    finally:
        for undo in unwrap:
            undo()
    predict, backbone = _median(predict_s), _median(backbone_s)
    return {
        "engine.replay_submit_ms_per_batch": _median(submit_s) * 1e3,
        "inference.predict_mc_ms_per_batch": predict * 1e3,
        "inference.backbone_ms_per_batch": backbone * 1e3,
        "inference.suffix_ms_per_batch": (predict - backbone) * 1e3,
    }


def _probe_workers(tracer, infer, chunks, samples) -> dict:
    from repro.serving.workers.base import assemble_results, compute_batch_array
    from repro.serving.workers.ring import BatchRing

    outs, compute_s = _timed(
        tracer,
        "workers.compute_batch_array",
        lambda k, chunk: compute_batch_array(infer, 10_000 + k, chunk, samples, None),
        chunks,
    )
    _, assemble_s = _timed(
        tracer, "workers.assemble_results", lambda k, out: assemble_results(out), outs
    )
    response = outs[0].sample_probs
    # created and released outside the timing: the live ring is persistent
    ring = BatchRing.create(2, chunks[0].nbytes, response.nbytes)

    def roundtrip(k, chunk):
        slot = k % 2
        dest = ring.stage_request(slot, chunk.shape)
        for i, row in enumerate(chunk):
            dest[i] = row
        ring.read_request(slot)
        ring.write_response(slot, [response])
        return ring.read_response(slot)[0].shape

    try:
        _, ring_s = _timed(tracer, "workers.ring_roundtrip", roundtrip, chunks)
    finally:
        ring.release()
    return {
        "workers.compute_ms_per_batch": compute_s * 1e3,
        "workers.assemble_us_per_batch": assemble_s * 1e6,
        "workers.ring_roundtrip_us_per_batch": ring_s * 1e6,
    }


def _probe_inference(tracer, infer, chunks, samples) -> dict:
    _, early_s = _timed(
        tracer,
        "inference.early_exit_predict",
        lambda k, chunk: infer.early_exit_predict(chunk, 0.5),
        chunks,
    )
    hit_seconds = []
    for k, chunk in enumerate(chunks):
        infer.predict_mc(chunk, samples)  # the first call fills the cache
        start = time.perf_counter()
        with tracer.span("inference.predict_mc_cache_hit", op=k):
            infer.predict_mc(chunk, samples)
        hit_seconds.append(time.perf_counter() - start)
    return {
        "inference.early_exit_ms_per_batch": early_s * 1e3,
        "inference.cache_hit_ms_per_batch": _median(hit_seconds) * 1e3,
    }


def _probe_stage(tracer, chunks) -> dict:
    from repro.serving.batcher import BatchStager

    stager = BatchStager(len(chunks[0]), chunks[0].shape[1:])
    _, stage_s = _timed(
        tracer,
        "batcher.stage",
        lambda k, payloads: stager.stage(payloads),
        [list(chunk) for chunk in chunks],
    )
    return {"batcher.stage_us_per_batch": stage_s * 1e6}


async def _probe_bare_batcher(size: int, batches: int) -> dict:
    """The 64-client flood through a bare batcher with an immediate handler."""
    from repro.serving.batcher import DynamicBatcher

    async def dispatch(payloads):
        return payloads

    async with DynamicBatcher(dispatch, max_batch_size=size) as batcher:

        async def op(item: int) -> bool:
            return await batcher.submit(item) == item

        flood = await closed_loop(op, 64, iter(range(size * batches)))
    return {"batcher.bare_overhead_us_per_req": flood.wall_s / flood.ops * 1e6}


def _probe_nn(tracer, workload, chunks) -> dict:
    from repro.nn.optimizers import SGD
    from repro.nn.training import DistillationTrainer

    model = build_model(workload.kind)
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
    trainer = DistillationTrainer(model, optimizer, batch_size=len(chunks[0]))
    forward_s: list[float] = []
    backward_s: list[float] = []
    step_s: list[float] = []
    eval_s: list[float] = []
    tracer.wrap(model, "forward_exits", "nn.forward_exits", forward_s)
    tracer.wrap(model, "backward_exits", "nn.backward_exits", backward_s)
    tracer.wrap(optimizer, "step", "nn.optimizer_step", step_s)
    tracer.wrap(model, "predict_mc", "nn.eval_after_update", eval_s)
    labels = np.arange(len(chunks[0])) % model.num_classes

    def step(k, chunk):
        trainer.train_on_batch(chunk, labels)
        model.predict_mc(chunk, workload.num_samples)  # reads the new weights

    _timed(tracer, "nn.train_and_eval", step, chunks[:16])
    return {
        "nn.forward_exits_ms": _median(forward_s) * 1e3,
        "nn.backward_exits_ms": _median(backward_s) * 1e3,
        "nn.optimizer_step_us": _median(step_s) * 1e6,
        "nn.eval_after_update_ms": _median(eval_s) * 1e3,
    }


def _probe_core(tracer, workload, model) -> dict:
    from repro.core import CandidateConfig, MultiExitOptimizer, reduction_rate
    from repro.datasets.synthetic import DatasetSplit

    samples = workload.num_samples
    breakdown = model.flop_breakdown()
    labels = np.arange(96) % model.num_classes
    optimizer = MultiExitOptimizer(
        lambda: build_model(workload.kind).spec,
        DatasetSplit(workload.pool[:64], labels[:64]),
        DatasetSplit(workload.pool[64:96], labels[64:96]),
        epochs=1,
    )
    candidate = CandidateConfig(
        num_exits=model.num_exits,
        dropout_rate=0.25,
        mcd_layers_per_exit=1,
        num_mc_samples=samples,
    )

    def phase1(k, candidate):
        built = optimizer.build_candidate(candidate)
        optimizer.train_candidate(built)
        return optimizer.evaluate_candidate(candidate, built)

    _, phase1_s = _timed(tracer, "core.phase1_candidate", phase1, [candidate])
    return {
        "core.flops_per_example": float(model.sampling_flops(samples)),
        "core.flop_reduction_rate": float(
            reduction_rate(breakdown.alpha, samples, breakdown.num_exits)
        ),
        "core.phase1_candidate_ms": phase1_s * 1e3,
    }


def _probe_hw(tracer, workload) -> dict:
    from repro.hw.accelerator import AcceleratorConfig, AcceleratorModel
    from repro.hw.dse import CoExplorer, DesignPoint
    from repro.hw.hls import HLSCodeGenerator

    explorer = CoExplorer(lambda multiplier: build_model(workload.kind))
    (point,), dse_s = _timed(
        tracer,
        "hw.dse_point",
        lambda k, design: explorer.evaluate_point(design),
        [DesignPoint(16, 1.0, 64)],
    )
    accel = AcceleratorModel(
        build_model(workload.kind),
        AcceleratorConfig(weight_bitwidth=16, reuse_factor=64, mapping=point.mapping),
    )
    _, codegen_s = _timed(
        tracer,
        "hw.hls_codegen",
        lambda k, generator: generator.generate(),
        [HLSCodeGenerator(accel)],
    )
    return {
        "hw.dse_point_ms": dse_s * 1e3,
        "hw.hls_codegen_ms": codegen_s * 1e3,
        "hw.sim_latency_ms": float(point.latency_ms),
        "hw.sim_energy_mj_per_image": float(point.energy_per_image_j) * 1e3,
        "hw.sim_dsp_used": float(accel.resources().dsp),
    }
