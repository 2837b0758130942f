"""One workload in a fresh interpreter: set up, warm up, measure, check, tear down.

Started by :mod:`benchmarks.e2e.run` as ``python -m benchmarks.e2e.child``
with the import path and the BLAS thread pins in its environment; prints
one JSON object on stdout.  Everything human-readable goes to stderr.
``setup_s`` counts from the moment the runner spawned this interpreter, so
the imports below are part of it.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import multiprocessing
import time
from pathlib import Path

import numpy as np

from repro.serving import ServingEngine

from . import layers
from .loop import closed_loop, cycle_indices, median_of, run_rounds
from .tracer import Tracer
from .workloads import WORKLOADS, bit_hash, build_model

TRACE_DIR = Path(__file__).resolve().parent / "out"


async def live_phase(workload, args, tracer) -> dict:
    """Set up, probe, warm up and run the timed rounds; always tears down."""
    t0 = time.time()
    workload.make_inputs(args.seed)
    excluded = time.time() - t0  # generating inputs is not set-up
    indices = cycle_indices(len(workload.pool))
    try:
        await workload.start()
        live = {"probe": await workload.probe()}
        live["warm"] = await closed_loop(
            workload.op,
            workload.clients,
            itertools.islice(indices, workload.warmup_ops),
        )
        live["setup_s"] = time.time() - args.spawned_at - excluded
        if args.setup_only:
            return live
        live["stats0"] = await workload.stats()
        cpu0 = workload.worker_cpu_seconds()
        workload.wire_overhead_s.clear()
        root = tracer.new_id() if tracer else None
        started = time.perf_counter()
        live["plain"], live["traced"] = await run_rounds(
            workload.op,
            workload.clients,
            args.rounds,
            args.round_seconds,
            indices,
            tracer,
            root,
            lambda on: workload.set_traced(tracer, on),
        )
        if tracer:
            tracer.add("workload", started, time.perf_counter(), None, span_id=root)
        live["cpu_s"] = workload.worker_cpu_seconds() - cpu0
        live["stats1"] = await workload.stats()
        live["peak_rss_mb"] = workload.peak_rss_mb()
        return live
    finally:
        await workload.stop()


async def run(args) -> dict:
    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    live = await live_phase(workload, args, tracer)
    if args.setup_only:
        return {"setup_s": live["setup_s"]}

    plain, rounds = live["plain"], live["plain"] + live["traced"]
    failed = sum(r.failed for r in rounds) + live["warm"].failed
    result = {
        "workload": workload.name,
        "attempted": sum(r.ops for r in rounds) + live["warm"].ops,
        "failed": failed,
        "input_hash": workload.input_hash(),
        "probe_bit_hash": bit_hash(live["probe"]),
        "e2e": {
            "throughput_rps": median_of(plain, lambda r: r.throughput),
            "latency_p50_ms": median_of(plain, lambda r: r.latency_ms(50)),
            "setup_s": live["setup_s"],
            "peak_rss_mb": live["peak_rss_mb"],
        },
        "rounds": {
            "throughput_rps": [r.throughput for r in plain],
            "latency_p50_ms": [r.latency_ms(50) for r in plain],
        },
    }

    # the live system's first outputs against a fresh one-thread engine's;
    # the traced run then replays the inputs through that engine, layer by layer
    layer: dict[str, float] = {}
    reference = ServingEngine(build_model(workload.kind), workload.reference_config())
    async with reference:
        expected = await workload.reference_probe(reference)
        if tracer:
            batches = args.replay_batches
            layer = await layers.replay(workload, reference, tracer, batches)
            layer.update(layers.live_metrics(workload, live, layer, reference.stats()))
    checks = {
        "probe_bit_identical": len(expected) == len(live["probe"])
        and all(np.array_equal(a, b) for a, b in zip(expected, live["probe"])),
        "no_failed_operations": failed == 0,
        "workers_reaped": not multiprocessing.active_children(),
        **workload.extra_checks(),
    }
    if tracer:
        layer.update(await layers.probe_server(workload, args.replay_batches * 4))
        layer.update(workload.live_server_metrics(layer))
        checks["cache_never_hits"] = layer["inference.cache_hit_ratio"] == 0.0
        checks["engine_failed_no_request"] = layer["engine.requests_failed"] == 0.0
        if workload.serving_config().worker_backend == "process":
            checks["ring_carried_every_batch"] = (
                layer["workers.ring_batches_share"] == 1.0
            )
        tracer.write(
            TRACE_DIR / f"trace-{workload.name}.json",
            {"workload": workload.name, "seed": args.seed},
        )
        result["layers"] = layer
    result["checks"] = checks
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--round-seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--replay-batches", type=int, default=64)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    result = asyncio.run(run(parser.parse_args()))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
