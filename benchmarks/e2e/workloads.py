"""The four workloads, and the server child the HTTP one drives.

Each workload is a small class with the same surface — ``make_inputs``,
``start``, ``probe``, ``op``, ``stop`` plus a few read-outs — so
:mod:`benchmarks.e2e.child` treats them alike.  Only public
``repro`` API is used.  Model weights always come from seed 0; ``--seed``
only makes the inputs.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import multiprocessing
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.datasets import mnist_like
from repro.nn.architectures import lenet5_spec, resnet_spec
from repro.nn.optimizers import SGD
from repro.nn.training import DistillationTrainer
from repro.serving import BatcherConfig, ServingConfig, ServingEngine

from .loop import HttpConnection, encode_get, encode_predict, probs_ok

__all__ = ["WORKLOADS", "ServerChild", "build_model", "bit_hash"]

POOL_SIZE = 4096
_TICK = os.sysconf("SC_CLK_TCK")
HOST = "127.0.0.1"


# ---------------------------------------------------------------------- #
# models (fixed seed 0) — shared with server_child.py
# ---------------------------------------------------------------------- #
def build_model(kind: str):
    """A fresh model of one of the three benchmark architectures."""
    if kind == "lenet":  # the demo LeNet the server CLI also serves
        spec = lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)
        exits = 2
    elif kind == "lenet_full":
        spec = lenet5_spec(input_shape=(1, 20, 20), num_classes=10)
        exits = 2
    elif kind == "resnet":
        spec = resnet_spec("resnet10", (3, 16, 16), width_multiplier=0.125)
        exits = 4
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=exits, mcd_layers_per_exit=1, seed=0)
    )


INPUT_SHAPES = {"lenet": (1, 12, 12), "lenet_full": (1, 20, 20), "resnet": (3, 16, 16)}


def bit_hash(arrays) -> str:
    """blake2b-16 over the float64 bytes of ``arrays``, in order."""
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# /proc read-outs
# ---------------------------------------------------------------------- #
def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` so far (0.0 once it is gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()  # past "pid (comm)"
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid: int) -> float:
    """High-water RSS of ``pid`` in MB (0.0 once it is gone)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def own_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def worker_pids() -> list[int]:
    return [p.pid for p in multiprocessing.active_children() if p.pid is not None]


# ---------------------------------------------------------------------- #
# the HTTP server child
# ---------------------------------------------------------------------- #
class ServerChild:
    """``server_child`` in its own process: start, address, read-outs, stop."""

    def __init__(self, kind: str, config) -> None:
        self.kind = kind
        self.config = config
        self.process: asyncio.subprocess.Process | None = None
        self.port = 0

    @property
    def pid(self) -> int:
        return self.process.pid

    async def start(self) -> None:
        """Spawn the child and wait for its first 200 on ``/v1/health``."""
        self.process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "benchmarks.e2e.server_child",
            self.kind,
            json.dumps(self.config.to_dict()),
            stdout=asyncio.subprocess.PIPE,
        )
        line = await asyncio.wait_for(self.process.stdout.readline(), 60)
        if not line.startswith(b"PORT "):
            raise RuntimeError(f"server child did not report a port: {line!r}")
        self.port = int(line.split()[1])
        conn = await self.connect()
        try:
            status, _ = await conn.exchange(encode_get("/v1/health", HOST))
        finally:
            await conn.close()
        if status != 200:
            raise RuntimeError(f"server child health answered {status}")

    async def connect(self) -> HttpConnection:
        conn = HttpConnection(HOST, self.port)
        await conn.open()
        return conn

    async def stop(self) -> int:
        """SIGTERM, then kill after 5 s; returns the exit code."""
        process = self.process
        if process is None:
            return 0
        if process.returncode is None:
            process.send_signal(signal.SIGTERM)
            try:
                await asyncio.wait_for(process.wait(), 5)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
        self.process = None
        return process.returncode


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #
class _Workload:
    """What the workloads share; the defaults are those of in-process serving."""

    name = ""
    kind = "lenet"
    clients = 1
    num_samples = 8
    batch_size = 32
    warmup_ops = 512

    @property
    def replay_size(self) -> int:
        """Rows per batch in the traced replay: what a live batch holds."""
        return min(self.clients, self.batch_size)

    def __init__(self) -> None:
        self.pool: np.ndarray | None = None
        self.model = None
        self.engine = None
        #: set by the one workload that serves over HTTP
        self.server: ServerChild | None = None
        self.non_200 = 0
        #: client latency minus the server's own ``latency_s``, per request
        self.wire_overhead_s: list[float] = []

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.pool = rng.normal(size=(POOL_SIZE,) + INPUT_SHAPES[self.kind])

    def input_hash(self) -> str:
        return bit_hash([self.pool[:4]])

    def serving_config(self):
        raise NotImplementedError

    def reference_config(self):
        """The same serving policy on one in-process thread worker."""
        return replace(self.serving_config(), workers=1, worker_backend="thread")

    # -- in-process engine (direct_flood, conv_mc) ---------------------- #
    async def start(self) -> None:
        self.model = build_model(self.kind)
        self.engine = ServingEngine(self.model, self.serving_config())
        await self.engine.start()

    async def stop(self) -> None:
        engine, self.engine = self.engine, None
        if engine is not None:
            await engine.stop()

    async def probe(self) -> list[np.ndarray]:
        """The live system's first outputs (they double as warm-up)."""
        return await self.reference_probe(self.engine)

    async def reference_probe(self, engine) -> list[np.ndarray]:
        """The first batch of ``engine``: four concurrent submissions."""
        results = await asyncio.gather(*(engine.submit(x) for x in self.pool[:4]))
        return [r.probs for r in results]

    async def op(self, index: int) -> bool:
        result = await self.engine.submit(self.pool[index])
        return probs_ok(result.probs.tolist())

    async def stats(self) -> dict:
        return self.engine.stats().to_dict()

    def worker_cpu_seconds(self) -> float:
        """CPU of the processes that execute batches (children, else self)."""
        pids = worker_pids()
        if pids:
            return sum(cpu_seconds(pid) for pid in pids)
        return own_cpu_seconds()

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb() + sum(peak_rss_mb(pid) for pid in worker_pids())

    def set_traced(self, tracer, on: bool) -> None:
        """Switch the workload's own span wrappers; serving ones have none."""

    def extra_checks(self) -> dict[str, bool]:
        return {}

    def live_server_metrics(self, probed: dict) -> dict:
        """Server metrics the live rounds can state better than the probe."""
        return {}


class HttpClosed(_Workload):
    name = "http_closed"
    kind = "lenet"
    clients = min(os.cpu_count() or 1, 4)
    num_samples = 8
    batch_size = 32
    warmup_ops = 256

    def __init__(self) -> None:
        super().__init__()
        self.requests: list[bytes] = []
        self._idle: list[HttpConnection] = []
        self._control: HttpConnection | None = None

    def make_inputs(self, seed: int) -> None:
        super().make_inputs(seed)
        self.requests = [encode_predict(x, HOST) for x in self.pool]

    def serving_config(self):
        # a 0.25 ms batch timer: with 2-4 closed-loop connections batches
        # hold 1-2 requests, and the default 2 ms timer would mask wire cost
        return ServingConfig(
            num_samples=self.num_samples,
            batcher=BatcherConfig(
                max_batch_size=self.batch_size, max_batch_latency=0.00025
            ),
        )

    async def start(self) -> None:
        self.server = ServerChild(self.kind, self.serving_config())
        await self.server.start()
        self._idle = [await self.server.connect() for _ in range(self.clients)]
        self._control = await self.server.connect()

    async def stop(self) -> None:
        for conn in self._idle + ([self._control] if self._control else []):
            await conn.close()
        self._idle, self._control = [], None
        server, self.server = self.server, None
        if server is not None:
            code = await server.stop()
            if code != 0:
                raise RuntimeError(f"server child exited with {code}")

    async def _predict(self, conn: HttpConnection, index: int):
        t0 = time.perf_counter()
        status, body = await conn.exchange(self.requests[index])
        elapsed = time.perf_counter() - t0
        if status != 200:
            self.non_200 += 1
            return None
        reply = json.loads(body)
        self.wire_overhead_s.append(elapsed - reply["latency_s"])
        return reply["probs"]

    async def probe(self) -> list[np.ndarray]:
        """Four sequential requests: four batches of one, seq 0-3."""
        replies = [await self._predict(self._control, i) for i in range(4)]
        return [np.asarray(p, dtype=np.float64) for p in replies]

    async def reference_probe(self, engine) -> list[np.ndarray]:
        return [(await engine.submit(x)).probs for x in self.pool[:4]]

    async def op(self, index: int) -> bool:
        conn = self._idle.pop()
        try:
            probs = await self._predict(conn, index)
        finally:
            self._idle.append(conn)
        return probs is not None and probs_ok(probs)

    async def stats(self) -> dict:
        _, body = await self._control.exchange(encode_get("/v1/stats", HOST))
        return json.loads(body)

    def live_server_metrics(self, probed: dict) -> dict:
        """Wire overhead and CPU under the closed-loop load, not sequential."""
        return {
            "server.wire_overhead_us": statistics.median(self.wire_overhead_s) * 1e6,
            "server.cpu_us_per_req": probed["workers.cpu_us_per_req"],
            "server.non_200": probed["server.non_200"] + self.non_200,
        }

    def worker_cpu_seconds(self) -> float:
        return cpu_seconds(self.server.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.server.pid)


class DirectFlood(_Workload):
    name = "direct_flood"
    kind = "lenet"
    clients = 64
    num_samples = 10
    batch_size = 32
    warmup_ops = 4096

    def serving_config(self):
        return ServingConfig(
            num_samples=self.num_samples,
            workers=1,
            worker_backend="process",
            worker_transport="ring",
            batcher=BatcherConfig(
                max_batch_size=self.batch_size, max_queue_size=1024
            ),
        )


class ConvMc(_Workload):
    name = "conv_mc"
    kind = "resnet"
    clients = 32
    num_samples = 8
    batch_size = 16
    warmup_ops = 512

    def serving_config(self):
        return ServingConfig(
            num_samples=self.num_samples,
            batcher=BatcherConfig(max_batch_size=self.batch_size),
        )


class TrainDistill(_Workload):
    """One caller training the full-width LeNet; every 16th step evaluates."""

    name = "train_distill"
    kind = "lenet_full"
    clients = 1
    num_samples = 4
    batch_size = 32
    replay_size = 32  # the training batch, not the single caller
    warmup_ops = 64
    train_size = 2048
    eval_every = 16

    def __init__(self) -> None:
        super().__init__()
        self.labels: np.ndarray | None = None
        self.x_eval: np.ndarray | None = None
        self.trainer = None
        self.optimizer = None
        self._steps_done = 0
        self._untrace: list = []

    def make_inputs(self, seed: int) -> None:
        data = mnist_like(
            train_size=self.train_size, test_size=64, seed=seed, image_size=20
        )
        self.pool, self.labels = data.train.x, data.train.y
        self.x_eval = data.test.x

    def serving_config(self):
        # not used by the workload itself: the policy under which the
        # traced run replays this model through the serving layers
        return ServingConfig(
            num_samples=self.num_samples,
            batcher=BatcherConfig(max_batch_size=self.batch_size),
        )

    def _make_trainer(self):
        model = build_model(self.kind)
        optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
        return model, optimizer, DistillationTrainer(model, optimizer, batch_size=32)

    async def start(self) -> None:
        self.model, self.optimizer, self.trainer = self._make_trainer()

    def _step(self, trainer, model, step: int) -> float:
        batches = self.train_size // self.batch_size
        lo = (step % batches) * self.batch_size
        hi = lo + self.batch_size
        loss, _ = trainer.train_on_batch(self.pool[lo:hi], self.labels[lo:hi])
        if step % self.eval_every == self.eval_every - 1:
            # reads the weights the step just wrote: must miss the cache
            pred = model.predict_mc(self.x_eval, self.num_samples)
            if not probs_ok(pred.mean_probs[0].tolist()):
                return math.nan
        return loss

    def _first_losses(self, trainer, model) -> list[np.ndarray]:
        return [np.asarray([self._step(trainer, model, s) for s in range(64)])]

    async def probe(self) -> list[np.ndarray]:
        """The losses of the first 64 steps (they double as the warm-up)."""
        self._steps_done = 64
        return self._first_losses(self.trainer, self.model)

    async def reference_probe(self, engine) -> list[np.ndarray]:
        """The same 64 steps on a second fresh model and trainer."""
        model, _, trainer = self._make_trainer()
        return self._first_losses(trainer, model)

    async def op(self, index: int) -> bool:
        # ``index`` walks the 4096-slot index cycle; the step number is
        # what selects the batch and the evaluation cadence
        step = self._steps_done
        self._steps_done += 1
        return math.isfinite(self._step(self.trainer, self.model, step))

    async def stats(self) -> dict | None:
        return None

    def extra_checks(self) -> dict[str, bool]:
        hits, misses = self.model.engine.cache_stats()
        return {"eval_after_update_misses_cache": hits == 0 and misses > 0}

    def set_traced(self, tracer, on: bool) -> None:
        """Wrap the three calls inside ``train_on_batch`` for traced rounds."""
        for undo in self._untrace:
            undo()
        self._untrace = []
        if on:
            self._untrace = [
                tracer.wrap(self.model, "forward_exits", "nn.forward_exits"),
                tracer.wrap(self.model, "backward_exits", "nn.backward_exits"),
                tracer.wrap(self.optimizer, "step", "nn.optimizer_step"),
            ]


WORKLOADS = {cls.name: cls for cls in (HttpClosed, DirectFlood, ConvMc, TrainDistill)}
