"""The benchmark's own load loop and HTTP client.

Deliberately independent of :mod:`repro.serving.loadgen` and
:mod:`repro.experiments`: the instrument must not move when those are
simplified.  Every loop here is **closed** — a client sends its next
operation only when the previous one has been answered.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

import numpy as np

from .tracer import Tracer

__all__ = [
    "HttpConnection",
    "Round",
    "closed_loop",
    "cycle_indices",
    "encode_get",
    "encode_predict",
    "median_of",
    "probs_ok",
    "run_rounds",
]

#: an operation: input index -> "was the outcome correct"
Op = Callable[[int], Awaitable[bool]]


@dataclass
class Round:
    """What one timed round observed."""

    wall_s: float
    latencies_s: list[float] = field(repr=False)
    failed: int

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    @property
    def throughput(self) -> float:
        return self.ops / self.wall_s

    def latency_ms(self, pct: float) -> float:
        return float(np.percentile(self.latencies_s, pct)) * 1e3


def probs_ok(probs: list[float]) -> bool:
    """Finite, non-negative and normalised — what every reply must be.

    Takes a plain list (``ndarray.tolist()`` for in-process replies): on
    five floats the builtins cost under a microsecond, several times less
    than the NumPy reductions, and the check runs once per operation.  A
    NaN or infinity anywhere makes the sum NaN or infinite, so the sum test
    covers finiteness.
    """
    return abs(sum(probs) - 1.0) < 1e-9 and min(probs) >= 0.0


def until(deadline: float, indices):
    """Indices from ``indices`` until the clock passes ``deadline``."""
    for index in indices:
        if time.perf_counter() >= deadline:
            return
        yield index


async def closed_loop(
    op: Op,
    clients: int,
    source,
    tracer: Tracer | None = None,
    parent: int | None = None,
) -> Round:
    """``clients`` callers drain ``source``; each waits for its reply.

    ``source`` is shared: a client takes the next index only when its
    previous operation has been answered, so at most ``clients``
    operations are ever outstanding.  An operation that raises counts as
    failed and the loop goes on.
    """
    latencies: list[float] = []
    failed = 0
    round_id = tracer.new_id() if tracer is not None else None
    start = time.perf_counter()

    async def client() -> None:
        nonlocal failed
        for index in source:
            if tracer is not None:
                # spans opened by wrapped methods during this op nest under it
                op_id = tracer.foster_parent = tracer.new_id()
            t0 = time.perf_counter()
            try:
                ok = await op(index)
            except Exception as exc:  # boundary: a failed op, not a dead round
                ok = False
                if failed == 0:
                    print(f"operation {index} raised {exc!r}", file=sys.stderr)
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            if not ok:
                failed += 1
            if tracer is not None:
                tracer.add("op", t0, t1, round_id, op=index, span_id=op_id)

    await asyncio.gather(*(client() for _ in range(clients)))
    end = time.perf_counter()
    if tracer is not None:
        tracer.add("round", start, end, parent, span_id=round_id)
    return Round(end - start, latencies, failed)


async def run_rounds(
    op: Op,
    clients: int,
    rounds: int,
    seconds: float,
    indices,
    tracer: Tracer | None = None,
    parent: int | None = None,
    set_traced: Callable[[bool], None] = lambda on: None,
) -> tuple[list[Round], list[Round]]:
    """``rounds`` closed-loop rounds of ``seconds`` each, ``gc.collect()`` between.

    With a tracer the rounds alternate untraced, traced, untraced, ... (the
    two kinds see the same drift, so their throughput ratio is the tracing
    overhead); ``set_traced(flag)`` lets the workload switch its own method
    wrappers with the round kind.  Returns ``(untraced, traced)`` rounds.
    """
    plain: list[Round] = []
    with_trace: list[Round] = []
    for number in range(rounds):
        gc.collect()
        tracing = tracer is not None and number % 2 == 1
        set_traced(tracing)
        try:
            source = until(time.perf_counter() + seconds, indices)
            result = await closed_loop(
                op, clients, source, tracer if tracing else None, parent
            )
        finally:
            set_traced(False)
        (with_trace if tracing else plain).append(result)
    return plain, with_trace


def median_of(rounds: list[Round], value: Callable[[Round], float]) -> float:
    return statistics.median(value(r) for r in rounds)


def cycle_indices(size: int):
    """0, 1, …, size-1, 0, 1, … — the pool is walked in order, forever."""
    return itertools.cycle(range(size))


# ---------------------------------------------------------------------- #
# raw asyncio HTTP/1.1 client
# ---------------------------------------------------------------------- #
def encode_predict(example: np.ndarray, host: str) -> bytes:
    """The full ``POST /v1/predict`` request for one example, ready to send."""
    body = json.dumps({"x": example.tolist()}).encode("utf-8")
    head = (
        "POST /v1/predict HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def encode_get(path: str, host: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("latin-1")


class HttpConnection:
    """One keep-alive connection; one request in flight at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send pre-encoded request bytes; returns ``(status, body)``."""
        reader, writer = self._reader, self._writer
        writer.write(request)
        status_line = await reader.readline()
        status = int(status_line.split(None, 2)[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await reader.readexactly(length) if length else b""
        return status, body
