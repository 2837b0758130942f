"""Open-loop load harness for the network front end.

Every benchmark before this module was *closed-loop*: N coroutine clients
each await a response before submitting again, so the offered rate
quietly adapts to the server's speed and queueing delay never compounds.
Real traffic does not behave that way.  An **open-loop** generator fires
requests on a fixed arrival schedule regardless of how the server is
doing — if the server falls behind, the backlog (and the latency tail)
grows, which is exactly the regime coordinated omission hides.

:class:`LoadGenerator` drives :class:`~repro.serving.server.ServingServer`
(or anything speaking its wire schema) with three arrival processes:

* ``"poisson"`` — exponential inter-arrivals at ``rate`` req/s (seeded,
  so a schedule is replayable bit-for-bit);
* ``"burst"`` — ``burst_size`` back-to-back arrivals every
  ``burst_size / rate`` seconds: same average rate, maximally unfriendly
  arrival pattern for a latency-triggered batcher;
* ``"trace"`` — an explicit list of arrival offsets (seconds from start),
  for replaying a recorded schedule.

The generator keeps at most ``max_outstanding`` requests in flight — the
budget bounds client memory, not the arrival process: when the budget is
exhausted at fire time the arrival is *dropped and counted* rather than
delayed (delaying would silently convert the harness back to closed
loop).  Every completed request records its end-to-end latency; the
:class:`LoadReport` summarises offered vs achieved rate and the
p50/p95/p99 tail, in the style of huggingbench's ``ExperimentRunner``.

Connections are **keep-alive by default**: idle sockets return to a pool
and the next arrival reuses one, so the harness pays the TCP handshake
per *concurrency slot* rather than per request and can offer rates near
the engine's in-process throughput.  ``keep_alive=False`` restores the
old connection-per-request behaviour; either way the report counts
``connections_opened`` so the before/after is visible in the numbers.

``python -m repro.serving.loadgen`` is the CLI twin of
``python -m repro.serving.server`` (the ``make loadgen`` target).
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Sequence

import numpy as np

from ..metrics import nearest_rank_percentile

__all__ = ["LoadGenerator", "LoadReport"]

ARRIVAL_PROCESSES = ("poisson", "burst", "trace")


def poisson_schedule(rate: float, duration: float, seed: int = 0) -> list[float]:
    """Seeded Poisson arrivals: exponential gaps at ``rate`` req/s."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    offsets: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= duration:
            return offsets
        offsets.append(t)


def burst_schedule(
    rate: float, duration: float, burst_size: int = 8
) -> list[float]:
    """Deterministic bursts: ``burst_size`` simultaneous arrivals per period.

    The period is ``burst_size / rate``, so the *average* offered rate
    matches the Poisson schedule at the same ``rate`` — only the arrival
    pattern differs.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if burst_size <= 0:
        raise ValueError("burst_size must be positive")
    period = burst_size / rate
    total = math.floor(rate * duration)
    offsets: list[float] = []
    t = 0.0
    while len(offsets) < total:
        offsets.extend([t] * burst_size)
        t += period
    return offsets[:total]


async def fire_open_loop(
    offsets: Sequence[float],
    send: Callable[[int], Awaitable[str | None]],
    max_outstanding: int,
) -> tuple[list[float], int, int, dict[str, int]]:
    """The open loop itself: ``send(i)`` fires ``offsets[i]`` seconds from now.

    At most ``max_outstanding`` sends are in flight; an arrival that finds
    the budget exhausted is dropped and counted, never delayed — delaying
    would silently turn the harness closed-loop.  ``send`` returns ``None``
    for a good response or a key naming what came back instead; an
    exception counts under its type's name.  Returns ``(latencies of the
    good responses in completion order, sent, dropped, failures by key)``.
    """
    loop = asyncio.get_running_loop()
    sem = asyncio.Semaphore(max_outstanding)
    latencies: list[float] = []
    failed: dict[str, int] = {}
    tasks: list[asyncio.Task] = []
    dropped = 0

    async def fire(i: int) -> None:
        t0 = loop.time()
        try:
            error = await send(i)
            elapsed = loop.time() - t0
        except Exception as exc:
            error = type(exc).__name__
        finally:
            sem.release()
        if error is None:
            latencies.append(elapsed)
        else:
            failed[error] = failed.get(error, 0) + 1

    start = loop.time()
    for i, offset in enumerate(offsets):
        delay = start + offset - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if sem.locked():
            dropped += 1
            continue
        await sem.acquire()
        tasks.append(asyncio.ensure_future(fire(i)))
    if tasks:
        await asyncio.gather(*tasks)
    return latencies, len(tasks), dropped, failed


@dataclass
class LoadReport:
    """What one open-loop run observed, JSON-ready via :meth:`to_dict`."""

    process: str
    offered_rate: float  #: scheduled arrivals / schedule span (req/s)
    achieved_rate: float  #: completed OK responses / wall time (req/s)
    duration_s: float  #: wall time from first arrival to last completion
    scheduled: int  #: arrivals in the schedule
    sent: int  #: requests actually fired
    ok: int  #: 200 responses
    dropped: int  #: arrivals shed client-side (outstanding budget)
    errors: dict[str, int] = field(default_factory=dict)  #: status/exc -> count
    latency_mean_s: float = float("nan")
    latency_p50_s: float = float("nan")
    latency_p95_s: float = float("nan")
    latency_p99_s: float = float("nan")
    keep_alive: bool = True  #: whether connections were pooled and reused
    connections_opened: int = 0  #: TCP connections dialled over the run

    @property
    def failed(self) -> int:
        """Requests that fired but did not come back 200."""
        return sum(self.errors.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "process": self.process,
            "offered_rate": self.offered_rate,
            "achieved_rate": self.achieved_rate,
            "duration_s": self.duration_s,
            "scheduled": self.scheduled,
            "sent": self.sent,
            "ok": self.ok,
            "failed": self.failed,
            "dropped": self.dropped,
            "errors": dict(self.errors),
            "latency_mean_s": self.latency_mean_s,
            "latency_p50_s": self.latency_p50_s,
            "latency_p95_s": self.latency_p95_s,
            "latency_p99_s": self.latency_p99_s,
            "keep_alive": self.keep_alive,
            "connections_opened": self.connections_opened,
        }


class LoadGenerator:
    """Open-loop HTTP client for ``/v1/predict``.

    Parameters
    ----------
    host / port:
        Where the :class:`~repro.serving.server.ServingServer` listens.
    rate / duration / process / seed:
        The arrival schedule: ``process`` is ``"poisson"`` (default),
        ``"burst"`` or ``"trace"``; ``seed`` makes the Poisson schedule
        (and the generated inputs) replayable.
    schedule:
        With ``process="trace"``: explicit arrival offsets in seconds,
        non-negative and non-decreasing.
    burst_size:
        Arrivals per burst for ``process="burst"``.
    max_outstanding:
        In-flight budget.  An arrival that fires while the budget is
        exhausted is dropped and counted (open-loop semantics), never
        queued client-side.
    keep_alive:
        Pool and reuse connections (default).  ``False`` dials a fresh
        TCP connection per request — the pre-reuse behaviour, kept so
        the harness can measure what connection churn costs.
    deadline_ms:
        Optional per-request latency budget forwarded to the server.
    examples:
        Input array of shape ``(n, *input_shape)`` cycled over requests.
        Default: discover ``input_shape`` from ``GET /v1/health`` and
        generate 16 seeded Gaussian examples.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        rate: float = 50.0,
        duration: float = 2.0,
        process: str = "poisson",
        seed: int = 0,
        schedule: Sequence[float] | None = None,
        burst_size: int = 8,
        max_outstanding: int = 64,
        keep_alive: bool = True,
        deadline_ms: float | None = None,
        examples: np.ndarray | None = None,
        request_timeout: float = 30.0,
    ) -> None:
        if process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"process must be one of {sorted(ARRIVAL_PROCESSES)}, "
                f"got {process!r}"
            )
        if process == "trace":
            if schedule is None:
                raise ValueError("process='trace' requires an explicit schedule")
            offsets = [float(t) for t in schedule]
            if any(t < 0 for t in offsets) or any(
                b < a for a, b in zip(offsets, offsets[1:])
            ):
                raise ValueError(
                    "trace schedule must be non-negative and non-decreasing"
                )
        elif schedule is not None:
            raise ValueError("schedule is only valid with process='trace'")
        elif process == "poisson":
            offsets = poisson_schedule(rate, duration, seed)
        else:
            offsets = burst_schedule(rate, duration, burst_size)
        if max_outstanding <= 0:
            raise ValueError("max_outstanding must be positive")
        self.host = host
        self.port = int(port)
        self.process = process
        self.seed = int(seed)
        self.schedule = offsets
        self.max_outstanding = int(max_outstanding)
        self.keep_alive = bool(keep_alive)
        self.deadline_ms = deadline_ms
        self.examples = examples
        self.request_timeout = float(request_timeout)
        span = offsets[-1] if offsets else 0.0
        self.offered_rate = len(offsets) / span if span > 0 else float(len(offsets))
        #: per-request end-to-end latencies of OK responses (seconds)
        self.latencies: list[float] = []
        #: TCP connections dialled (pool misses included)
        self.connections_opened = 0
        # idle keep-alive connections; at most one per concurrency slot
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    # ------------------------------------------------------------------ #
    # one raw HTTP exchange (stdlib only, pooled keep-alive connections)
    # ------------------------------------------------------------------ #
    async def _open(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        self.connections_opened += 1
        return await asyncio.open_connection(self.host, self.port)

    @staticmethod
    async def _close(writer: asyncio.StreamWriter) -> None:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    async def _close_idle(self) -> None:
        """Drop every pooled connection (end of run)."""
        idle, self._idle = self._idle, []
        for _, writer in idle:
            await self._close(writer)

    async def _exchange(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        payload: dict | None,
    ) -> tuple[int, dict, bool]:
        """One request/response on an open connection.

        Returns ``(status, body, reusable)`` — ``reusable`` is False when
        either side asked to close, so the caller knows whether the
        connection may go back to the pool.
        """
        body = b"" if payload is None else json.dumps(payload).encode()
        connection = "keep-alive" if self.keep_alive else "close"
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        content_length = 0
        server_close = not self.keep_alive
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                content_length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                server_close = True
        raw = await reader.readexactly(content_length)
        return status, json.loads(raw) if raw else {}, not server_close

    async def _request(
        self, method: str, path: str, payload: dict | None = None
    ) -> tuple[int, dict]:
        pooled = bool(self._idle) and self.keep_alive
        reader, writer = self._idle.pop() if pooled else await self._open()
        try:
            status, body, reusable = await self._exchange(
                reader, writer, method, path, payload
            )
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            await self._close(writer)
            if not pooled:
                raise
            # a pooled connection can go stale between requests (the server
            # closed it while idle); one retry on a fresh dial is safe
            # because nothing of the request was processed
            reader, writer = await self._open()
            try:
                status, body, reusable = await self._exchange(
                    reader, writer, method, path, payload
                )
            except BaseException:
                await self._close(writer)
                raise
        except BaseException:
            await self._close(writer)
            raise
        if reusable and self.keep_alive:
            self._idle.append((reader, writer))
        else:
            await self._close(writer)
        return status, body

    async def _resolve_examples(self) -> np.ndarray:
        if self.examples is not None:
            return np.asarray(self.examples, dtype=np.float64)
        _, health = await self._request("GET", "/v1/health")
        shape = health.get("input_shape")
        if not shape:
            raise RuntimeError(
                "server did not report input_shape; pass examples= explicitly"
            )
        rng = np.random.default_rng(self.seed)
        return rng.normal(size=(16, *shape))

    # ------------------------------------------------------------------ #
    # the open loop
    # ------------------------------------------------------------------ #
    async def run(self) -> LoadReport:
        """Fire the schedule; returns the :class:`LoadReport`."""
        examples = await self._resolve_examples()
        bodies = [
            {"x": examples[i % len(examples)].tolist()}
            for i in range(len(self.schedule))
        ]
        if self.deadline_ms is not None:
            for body in bodies:
                body["deadline_ms"] = self.deadline_ms

        async def send(i: int) -> str | None:
            status, _ = await asyncio.wait_for(
                self._request("POST", "/v1/predict", bodies[i]),
                timeout=self.request_timeout,
            )
            return None if status == 200 else str(status)

        loop = asyncio.get_running_loop()
        start = loop.time()
        latencies, sent, dropped, errors = await fire_open_loop(
            self.schedule, send, self.max_outstanding
        )
        wall = loop.time() - start
        await self._close_idle()
        self.latencies.extend(latencies)
        ok = len(latencies)

        lat = sorted(self.latencies)
        return LoadReport(
            process=self.process,
            offered_rate=self.offered_rate,
            achieved_rate=ok / wall if wall > 0 else 0.0,
            duration_s=wall,
            scheduled=len(self.schedule),
            sent=sent,
            ok=ok,
            dropped=dropped,
            errors=errors,
            latency_mean_s=sum(lat) / len(lat) if lat else float("nan"),
            latency_p50_s=nearest_rank_percentile(lat, 50),
            latency_p95_s=nearest_rank_percentile(lat, 95),
            latency_p99_s=nearest_rank_percentile(lat, 99),
            keep_alive=self.keep_alive,
            connections_opened=self.connections_opened,
        )


# ---------------------------------------------------------------------- #
# CLI: `python -m repro.serving.loadgen` (the `make loadgen` entry point)
# ---------------------------------------------------------------------- #
def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.loadgen",
        description="Open-loop load against a running repro serving server.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8100)
    parser.add_argument("--rate", type=float, default=50.0, help="offered req/s")
    parser.add_argument("--duration", type=float, default=2.0, help="seconds")
    parser.add_argument(
        "--process", choices=("poisson", "burst"), default="poisson"
    )
    parser.add_argument("--burst-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument("--max-outstanding", type=int, default=64)
    parser.add_argument(
        "--no-keep-alive",
        action="store_true",
        help="dial a fresh connection per request (the pre-reuse behaviour)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the raw LoadReport dict"
    )
    return parser


async def _main(args) -> None:
    gen = LoadGenerator(
        args.host,
        args.port,
        rate=args.rate,
        duration=args.duration,
        process=args.process,
        burst_size=args.burst_size,
        seed=args.seed,
        deadline_ms=args.deadline_ms,
        max_outstanding=args.max_outstanding,
        keep_alive=not args.no_keep_alive,
    )
    report = await gen.run()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return
    print(
        f"{report.process} arrivals: offered {report.offered_rate:.1f} req/s, "
        f"achieved {report.achieved_rate:.1f} req/s over {report.duration_s:.2f}s "
        f"({report.connections_opened} connections, "
        f"keep-alive {'on' if report.keep_alive else 'off'})"
    )
    print(
        f"{report.ok} ok / {report.failed} failed / {report.dropped} dropped "
        f"of {report.scheduled} scheduled"
    )
    print(
        f"latency p50 {report.latency_p50_s * 1e3:.2f} ms, "
        f"p95 {report.latency_p95_s * 1e3:.2f} ms, "
        f"p99 {report.latency_p99_s * 1e3:.2f} ms"
    )


def main(argv=None) -> None:
    args = _build_parser().parse_args(argv)
    asyncio.run(_main(args))


if __name__ == "__main__":
    main()
