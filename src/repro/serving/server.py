"""Network front end: an asyncio HTTP/1.1 server over :class:`ServingEngine`.

Everything before this module stopped at in-process ``await submit(x)`` —
every throughput/latency number was *closed-loop* (each caller waits for
its response before sending again), which hides the queueing behaviour a
real deployment lives or dies by.  :class:`ServingServer` puts a protocol
boundary on the serving tier using nothing but the standard library
(``asyncio.start_server`` + hand-rolled HTTP/1.1 with keep-alive), so an
open-loop load generator (:mod:`repro.serving.loadgen`) can drive it the
way clients drive a model server.

Endpoints
---------
``POST /v1/predict``
    Body ``{"x": <nested list, the per-example input shape>,
    "deadline_ms": <optional latency budget>}``.  Responds 200 with the
    JSON form of :class:`~repro.uncertainty.metrics.UncertaintyResult`:
    ``{"probs": [...], "label": ..., "confidence": ..., "entropy": ...,
    "mutual_information": ..., "exit_index": ..., "num_samples": ...,
    "latency_s": ...}``.  ``probs`` round-trips float64 exactly (JSON
    carries ``repr``-faithful doubles), so a served response is
    **bit-identical** to a direct ``ServingEngine.submit`` under the same
    config and batch formation.
``GET /v1/stats``
    The full :class:`~repro.serving.engine.ServingStats` as JSON
    (``ServingStats.to_dict()``).
``GET /v1/health``
    Fleet liveness: 200 with ``{"status": "ok" | "degraded", ...}`` while
    at least one worker probes alive (``degraded`` = fewer than target),
    503 ``{"status": "down"}`` when none do.  Uses the pools' *probed*
    liveness (``alive_workers``), so a killed worker flips health
    immediately — before the supervisor's next scan respawns it.

Error mapping is typed, not stringly: ``ServerOverloaded`` → **503**,
``DeadlineExceeded`` → **504**, malformed JSON / wrong shape / bad field
types / a non-finite ``x`` element / a NaN ``deadline_ms`` → **400**, a
body over ``max_body_bytes`` → **413**, unknown path →
**404**, wrong method → **405**, a ``Transfer-Encoding`` body → **501**,
anything unexpected → **500**.  A framing error (501, 413, a
``Content-Length`` that is not plain ASCII digits or conflicts with
another, a head line over 8 KiB, more than 64 header lines) also closes
the connection.  Every
error body is ``{"error": <slug>, "detail": <message>}``.

Shutdown is graceful by default: :meth:`ServingServer.stop` closes the
listener, lets every request already past its request line finish and
write its response, then stops the engine (draining its queue) if the
server started it.

``python -m repro.serving.server`` boots a demo model behind the front
end — the ``make serve`` entry point; drive it with
``python -m repro.serving.loadgen``.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass

import numpy as np

from .batcher import DeadlineExceeded, ServerOverloaded
from .config import BatcherConfig, ServingConfig
from .engine import ServingEngine

__all__ = ["ServingServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: request-line + header hygiene bounds (per request, not per body)
_MAX_HEADER_LINE = 8192
_MAX_HEADERS = 64


class _HttpError(Exception):
    """Internal: map a protocol-level problem to (status, slug, detail)."""

    def __init__(self, status: int, error: str, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.error = error
        self.detail = detail


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """One line of the request head, at most ``_MAX_HEADER_LINE`` bytes."""
    try:
        line = await reader.readline()
    except ValueError:  # longer than the StreamReader's own 64 KiB limit
        raise _HttpError(400, "bad_request", f"{what} too long") from None
    if len(line) > _MAX_HEADER_LINE:
        raise _HttpError(400, "bad_request", f"{what} too long")
    return line


@dataclass
class _Request:
    method: str
    path: str
    version: str
    headers: dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


class ServingServer:
    """Serve a :class:`ServingEngine` over loopback-grade HTTP/1.1.

    Parameters
    ----------
    engine:
        The serving engine to expose.  If it is not running when
        :meth:`start` is called, the server starts it and owns its
        lifecycle (stopping it again on :meth:`stop`); an already-running
        engine is left running on shutdown.
    host / port:
        Bind address.  ``port=0`` (default) picks a free port; read the
        bound one from :attr:`port` after :meth:`start` — this is what
        keeps tests and CI smoke runs collision-free.
    max_body_bytes:
        Reject request bodies larger than this with **413** instead of
        buffering them (one microbatch of float64 images fits in the
        default 8 MiB with room to spare).

    Examples
    --------
    >>> # doctest: +SKIP
    >>> server = ServingServer(ServingEngine(model, config))
    >>> async with server:
    ...     print(f"listening on http://{server.host}:{server.port}")
    ...     await asyncio.Event().wait()  # serve forever
    """

    def __init__(
        self,
        engine: ServingEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = 8 << 20,
    ) -> None:
        if max_body_bytes <= 0:
            raise ValueError("max_body_bytes must be positive")
        self.engine = engine
        self.host = host
        self.port = int(port)
        self.max_body_bytes = int(max_body_bytes)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        # the connection tasks waiting for (or part-way through reading)
        # their next request: stop() cancels these, even when draining
        self._idle: set[asyncio.Task] = set()
        self._owns_engine = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listener (idempotent); starts the engine if needed."""
        if self._server is not None:
            return
        if not self.engine.running:
            await self.engine.start()
            self._owns_engine = True
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        # port=0 resolves at bind time; publish the real one
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Stop listening; with ``drain=True`` finish in-flight requests.

        Draining lets every request the server has read in full run to
        completion and write its response, with ``Connection: close``;
        a connection still waiting for, or part-way through reading, its
        next request is closed immediately.  ``drain=False`` aborts
        in-flight requests instead.  Either way, the engine is stopped
        (with the same ``drain`` policy) iff this server started it.
        """
        if self._server is None:
            return
        server, self._server = self._server, None
        server.close()
        connections = list(self._connections)
        for task in list(self._idle) if drain else connections:
            task.cancel()
        # since Python 3.12.1 this waits for every open connection as well,
        # so the connections are told to close first
        await server.wait_closed()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        if self._owns_engine:
            self._owns_engine = False
            await self.engine.stop(drain=drain)

    async def __aenter__(self) -> "ServingServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop(drain=True)

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        try:
            while self._server is not None:
                # stop() cancels the task while it waits here: an idle
                # keep-alive connection must not hold a draining stop() open
                self._idle.add(task)
                try:
                    try:
                        request = await self._read_request(reader)
                    finally:
                        self._idle.discard(task)
                except _HttpError as exc:
                    # protocol-level failure: answer if possible, then drop
                    # the connection (the stream position is untrustworthy)
                    await self._write_json(
                        writer,
                        exc.status,
                        {"error": exc.error, "detail": exc.detail},
                        keep_alive=False,
                    )
                    break
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    BrokenPipeError,
                ):
                    break
                if request is None:  # clean EOF between requests
                    break
                status, payload = await self._handle(request)
                keep_alive = request.keep_alive and self._server is not None
                try:
                    await self._write_json(writer, status, payload, keep_alive)
                except (ConnectionResetError, BrokenPipeError):
                    break
                if not keep_alive:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        """Parse one HTTP/1.1 request; ``None`` on clean EOF."""
        request_line = await _read_line(reader, "request line")
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "bad_request", "malformed request line")
        method, target, version = parts
        headers: dict[str, str] = {}
        # bounds header *lines*: a repeated name is one dict entry, not one
        for _ in range(_MAX_HEADERS + 1):
            line = await _read_line(reader, "header line")
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise _HttpError(400, "bad_request", "truncated headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, "bad_request", f"malformed header {name!r}")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                raise _HttpError(400, "bad_request", "conflicting Content-Length")
            headers[name] = value
        else:
            raise _HttpError(400, "bad_request", "too many headers")
        # a chunked body read as "no body" would parse as the next request
        if "transfer-encoding" in headers:
            raise _HttpError(501, "not_implemented", "Transfer-Encoding unsupported")
        # 1*DIGIT only: int() would also take "+10" and "1_0", which a
        # proxy in front of this server frames differently
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise _HttpError(400, "bad_request", "invalid Content-Length")
        content_length = int(length)
        if content_length > self.max_body_bytes:
            raise _HttpError(
                413,
                "payload_too_large",
                f"body of {content_length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
            )
        body = await reader.readexactly(content_length) if content_length else b""
        return _Request(method, target.split("?", 1)[0], version, headers, body)

    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS[status]}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    async def _handle(self, request: _Request) -> tuple[int, dict]:
        route = (request.method, request.path)
        try:
            if route == ("POST", "/v1/predict"):
                return await self._predict(request)
            if route == ("GET", "/v1/stats"):
                return 200, self.engine.stats().to_dict()
            if route == ("GET", "/v1/health"):
                return self._health()
            if request.path in ("/v1/predict", "/v1/stats", "/v1/health"):
                return 405, {
                    "error": "method_not_allowed",
                    "detail": f"{request.method} not supported on {request.path}",
                }
            return 404, {
                "error": "not_found",
                "detail": f"unknown path {request.path}",
            }
        except ServerOverloaded as exc:
            return 503, {"error": "overloaded", "detail": str(exc)}
        except DeadlineExceeded as exc:
            return 504, {"error": "deadline_exceeded", "detail": str(exc)}
        except _HttpError as exc:
            return exc.status, {"error": exc.error, "detail": exc.detail}
        except Exception as exc:  # boundary: never kill the connection loop
            return 500, {"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}

    async def _predict(self, request: _Request) -> tuple[int, dict]:
        try:
            payload = json.loads(request.body)
        except ValueError:
            raise _HttpError(400, "bad_request", "body is not valid JSON") from None
        if not isinstance(payload, dict) or "x" not in payload:
            raise _HttpError(400, "bad_request", 'body must be {"x": <example>, ...}')
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, (int, float))
            # `not >=` rather than `<` also refuses NaN (json.loads accepts
            # the token); Infinity stays legal and means "no deadline"
            or not deadline_ms >= 0
        ):
            raise _HttpError(
                400, "bad_request", "deadline_ms must be a non-negative number"
            )
        try:
            x = np.asarray(payload["x"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _HttpError(
                400, "bad_request", f"x is not a numeric array: {exc}"
            ) from None
        if not np.isfinite(x).all():
            # json.loads accepts NaN/Infinity and json.dumps would echo NaN
            # tokens back in `probs`: a 200 whose body is not valid JSON
            raise _HttpError(400, "bad_request", "x must contain only finite numbers")
        deadline = None if deadline_ms is None else float(deadline_ms) / 1000.0
        try:
            result = await self.engine.submit(x, deadline=deadline)
        except ValueError as exc:  # shape validation — the caller's fault
            raise _HttpError(400, "bad_request", str(exc)) from None
        return 200, {
            # float64 -> repr-faithful JSON doubles: parsing them back
            # yields bit-identical arrays (tests/serving/test_server.py)
            "probs": result.probs.tolist(),
            "label": int(result.label),
            "confidence": float(result.confidence),
            "entropy": float(result.entropy),
            "mutual_information": (
                None
                if result.mutual_information is None
                else float(result.mutual_information)
            ),
            "exit_index": result.exit_index,
            "num_samples": result.num_samples,
            "latency_s": result.latency_s,
        }

    def _health(self) -> tuple[int, dict]:
        engine = self.engine
        alive = engine.alive_workers if engine.running else 0
        target = engine._pool.workers
        if not engine.running or alive == 0:
            status, state = 503, "down"
        elif alive < target:
            status, state = 200, "degraded"
        else:
            status, state = 200, "ok"
        return status, {
            "status": state,
            "alive_workers": alive,
            "current_workers": engine._pool.current_workers if engine.running else 0,
            "target_workers": target,
            "worker_backend": engine.worker_backend,
            # enough model facts for a client to shape its requests
            "input_shape": list(engine.input_shape),
            "num_classes": engine.engine.model.num_classes,
        }


# ---------------------------------------------------------------------- #
# CLI: `python -m repro.serving.server` (the `make serve` entry point)
# ---------------------------------------------------------------------- #
def _demo_model():
    """The small demo LeNet served by the CLI (same scale as the examples)."""
    from ..core import MultiExitBayesNet, MultiExitConfig
    from ..nn.architectures import lenet5_spec

    spec = lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)
    return MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=0)
    )


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.server",
        description="Serve the demo multi-exit MCD model over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8100)
    parser.add_argument("--num-samples", type=int, default=8)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--backend", choices=("thread", "process"), default="thread"
    )
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument("--max-batch-latency", type=float, default=0.002)
    parser.add_argument("--max-queue-size", type=int, default=256)
    parser.add_argument(
        "--config-json",
        default=None,
        help="full ServingConfig as JSON (overrides the flat flags)",
    )
    return parser


async def _serve_forever(args) -> None:
    if args.config_json is not None:
        config = ServingConfig.from_dict(json.loads(args.config_json))
    else:
        config = ServingConfig(
            num_samples=args.num_samples,
            workers=args.workers,
            worker_backend=args.backend,
            batcher=BatcherConfig(
                max_batch_size=args.max_batch_size,
                max_batch_latency=args.max_batch_latency,
                max_queue_size=args.max_queue_size,
            ),
        )
    engine = ServingEngine(_demo_model(), config)
    async with ServingServer(engine, host=args.host, port=args.port) as server:
        shape = "x".join(map(str, engine.input_shape))
        print(
            f"serving on http://{server.host}:{server.port}  "
            f"(input {shape}, {config.worker_backend} backend, "
            f"workers={config.workers}) — Ctrl-C to stop",
            flush=True,
        )
        # Ctrl-C cancels this wait; the cancellation stops the server on its
        # way out and reaches ``main`` as the KeyboardInterrupt it came from
        await asyncio.Event().wait()


def main(argv=None) -> None:
    args = _build_parser().parse_args(argv)
    try:
        asyncio.run(_serve_forever(args))
    except KeyboardInterrupt:
        print("shutting down")


if __name__ == "__main__":
    main()
