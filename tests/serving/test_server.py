"""Network front end tests: wire fidelity, error mapping, lifecycle.

The contract under test is :class:`repro.serving.ServingServer`:

* a served ``/v1/predict`` response is **bit-identical** to a direct
  ``ServingEngine.submit`` under the same config and batch formation
  (JSON carries repr-faithful float64);
* engine failures map to typed HTTP statuses (``ServerOverloaded`` → 503,
  ``DeadlineExceeded`` → 504), payload problems to 400/413/404/405;
* a body framed any way but one agreed ``Content-Length`` (chunked → 501,
  conflicting lengths → 400), and any other bad framing (a non-digit
  length, an over-long line, too many header lines → 400), gets exactly
  one response, then EOF;
* ``/v1/health`` flips the moment a supervised worker is killed — before
  the supervisor's next scan — and recovers after the respawn;
* ``stop(drain=True)`` lets in-flight requests finish with a response.
"""

from __future__ import annotations

import asyncio
import gc
import http.client
import json
import logging
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import MultiExitBayesNet, MultiExitConfig
from repro.nn.architectures import lenet5_spec
from repro.serving import (
    BatcherConfig,
    FleetConfig,
    LoadGenerator,
    ServingConfig,
    ServingEngine,
    ServingServer,
)


def _model(seed=0):
    spec = lenet5_spec(input_shape=(1, 12, 12), num_classes=5, width_multiplier=0.5)
    return MultiExitBayesNet(
        spec, MultiExitConfig(num_exits=2, mcd_layers_per_exit=1, seed=seed)
    )


RNG = np.random.default_rng(11)
X = RNG.normal(size=(6, 1, 12, 12))


async def _request(server, method, path, payload=None, raw: bytes | None = None):
    """One HTTP exchange against ``server`` (optionally with a raw body)."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        body = raw if raw is not None else (
            b"" if payload is None else json.dumps(payload).encode()
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {server.host}\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()
        status_line = await reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        data = await reader.readexactly(length)
        return status, json.loads(data) if data else {}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


# --------------------------------------------------------------------- #
# wire fidelity
# --------------------------------------------------------------------- #
def test_served_response_bit_identical_to_direct_submit():
    # same model seed + same config + one-at-a-time submission => identical
    # batch formation => the spawn-key rule makes the bits equal; JSON must
    # not perturb them on the way through
    config = ServingConfig(num_samples=4, batcher=BatcherConfig(max_batch_size=4))

    async def main():
        direct = []
        async with ServingEngine(_model(), config) as ref:
            for x in X:
                direct.append(await ref.submit(x))
        async with ServingServer(ServingEngine(_model(), config)) as server:
            for i, x in enumerate(X):
                status, resp = await _request(
                    server, "POST", "/v1/predict", {"x": x.tolist()}
                )
                assert status == 200
                probs = np.asarray(resp["probs"], dtype=np.float64)
                assert probs.tobytes() == direct[i].probs.tobytes()
                assert resp["label"] == direct[i].label
                assert resp["num_samples"] == direct[i].num_samples

    asyncio.run(main())


def test_stats_and_health_endpoints():
    async def main():
        async with ServingServer(
            ServingEngine(_model(), ServingConfig(num_samples=2))
        ) as srv:
            status, health = await _request(srv, "GET", "/v1/health")
            assert status == 200
            assert health["status"] == "ok"
            assert health["alive_workers"] == 1
            assert health["input_shape"] == [1, 12, 12]
            assert health["num_classes"] == 5

            await _request(srv, "POST", "/v1/predict", {"x": X[0].tolist()})
            status, stats = await _request(srv, "GET", "/v1/stats")
            assert status == 200
            assert stats["requests_completed"] == 1
            # the full ServingStats surface crosses the wire
            assert srv.engine.stats().to_dict().keys() == stats.keys()

    asyncio.run(main())


# --------------------------------------------------------------------- #
# typed error mapping
# --------------------------------------------------------------------- #
def test_bad_payloads_map_to_400():
    nan_x, inf_x = X[0].copy(), X[0].copy()
    nan_x[0, 3, 3] = np.nan
    inf_x[0, 5, 1] = -np.inf

    async def main():
        async with ServingServer(
            ServingEngine(_model(), ServingConfig(num_samples=1))
        ) as srv:
            for payload, raw in [
                (None, b"{not json"),  # malformed JSON
                ({"y": 1}, None),  # missing x
                ({"x": "strings"}, None),  # non-numeric
                ({"x": X[0].tolist(), "deadline_ms": -5}, None),  # bad deadline
                ({"x": [[1.0, 2.0]]}, None),  # wrong shape for the model
                # json.dumps emits (and json.loads accepts) the bare NaN /
                # Infinity tokens; answering them would put NaN in `probs`
                ({"x": nan_x.tolist()}, None),
                ({"x": inf_x.tolist()}, None),
                ({"x": X[0].tolist(), "deadline_ms": float("nan")}, None),
            ]:
                status, body = await _request(
                    srv, "POST", "/v1/predict", payload, raw=raw
                )
                assert status == 400, (payload, raw, body)
                assert body["error"] == "bad_request"
            assert srv.engine.batcher_stats.submitted == 0  # all refused before submit
            # an infinite budget is legal: it means "no deadline"
            status, body = await _request(
                srv,
                "POST",
                "/v1/predict",
                {"x": X[0].tolist(), "deadline_ms": float("inf")},
            )
            assert status == 200, body
            status, body = await _request(srv, "GET", "/v1/missing")
            assert status == 404
            status, body = await _request(srv, "GET", "/v1/predict")
            assert status == 405

    asyncio.run(main())


def test_oversized_body_maps_to_413():
    async def main():
        engine = ServingEngine(_model(), ServingConfig(num_samples=1))
        async with ServingServer(engine, max_body_bytes=1024) as srv:
            status, body = await _request(
                srv, "POST", "/v1/predict", raw=b"x" * 2048
            )
            assert status == 413
            assert body["error"] == "payload_too_large"

    asyncio.run(main())


async def _raw_exchange(server, data: bytes) -> list[bytes]:
    """Send ``data`` on one keep-alive connection; the status lines seen
    before the server closed it."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(data)
        await writer.drain()
        received = await asyncio.wait_for(reader.read(), timeout=10)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
    # a response may follow the previous body with no line break between
    return re.findall(rb"HTTP/1\.1 \d{3} [^\r]*", received)


def test_transfer_encoding_gets_one_501_then_eof():
    # the chunk framing must not be parsed as a second request: here the
    # "body" holds a complete request line, which used to be executed
    smuggled = b"GET /v1/health HTTP/1.1\r\n\r\n"
    request = (
        b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        + b"%x\r\n" % len(smuggled)
        + smuggled
        + b"\r\n0\r\n\r\n"
    )

    async def main():
        async with ServingServer(
            ServingEngine(_model(), ServingConfig(num_samples=1))
        ) as srv:
            statuses = await _raw_exchange(srv, request)
            assert statuses == [b"HTTP/1.1 501 Not Implemented"], statuses
            status, body = await _request(
                srv, "POST", "/v1/predict", {"x": X[0].tolist()}
            )
            assert status == 200, body

    asyncio.run(main())


def test_conflicting_content_lengths_get_one_400_then_eof():
    tail = b"GET /v1/health HTTP/1.1\r\n\r\n"
    request = (
        b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: 0\r\nContent-Length: %d\r\n\r\n" % len(tail) + tail
    )
    payload = json.dumps({"x": X[0].tolist()}).encode()
    repeated = (
        b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
        b"Content-Length: %d\r\nContent-Length: %d\r\n\r\n"
        % (len(payload), len(payload))
        + payload
    )

    async def main():
        async with ServingServer(
            ServingEngine(_model(), ServingConfig(num_samples=1))
        ) as srv:
            statuses = await _raw_exchange(srv, request)
            assert statuses == [b"HTTP/1.1 400 Bad Request"], statuses
            # a repeated header that agrees is one Content-Length
            statuses = await _raw_exchange(srv, repeated)
            assert statuses == [b"HTTP/1.1 200 OK"], statuses

    asyncio.run(main())


def _health_request(head: bytes) -> bytes:
    """A health check with ``head`` as its header lines and 10 body bytes.

    HTTP/1.0 closes after one response, so a request the server wrongly
    accepts shows up as a 200 rather than as a hang.
    """
    return b"GET /v1/health HTTP/1.0\r\n" + head + b"\r\n" + b"0123456789"


@pytest.mark.parametrize(
    "head",
    [
        # past the StreamReader's 64 KiB line limit: readline() raises
        b"X-A: " + b"a" * 70_000 + b"\r\n",
        # int() reads both as 10; RFC 9110 Content-Length is 1*DIGIT
        b"Content-Length: 1_0\r\n",
        b"Content-Length: +10\r\n",
        # the bound is on header lines, not on distinct names
        b"X-A: b\r\n" * 65,
    ],
    ids=["long-line", "underscore-length", "signed-length", "65-lines"],
)
def test_bad_framing_gets_one_400_then_eof(head, caplog):
    async def main():
        async with ServingServer(
            ServingEngine(_model(), ServingConfig(num_samples=1))
        ) as srv:
            statuses = await _raw_exchange(srv, _health_request(head))
            assert statuses == [b"HTTP/1.1 400 Bad Request"], statuses
            status, body = await _request(srv, "GET", "/v1/health")
            assert status == 200, body

    caplog.set_level(logging.ERROR, logger="asyncio")
    asyncio.run(main())
    gc.collect()  # an unretrieved task exception is logged when the task dies
    assert not [r for r in caplog.records if "never retrieved" in r.getMessage()]


@pytest.mark.parametrize(
    "head",
    [
        b"X-A: b\r\n" * 64,
        b"X-A: " + b"a" * (8192 - 7) + b"\r\n",  # 8 KiB including its CRLF
        b"Content-Length:  10 \r\n",  # whitespace around the digits is allowed
    ],
    ids=["64-lines", "8-KiB-line", "padded-length"],
)
def test_framing_at_the_bounds_is_served(head):
    async def main():
        async with ServingServer(
            ServingEngine(_model(), ServingConfig(num_samples=1))
        ) as srv:
            statuses = await _raw_exchange(srv, _health_request(head))
            assert statuses == [b"HTTP/1.1 200 OK"], statuses

    asyncio.run(main())


def test_overload_maps_to_503():
    # queue of 1 + fail-fast policy + a storm of concurrent requests:
    # the queue is guaranteed full for most arrivals
    config = ServingConfig(
        num_samples=4,
        batcher=BatcherConfig(max_batch_size=1, max_queue_size=1, reject_on_full=True),
    )

    async def main():
        async with ServingServer(ServingEngine(_model(), config)) as srv:
            results = await asyncio.gather(
                *(
                    _request(srv, "POST", "/v1/predict", {"x": X[0].tolist()})
                    for _ in range(24)
                )
            )
            statuses = [status for status, _ in results]
            assert set(statuses) <= {200, 503}
            assert 503 in statuses
            assert 200 in statuses
            for status, body in results:
                if status == 503:
                    assert body["error"] == "overloaded"

    asyncio.run(main())


def test_the_queue_bound_holds_on_the_wire_under_open_loop_bursts():
    # one request per folded pass (a few hundred req/s of capacity) against
    # bursts of 32 at several times that: most of every burst finds the two
    # pending places taken and must be told so — and the server's own
    # accounting of the episode must agree with the client's
    config = ServingConfig(
        num_samples=4,
        batcher=BatcherConfig(max_batch_size=1, max_queue_size=2, reject_on_full=True),
    )

    async def main():
        async with ServingServer(ServingEngine(_model(), config)) as srv:
            gen = LoadGenerator(
                srv.host,
                srv.port,
                process="burst",
                burst_size=32,
                rate=2000.0,
                duration=0.4,
            )
            report = await gen.run()
            status, stats = await _request(srv, "GET", "/v1/stats")
            assert status == 200
            return report, stats

    report, stats = asyncio.run(main())
    assert report.errors.get("503", 0) > 0 and report.ok > 0
    assert report.scheduled == report.ok + report.failed + report.dropped
    assert all(key.isdigit() for key in report.errors), report.errors
    assert stats["queue_peak"] <= 2
    assert stats["requests_rejected"] == report.errors["503"]
    assert stats["requests_completed"] == report.ok


def test_missed_deadline_maps_to_504():
    # a 1 us budget has always lapsed by the time assembly re-checks the
    # backlog (the enqueue->assembly hop alone costs microseconds), so the
    # shed is deterministic however fast this host drains the fillers
    config = ServingConfig(
        num_samples=512, batcher=BatcherConfig(max_batch_size=1, admission_timeout=5.0)
    )

    async def main():
        async with ServingServer(ServingEngine(_model(), config)) as srv:
            fillers = [
                asyncio.ensure_future(
                    _request(srv, "POST", "/v1/predict", {"x": X[i].tolist()})
                )
                for i in range(4)
            ]
            await asyncio.sleep(0.005)  # let a filler reach the worker
            status, body = await _request(
                srv,
                "POST",
                "/v1/predict",
                {"x": X[5].tolist(), "deadline_ms": 0.001},
            )
            assert status == 504
            assert body["error"] == "deadline_exceeded"
            for status_f, _ in await asyncio.gather(*fillers):
                assert status_f == 200

    asyncio.run(main())


# --------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------- #
def test_health_flips_during_supervised_worker_kill():
    config = ServingConfig(
        num_samples=2,
        workers=1,
        worker_backend="process",
        fleet=FleetConfig(health_interval=0.05, respawn_wait=10.0),
    )

    async def main():
        engine = ServingEngine(_model(), config)
        async with ServingServer(engine) as srv:
            status, health = await _request(srv, "GET", "/v1/health")
            assert (status, health["status"]) == (200, "ok")

            # kill the only worker out from under the supervisor
            engine._pool._replicas[0].process.kill()
            for _ in range(100):
                status, health = await _request(srv, "GET", "/v1/health")
                if status == 503:
                    break
                await asyncio.sleep(0.01)
            assert status == 503
            assert health["status"] == "down"

            # the supervisor respawns; health must recover on its own
            for _ in range(400):
                status, health = await _request(srv, "GET", "/v1/health")
                if status == 200 and health["status"] == "ok":
                    break
                await asyncio.sleep(0.02)
            assert (status, health["status"]) == (200, "ok")

            # and the fleet still serves
            status, _ = await _request(
                srv, "POST", "/v1/predict", {"x": X[0].tolist()}
            )
            assert status == 200

    asyncio.run(main())


def test_graceful_stop_drains_in_flight_requests():
    config = ServingConfig(num_samples=16, batcher=BatcherConfig(max_batch_size=1))

    async def main():
        engine = ServingEngine(_model(), config)
        server = ServingServer(engine)
        await server.start()
        inflight = asyncio.ensure_future(
            _request(server, "POST", "/v1/predict", {"x": X[0].tolist()})
        )
        await asyncio.sleep(0.02)  # the request is past its request line
        await server.stop(drain=True)
        status, resp = await inflight
        assert status == 200
        assert resp["label"] in range(5)
        assert not server.running
        assert not engine.running  # server-started engine is server-stopped
        # listener really closed
        with pytest.raises(OSError):
            await asyncio.open_connection(server.host, server.port)

    asyncio.run(main())


def test_stop_closes_an_idle_keep_alive_connection():
    """An idle keep-alive connection is closed by ``stop()``, not waited on
    (``Server.wait_closed()`` waits for open connections since 3.12.1)."""

    async def main():
        srv = ServingServer(ServingEngine(_model(), ServingConfig(num_samples=1)))
        await srv.start()
        reader, writer = await asyncio.open_connection(srv.host, srv.port)
        try:
            body = json.dumps({"x": X[0].tolist()}).encode()
            writer.write(
                b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            await writer.drain()
            assert b" 200 " in await reader.readline()
            length = 0
            while (line := await reader.readline()) not in (b"\r\n", b""):
                name, _, value = line.decode().partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            await reader.readexactly(length)  # the connection is idle now
            await asyncio.wait_for(srv.stop(), 5)
            assert await asyncio.wait_for(reader.read(), 5) == b""
        finally:
            writer.close()
        assert not srv.running

    asyncio.run(main())


def test_keep_alive_requests_create_no_tasks():
    """A keep-alive connection reads each request on its own task: serving
    20 health checks creates no task at all."""

    async def read_response(reader):
        assert b" 200 " in await reader.readline()
        length = 0
        while (line := await reader.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        await reader.readexactly(length)

    async def main():
        loop = asyncio.get_running_loop()
        created = 0

        def counting_factory(loop, coro, **kwargs):
            nonlocal created
            created += 1
            return asyncio.Task(coro, loop=loop, **kwargs)

        async with ServingServer(
            ServingEngine(_model(), ServingConfig(num_samples=1))
        ) as srv:
            reader, writer = await asyncio.open_connection(srv.host, srv.port)
            request = b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n"
            try:
                writer.write(request)  # the connection task exists from here
                await read_response(reader)
                loop.set_task_factory(counting_factory)
                try:
                    for _ in range(20):
                        writer.write(request)
                        await read_response(reader)
                finally:
                    loop.set_task_factory(None)
            finally:
                writer.close()
        assert created == 0, f"{created / 20:.1f} tasks per request"

    asyncio.run(main())


def test_server_leaves_caller_owned_engine_running():
    async def main():
        async with ServingEngine(_model(), ServingConfig(num_samples=1)) as engine:
            async with ServingServer(engine) as srv:
                status, _ = await _request(
                    srv, "POST", "/v1/predict", {"x": X[0].tolist()}
                )
                assert status == 200
            assert engine.running  # not ours to stop
            await engine.submit(X[1])  # still serving directly

    asyncio.run(main())


def test_loadgen_trace_replay_and_reports():
    # a trace schedule is replayed exactly; the report accounts for every
    # scheduled arrival
    async def main():
        async with ServingServer(
            ServingEngine(_model(), ServingConfig(num_samples=1))
        ) as srv:
            gen = LoadGenerator(
                srv.host,
                srv.port,
                process="trace",
                schedule=[0.0, 0.0, 0.01, 0.02, 0.05],
            )
            report = await gen.run()
            assert report.scheduled == 5
            assert report.ok + report.failed + report.dropped == 5
            assert report.failed == 0
            assert len(gen.latencies) == report.ok

    asyncio.run(main())


def test_loadgen_keep_alive_reuses_connections():
    # keep-alive (the default) pays one dial per concurrency slot; the
    # pre-reuse mode pays one per request — both serve every arrival
    schedule = [i * 0.005 for i in range(10)]

    async def drive(keep_alive):
        async with ServingServer(
            ServingEngine(_model(), ServingConfig(num_samples=1))
        ) as srv:
            gen = LoadGenerator(
                srv.host,
                srv.port,
                process="trace",
                schedule=schedule,
                keep_alive=keep_alive,
            )
            return await gen.run()

    pooled = asyncio.run(drive(True))
    churned = asyncio.run(drive(False))
    for report in (pooled, churned):
        assert report.failed == 0
        assert report.ok == report.scheduled == len(schedule)
    assert pooled.keep_alive and not churned.keep_alive
    # +1: the health probe that discovers input_shape dials too, and in
    # keep-alive mode its connection is then reused for the predicts
    assert churned.connections_opened == churned.sent + 1
    assert pooled.connections_opened < churned.connections_opened
    assert pooled.connections_opened <= len(schedule)


def test_loadgen_trace_capture_replay_round_trip(tmp_path):
    # capture a Poisson run's schedule, replay it from the file: the
    # replayed run fires the identical offsets (bit-for-bit floats)
    from repro.serving import load_trace

    async def main():
        async with ServingServer(
            ServingEngine(_model(), ServingConfig(num_samples=1))
        ) as srv:
            recorded = LoadGenerator(
                srv.host, srv.port, rate=200.0, duration=0.1, seed=3
            )
            report = await recorded.run()
            trace_file = report.save_trace(tmp_path / "arrivals.json")
            replayed = LoadGenerator(
                srv.host, srv.port, process="trace", schedule=load_trace(trace_file)
            )
            replay_report = await replayed.run()
            assert replayed.schedule == recorded.schedule
            assert replay_report.scheduled == report.scheduled
            assert replay_report.failed == 0
            # the replayed report snapshots the same schedule it ran
            assert replay_report.schedule == report.schedule

    asyncio.run(main())


def test_client_and_server_report_one_percentile_statistic():
    """The same latency sample reads the same p50/p95/p99 on both sides.

    ``LoadReport`` and ``ServingStats`` both quote
    ``repro.metrics.nearest_rank_percentile``: an observed latency, never
    an interpolation between two of them.
    """
    schedule = [i * 0.002 for i in range(12)]

    async def main():
        engine = ServingEngine(_model(), ServingConfig(num_samples=1))
        async with ServingServer(engine) as srv:
            gen = LoadGenerator(srv.host, srv.port, process="trace", schedule=schedule)
            report = await gen.run()
            # hand the server the client's sample, in completion order
            engine._latencies.clear()
            engine._latencies.extend(gen.latencies)
            return gen.latencies, report, engine.stats()

    sample, report, stats = asyncio.run(main())
    assert report.ok == len(sample) == len(schedule)
    assert len(set(sample)) > 1
    for name in ("latency_p50_s", "latency_p95_s", "latency_p99_s"):
        assert getattr(stats, name) == getattr(report, name)
    assert report.latency_p99_s == stats.latency_max_s == max(sample)
    assert report.latency_p50_s == sorted(sample)[5]  # rank ceil(0.5 * 12)


# --------------------------------------------------------------------- #
# the command line: python -m repro.serving.server
# --------------------------------------------------------------------- #
@pytest.mark.timeout(120)
def test_the_cli_serves_on_the_process_backend_and_stops_on_sigint():
    """Port 0 → a served prediction over the ring → SIGINT → exit 0, clean.

    The signal goes to the server's pid alone: stopping its workers and
    unlinking their segments is the server's job, not the terminal's (the
    suite's leak gate fails the test on a ``/dev/shm`` segment left behind).
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serving.server", "--port", "0"]
        + ["--backend", "process"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    match = None
    try:
        for line in proc.stdout:  # a warning may come first; EOF if it died
            match = re.search(r"serving on http://([^:\s]+):(\d+)", line)
            if match:
                break
        assert match, f"the server exited without serving: {proc.wait()}"
        conn = http.client.HTTPConnection(match[1], int(match[2]), timeout=30)
        conn.request("POST", "/v1/predict", json.dumps({"x": X[0].tolist()}))
        reply = conn.getresponse()
        assert reply.status == 200, reply.read()
        reply.read()
        conn.request("GET", "/v1/stats")
        stats = json.loads(conn.getresponse().read())
        conn.close()
        assert stats["transport_ring_batches"] >= 1
        assert "transport" not in stats and "transport_pipe_batches" not in stats
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "shutting down" in out
