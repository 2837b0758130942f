"""The benchmark's own server process: ``ServingServer`` over one model.

``python -m benchmarks.e2e.server_child <model kind> <ServingConfig JSON>``
binds port 0, prints ``PORT <n>`` and serves until SIGTERM, then drains and
exits 0.  Public ``repro`` API only, so the instrument does not depend on
the ``python -m repro.serving.server`` CLI staying as it is.  Started by
:class:`benchmarks.e2e.workloads.ServerChild`, whose environment (import
path, BLAS thread pins) it inherits.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys

from repro.serving import ServingConfig, ServingEngine, ServingServer

from .workloads import build_model


async def serve(kind: str, config_json: str) -> None:
    config = ServingConfig.from_dict(json.loads(config_json))
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    async with ServingServer(ServingEngine(build_model(kind), config)) as server:
        print(f"PORT {server.port}", flush=True)
        await stop.wait()


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1], sys.argv[2]))
