"""The serving suite's own gates (``conftest.py``) catch what they claim to."""

from __future__ import annotations

import asyncio
import gc


def test_an_unretrieved_task_exception_is_reported(no_unhandled_loop_errors):
    async def planted():
        raise RuntimeError("planted")

    async def main():
        asyncio.ensure_future(planted())  # dropped: nobody awaits it
        await asyncio.sleep(0.01)

    asyncio.run(main())
    gc.collect()
    reported = [c["exception"].args for c in no_unhandled_loop_errors]
    assert reported == [("planted",)]
    no_unhandled_loop_errors.clear()  # looked at here, so the gate passes
