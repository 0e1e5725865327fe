"""A host stall must not change which load-gen attempts are lost.

The load generator's uplink-loss phases are defined in seconds from the
start of a run.  Each attempt is looked up at its *scheduled* time (plan
offset plus scheduled backoff sleeps) with a loss draw fixed per
(plan entry, attempt), so a stalled host — modelled here by an event
loop whose clock jumps forward past the whole loss window — loses
exactly the attempts an unstalled run loses.  A wall-clock lookup would
see the jump and skip the window entirely.
"""

from __future__ import annotations

import asyncio
import json

from repro.service import LoadGenConfig, LossPhase
from repro.service.loadgen import LoadGenReport, run_loadgen

CONFIG = LoadGenConfig(
    rate=200.0,
    duration=1.0,
    concurrency=4,
    seed=5,
    max_retries=2,
    backoff_base=0.01,
    backoff_cap=0.05,
    losses=(LossPhase(0.3, 0.6, 0.5),),
)


class _StallingLoop(asyncio.SelectorEventLoop):
    """Event loop whose clock can jump forward, as after a host stall."""

    def __init__(self) -> None:
        super().__init__()
        self.skew = 0.0

    def time(self) -> float:
        return super().time() + self.skew


async def _serve_ok(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Answer every request 200 ``served`` so only injected loss causes retries."""
    head = await reader.readuntil(b"\r\n\r\n")
    for line in head.decode("latin-1").split("\r\n"):
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            await reader.readexactly(int(value))
    body = json.dumps({"outcome": "served"}).encode()
    writer.write(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n".encode()
        + body
    )
    await writer.drain()
    writer.close()


def _run(stall: float) -> LoadGenReport:
    loop = _StallingLoop()

    def jump() -> None:
        loop.skew += stall

    async def scenario() -> LoadGenReport:
        server = await asyncio.start_server(_serve_ok, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        if stall:
            loop.call_later(0.1, jump)
        try:
            return await run_loadgen("127.0.0.1", port, CONFIG)
        finally:
            server.close()
            await server.wait_closed()

    try:
        return loop.run_until_complete(scenario())
    finally:
        loop.close()


def test_host_stall_loses_the_same_attempts() -> None:
    steady = _run(stall=0.0)
    stalled = _run(stall=1.0)  # jumps the clock from ~0.1 s past the 0.3-0.6 s window

    assert steady.uplink_lost > 0, "the loss phase must fire"
    for report in (steady, stalled):
        assert report.outcomes["served"] + report.gave_up == report.planned
        assert report.transport_errors == 0
    assert (stalled.uplink_lost, stalled.retries, stalled.gave_up, stalled.attempts) == (
        steady.uplink_lost,
        steady.retries,
        steady.gave_up,
        steady.attempts,
    )
