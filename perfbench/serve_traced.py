"""``repro serve`` with layer spans: the traced run of the service workload.

Installs timing wrappers around the service's public functions, then
hands its arguments to ``repro.service.cli.serve_main`` unchanged::

    python3 perfbench/serve_traced.py --port 0 --items 50 ...

After the server drains it prints one JSON line ``{"layers": ...}`` with
its span totals, and writes its spans (name, start, end, request id)
to ``.perfbench/``.
"""

from __future__ import annotations

from time import perf_counter_ns

_STARTED = perf_counter_ns()

import asyncio  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from common import OUT_DIR, emit, median, use_sources  # noqa: E402


class ServiceSpans:
    """Flat spans of the asyncio server (requests interleave, so no stack)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.totals: dict[str, list[int]] = {}
        self.submit_ns: list[int] = []
        self.queue_len_sum = 0
        self.blocked = 0
        self.rejected = 0
        self.head_ready_ns = 0
        self.service = None
        self.import_ns = 0
        self.build_ns = 0

    def add(self, name: str, start: int, end: int, request: int = -1, keep: bool = False) -> None:
        total = self.totals.setdefault(name, [0, 0])
        total[0] += 1
        total[1] += end - start
        if keep:
            self.spans.append((name, start, end, request))

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, start, perf_counter_ns())

        return traced

    def install(self) -> None:
        from repro.schedulers import make_pull_scheduler
        from repro.service import app, core, http
        from repro.sim.bandwidth_pool import BandwidthPool

        spans = self
        read_request = app.read_request
        readuntil = asyncio.StreamReader.readuntil

        async def traced_readuntil(reader, separator=b"\n"):
            out = await readuntil(reader, separator)
            spans.head_ready_ns = perf_counter_ns()
            return out

        async def traced_read_request(reader):
            start = perf_counter_ns()
            request = await read_request(reader)
            end = perf_counter_ns()
            if request is not None:
                # HTTP time starts when the request head has arrived, not
                # while the keep-alive connection waits for the client.
                spans.add("service.http", max(start, spans.head_ready_ns), end)
            return request

        submit = core.SchedulerCore.submit

        async def traced_submit(scheduler_core, *args, **kwargs):
            start = perf_counter_ns()
            outcome = await submit(scheduler_core, *args, **kwargs)
            end = perf_counter_ns()
            spans.add("service.submit", start, end, kwargs.get("client_id", -1), keep=True)
            spans.submit_ns.append(end - start)
            if outcome.http != 200:
                spans.rejected += 1
            return outcome

        policy = type(make_pull_scheduler("importance", alpha=0.5))
        select = self.timed("schedulers.select", policy.select)

        def traced_select(scheduler, queue, now):
            spans.queue_len_sum += len(queue)
            return select(scheduler, queue, now)

        acquire = self.timed("pool.acquire", BandwidthPool.try_acquire)

        def traced_acquire(pool, rank, demand):
            ok = acquire(pool, rank, demand)
            spans.blocked += not ok
            return ok

        start = app.BroadcastService.start

        async def traced_start(service):
            await start(service)
            spans.build_ns = perf_counter_ns() - _STARTED - spans.import_ns
            spans.service = service

        asyncio.StreamReader.readuntil = traced_readuntil
        app.read_request = traced_read_request
        core.SchedulerCore.submit = traced_submit
        http.HttpResponse.encode = self.timed("service.http", http.HttpResponse.encode)
        policy.select = traced_select
        policy.score = self.timed("schedulers.score", policy.score)
        BandwidthPool.try_acquire = traced_acquire
        app.BroadcastService.start = traced_start

    def layers(self) -> dict:
        from repro.obs.events import PullServed, PushBroadcast

        calls = {name: total[0] for name, total in self.totals.items()}
        busy = {name: total[1] for name, total in self.totals.items()}
        events, air = [], 0.0
        if self.service is not None:
            # Simulated air time: each transmission's length in broadcast
            # units times the wall seconds per unit.
            core = self.service.core
            events = core.tracer.trace().events
            air = core.config.time_scale * sum(
                core.catalog[e.item_id].length
                for e in events
                if isinstance(e, (PushBroadcast, PullServed))
            )
        submits = [s for s in self.spans if s[0] == "service.submit"]
        wall_s = (max(s[2] for s in submits) - min(s[1] for s in submits)) / 1e9 if submits else 0.0
        requests = calls.get("service.submit", 0)
        selects = calls.get("schedulers.select", 0)
        acquires = calls.get("pool.acquire", 0)
        return {
            "setup.import_s": self.import_ns / 1e9,
            "setup.build_s": self.build_ns / 1e9,
            "service.requests": requests,
            "service.http_us": busy.get("service.http", 0) / requests / 1e3 if requests else 0.0,
            "service.submit_ms_p50": median(self.submit_ns) / 1e6 if requests else 0.0,
            "service.select_us": busy.get("schedulers.select", 0) / selects / 1e3 if selects else 0.0,
            "service.queue_len_mean": self.queue_len_sum / selects if selects else 0.0,
            "service.air_share": air / wall_s if wall_s else 0.0,
            "service.rejected": self.rejected,
            "sim.push_broadcasts": sum(isinstance(e, PushBroadcast) for e in events),
            "sim.pull_services": sum(isinstance(e, PullServed) for e in events),
            "schedulers.selects": selects,
            "schedulers.select_ns": busy.get("schedulers.select", 0) / selects if selects else 0.0,
            "schedulers.score_calls": calls.get("schedulers.score", 0),
            "schedulers.queue_len_mean": self.queue_len_sum / selects if selects else 0.0,
            "pool.acquires": acquires,
            "pool.acquire_ns": busy.get("pool.acquire", 0) / acquires if acquires else 0.0,
            "pool.blocked_share": self.blocked / acquires if acquires else 0.0,
            # Server time covered by a layer span, summed per request; the
            # client turns it into the unattributed share of its latencies.
            "span_ns": busy.get("service.http", 0) + busy.get("service.submit", 0),
        }

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, request in self.spans:
                handle.write(
                    json.dumps({"name": name, "start_ns": start, "end_ns": end, "request": request})
                    + "\n"
                )


def main() -> int:
    use_sources()
    spans = ServiceSpans()
    from repro.service.cli import serve_main

    spans.import_ns = perf_counter_ns() - _STARTED
    spans.install()
    code = serve_main(sys.argv[1:])
    if code == 0 and spans.service is not None:
        OUT_DIR.mkdir(exist_ok=True)
        spans.write(OUT_DIR / "spans-service-closed-loop.jsonl")
        emit({"layers": spans.layers()})
    return code


if __name__ == "__main__":
    sys.exit(main())
