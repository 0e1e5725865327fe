"""Seeded load generator: replay the paper's workload against the service.

The request *plan* is produced by the exact same
:class:`~repro.workload.arrivals.ArrivalProcess` the offline DES uses —
same Zipf item draw, same uniform client draw, same Poisson epochs —
from a ``SeedSequence``-derived generator, so the per-(item, class)
request histogram of a load-gen run is bit-identical to the offline
workload trace for the same seed (the replay golden test pins this).

Virtual arrival epochs are mapped to wall-clock send times by the rate
schedule: the base ``rate`` compresses/stretches the Poisson gaps, and
:class:`~repro.service.config.SurgePhase` windows compress them further
(a flash crowd is the same request sequence arriving faster, not a
different sequence).  :class:`~repro.service.config.LossPhase` windows
inject client-side uplink loss: an attempt in a lossy window is dropped
before it reaches the wire and retried like any transport failure.  An
attempt's window is looked up at its scheduled time (send offset plus
scheduled backoff sleeps), never the wall clock, and its loss draw is
fixed per (plan entry, attempt), so which attempts are lost is a
function of the seed alone.

Retries use capped full-jitter exponential backoff — sleep drawn
uniformly from ``[0, min(cap, base·2^attempt)]`` with one draw per
(plan entry, attempt) from a dedicated ``SeedSequence``-spawned
generator (RL003: no unseeded randomness) — and honour the server's
Retry-After hint as a floor.
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.config import HybridConfig
from ..workload.arrivals import ArrivalProcess, Request
from .config import LoadGenConfig

__all__ = [
    "build_plan",
    "plan_histogram",
    "schedule_wall_times",
    "run_loadgen",
    "LoadGenReport",
]

#: Outcomes the client will not retry (the request reached a verdict).
_TERMINAL_STATUSES = frozenset({200, 400, 404, 405, 500, 502, 504})
#: Outcomes worth another attempt (backpressure, brownout, drain).
_RETRYABLE_STATUSES = frozenset({429, 503})


def build_plan(hybrid: HybridConfig, config: LoadGenConfig) -> list[Request]:
    """The full request sequence for one run (deterministic in ``seed``).

    Stream 0 of ``SeedSequence(seed)`` feeds the arrival process; the
    virtual horizon is sized so the base ``rate`` over ``duration``
    yields the expected request count.
    """
    arrival_seq, _loss_seq, _jitter_seq = np.random.SeedSequence(config.seed).spawn(3)
    process = ArrivalProcess(
        catalog=hybrid.build_catalog(),
        population=hybrid.build_population(),
        rate=hybrid.arrival_rate,
        rng=np.random.default_rng(arrival_seq),
    )
    horizon = config.duration * config.rate / hybrid.arrival_rate
    return process.generate(horizon)


def plan_histogram(plan: list[Request]) -> dict[tuple[int, int], int]:
    """Request counts keyed by ``(item_id, class_rank)``."""
    counts: Counter[tuple[int, int]] = Counter()
    for request in plan:
        counts[(request.item_id, request.class_rank)] += 1
    return dict(counts)


def schedule_wall_times(
    plan: list[Request], virtual_rate: float, config: LoadGenConfig
) -> list[float]:
    """Wall-clock send offset (seconds from start) for each plan entry.

    Walks the virtual Poisson gaps and divides each by the instantaneous
    rate multiple ``rate_at(t) / virtual_rate`` — so surges compress the
    same sequence in time rather than adding requests.
    """
    offsets: list[float] = []
    wall = 0.0
    previous_virtual = 0.0
    for request in plan:
        gap_virtual = request.time - previous_virtual
        previous_virtual = request.time
        wall += gap_virtual * virtual_rate / config.rate_at(wall)
        offsets.append(wall)
    return offsets


@dataclass
class LoadGenReport:
    """What one load-gen run did and what came back."""

    planned: int = 0
    attempts: int = 0
    retries: int = 0
    uplink_lost: int = 0
    transport_errors: int = 0
    gave_up: int = 0
    outcomes: Counter = field(default_factory=Counter)
    outcomes_by_rank: dict[int, Counter] = field(default_factory=dict)
    #: End-to-end seconds from first attempt to a served verdict.
    latencies: list[float] = field(default_factory=list)
    #: Per-(item, class) counts of the plan, for the replay golden test.
    histogram: dict[tuple[int, int], int] = field(default_factory=dict)

    def record(self, outcome: str, class_rank: int) -> None:
        self.outcomes[outcome] += 1
        self.outcomes_by_rank.setdefault(class_rank, Counter())[outcome] += 1

    def to_dict(self) -> dict[str, object]:
        latency: dict[str, float] = {}
        if self.latencies:
            array = np.asarray(self.latencies)
            latency = {
                "mean": float(array.mean()),
                "p50": float(np.percentile(array, 50)),
                "p95": float(np.percentile(array, 95)),
                "max": float(array.max()),
            }
        return {
            "planned": self.planned,
            "attempts": self.attempts,
            "retries": self.retries,
            "uplink_lost": self.uplink_lost,
            "transport_errors": self.transport_errors,
            "gave_up": self.gave_up,
            "outcomes": dict(self.outcomes),
            "outcomes_by_rank": {
                rank: dict(counts)
                for rank, counts in sorted(self.outcomes_by_rank.items())
            },
            "served_latency": latency,
        }


async def _post(
    host: str, port: int, path: str, payload: dict, timeout: float
) -> tuple[int, dict[str, str], dict]:
    """One HTTP POST on a fresh connection; returns (status, headers, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json.dumps(payload).encode()
        writer.write(
            (
                f"POST {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await asyncio.wait_for(reader.readexactly(length), timeout) if length else b""
        return status, headers, json.loads(raw) if raw else {}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _Session:
    """Shared state of one load-gen run (workers mutate the report)."""

    def __init__(
        self,
        host: str,
        port: int,
        config: LoadGenConfig,
        report: LoadGenReport,
        planned: int,
    ) -> None:
        self.host = host
        self.port = port
        self.config = config
        self.report = report
        _arrival, loss_seq, jitter_seq = np.random.SeedSequence(config.seed).spawn(3)
        # One uniform per (plan index, attempt), drawn up front: whether an
        # attempt is lost and how long its retry sleeps depend on the seed
        # alone, not on the order in which concurrent attempts happen to run.
        shape = (planned, config.max_retries + 1)
        self.loss_draws = np.random.default_rng(loss_seq).random(shape).tolist()
        self.jitter_draws = np.random.default_rng(jitter_seq).random(shape).tolist()
        self.semaphore = asyncio.Semaphore(config.concurrency)
        self.started = asyncio.get_running_loop().time()

    def elapsed(self) -> float:
        return asyncio.get_running_loop().time() - self.started

    def backoff(self, index: int, attempt: int, hint: Optional[float]) -> float:
        """Full-jitter sleep for retry ``attempt`` of plan entry ``index``.

        Floored by the server's Retry-After ``hint``, if any.
        """
        cap = self.config.backoff_cap
        window = min(cap, self.config.backoff_base * (2.0**attempt))
        sleep = window * self.jitter_draws[index][attempt]
        if hint is not None:
            sleep = max(sleep, min(hint, cap))
        return sleep

    async def fire(self, index: int, request: Request, offset: float) -> None:
        """Drive plan entry ``index`` to a verdict (retries included).

        Loss phases are looked up at the attempt's *scheduled* time — the
        entry's send ``offset`` plus the backoff sleeps scheduled before
        it — never at the wall clock, so a host stall cannot move an
        attempt out of (or into) a loss window.
        """
        report = self.report
        losses = self.loss_draws[index]
        scheduled = offset
        first_attempt = self.elapsed()
        async with self.semaphore:
            for attempt in range(self.config.max_retries + 1):
                hint: Optional[float] = None
                report.attempts += 1
                if losses[attempt] < self.config.loss_at(scheduled):
                    report.uplink_lost += 1
                else:
                    try:
                        status, headers, body = await _post(
                            self.host,
                            self.port,
                            "/request",
                            {
                                "item_id": request.item_id,
                                "class_rank": request.class_rank,
                                "client_id": request.client_id,
                                "priority": request.priority,
                            },
                            timeout=max(10.0, self.config.backoff_cap * 4),
                        )
                    except (ConnectionError, OSError, asyncio.TimeoutError):
                        report.transport_errors += 1
                    else:
                        if status in _TERMINAL_STATUSES:
                            outcome = str(body.get("outcome", f"http_{status}"))
                            report.record(outcome, request.class_rank)
                            if status == 200:
                                report.latencies.append(self.elapsed() - first_attempt)
                            return
                        if status in _RETRYABLE_STATUSES:
                            report.record(
                                f"retryable_{body.get('outcome', status)}",
                                request.class_rank,
                            )
                            retry_after = headers.get("retry-after")
                            if retry_after is not None:
                                hint = float(retry_after)
                        else:
                            report.record(f"http_{status}", request.class_rank)
                            return
                if attempt == self.config.max_retries:
                    report.gave_up += 1
                    report.record("gave_up", request.class_rank)
                    return
                report.retries += 1
                sleep = self.backoff(index, attempt, hint)
                scheduled += sleep
                await asyncio.sleep(sleep)


async def run_loadgen(
    host: str,
    port: int,
    config: LoadGenConfig,
    hybrid: Optional[HybridConfig] = None,
) -> LoadGenReport:
    """Replay one seeded plan against a running service; returns the report."""
    hybrid = hybrid if hybrid is not None else HybridConfig()
    plan = build_plan(hybrid, config)
    offsets = schedule_wall_times(plan, hybrid.arrival_rate, config)
    report = LoadGenReport(planned=len(plan), histogram=plan_histogram(plan))
    session = _Session(host, port, config, report, len(plan))
    tasks: list[asyncio.Task] = []
    for index, (request, offset) in enumerate(zip(plan, offsets)):
        delay = offset - session.elapsed()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(session.fire(index, request, offset)))
    if tasks:
        await asyncio.gather(*tasks)
    return report
