"""The hybrid broadcast server process (Figure 1 of the paper).

The server loops forever:

1. broadcast the next push item chosen by the push scheduler (taking the
   item's length in broadcast units), satisfying every client that was
   already waiting for it when the transmission began;
2. if the pull queue is non-empty, extract the entry with maximum
   importance factor, sample its Poisson bandwidth demand, charge it to
   the service class of its most important requester, and either

   * transmit it (serving all pending requests and then releasing the
     bandwidth), or
   * drop the entry — and all its pending requests — if the class's
     bandwidth reservation cannot cover the demand (blocking).

Two pull service modes are supported:

* ``"serial"`` — the server alternates push and pull transmissions on one
  channel, exactly matching the §4 queueing analysis (the birth-death
  chain alternating μ₁/μ₂ service).
* ``"concurrent"`` — pull transmissions are spawned as parallel downlink
  streams that hold their bandwidth for the duration of the transfer
  while the broadcast cycle continues.  This realises the reading of §3
  in which bandwidth is a finite resource that *accumulates* across
  overlapping transfers, making blocking dependent on load rather than
  only on the demand distribution's tail.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Literal

from ..core.config import HybridConfig
from ..des import Environment, RandomStreams
from ..obs.events import (
    CutoffChanged,
    GammaSnapshot,
    PullDropped,
    PullServed,
    PushBroadcast,
    QueueSampled,
    RequestArrived,
    RequestBlocked,
    RequestReneged,
    RequestSatisfied,
    RequestShed,
)
from ..schedulers.base import PendingEntry, PullQueue, PullScheduler, PushScheduler
from ..workload.arrivals import Request
from ..workload.items import ItemCatalog
from .bandwidth_pool import BandwidthPool
from .faults import select_shed_victim
from .metrics import MetricsCollector
from .overload import OverloadController

__all__ = ["HybridServer", "PullMode"]

PullMode = Literal["serial", "concurrent"]


class HybridServer:
    """Server-side state machine of the hybrid scheduling algorithm.

    Parameters
    ----------
    env:
        Simulation environment.
    catalog:
        Item database.
    config:
        System configuration (cutoff, bandwidth, demand law...).
    push_scheduler, pull_scheduler:
        Policy objects.
    pool:
        Per-class bandwidth pools.
    metrics:
        Metrics sink.
    streams:
        Named random streams ("bandwidth" is drawn here).
    pull_mode:
        ``"serial"`` (analysis-faithful, default) or ``"concurrent"``.
    faults:
        Optional :class:`~repro.sim.faults.FaultInjector` corrupting push
        slots and pull transmissions.  Degradation policy (queue capacity,
        shedding, deadlines) is read from ``config.faults`` regardless.
    tracer:
        Optional :class:`~repro.obs.TraceRecorder`.  When ``None`` (the
        default) no event objects are built and the fast path is
        untouched; when installed, every scheduling decision is emitted
        as a typed trace event.  Tracing never consumes randomness, so
        results are bit-identical either way.
    profiler:
        Optional :class:`~repro.obs.PhaseProfiler` timing the
        scheduler-decision hot spots (``push.select``, ``pull.select``).
    """

    # Engine-parity contract (reprolint RL016): the control surface every
    # interchangeable engine must expose identically.  The checker diffs
    # these declarations project-wide — add a hook here and lint fails
    # until the fast-path and population engines ship it too.
    __parity_group__ = "hybrid-engine"
    __parity_surface__ = (
        "submit",
        "renege",
        "reconfigure_cutoff",
        "reconfigure_alpha",
        "reconfigure_bandwidth",
        "pending_push_requests",
        "pending_pull_requests",
        "in_flight_pull_requests",
    )

    def __init__(
        self,
        env: Environment,
        catalog: ItemCatalog,
        config: HybridConfig,
        push_scheduler: PushScheduler,
        pull_scheduler: PullScheduler,
        pool: BandwidthPool,
        metrics: MetricsCollector,
        streams: RandomStreams,
        pull_mode: PullMode = "serial",
        faults=None,
        tracer=None,
        profiler=None,
    ) -> None:
        if pull_mode not in ("serial", "concurrent"):
            raise ValueError(f"unknown pull mode {pull_mode!r}")
        if pull_mode == "concurrent" and config.cutoff == 0:
            raise ValueError(
                "concurrent pull mode needs a non-empty push set to pace the "
                "service loop; use serial mode for pure-pull systems"
            )
        self.env = env
        self.catalog = catalog
        self.config = config
        self.push_scheduler = push_scheduler
        self.pull_scheduler = pull_scheduler
        self.pool = pool
        self.metrics = metrics
        self.streams = streams
        self.pull_mode: PullMode = pull_mode

        self.faults = faults
        self.tracer = tracer
        self.profiler = profiler
        self._fault_cfg = config.faults
        #: Current cut-off point; mutable to support the §3 periodic
        #: re-optimisation (see :meth:`reconfigure_cutoff`).
        self.cutoff = config.cutoff
        #: Class-aware admission controller; ``None`` (inert default
        #: config) keeps the exact pre-overload admission path.
        self.overload: OverloadController | None = None
        if config.overload.active:
            self.overload = OverloadController(
                config.overload,
                capacity=config.faults.queue_capacity,
                num_classes=len(config.class_specs),
            )
        self.pull_queue = PullQueue(catalog)
        if pull_scheduler.incremental:
            # Mutation-invariant scores: serve selections from the queue's
            # lazy max-heap instead of rescanning every entry.
            self.pull_queue.attach_scorer(pull_scheduler)
        #: Requests waiting for a push item's next broadcast, per item.
        self._push_waiters: dict[int, list[Request]] = defaultdict(list)
        #: Callbacks invoked with every submitted request (demand
        #: estimators, adaptive controllers, loggers).
        self.observers: list = []
        self._in_flight_requests = 0
        #: Pull-transmission accounting audited by the conservation
        #: watchdog's no-preemption check.
        self.pull_tx_started = 0
        self.pull_tx_completed = 0
        self.pull_tx_corrupted = 0
        self.active_pull_transmissions = 0
        self._wakeup = env.event()
        self._process = env.process(self._run())

    # -- client-facing interface -----------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept one client request (uplink message).

        Push-item requests park until the item's broadcast; pull-item
        requests join the pull queue (folding into an existing entry for
        the same item if present).  A bounded pull queue at capacity
        sheds an entry per the configured class-aware policy.
        """
        self.metrics.record_arrival(request)
        if self.tracer is not None:
            self.tracer.emit(
                RequestArrived(
                    time=self.env.now,
                    req=self.tracer.rid(request),
                    item_id=request.item_id,
                    client_id=request.client_id,
                    class_rank=request.class_rank,
                    priority=request.priority,
                    gen_time=request.time,
                )
            )
        for observer in self.observers:
            observer(request)
        if request.item_id < self.cutoff:
            self._push_waiters[request.item_id].append(request)
        else:
            self._admit_pull(request)

    def renege(self, request: Request) -> bool:
        """Withdraw an unserved request whose client gave up (deadline).

        Returns ``True`` and records the abandonment if the request was
        still parked for a push broadcast or waiting in the pull queue;
        ``False`` if it is no longer pending (served, in flight on a
        transmission, blocked or shed) — too late to renege.
        """
        if request.item_id < self.cutoff:
            waiters = self._push_waiters.get(request.item_id)
            if waiters:
                for index, waiting in enumerate(waiters):
                    if waiting is request:
                        del waiters[index]
                        if not waiters:
                            del self._push_waiters[request.item_id]
                        self.metrics.record_reneged(request)
                        if self.tracer is not None:
                            self._emit_lifecycle(RequestReneged, request)
                        return True
            return False
        if self.pull_queue.remove_request(request):
            self.metrics.record_queue_length(self.env.now, len(self.pull_queue))
            self.metrics.record_reneged(request)
            if self.tracer is not None:
                self._emit_lifecycle(RequestReneged, request)
                self._emit_queue_length()
            return True
        return False

    # -- trace emission helpers ------------------------------------------------
    def _emit_lifecycle(self, event_cls, request: Request) -> None:
        """Emit one request life-cycle event (tracer must be installed)."""
        self.tracer.emit(
            event_cls(
                time=self.env.now,
                req=self.tracer.rid(request),
                item_id=request.item_id,
                class_rank=request.class_rank,
            )
        )

    def _emit_queue_length(self) -> None:
        """Emit the current pull-queue length (tracer must be installed)."""
        self.tracer.emit(QueueSampled(time=self.env.now, length=len(self.pull_queue)))

    def _admit_pull(self, request: Request) -> None:
        """Insert one request into the (possibly bounded) pull queue.

        When the queue is at capacity and the request would open a new
        entry, the configured shedding policy sacrifices either a queued
        entry (all its pending requests are shed) or the incoming request.

        An armed overload controller is consulted first: above its
        class-specific occupancy limit a new entry is refused outright
        (lowest classes first), before the queue ever reaches capacity.
        Requests folding into an existing entry bypass the controller —
        they consume no queue slot.
        """
        capacity = self._fault_cfg.queue_capacity
        if (
            self.overload is not None
            and self.pull_queue.peek(request.item_id) is None
            and not self.overload.admits(request.class_rank, len(self.pull_queue))
        ):
            self.metrics.record_overload_rejected(request)
            if self.tracer is not None:
                self._emit_lifecycle(RequestShed, request)
            return
        if (
            capacity is not None
            and self.pull_queue.peek(request.item_id) is None
            and len(self.pull_queue) >= capacity
        ):
            candidate = self.pull_queue.make_entry(request)
            victim = select_shed_victim(
                self._fault_cfg.shedding_policy,
                self.pull_queue,
                candidate,
                self.pull_scheduler,
                self.env.now,
            )
            if victim is None:
                self.metrics.record_shed(request)
                if self.tracer is not None:
                    self._emit_lifecycle(RequestShed, request)
                return
            evicted = self.pull_queue.pop(victim)
            for shed in evicted.requests:
                self.metrics.record_shed(shed)
                if self.tracer is not None:
                    self._emit_lifecycle(RequestShed, shed)
        self.pull_queue.add(request)
        self.metrics.record_queue_length(self.env.now, len(self.pull_queue))
        if self.tracer is not None:
            self._emit_queue_length()
        self._wake()

    # -- server process ------------------------------------------------------------
    def _wake(self) -> None:
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _run(self):
        """Main loop per Figure 1: push one item, then serve one pull entry."""
        while True:
            pushed = yield from self._broadcast_next_push()
            served = yield from self._serve_next_pull()
            if not pushed and not served:
                # Pure-pull system with an empty queue: sleep until the
                # next request arrives.
                self._wakeup = self.env.event()
                if self.pull_queue:
                    continue
                yield self._wakeup

    def _broadcast_next_push(self):
        """Broadcast one push slot; returns True if a slot was transmitted."""
        if self.profiler is not None:
            with self.profiler.phase("push.select"):
                item_id = self.push_scheduler.next_item()
        else:
            item_id = self.push_scheduler.next_item()
        if item_id is None:
            return False
        started = self.env.now
        length = self.catalog[item_id].length
        yield self.env.timeout(length)
        if self.faults is not None and self.faults.downlink_lost():
            # Corrupted slot: the air time is spent but no waiter decodes
            # the item; they stay parked for the next cycle occurrence.
            self.metrics.record_corrupted_push()
            if self.tracer is not None:
                self.tracer.emit(
                    PushBroadcast(
                        time=started,
                        end=self.env.now,
                        item_id=item_id,
                        satisfied=(),
                        corrupted=True,
                    )
                )
            return True
        self.metrics.record_push_broadcast()
        # Only clients already waiting when the broadcast began can decode
        # the item (they need its first byte); later arrivals wait for the
        # next occurrence in the cycle.
        satisfied: list[Request] = []
        waiters = self._push_waiters.get(item_id)
        if waiters:
            still_waiting: list[Request] = []
            for request in waiters:
                if request.time <= started:
                    satisfied.append(request)
                else:
                    still_waiting.append(request)
            if still_waiting:
                self._push_waiters[item_id] = still_waiting
            else:
                del self._push_waiters[item_id]
            if satisfied:
                self.metrics.record_satisfied_many(satisfied, self.env.now, via_push=True)
        if self.tracer is not None:
            rids = tuple(self.tracer.rid(request) for request in satisfied)
            self.tracer.emit(
                PushBroadcast(
                    time=started,
                    end=self.env.now,
                    item_id=item_id,
                    satisfied=rids,
                    corrupted=False,
                )
            )
            for request in satisfied:
                self.tracer.emit(
                    RequestSatisfied(
                        time=self.env.now,
                        req=self.tracer.rid(request),
                        item_id=request.item_id,
                        class_rank=request.class_rank,
                        via_push=True,
                        delay=self.env.now - request.time,
                    )
                )
        return True

    def _serve_next_pull(self):
        """Serve (or drop) the max-importance pull entry; True if one was taken."""
        if self.profiler is not None:
            with self.profiler.phase("pull.select"):
                entry = self.pull_scheduler.select(self.pull_queue, self.env.now)
        else:
            entry = self.pull_scheduler.select(self.pull_queue, self.env.now)
        if entry is None:
            return False
        if self.tracer is not None:
            # Score the whole queue *before* popping the winner, with the
            # same scheduler state the selection just used, so the trace
            # carries a provable max-γ/tie-break record.
            gamma = self.pull_scheduler.score(entry, self.env.now)
            self.tracer.note_gamma(entry, gamma)
            if self.tracer.gamma_snapshots:
                self.tracer.emit(
                    GammaSnapshot(
                        time=self.env.now,
                        served_item=entry.item_id,
                        scores=tuple(
                            (e.item_id, self.pull_scheduler.score(e, self.env.now))
                            for e in self.pull_queue
                        ),
                    )
                )
        self.pull_queue.pop(entry.item_id)
        self.metrics.record_queue_length(self.env.now, len(self.pull_queue))
        if self.tracer is not None:
            self._emit_queue_length()

        demand = float(self.streams.poisson("bandwidth", self.config.bandwidth_demand_mean))
        rank = min(request.class_rank for request in entry.requests)
        if not self.pool.try_acquire(rank, demand):
            # Admission failed: the item and all its pending requests are lost.
            self.metrics.record_pull_drop()
            if self.tracer is not None:
                self.tracer.emit(
                    PullDropped(
                        time=self.env.now,
                        item_id=entry.item_id,
                        class_rank=rank,
                        demand=demand,
                        requests=tuple(
                            self.tracer.rid(request) for request in entry.requests
                        ),
                    )
                )
            for request in entry.requests:
                self.metrics.record_blocked(request)
                if self.tracer is not None:
                    self._emit_lifecycle(RequestBlocked, request)
            return True

        self._in_flight_requests += entry.num_requests
        if self.pull_mode == "serial":
            yield from self._transmit_pull(entry, rank, demand)
        else:
            self.env.process(self._transmit_pull(entry, rank, demand))
        return True

    def _transmit_pull(self, entry: PendingEntry, rank: int, demand: float):
        """Transmit one pull item, satisfy its requesters, free bandwidth.

        Under a lossy downlink the whole transmission may be corrupted:
        the air time and bandwidth are spent, nobody is satisfied, and the
        pending requests re-enter the pull queue (server-side ARQ) unless
        their clients' deadlines have meanwhile expired.
        """
        self.pull_tx_started += 1
        self.active_pull_transmissions += 1
        started = self.env.now
        yield self.env.timeout(entry.length)
        self._in_flight_requests -= entry.num_requests
        if self.faults is not None and self.faults.downlink_lost():
            self.pull_tx_corrupted += 1
            self.active_pull_transmissions -= 1
            self.pool.release(rank, demand)
            self.metrics.record_corrupted_pull()
            if self.tracer is not None:
                self.tracer.emit(
                    PullServed(
                        time=started,
                        end=self.env.now,
                        item_id=entry.item_id,
                        gamma=self.tracer.take_gamma(entry),
                        class_rank=rank,
                        demand=demand,
                        requests=tuple(
                            self.tracer.rid(request) for request in entry.requests
                        ),
                        corrupted=True,
                    )
                )
            for request in entry.requests:
                if self.env.now >= request.time + self._fault_cfg.deadline_for(
                    request.class_rank
                ):
                    # The client reneged while the transmission was on air.
                    self.metrics.record_reneged(request)
                    if self.tracer is not None:
                        self._emit_lifecycle(RequestReneged, request)
                else:
                    self._admit_pull(request)
            return
        if self.tracer is not None:
            self.tracer.emit(
                PullServed(
                    time=started,
                    end=self.env.now,
                    item_id=entry.item_id,
                    gamma=self.tracer.take_gamma(entry),
                    class_rank=rank,
                    demand=demand,
                    requests=tuple(
                        self.tracer.rid(request) for request in entry.requests
                    ),
                    corrupted=False,
                )
            )
        self.metrics.record_satisfied_many(entry.requests, self.env.now, via_push=False)
        if self.tracer is not None:
            for request in entry.requests:
                self.tracer.emit(
                    RequestSatisfied(
                        time=self.env.now,
                        req=self.tracer.rid(request),
                        item_id=request.item_id,
                        class_rank=request.class_rank,
                        via_push=False,
                        delay=self.env.now - request.time,
                    )
                )
        self.pull_scheduler.observe_service(entry, self.env.now)
        self.pool.release(rank, demand)
        self.metrics.record_pull_service()
        self.pull_tx_completed += 1
        self.active_pull_transmissions -= 1

    # -- reconfiguration ---------------------------------------------------------
    def reconfigure_cutoff(self, new_cutoff: int, push_scheduler: PushScheduler) -> None:
        """Switch to a new cut-off point at runtime (§3 re-optimisation).

        Pending work migrates with the split:

        * pull-queue entries whose item is now pushed dissolve into
          push waiters (the broadcast cycle will satisfy them);
        * push waiters whose item is now pulled are re-submitted into the
          pull queue, keeping their original arrival times.

        ``push_scheduler`` must already be built for ``new_cutoff``.
        """
        if not 0 <= new_cutoff <= len(self.catalog):
            raise ValueError(f"cutoff {new_cutoff} outside [0, {len(self.catalog)}]")
        if new_cutoff == 0 and self.pull_mode == "concurrent":
            raise ValueError("concurrent pull mode needs a non-empty push set")
        if push_scheduler.cutoff != new_cutoff:
            raise ValueError(
                f"push scheduler built for cutoff {push_scheduler.cutoff}, "
                f"expected {new_cutoff}"
            )
        if self.tracer is not None:
            self.tracer.emit(
                CutoffChanged(
                    time=self.env.now, old_cutoff=self.cutoff, new_cutoff=new_cutoff
                )
            )
        self.cutoff = new_cutoff
        self.push_scheduler = push_scheduler

        # Pull entries for items that moved into the push set.
        for item_id in [e.item_id for e in self.pull_queue if e.item_id < new_cutoff]:
            entry = self.pull_queue.pop(item_id)
            self._push_waiters[item_id].extend(entry.requests)
        # Push waiters for items that moved into the pull set (through the
        # bounded admission path, so a capacity limit still holds).
        for item_id in [i for i in self._push_waiters if i >= new_cutoff]:
            for request in self._push_waiters.pop(item_id):
                self._admit_pull(request)
        self.metrics.record_queue_length(self.env.now, len(self.pull_queue))
        if self.tracer is not None:
            self._emit_queue_length()
        if self.pull_queue:
            self._wake()

    def reconfigure_alpha(self, new_alpha: float) -> None:
        """Retune the Eq. 1 importance weight α at runtime (control plane).

        Only pull schedulers exposing a ``set_alpha`` knob support this
        (the importance-factor family).  When the queue keeps a heap
        index over the scheduler's scores, the index is rebuilt so no
        record priced under the old α survives — selections after this
        call are exactly what a fresh scheduler would pick.
        """
        setter = getattr(self.pull_scheduler, "set_alpha", None)
        if setter is None:
            raise ValueError(
                f"pull scheduler {self.pull_scheduler.name!r} has no alpha knob"
            )
        setter(new_alpha)
        if self.pull_queue.indexed_for(self.pull_scheduler):
            self.pull_queue.attach_scorer(self.pull_scheduler)

    def reconfigure_bandwidth(self, capacities: list[float]) -> None:
        """Install new per-class bandwidth reservations (control plane).

        Delegates to :meth:`~repro.sim.bandwidth_pool.BandwidthPool.reconfigure`:
        in-flight transmissions keep their held bandwidth, so the change
        is atomic with respect to conservation and non-preemption.
        """
        self.pool.reconfigure(capacities)

    # -- diagnostics -----------------------------------------------------------------
    @property
    def pending_push_requests(self) -> int:
        """Requests currently parked waiting for a push broadcast."""
        return sum(len(waiters) for waiters in self._push_waiters.values())

    @property
    def pending_pull_requests(self) -> int:
        """Requests currently queued in the pull system."""
        return self.pull_queue.total_requests

    @property
    def in_flight_pull_requests(self) -> int:
        """Requests riding on pull transmissions currently on air."""
        return self._in_flight_requests
