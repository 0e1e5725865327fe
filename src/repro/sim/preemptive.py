"""Preemptive pull service — simulating the road §4.2.1 declined.

The paper's discipline is explicitly *non-preemptive*: once a pull
transmission starts, later arrivals wait even if their importance factor
is higher.  :class:`PreemptiveHybridServer` implements the alternative:
when a request arrives whose queue entry's importance factor exceeds the
in-flight transmission's by more than ``preemption_threshold``, the
transmission is interrupted, the interrupted item returns to the pull
queue with its *remaining length* (preemptive-resume — clients keep the
bytes already received), and the loop reconsiders.

Together with :mod:`repro.analysis.preemptive` this quantifies the
design choice: preemption shaves premium delay further but pays a
switching and fairness price on the basic classes.
"""

from __future__ import annotations

from typing import Optional

from ..des import Interrupt
from ..schedulers.base import PendingEntry
from .server import HybridServer

__all__ = ["PreemptiveHybridServer"]


class PreemptiveHybridServer(HybridServer):
    """Hybrid server whose pull transmissions can be preempted.

    Parameters
    ----------
    preemption_threshold:
        Minimum importance-factor advantage (relative, e.g. ``0.2`` = 20 %)
        a newly scored entry needs over the in-flight transmission to
        trigger preemption.  ``0`` preempts on any strict improvement.
    (remaining parameters as :class:`HybridServer`; serial mode only)
    """

    def __init__(self, *args, preemption_threshold: float = 0.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.pull_mode != "serial":
            raise ValueError("preemptive service is defined for serial mode only")
        if preemption_threshold < 0:
            raise ValueError(
                f"preemption_threshold must be >= 0, got {preemption_threshold}"
            )
        self.preemption_threshold = float(preemption_threshold)
        #: Entry currently in (preemptible) pull transmission.
        self._in_service: Optional[PendingEntry] = None
        self._in_service_started: float = 0.0
        self.preemptions = 0

    # -- preemption trigger -----------------------------------------------------
    def submit(self, request) -> None:  # type: ignore[override]
        super().submit(request)
        self._maybe_preempt(request)

    def _maybe_preempt(self, request) -> None:
        if self._in_service is None or request.item_id < self.cutoff:
            return
        entry = self.pull_queue.peek(request.item_id)
        if entry is None:
            return
        current_score = self.pull_scheduler.score(self._in_service, self.env.now)
        challenger = self.pull_scheduler.score(entry, self.env.now)
        if challenger > current_score * (1.0 + self.preemption_threshold):
            process = self.env.active_process
            # The server process is parked on the transmission timeout;
            # interrupt it (never self-interrupt: submissions come from
            # driver processes, not the server).
            if process is not self._process:
                self.preemptions += 1
                self._process.interrupt(cause="preempt")

    # -- preemptible transmission -------------------------------------------------
    def _transmit_pull(self, entry: PendingEntry, rank: int, demand: float):
        """Transmit with preemptive-resume semantics."""
        self._in_service = entry
        self._in_service_started = self.env.now
        try:
            yield self.env.timeout(entry.length)
        except Interrupt:
            # Preempted: return the entry to the queue with the length it
            # still needs (resume), release the bandwidth, do not satisfy.
            transmitted = self.env.now - self._in_service_started
            entry.length = max(entry.length - transmitted, 1e-9)
            self._requeue(entry)
            self._in_flight_requests -= entry.num_requests
            self.pool.release(rank, demand)
            self._in_service = None
            return
        self._in_service = None
        self._in_flight_requests -= entry.num_requests
        self.metrics.record_satisfied_many(entry.requests, self.env.now, via_push=False)
        self.pull_scheduler.observe_service(entry, self.env.now)
        self.pool.release(rank, demand)
        self.metrics.record_pull_service()

    def _requeue(self, entry: PendingEntry) -> None:
        """Put a preempted entry back, folding into any newer entry."""
        self.pull_queue.reinsert(entry)
        self.metrics.record_queue_length(self.env.now, len(self.pull_queue))
