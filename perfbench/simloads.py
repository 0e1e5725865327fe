"""The three simulation workloads: unit plans, timed units, layer spans.

Every workload turns ``--seed`` into a fixed, seeded list of units and
runs that list to the end; ``--seconds`` only sizes the list (through a
per-workload units-per-second constant measured once on the reference
host), never a deadline, so every run of a workload does the same work.

The program is called only through the public functions of its
packages.  The traced run wraps those same functions (see
:class:`Layers`); nothing under ``src/`` is modified.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
from array import array
from functools import partial
from time import perf_counter

from common import reference_loop
from repro.des import Environment
from repro.des.fastengine import FastEnvironment
from repro.experiments import (
    QUICK,
    analytical_vs_simulation,
    ascii_plot,
    cost_vs_cutoff,
    delay_vs_alpha,
    delay_vs_cutoff,
    ladder_config,
    optimal_cost_vs_alpha,
    paper_config,
)
from repro.experiments import compare as compare_module
from repro.experiments import cost as cost_module
from repro.experiments import delay as delay_module
from repro.experiments.tables import FigureData
from repro.perf.benches import single_run_config
from repro.scale.folded import FoldedEntry
from repro.schedulers import make_pull_scheduler
from repro.sim import HybridSystem
from repro.sim.bandwidth_pool import BandwidthPool
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import run_replications, spawn_seeds
from repro.workload.arrivals import ArrivalProcess
from repro.workload.batched import BatchedArrivals
from repro.workload.population import PopulationArrivals

#: Experiment modules whose ``run_replications`` the paper figures call.
_FIGURE_MODULES = (delay_module, cost_module, compare_module)


def result_digest(result) -> str:
    """Exact digest of every simulated statistic of one replication."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    text = json.dumps(fields, sort_keys=True, default=vars)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class RawCounts:
    """Arrivals and outcomes of each finished run, read as its result is made.

    ``MetricsCollector.result`` is the one public call every engine makes
    exactly once per run, so hooking it gives the raw (warm-up included)
    counters without keeping any run object alive.
    """

    def __init__(self) -> None:
        #: (arrivals, satisfied, push broadcasts, pull services,
        #:  overall delay, mean queue length) of the last finished run.
        self.last: tuple = (0, 0, 0, 0, 0.0, 0.0)
        self._original = MetricsCollector.result
        counts = self

        def result(collector, horizon, seed):
            out = counts._original(collector, horizon, seed)
            counts.last = (
                collector.raw_arrivals,
                collector.raw_satisfied,
                out.push_broadcasts,
                out.pull_services,
                out.overall_delay,
                out.mean_queue_length,
            )
            return out

        MetricsCollector.result = result


class UnitLog:
    """Per-unit host times, simulated counts and result digests of one pass.

    ``refs`` holds the reference loop's time before the first unit and
    after each unit, so ``refs[i]`` and ``refs[i + 1]`` bracket unit ``i``.
    """

    def __init__(self) -> None:
        self.times = array("d")
        self.refs = array("d")
        self.arrivals = array("q")
        self.served = array("q")
        self.push_broadcasts = 0
        self.pull_services = 0
        self.delays = array("d")
        self.queue_lengths = array("d")
        self.digests: list[str] = []
        self.figures: list[dict] = []

    def add(self, counts: tuple, digest: str) -> None:
        self.arrivals.append(counts[0])
        self.served.append(counts[1])
        self.push_broadcasts += counts[2]
        self.pull_services += counts[3]
        self.delays.append(counts[4])
        self.queue_lengths.append(counts[5])
        self.digests.append(digest)

    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()[:16]


class UnitClock:
    """Cuts one pass into consecutive units and times each one.

    Each unit ends with a full garbage collection, timed as part of it:
    every unit pays for collecting its own cyclic garbage, and none pays
    for another's.  (Left to the collector's own schedule, one unit in
    about ten would carry a full collection for all of its neighbours,
    and the p90 would measure which units drew it.)  See also
    :func:`freeze_setup`.  The reference loop runs before the first unit
    and after each one, outside the units.  In the traced run each unit
    is also the root span of its layer spans.
    """

    def __init__(self, log: UnitLog, tracer=None) -> None:
        self.log = log
        self.tracer = tracer
        self._start = 0.0
        self._frame = None

    def open(self) -> None:
        if not self.log.refs:
            self.log.refs.append(reference_loop())
        if self.tracer is not None:
            self.tracer.unit_id = len(self.log.times)
            self._frame = self.tracer.enter("unit", True)
        self._start = perf_counter()

    def close(self) -> None:
        gc.collect()
        self.log.times.append(perf_counter() - self._start)
        if self.tracer is not None:
            self.tracer.leave(self._frame)
        self.log.refs.append(reference_loop())

    def cut(self) -> None:
        self.close()
        self.open()


def freeze_setup() -> None:
    """Exclude everything set-up created from later garbage collections.

    Called once, after set-up and before the first unit.  The imported
    modules are most of the heap; freezing them keeps each unit's closing
    collection proportional to the unit's own objects.
    """
    gc.collect()
    gc.freeze()


# -- paper-figures ------------------------------------------------------------------
#: The six figure experiments of ``repro all --quick``, in registry order:
#: (figure id, function returning a FigureData or (FigureData, deviation)).
FIGURE_JOBS = (
    *(("fig3", partial(delay_vs_cutoff, alpha=0.0, theta=t)) for t in (0.20, 0.60, 1.40)),
    *(("fig4", partial(delay_vs_cutoff, alpha=1.0, theta=t)) for t in (0.20, 0.60, 1.40)),
    ("alpha-sweep", partial(delay_vs_alpha, theta=0.60)),
    *(("fig5", partial(cost_vs_cutoff, alpha=a, theta=0.60)) for a in (0.25, 0.75)),
    ("fig6", optimal_cost_vs_alpha),
    ("fig7", analytical_vs_simulation),
)


class PaperFigures:
    """One pass over the six figures at QUICK scale; a unit is one replication.

    A unit runs from the start of one replication to the start of the
    next, so the figure code between replications (the analytic model of
    Fig. 7, curve bookkeeping) and the final rendering of each figure are
    inside some unit and the units add up to the whole pass.
    """

    name = "paper-figures"

    def __init__(self, seed: int, seconds: int) -> None:
        del seconds  # the pass is the unit list; its length is fixed
        self.seed = seed
        self.counts = RawCounts()
        HybridSystem(paper_config(), seed=seed, warmup=QUICK.warmup)

    def run(self, log: UnitLog, tracer=None) -> None:
        clock = UnitClock(log, tracer)
        counts = self.counts
        seed = self.seed
        started = [False]
        replications = run_replications
        render = FigureData.render
        plot = ascii_plot
        if tracer is not None:
            replications = tracer.wrap("experiments.replication", replications, record=True)
            render = tracer.wrap("experiments.render", render, record=True)
            plot = tracer.wrap("experiments.render", plot, record=True)

        def one_replication(config, **kwargs):
            if started[0]:
                clock.cut()
            started[0] = True
            kwargs["base_seed"] = seed
            out = replications(config, **kwargs)
            log.add(counts.last, result_digest(out.runs[0]))
            return out

        for module in _FIGURE_MODULES:
            module.run_replications = one_replication
        try:
            for figure_id, job in FIGURE_JOBS:
                started[0] = False
                clock.open()
                out = job(scale=QUICK)
                fig, deviation = out if isinstance(out, tuple) else (out, None)
                render(fig)
                plot(fig)
                clock.close()
                log.figures.append(
                    {
                        "id": figure_id,
                        "title": fig.title,
                        "series": {s.label: [list(s.x), list(s.y)] for s in fig.series},
                        "deviation": deviation,
                    }
                )
        finally:
            for module in _FIGURE_MODULES:
                module.run_replications = run_replications


# -- fixed-horizon engine runs ---------------------------------------------------------
class EngineRuns:
    """Independent fixed-horizon runs of one config; a unit is one run."""

    name = ""
    engine = ""
    #: Units per second of ``--seconds`` (measured on the reference host).
    units_per_second = 1.0
    horizon = 1.0

    def __init__(self, seed: int, seconds: int) -> None:
        self.config = self.make_config()
        count = max(100, round(seconds * self.units_per_second))
        self.seeds = spawn_seeds(seed, count)
        self.counts = RawCounts()
        self.build(self.seeds[0])

    def make_config(self):
        raise NotImplementedError

    def build(self, seed: int) -> HybridSystem:
        return HybridSystem(
            self.config, seed=seed, warmup=0.1 * self.horizon, engine=self.engine
        )

    def run(self, log: UnitLog, tracer=None) -> None:
        clock = UnitClock(log, tracer)
        counts = self.counts
        horizon = self.horizon
        for seed in self.seeds:
            clock.open()
            result = self.build(seed).run(horizon)
            clock.close()
            log.add(counts.last, result_digest(result))


class Population(EngineRuns):
    """``engine="population"`` at N = 10**6 clients (the scale path)."""

    name = "population-1e6"
    engine = "population"
    units_per_second = 8.0
    horizon = 5.0

    def make_config(self):
        return ladder_config(10**6)


class PullSaturated(EngineRuns):
    """``engine="fast"`` on the pure-pull config with a deep pull queue."""

    name = "pull-saturated"
    engine = "fast"
    units_per_second = 20.0
    horizon = 800.0

    def make_config(self):
        return single_run_config(True)[0]


WORKLOADS = {w.name: w for w in (PaperFigures, Population, PullSaturated)}


# -- traced run ------------------------------------------------------------------------------
class Layers:
    """Installs the layer spans of the traced run and reads the metrics out."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.generated = 0
        self.blocked = 0
        self.queue_len_sum = 0
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        t = self.tracer
        layers = self
        # sim: system construction and the whole run of one replication.
        self._set(HybridSystem, "__init__", t.wrap("sim.build", HybridSystem.__init__, True))
        self._set(HybridSystem, "run", t.wrap("sim.run", HybridSystem.run, True))
        # des: the reference calendar steps events (process resumes included);
        # the fast calendar dispatches callbacks, which belong to the engine.
        self._set(Environment, "step", t.wrap("des.step", Environment.step))
        self._set(Environment, "run", t.wrap("des.run", Environment.run, True))
        self._set(FastEnvironment, "run", t.wrap("des.run", FastEnvironment.run, True))
        schedule_call = t.wrap("des.schedule", FastEnvironment.schedule_call)

        def traced_schedule_call(env, delay, fn, arg=None, priority=1):
            return schedule_call(env, delay, t.wrap("sim.callback", fn), arg, priority)

        self._set(FastEnvironment, "schedule_call", traced_schedule_call)
        # workload: per-arrival draws (reference) or vectorised blocks.
        self._set(ArrivalProcess, "__iter__", t.wrap_iter("workload.draw", ArrivalProcess.__iter__))
        for cls, attr in ((BatchedArrivals, "next_chunk"), (PopulationArrivals, "next_block")):
            block = t.wrap("workload.block", getattr(cls, attr))

            def traced_block(source, _block=block, _attr=attr):
                out = _block(source)
                layers.generated += len(out[0] if _attr == "next_block" else out)
                return out

            self._set(cls, attr, traced_block)
        # schedulers: Eq. 1 selection and scoring of the configured policy.
        policy = type(make_pull_scheduler("importance", alpha=0.5))
        select = t.wrap("schedulers.select", policy.select)

        def traced_select(scheduler, queue, now):
            layers.queue_len_sum += len(queue)
            return select(scheduler, queue, now)

        self._set(policy, "select", traced_select)
        self._set(policy, "score", t.wrap("schedulers.score", policy.score))
        # pool: per-class bandwidth admission.
        acquire = t.wrap("pool.acquire", BandwidthPool.try_acquire)

        def traced_acquire(pool, rank, demand):
            ok = acquire(pool, rank, demand)
            if not ok:
                layers.blocked += 1
            return ok

        self._set(BandwidthPool, "try_acquire", traced_acquire)
        # metrics: every record_* intake call, and the end-of-run result.
        for attr in sorted(vars(MetricsCollector)):
            if attr.startswith("record_"):
                self._set(MetricsCollector, attr, t.wrap("metrics.record", getattr(MetricsCollector, attr)))
        self._set(MetricsCollector, "result", t.wrap("metrics.result", MetricsCollector.result, True))
        # scale: folded entries opened by the population engine.
        create = t.wrap("scale.create", FoldedEntry.create.__func__)
        self._set(FoldedEntry, "create", classmethod(create))
        # analysis: the Fig. 7 model, as the experiment calls it.
        for attr in ("analyze_hybrid", "compare_results"):
            self._set(compare_module, attr, t.wrap("analysis.call", getattr(compare_module, attr), True))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def metrics(self, log: UnitLog) -> dict[str, float]:
        """Per-layer metrics of one traced pass (0 where a layer never ran)."""
        t = self.tracer
        consumed = sum(log.arrivals)
        draws = t.calls("workload.draw")
        generated = self.generated + draws
        events = t.calls("des.step") + t.calls("sim.callback")
        des_ns = t.self_ns("des.step") + t.self_ns("des.run") + t.self_ns("des.schedule")
        engine_ns = t.self_ns("sim.run") + t.self_ns("sim.callback")
        selects = t.calls("schedulers.select")
        acquires = t.calls("pool.acquire")
        records = t.calls("metrics.record")
        created = t.calls("scale.create")
        analysis = t.calls("analysis.call")
        figures = len(log.figures)
        return {
            "workload.arrivals": generated,
            "workload.blocks": t.calls("workload.block"),
            "workload.ns_per_arrival": _per(
                t.total_ns("workload.draw") + t.total_ns("workload.block"), generated
            ),
            "workload.useful_share": _per(consumed, generated),
            "des.events": events,
            "des.ns_per_event": _per(des_ns, events),
            "sim.self_ns_per_arrival": _per(engine_ns, consumed),
            "sim.setup_ms": _per(t.total_ns("sim.build"), t.calls("sim.build")) / 1e6,
            "sim.push_broadcasts": log.push_broadcasts,
            "sim.pull_services": log.pull_services,
            "schedulers.selects": selects,
            "schedulers.select_ns": _per(t.total_ns("schedulers.select"), selects),
            "schedulers.score_calls": t.calls("schedulers.score"),
            "schedulers.queue_len_mean": _per(self.queue_len_sum, selects),
            "pool.acquires": acquires,
            "pool.acquire_ns": _per(t.total_ns("pool.acquire"), acquires),
            "pool.blocked_share": _per(self.blocked, acquires),
            "metrics.records": records,
            "metrics.record_ns": _per(t.total_ns("metrics.record"), records),
            "metrics.result_ms": _per(t.total_ns("metrics.result"), t.calls("metrics.result")) / 1e6,
            "scale.entries_created": created,
            "scale.fold_share": 1.0 - _per(created, consumed) if created else 0.0,
            "analysis.calls": analysis,
            "analysis.ms_per_call": _per(t.total_ns("analysis.call"), analysis) / 1e6,
            "experiments.replications": t.calls("experiments.replication"),
            "experiments.render_ms": _per(t.total_ns("experiments.render"), figures) / 1e6,
            "trace.unattributed_share": _per(t.self_ns("unit"), t.total_ns("unit")),
        }


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
