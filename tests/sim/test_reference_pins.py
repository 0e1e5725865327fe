"""Exact pins of the reference engine's simulated statistics.

Every scenario below runs the generator-process reference engine and
compares a digest of the *whole* :class:`SimulationResult` (the
``perfbench`` ``result_digest`` formula: every dataclass field, JSON with
sorted keys, tallies expanded) against a value recorded before the
arrival path was optimised.  Any change to the RNG call order, the event
calendar's ordering or the metrics accumulation order moves a digest.

The arrival-stream pins hash the first 10⁴ requests an arrival process
yields (values *and* Python types), so the workload layer is pinned on
its own as well as through the simulations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core import HybridConfig, OverloadConfig
from repro.core.faults import FaultConfig
from repro.des import RandomStreams
from repro.schedulers.registry import make_push_scheduler
from repro.sim import HybridSystem
from repro.sim.preemptive import PreemptiveHybridServer
from repro.workload import (
    ArrivalProcess,
    ClientPopulation,
    ItemCatalog,
    PhasedArrivalProcess,
    RequestTrace,
    WorkloadPhase,
)

HORIZON = 300.0
WARMUP = 30.0
SEED = 11

LOSSY = FaultConfig(
    downlink_loss=0.12,
    uplink_loss=0.08,
    max_retries=2,
    backoff_base=1.0,
    class_deadlines=(80.0, 60.0, 40.0),
)


def result_digest(result) -> str:
    """Exact digest of every simulated statistic of one replication."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    text = json.dumps(fields, sort_keys=True, default=vars)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _bounded(policy: str) -> HybridConfig:
    return HybridConfig(arrival_rate=8.0).with_faults(
        FaultConfig(queue_capacity=8, shedding_policy=policy)
    )


def _phased(config: HybridConfig) -> PhasedArrivalProcess:
    return PhasedArrivalProcess(
        catalog=config.build_catalog(),
        population=config.build_population(),
        phases=[
            WorkloadPhase(duration=80.0, theta=0.6),
            WorkloadPhase(duration=40.0, theta=1.2, rate=15.0, rotate=30),
        ],
        default_rate=5.0,
        rng=RandomStreams(seed=SEED).stream("surge"),
    )


def _run(config: HybridConfig, pull_mode: str = "serial", **kwargs):
    system = HybridSystem(config, seed=SEED, warmup=WARMUP, pull_mode=pull_mode, **kwargs)
    return system.run(HORIZON)


def _serial():
    return _run(HybridConfig())


def _concurrent():
    return _run(HybridConfig(), pull_mode="concurrent")


def _faults_off_explicit():
    return _run(HybridConfig().with_faults(FaultConfig()), pull_mode="concurrent")


def _lossy_serial():
    return _run(HybridConfig().with_faults(LOSSY))


def _lossy_concurrent():
    return _run(HybridConfig().with_faults(LOSSY), pull_mode="concurrent")


def _finite_uplink():
    return _run(HybridConfig(uplink_rate=6.0, uplink_buffer=4))


def _shed_newest():
    return _run(_bounded("drop-newest"))


def _shed_lowest_gamma():
    return _run(_bounded("drop-lowest-gamma"))


def _shed_lowest_priority():
    return _run(_bounded("drop-lowest-priority"))


def _overload():
    return _run(_bounded("drop-lowest-priority").with_overload(OverloadConfig(threshold=0.5)))


def _priority_weighted():
    return _run(HybridConfig(priority_weighted_demand=True), pull_mode="concurrent")


def _trace_replay():
    config = HybridConfig()
    source = ArrivalProcess(
        catalog=config.build_catalog(),
        population=config.build_population(),
        rate=config.arrival_rate,
        rng=RandomStreams(seed=SEED + 1).stream("trace"),
    )
    trace = RequestTrace.from_requests(source.generate(HORIZON))
    return _run(config, trace=trace)


def _phased_surge():
    config = HybridConfig()
    return _run(config, arrivals=_phased(config))


def _preemptive():
    return _run(
        HybridConfig(alpha=0.25),
        server_cls=PreemptiveHybridServer,
        server_kwargs={"preemption_threshold": 0.1},
    )


def _reconfigure_cutoff():
    config = HybridConfig()
    system = HybridSystem(config, seed=SEED, warmup=WARMUP, pull_mode="concurrent")
    system.env.run(until=120.0)
    system.server.reconfigure_cutoff(
        25, make_push_scheduler(config.push_scheduler, system.catalog, 25)
    )
    system.env.run(until=200.0)
    system.server.reconfigure_cutoff(
        55, make_push_scheduler(config.push_scheduler, system.catalog, 55)
    )
    return system.run(HORIZON)


SCENARIOS = {
    "serial": (_serial, "c7a26b5b57dfafdd"),
    "concurrent": (_concurrent, "28b581c5104aad89"),
    # An explicit all-zero FaultConfig is the faults-off path: same digest.
    "faults-off-explicit": (_faults_off_explicit, "28b581c5104aad89"),
    "lossy-serial": (_lossy_serial, "0d49a0c888bdc3b4"),
    "lossy-concurrent": (_lossy_concurrent, "d03cd1b79016e5a9"),
    "finite-uplink": (_finite_uplink, "f5a9be357887fee0"),
    "shed-drop-newest": (_shed_newest, "e65bae109e46ec8d"),
    "shed-drop-lowest-gamma": (_shed_lowest_gamma, "6aa6788c6b8a356a"),
    "shed-drop-lowest-priority": (_shed_lowest_priority, "40401c7735e45acb"),
    "overload": (_overload, "91383e753dd71e16"),
    "priority-weighted": (_priority_weighted, "3e2e49b74d2efbad"),
    "trace-replay": (_trace_replay, "f608a91e8d8cb340"),
    "phased-surge": (_phased_surge, "95703551330bf21f"),
    "preemptive": (_preemptive, "33defd7b6bc354c1"),
    "reconfigure-cutoff": (_reconfigure_cutoff, "cd41297112e6cc20"),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_reference_result_digest(name):
    run, expected = SCENARIOS[name]
    assert result_digest(run()) == expected


# -- arrival streams on their own ------------------------------------------------
def _stream_digest(stream, n: int = 10_000) -> str:
    h = hashlib.sha256()
    for _, request in zip(range(n), stream):
        h.update(
            repr(
                (
                    request.time,
                    request.item_id,
                    request.client_id,
                    request.class_rank,
                    request.priority,
                )
            ).encode()
        )
    return h.hexdigest()[:16]


def _arrival_process(priority_weighted: bool) -> ArrivalProcess:
    config = HybridConfig()
    return ArrivalProcess(
        catalog=config.build_catalog(),
        population=config.build_population(),
        rate=config.arrival_rate,
        rng=RandomStreams(seed=SEED).stream("arrivals"),
        priority_weighted=priority_weighted,
    )


STREAMS = {
    "uniform-clients": (lambda: _arrival_process(False), "3e68774dc2b056f0"),
    "priority-weighted-clients": (lambda: _arrival_process(True), "205958427148c6bd"),
    "phased": (
        lambda: PhasedArrivalProcess(
            catalog=ItemCatalog.generate(num_items=50),
            population=ClientPopulation.generate(num_clients=40),
            phases=[
                WorkloadPhase(duration=100.0, theta=0.0),
                WorkloadPhase(duration=50.0, theta=2.5, rate=20.0, rotate=7),
            ],
            default_rate=4.0,
            rng=RandomStreams(seed=SEED).stream("arrivals"),
        ),
        "98bf17e9bc7a9d27",
    ),
}


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_arrival_stream_digest(name):
    make, expected = STREAMS[name]
    assert _stream_digest(iter(make())) == expected
