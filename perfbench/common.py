"""Helpers shared by every benchmark process: paths, statistics, memory.

This module imports only the standard library, so the orchestrating
process (``run.py``) never loads the program under test and its own
memory never mixes with the figures it reports.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import random
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Where traced runs write their span files (listed in the root .gitignore).
OUT_DIR = ROOT / ".perfbench"


#: Iterations of the reference loop (see :func:`reference_loop`).
REFERENCE_ITERATIONS = 4000
#: Seconds the reference loop is taken to last.  Every reported time is
#: rescaled to a host on which the loop takes exactly this long.
REFERENCE_S = 0.004


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. the sources are missing)."""


def require_sources() -> None:
    """Fail unless the program's sources are in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}; run from a full checkout")


def use_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    require_sources()
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child processes: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one CPU.

    The reference loop then times the same CPU as the work it rescales.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes on this CPU right now.

    On a shared host the speed of Python code swings by more than half
    within seconds, with the load of other tenants (see README.md).  The
    loop does the kind of work an event simulation does (a heap of
    timestamped tuples, dict updates, float arithmetic, seeded random
    draws) and never touches the program, so a change to the program
    cannot move it.
    """
    started = perf_counter()
    rng = random.Random(12345)
    heap: list = []
    totals: dict = {}
    now = 0.0
    for i in range(REFERENCE_ITERATIONS):
        now += rng.expovariate(1.0)
        heapq.heappush(heap, (now, i))
        key = i % 97
        totals[key] = totals.get(key, 0.0) + now
        if len(heap) > 64:
            heapq.heappop(heap)
    return perf_counter() - started


def rescale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of work as it would read on the reference host.

    ``before`` and ``after`` are the reference loop's times just before
    and just after the work, on the same CPU.
    """
    return seconds * REFERENCE_S / (0.5 * (before + after))


def rescale_all(times, refs) -> list[float]:
    """Rescale consecutive work times; ``refs`` has one more entry than ``times``."""
    if len(refs) != len(times) + 1:
        raise SetupError(f"{len(times)} timings but {len(refs)} reference loops")
    return [rescale(t, refs[i], refs[i + 1]) for i, t in enumerate(times)]


def rescaled_probes(probe, count: int) -> list[tuple[float, object]]:
    """Run ``probe`` ``count`` times and rescale the seconds each returns.

    ``probe()`` returns ``(seconds, payload)``.  A probe lasts a second
    or two, and the host can change state within it, so one loop before
    and one after is a poor guide to it; all probes are instead rescaled
    by the median of the loops run before, between and after them.
    """
    refs = [reference_loop()]
    samples = []
    for _ in range(count):
        samples.append(probe())
        refs.append(reference_loop())
    level = median(refs)
    return [(seconds * REFERENCE_S / level, payload) for seconds, payload in samples]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise SetupError("VmHWM not reported by /proc")


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (``numpy.percentile`` default method)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def metric_block(values: dict, section: str) -> dict:
    """``values`` as printed metrics, named and unitised as BENCHMARK.json says.

    ``section`` is ``"end_to_end"`` (every declared metric is required) or
    ``"per_layer"`` (a layer that did not run on this workload reads 0).
    A value under a name BENCHMARK.json does not declare is an error.
    """
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[section]}
    unknown = sorted(set(values) - set(declared))
    missing = sorted(set(declared) - set(values))
    if unknown or (missing and section == "end_to_end"):
        raise SetupError(f"{section} metrics: unknown {unknown}, missing {missing}")
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in declared.items()}


def emit(payload: dict) -> None:
    """Print one JSON line and flush (parents read children line by line)."""
    print(json.dumps(payload), flush=True)
