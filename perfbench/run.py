"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see BENCHMARK.json for both lists).  Lines
before the last one are notes: the host, the unit count and the digest
of every simulated statistic, so a performance-only change can show its
results are unchanged.  The last line is the JSON result.

This process only orchestrates: the work runs in fresh child processes
(one per set-up probe, one measured), so neither the checks nor this
process's own memory reach the reported figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from time import perf_counter

from common import (
    BENCH_DIR,
    ROOT,
    SetupError,
    child_env,
    emit,
    median,
    metric_block,
    pin_to_one_cpu,
    quantile,
    require_sources,
    rescale_all,
    rescaled_probes,
)
import checks

#: Fresh processes timed for ``setup_s`` (the measured process is not one:
#: the reference loop cannot run beside it).
SETUP_PROBES = 3
#: Wall-clock limit for any one child process.
CHILD_TIMEOUT_S = 170.0

SIM_WORKLOADS = ("paper-figures", "population-1e6", "pull-saturated")
SERVICE_WORKLOAD = "service-closed-loop"
#: Mean pull-queue floor that makes ``pull-saturated`` what it claims to be.
PULL_QUEUE_FLOOR = 200.0


def note(text: str) -> None:
    print(f"note: {text}", flush=True)


def host_note() -> str:
    return f"host nproc={os.cpu_count()} python={platform.python_version()}"


def spawn_worker(args, mode: str) -> tuple[float, dict, subprocess.Popen]:
    """Start a worker; return (seconds to ready, ready record, process)."""
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    started = perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    ready_s = perf_counter() - started
    try:
        ready = json.loads(line)
    except json.JSONDecodeError:
        proc.kill()
        proc.wait()
        raise SetupError(f"worker did not become ready: {line!r}") from None
    return ready_s, ready, proc


def wait(proc: subprocess.Popen, what: str) -> str:
    """Wait for a child to exit; return its remaining standard output."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SetupError(f"{what} timed out") from None
    return out


def run_simulation(args) -> dict:
    def probe() -> tuple[float, dict]:
        ready_s, ready, proc = spawn_worker(args, "probe")
        wait(proc, "set-up probe")
        if proc.returncode != 0:
            raise SetupError(f"set-up probe exited with {proc.returncode}")
        return ready_s, ready

    samples = rescaled_probes(probe, SETUP_PROBES)
    mode = "trace" if args.trace else "run"
    _, _, proc = spawn_worker(args, mode)
    out = json.loads(wait(proc, "worker").strip().splitlines()[-1])
    if "error" in out:
        print(out["error"], file=sys.stderr)
        return {"correct": False, "attempted": out["completed"] + 1, "failed": 1, "metrics": {}}
    if args.trace:
        return traced_result(samples, out)

    failures = sim_checks(args.workload, out)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    note(
        f"units={len(out['times'])} raw_latency_ms_p50={1e3 * median(out['times']):.4f} "
        f"reference_ms_p50={1e3 * median(out['refs']):.4f} result_digest={out['digest']}"
    )
    return {
        "correct": not failures,
        "attempted": len(out["times"]),
        "failed": 0,
        "metrics": metric_block(sim_end_to_end([s for s, _ in samples], out), "end_to_end"),
    }


def sim_checks(workload: str, out: dict) -> list[str]:
    if workload == "paper-figures":
        return checks.check_figures(out["figures"])
    failures = checks.check_runs(out)
    if workload == "pull-saturated":
        failures += checks.check_queue_depth(out, PULL_QUEUE_FLOOR)
    return failures


def sim_end_to_end(setup_samples: list[float], out: dict) -> dict:
    """End-to-end metrics of a simulation workload from its worker's output.

    Unit times are rescaled by the reference loop run around each unit.
    """
    times = rescale_all(out["times"], out["refs"])
    total = sum(times)
    return {
        "setup_s": median(setup_samples),
        "arrivals_per_s": sum(out["arrivals"]) / total,
        "served_per_s": sum(out["served"]) / total,
        "latency_ms_p50": 1e3 * median(times),
        "latency_ms_p90": 1e3 * quantile(times, 0.9),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def traced_result(samples, out: dict) -> dict:
    failures = checks.check_same_results(out["digests"], out["traced_digests"], "traced run")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    layers = dict(out["layers"])
    layers["setup.import_s"] = median([r["import_s"] for _, r in samples])
    layers["setup.build_s"] = median([r["build_s"] for _, r in samples])
    return {
        "correct": not failures,
        "attempted": len(out["digests"]),
        "failed": 0,
        "metrics": metric_block(layers, "per_layer"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*SIM_WORKLOADS, SERVICE_WORKLOAD))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        require_sources()
        pin_to_one_cpu()
        note(host_note())
        if args.workload == SERVICE_WORKLOAD:
            import service_load

            result = service_load.run(args)
        else:
            result = run_simulation(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
