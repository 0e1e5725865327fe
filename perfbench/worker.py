"""The measured process of a simulation workload.

Started fresh by ``run.py`` for every sample::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --mode MODE

It prints a ``ready`` line (with its import and build times) as soon as it
could run the first unit.  ``--mode probe`` stops there; ``run`` runs the
unit list untraced and reports unit times, counts, digests and the peak
resident set read right after the last unit; ``trace`` runs the same list untraced
and then traced, and reports the per-layer metrics and both runs' digests.
"""

from __future__ import annotations

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from common import OUT_DIR, emit, rescale_all, use_sources, vm_hwm_mb  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    args = parser.parse_args()

    use_sources()
    import simloads

    imported = perf_counter()
    workload = simloads.WORKLOADS[args.workload](args.seed, args.seconds)
    built = perf_counter()
    emit({"ready": True, "import_s": imported - _STARTED, "build_s": built - imported})
    if args.mode == "probe":
        return 0
    simloads.freeze_setup()

    log = simloads.UnitLog()
    try:
        workload.run(log)
        if args.mode == "trace":
            from spans import Tracer

            tracer = Tracer()
            layers = simloads.Layers(tracer)
            traced = simloads.UnitLog()
            layers.install()
            try:
                workload.run(traced, tracer)
            finally:
                layers.uninstall()
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = layers.metrics(traced)
            metrics["trace.overhead_share"] = (
                sum(rescale_all(traced.times, traced.refs)) / sum(rescale_all(log.times, log.refs)) - 1.0
            )
            emit({"layers": metrics, "digests": log.digests, "traced_digests": traced.digests})
            return 0
        peak = vm_hwm_mb()
    except Exception:
        emit({"error": traceback.format_exc(), "completed": len(log.times)})
        return 1
    emit(
        {
            "times": log.times.tolist(),
            "refs": log.refs.tolist(),
            "arrivals": log.arrivals.tolist(),
            "served": log.served.tolist(),
            "delays": log.delays.tolist(),
            "queue_lengths": log.queue_lengths.tolist(),
            "digests": log.digests,
            "digest": log.digest(),
            "figures": log.figures,
            "horizon": getattr(workload, "horizon", None),
            "arrival_rate": getattr(getattr(workload, "config", None), "arrival_rate", None),
            "peak_rss_mb": peak,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
