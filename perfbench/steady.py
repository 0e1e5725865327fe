"""Steadiness report: run one workload N times and summarise each metric.

    python3 perfbench/steady.py --workload NAME --runs 10 [--first-seed 1]
        [--seconds S] [--trace 0|1]

Runs ``run.py`` once per seed (``first-seed`` onwards, one after the
other), then prints, for each metric: the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the interquartile
spread and the min-max spread as shares of the median, and, for
end-to-end metrics, the bound from BENCHMARK.json and whether the spread
is under a third of it.  The host (``nproc``, Python version) heads the
report.  Exits 1 if any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    print(f"host nproc={os.cpu_count()} python={platform.python_version()} "
          f"workload={args.workload} runs={args.runs} seconds={args.seconds}", flush=True)
    values: dict[str, list[float]] = {}
    bench_names = {m["name"] for m in bench["end_to_end"]}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", flush=True)
            ok = False
            continue
        result = json.loads(last)
        notes = [
            line[len("note: "):]
            for line in proc.stdout.splitlines()
            if line.startswith("note: ") and not line.startswith("note: host nproc")
        ]
        shown = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()
                         if k in bench_names)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {' '.join(notes)} {shown}", flush=True)
        ok &= result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} "
          f"{'range/med':>9} {'bound':>6} steady")
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, med, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else 0.0
        full = (max(series) - min(series)) / med if med else 0.0
        bound = bounds.get(name)
        verdict = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        print(f"{name:28} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%} {full:9.2%} "
              f"{'' if bound is None else f'{bound:.2f}':>6} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
