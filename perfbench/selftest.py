"""Self-test of the benchmark's output checks and metric names.

    python3 perfbench/selftest.py

Every check must pass on a well-formed input and fail on a deliberately
broken copy of it: a non-finite figure value, a violated Fig. 3 or Fig. 4
shape claim, a Fig. 7 deviation above its bound, an unbalanced service
ledger, a traced result that differs from the untraced one, and a run
with an impossible arrival count.  The metric names the benchmark
computes must equal those declared in BENCHMARK.json.  Exits 1 on the
first case that does not behave.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import checks
from common import ROOT, SetupError, metric_block, use_sources

K_GRID = [10, 20, 30, 40, 50, 60, 70, 80, 90]


def _panel(figure_id: str, title: str, curves: dict, deviation=None) -> dict:
    return {
        "id": figure_id,
        "title": title,
        "series": {label: [list(K_GRID), list(ys)] for label, ys in curves.items()},
        "deviation": deviation,
    }


def good_figures() -> list[dict]:
    """A figure set that satisfies every claim ``check_figures`` makes."""
    base = [120.0, 100.0, 90.0, 95.0, 100.0, 110.0, 130.0, 150.0, 170.0]
    ordered = {f"Class-{n}": [v * f for v in base] for n, f in zip("ABC", (0.9, 1.0, 1.1))}
    flat = {f"Class-{n}": list(base) for n in "ABC"}
    figures = []
    for theta in (0.2, 0.6, 1.4):
        figures.append(_panel("fig3", f"Delay vs cutoff (alpha=0.0, theta={theta}, metric=total)", ordered))
    for theta in (0.2, 0.6, 1.4):
        figures.append(_panel("fig4", f"Delay vs cutoff (alpha=1.0, theta={theta}, metric=total)", flat))
    figures.append(_panel("alpha-sweep", "Delay vs alpha (K=40, theta=0.6)", ordered))
    for alpha in (0.25, 0.75):
        costs = {name: [3.0 * v for v in ys] for name, ys in ordered.items()}
        costs["Total"] = [sum(v) for v in zip(*costs.values())]
        figures.append(_panel("fig5", f"Prioritized cost vs cutoff (alpha={alpha}, theta=0.6)", costs))
    figures.append(_panel("fig6", "Total optimal prioritized cost vs alpha", {"theta=0.2": base}))
    sim_ana = {f"{kind}-{n}": list(base) for kind in ("sim", "ana") for n in "ABC"}
    figures.append(_panel("fig7", "Analytical vs simulation (theta=0.6, alpha=0.75)", sim_ana, 0.1))
    return figures


def _find(figures: list[dict], figure_id: str, theta: str = "0.6,") -> dict:
    return next(f for f in figures if f["id"] == figure_id and f"theta={theta}" in f["title"])


def broken_figures():
    """(name, corrupted figure set) pairs, one per claim."""
    figures = copy.deepcopy(good_figures())
    _find(figures, "fig5", "0.6)")["series"]["Class-B"][1][4] = math.nan
    yield "non-finite figure value", figures

    figures = copy.deepcopy(good_figures())
    series = _find(figures, "fig3")["series"]
    series["Class-A"], series["Class-C"] = series["Class-C"], series["Class-A"]
    yield "fig3 class order reversed", figures

    figures = copy.deepcopy(good_figures())
    series = _find(figures, "fig3")["series"]
    series["Class-C"][1][0] = min(series["Class-C"][1])
    series["Class-A"][1][0] = min(series["Class-A"][1])
    yield "fig3 without the small-K penalty", figures

    figures = copy.deepcopy(good_figures())
    series = _find(figures, "fig4")["series"]["Class-C"][1]
    series[:] = [1.5 * v for v in series]
    yield "fig4 curves not collapsed", figures

    figures = copy.deepcopy(good_figures())
    next(f for f in figures if f["id"] == "fig7")["deviation"] = checks.FIG7_DEVIATION_BOUND + 0.01
    yield "fig7 deviation above its bound", figures

    figures = copy.deepcopy(good_figures())
    figures.pop()
    yield "a figure missing", figures


def good_runs() -> dict:
    return {
        "arrival_rate": 3.0,
        "horizon": 800.0,
        "arrivals": [2400, 2410, 2390],
        "served": [2000, 2010, 1990],
        "delays": [50.0, 51.0, 49.0],
        "queue_lengths": [450.0, 460.0, 470.0],
        "digests": ["a", "b", "c"],
    }


def broken_runs():
    runs = good_runs()
    runs["arrivals"][1] = 3000
    yield "impossible arrival count", runs
    runs = good_runs()
    runs["served"][0] = 2500
    yield "more served than arrived", runs
    runs = good_runs()
    runs["delays"][2] = math.inf
    yield "non-finite delay", runs
    runs = good_runs()
    runs["digests"][2] = "a"
    yield "two seeds with one result", runs


GOOD_LEDGER = {
    "submitted": 100, "served": 88, "blocked": 12, "rejected": 0, "shed": 0,
    "timed_out": 0, "failed": 0, "queued": 0, "in_flight": 0,
}
GOOD_STATUSES = {200: 88, 502: 12}


def expect(name: str, failures: list[str], should_fail: bool) -> bool:
    ok = bool(failures) == should_fail
    verdict = "ok  " if ok else "FAIL"
    detail = failures[0] if failures else "passes"
    print(f"{verdict} {name}: {detail}")
    return ok


def check_cases() -> bool:
    results = [expect("well-formed figures", checks.check_figures(good_figures()), False)]
    for name, figures in broken_figures():
        results.append(expect(name, checks.check_figures(figures), True))
    results.append(expect("well-formed runs", checks.check_runs(good_runs()), False))
    for name, runs in broken_runs():
        results.append(expect(name, checks.check_runs(runs), True))
    results.append(expect("deep queue", checks.check_queue_depth(good_runs(), 200.0), False))
    results.append(expect("shallow queue", checks.check_queue_depth(good_runs(), 500.0), True))

    results.append(expect("balanced ledger", checks.check_ledger(GOOD_LEDGER, 100, GOOD_STATUSES), False))
    unbalanced = dict(GOOD_LEDGER, served=87)
    results.append(expect("unbalanced ledger", checks.check_ledger(unbalanced, 100, GOOD_STATUSES), True))
    undrained = dict(GOOD_LEDGER, served=87, in_flight=1)
    results.append(expect("undrained ledger", checks.check_ledger(undrained, 100, GOOD_STATUSES), True))
    results.append(expect("ledger vs client", checks.check_ledger(GOOD_LEDGER, 101, GOOD_STATUSES), True))

    digests = ["0123", "4567", "89ab"]
    same = checks.check_same_results(digests, list(digests), "traced run")
    results.append(expect("traced equals untraced", same, False))
    differs = checks.check_same_results(digests, ["0123", "4568", "89ab"], "traced run")
    results.append(expect("traced differs from untraced", differs, True))
    return all(results)


def metric_names() -> bool:
    """The names the benchmark computes are exactly the declared ones."""
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    use_sources()
    import run
    import serve_traced
    import service_load
    import simloads
    from spans import Tracer

    sim_out = {
        "times": [0.1, 0.2], "refs": [0.004, 0.005, 0.004], "arrivals": [10, 20], "served": [5, 6],
        "peak_rss_mb": 100.0,
    }
    service = {"latencies": [0.001, 0.002], "statuses": [200, 502], "wall_s": 1.0, "peak_rss_mb": 90.0}
    results = []
    for name, values in (
        ("simulation end-to-end", run.sim_end_to_end([1.0], sim_out)),
        ("service end-to-end", service_load.end_to_end([1.0], service)),
    ):
        try:
            metric_block(values, "end_to_end")
            results.append(expect(f"{name} names", [], False))
        except SetupError as exc:
            results.append(expect(f"{name} names", [str(exc)], False))
    try:
        metric_block({"latency_ms_p50": 1.0}, "end_to_end")
        failures = []
    except SetupError as exc:
        failures = [str(exc)]
    results.append(expect("end-to-end metric missing", failures, True))

    sim_layers = set(simloads.Layers(Tracer()).metrics(simloads.UnitLog()))
    sim_layers |= {"setup.import_s", "setup.build_s", "trace.overhead_share"}
    service_layers = set(serve_traced.ServiceSpans().layers()) - {"span_ns"}
    service_layers |= set(service_load.request_plan(0, 10)[1])
    service_layers |= {"trace.unattributed_share", "trace.overhead_share"}
    names = {m["name"] for m in declared["per_layer"]}
    computed = sim_layers | service_layers
    failures = [f"computed, not declared: {sorted(computed - names)}"] if computed - names else []
    failures += [f"declared, never computed: {sorted(names - computed)}"] if names - computed else []
    results.append(expect("per-layer names", failures, False))
    return all(results)


def main() -> int:
    return 0 if check_cases() and metric_names() else 1


if __name__ == "__main__":
    sys.exit(main())
