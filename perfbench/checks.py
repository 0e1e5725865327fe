"""Output checks: each returns a list of failure messages (empty = pass).

They read plain data (the JSON a measured process printed), run in the
orchestrating process after the measured one has exited, and so never
touch the figures they verify.  ``selftest.py`` feeds each one a
deliberately broken input and requires it to fail.
"""

from __future__ import annotations

import math

#: Fig. 7's mean relative deviation bound at QUICK scale (the paper reports
#: about 10 % at full scale; one short replication per point widens it).
FIG7_DEVIATION_BOUND = 0.35


def _series(figures: list[dict], figure_id: str, title_part: str = "") -> list[dict]:
    return [f for f in figures if f["id"] == figure_id and title_part in f["title"]]


def check_figures(figures: list[dict]) -> list[str]:
    """Every value finite, plus the shape claims that hold at QUICK scale.

    These are the claims the repository's own figure benchmarks assert.
    Fig. 6's ordering (optimal cost lower at alpha = 0 than at alpha = 1)
    is a full-scale claim: with one replication per point and the full
    cut-off grid it reverses for some seeds, so it is not checked here.
    """
    failures = []
    expected = {"fig3": 3, "fig4": 3, "alpha-sweep": 1, "fig5": 2, "fig6": 1, "fig7": 1}
    for figure_id, count in expected.items():
        if len(_series(figures, figure_id)) != count:
            failures.append(f"{figure_id}: expected {count} panels")
    for fig in figures:
        for label, (xs, ys) in fig["series"].items():
            if not xs or len(xs) != len(ys):
                failures.append(f"{fig['title']} {label}: empty or ragged series")
            if not all(math.isfinite(v) for v in (*xs, *ys)):
                failures.append(f"{fig['title']} {label}: non-finite value")
    if failures:
        return failures
    # Fig. 3 (alpha = 0, theta = 0.6): premium never slower than basic, and
    # the smallest push set penalises the basic class.
    for fig in _series(figures, "fig3", "theta=0.6,"):
        a, c = fig["series"]["Class-A"][1], fig["series"]["Class-C"][1]
        if not all(ai <= ci * 1.05 for ai, ci in zip(a, c)):
            failures.append("fig3: Class-A slower than Class-C at some K")
        if not c[0] > min(c):
            failures.append("fig3: no small-K penalty on Class-C")
    # Fig. 4 (alpha = 1, theta = 0.6): priorities ignored, curves collapse.
    for fig in _series(figures, "fig4", "theta=0.6,"):
        a, c = fig["series"]["Class-A"][1], fig["series"]["Class-C"][1]
        if not all(abs(ci - ai) / ai < 0.25 for ai, ci in zip(a, c)):
            failures.append("fig4: Class-A and Class-C curves differ by 25 % or more")
    # Fig. 5: the total is the sum of the class costs.
    for fig in _series(figures, "fig5"):
        series = fig["series"]
        parts = [sum(v) for v in zip(*(series[f"Class-{n}"][1] for n in "ABC"))]
        if not all(math.isclose(t, p, rel_tol=1e-9) for t, p in zip(series["Total"][1], parts)):
            failures.append(f"{fig['title']}: total is not the sum of the classes")
    # Fig. 7: analysis within its deviation bound of the simulation.
    for fig in _series(figures, "fig7"):
        deviation = fig["deviation"]
        if not (deviation is not None and 0 <= deviation < FIG7_DEVIATION_BOUND):
            failures.append(f"fig7: mean deviation {deviation} outside [0, {FIG7_DEVIATION_BOUND})")
    return failures


def check_runs(result: dict) -> list[str]:
    """Per-unit sanity of fixed-horizon runs, and Poisson arrival counts.

    Each run's raw arrival count must lie within six standard deviations
    of ``rate * horizon``; served never exceeds arrived; delays are finite
    and positive; every seed gives a distinct result.
    """
    failures = []
    expected = result["arrival_rate"] * result["horizon"]
    slack = 6.0 * math.sqrt(expected)
    for index, (arrived, served, delay) in enumerate(
        zip(result["arrivals"], result["served"], result["delays"])
    ):
        if abs(arrived - expected) > slack:
            failures.append(f"unit {index}: {arrived} arrivals, expected {expected:.0f} ± {slack:.0f}")
        if not 0 < served <= arrived:
            failures.append(f"unit {index}: served {served} of {arrived} arrivals")
        if not (math.isfinite(delay) and delay > 0):
            failures.append(f"unit {index}: non-finite or non-positive delay {delay}")
    if len(set(result["digests"])) != len(result["digests"]):
        failures.append("two seeds gave identical results")
    return failures


def check_queue_depth(result: dict, minimum: float) -> list[str]:
    """The pull-saturated premise: a deep pull queue on average."""
    lengths = result["queue_lengths"]
    mean = sum(lengths) / len(lengths)
    if not mean >= minimum:
        return [f"mean pull queue {mean:.1f} below {minimum}"]
    return []


def check_same_results(first: list[str], second: list[str], what: str) -> list[str]:
    """Two runs of the same units (untraced and traced) give identical results."""
    if len(first) != len(second):
        return [f"{what}: {len(second)} units against {len(first)}"]
    return [
        f"{what}: unit {i} result {b} differs from {a}"
        for i, (a, b) in enumerate(zip(first, second))
        if a != b
    ]


def check_ledger(ledger: dict, sent: int, statuses: dict[int, int]) -> list[str]:
    """The service's drained ledger balances and matches what the client saw."""
    failures = []
    terminal = sum(
        ledger[k] for k in ("served", "blocked", "rejected", "shed", "timed_out", "failed")
    )
    if ledger["submitted"] - terminal - ledger["queued"] - ledger["in_flight"] != 0:
        failures.append(f"ledger does not balance: {ledger}")
    if ledger["queued"] or ledger["in_flight"]:
        failures.append(f"ledger not drained: {ledger}")
    if ledger["submitted"] != sent:
        failures.append(f"ledger booked {ledger['submitted']} requests, client sent {sent}")
    if ledger["served"] != statuses.get(200, 0):
        failures.append(f"ledger served {ledger['served']}, client got {statuses.get(200, 0)} 200s")
    if ledger["blocked"] != statuses.get(502, 0):
        failures.append(f"ledger blocked {ledger['blocked']}, client got {statuses.get(502, 0)} 502s")
    return failures
