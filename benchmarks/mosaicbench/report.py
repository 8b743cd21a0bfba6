"""Reading result files: per-metric spread, and parent-versus-change verdicts.

A result file is what ``run.py --out`` writes: ``{"claim": null, "runs":
[{"workload", "seed", "trace", "result": {...}}, ...]}``.  Only untraced
runs (``trace`` 0) carry end-to-end metrics; those are what is compared,
and of their metrics only the cells a workload measures in its own phase
(``metrics.NATIVE``): the rest repeat the lifecycle probe's numbers in
every workload, and gating them would count one regression five times.
"""

from __future__ import annotations

import json

from . import metrics, stats

#: ``{workload: {seed: result object}}`` of a file's untraced runs.
Runs = dict[str, dict[int, dict]]


def load(path: str) -> Runs:
    with open(path) as handle:
        payload = json.load(handle)
    runs: Runs = {}
    for run in payload["runs"]:
        if run["trace"]:
            continue
        by_seed = runs.setdefault(run["workload"], {})
        if run["seed"] in by_seed:
            raise ValueError(
                f"{path}: two untraced runs of {run['workload']} with seed {run['seed']}"
            )
        by_seed[run["seed"]] = run["result"]
    return runs


def correct_seeds(by_seed: dict[int, dict]) -> list[int]:
    return sorted(seed for seed, result in by_seed.items() if result["correct"])


def native_metrics(workload: str) -> list[str]:
    return [name for name, owners in metrics.NATIVE.items() if workload in owners]


def series(by_seed: dict[int, dict], seeds: list[int], metric: str) -> list[float]:
    return [by_seed[seed]["metrics"][metric]["value"] for seed in seeds]


def cells(runs: Runs) -> dict[tuple[str, str], list[float]]:
    """``{(workload, native metric): [value per correct run, by seed]}``."""
    return {
        (workload, metric): series(by_seed, correct_seeds(by_seed), metric)
        for workload, by_seed in runs.items()
        for metric in native_metrics(workload)
        if correct_seeds(by_seed)
    }


def _run_counts(label: str, by_seed: dict[int, dict]) -> str:
    failed = sum(result["failed"] for result in by_seed.values())
    return (
        f"{label}: {len(by_seed)} runs, {len(correct_seeds(by_seed))} correct, "
        f"{failed} failed operations"
    )


def summarize(path: str) -> list[dict]:
    """Median and run-to-run spread of every native cell."""
    rows = []
    for (workload, metric), values in sorted(cells(load(path)).items()):
        _, bound = metrics.BOUNDS[metric]
        rows.append(
            {
                "workload": workload,
                "metric": metric,
                "runs": len(values),
                "median": stats.median(values),
                "spread": stats.spread(values),
                "bound": bound,
            }
        )
    return rows


def print_summary(path: str) -> int:
    for workload, by_seed in sorted(load(path).items()):
        print(_run_counts(workload, by_seed))
    print(f"{'workload':<15s} {'metric':<28s} {'runs':>4s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for row in summarize(path):
        flag = "" if row["spread"] <= row["bound"] / 3 else (
            "  > bound/3" if row["spread"] <= row["bound"] else "  > BOUND"
        )
        print(
            f"{row['workload']:<15s} {row['metric']:<28s} {row['runs']:>4d} "
            f"{row['median']:>14.5f} {row['spread'] * 100:>7.2f}% {row['bound'] * 100:>5.1f}%{flag}"
        )
    return 0


def noise_floor(first_path: str, second_path: str) -> dict:
    """What two back-to-back sets of runs of one commit say about the
    machine: per native cell the spread inside each set and the drift of
    the median between them, and per metric the widest spread seen against
    the bound in force."""
    first_runs, second_runs = load(first_path), load(second_path)
    first, second = cells(first_runs), cells(second_runs)
    table = []
    widest: dict[str, float] = {name: 0.0 for name in metrics.BOUNDS}
    exact: dict[str, bool] = {name: True for name in metrics.PAIRED_BOUNDS}
    for key in sorted(first.keys() & second.keys()):
        workload, metric = key
        better, bound = metrics.BOUNDS[metric]
        spreads = stats.spread(first[key]), stats.spread(second[key])
        medians = stats.median(first[key]), stats.median(second[key])
        widest[metric] = max(widest[metric], *spreads)
        if metric in exact:
            exact[metric] &= all(
                first_runs[workload][seed]["metrics"][metric]
                == second_runs[workload][seed]["metrics"][metric]
                for seed in first_runs[workload].keys() & second_runs[workload].keys()
            )
        table.append(
            {
                "workload": workload,
                "metric": metric,
                "runs": (len(first[key]), len(second[key])),
                "median_first": medians[0],
                "median_second": medians[1],
                "spread_first": round(spreads[0], 4),
                "spread_second": round(spreads[1], 4),
                "drift_second_vs_first": round(stats.worsening(*medians, better), 4),
                "bound": bound,
            }
        )
    bounds = []
    for name, _, _, bound in metrics.END_TO_END:
        entry = {
            "metric": name,
            "issue_bound": metrics.ISSUE_BOUNDS[name],
            "widest_spread_seen": round(widest[name], 4),
            "bound": bound,
            "widened": metrics.ISSUE_BOUNDS[name] is None
            or bound > metrics.ISSUE_BOUNDS[name],
        }
        if name in metrics.PAIRED_BOUNDS:
            entry["deterministic"] = True
            entry["sets_agree_exactly_seed_by_seed"] = exact[name]
            entry["paired_bound"] = metrics.PAIRED_BOUNDS[name]
        bounds.append(entry)
    return {
        "what": (
            "Two back-to-back full sets on one commit, untraced; only the "
            "cells a workload measures in its own phase. spread = (Q3 - Q1) "
            "/ median of a cell's values, one per seed, by "
            "statistics.quantiles(n=4); drift = how much worse the second "
            "set's median reads than the first's, as a share of the first's."
        ),
        "rule": (
            "A bound under twice the widest spread seen is widened to that "
            "figure (peak_rss_mb). Every timing bound is at the contract's "
            "maximum of 0.25 whatever these two sets read: the interference "
            "on this machine comes in periods, a calm pair of sets does not "
            "bound a noisy one (README.md has the figures), and the driver "
            "refuses a benchmark whose ten-run spread passes the bound in "
            "any cell, probe cells included. The deterministic metrics are "
            "outside the rule: their spread is how much the inputs differ "
            "from seed to seed, not noise. --compare holds them seed by seed "
            "to paired_bound; their bound in BENCHMARK.json is what the "
            "driver's acceptance runs, each with another seed, need."
        ),
        "sets": [first_path, second_path],
        "claim": None,
        "bounds": bounds,
        "cells": table,
    }


def print_noise_floor(first_path: str, second_path: str) -> int:
    print(json.dumps(noise_floor(first_path, second_path), indent=1))
    return 0


def compare_files(parent_path: str, change_path: str) -> int:
    """Print ``worse`` / ``no worse`` / ``unresolved`` per native metric
    per workload; exit status 1 if anything is worse.

    A workload is worse outright when a run of the change is incorrect or
    missing, or when the change failed more operations than the parent.
    Metrics are compared over the seeds that ran correctly on both sides.
    """
    parent, change = load(parent_path), load(change_path)
    worse = 0
    header = (
        f"{'workload':<15s} {'metric':<28s} {'parent':>12s} {'change':>12s} "
        f"{'worse by':>9s} {'spread':>8s} {'bound':>6s}  verdict"
    )
    for workload in sorted(parent.keys() | change.keys()):
        ours, theirs = parent.get(workload, {}), change.get(workload, {})
        print(_run_counts(f"{workload} parent", ours))
        print(_run_counts(f"{workload} change", theirs))
        problems = []
        missing = sorted(ours.keys() - theirs.keys())
        if missing:
            problems.append(f"the change has no run for seeds {missing}")
        incorrect = sorted(set(theirs) - set(correct_seeds(theirs)))
        if incorrect:
            problems.append(f"the change's runs with seeds {incorrect} are incorrect")
        shared = ours.keys() & theirs.keys()
        failed = [sum(side[seed]["failed"] for seed in shared) for side in (ours, theirs)]
        if failed[1] > failed[0]:
            problems.append(
                f"the change failed {failed[1]} operations, the parent {failed[0]}"
            )
        for problem in problems:
            print(f"{workload:<15s} worse: {problem}")
        worse += len(problems)
        seeds = sorted(set(correct_seeds(ours)) & set(correct_seeds(theirs)))
        if not seeds:
            print(f"{workload:<15s} worse: no seed ran correctly on both sides")
            worse += 1
            continue
        print(f"{workload}: comparing the {len(seeds)} seeds correct on both sides")
        print(header)
        for metric in native_metrics(workload):
            better, bound = metrics.BOUNDS[metric]
            before, after = series(ours, seeds, metric), series(theirs, seeds, metric)
            if metric in metrics.PAIRED_BOUNDS:
                outcome = stats.paired_verdict(
                    before, after, better, metrics.PAIRED_BOUNDS[metric]
                )
            else:
                outcome = stats.verdict(before, after, better, bound)
            worse += outcome["verdict"] == "worse"
            print(
                f"{workload:<15s} {metric:<28s} {outcome['parent_median']:>12.5f} "
                f"{outcome['change_median']:>12.5f} {outcome['worsening'] * 100:>8.2f}% "
                f"{outcome['spread'] * 100:>7.2f}% {outcome['bound'] * 100:>5.1f}%  "
                f"{outcome['verdict']}"
            )
    return 1 if worse else 0
