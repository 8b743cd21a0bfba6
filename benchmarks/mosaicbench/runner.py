"""Runs one workload the way the contract asks and prints its result.

Untraced (``--trace 0``): :data:`ROUNDS` rounds, each a complete pass of
the workload — fresh set-up, measured phase of ``--seconds / ROUNDS``,
finish — followed by the *lifecycle probe*: small fixed-size passes of
``open_world`` and ``ingest_restart`` that fill the end-to-end metrics the
workload's own phase does not define, so that every run reports all
fifteen (``metrics.NATIVE`` says which cells are whose).  A timing is the
best round's; ``setup_s`` is the median of the rounds' set-ups and of
further ones.

Traced (``--trace 1``): one pass of the whole length twice on fresh
set-ups, first bare, then with the span wrappers installed; the second
gives the per-layer metrics and the budget table, the two together the
cost of the spans themselves.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import signal
import sys
from time import perf_counter

from . import layers, metrics, procs, stats
from .harness import Outcome
from .trace import Tracer, render_budget
from .workloads import ALL, ingest_restart, open_world

#: Other tenants slow this machine by 20-60% in bursts of two to fifteen
#: seconds, a sixth of the time.  A burst that covers a phase sets every
#: percentile of it, however many operations it holds, so the measured
#: work is done in rounds some seconds apart and a timing is the best
#: round's: what the program takes when nothing else holds it up.
ROUNDS = 2

#: Set-up is timed at least three times, and a short one (open_world's
#: takes 60 ms) until 1.5 s have gone into it or fifteen are timed.
MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_BUDGET_S = 1.5


def run_and_print(name: str, seed: int, seconds: float, traced: bool, quick: bool) -> int:
    if name not in ALL:
        print(f"unknown workload {name!r}; choose from {sorted(ALL)}", file=sys.stderr)
        return 2
    procs.clear_program_switches()
    # A terminated benchmark must still unwind: every server, fleet and data
    # directory is registered on an ExitStack, which SystemExit runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    segments_before = procs.shm_segments()
    run = run_traced if traced else run_untraced
    try:
        result, notes = run(name, seed, seconds, quick)
    finally:
        # On every path out, SystemExit included: nothing this run started
        # is still running when it returns.
        procs.stop_child_processes()
    leaked = procs.shm_segments() - segments_before
    if leaked:
        notes.append(f"check failed: leaked shared-memory segments {sorted(leaked)}")
        result["correct"] = False
    units = metrics.PER_LAYER_UNITS if traced else metrics.END_TO_END_UNITS
    print(
        f"mosaicbench {name} seed={seed} seconds={seconds:g} "
        f"trace={int(traced)}{' quick' if quick else ''}"
    )
    print(
        "defaults in force: OpenQueryConfig(), worker pool off, MOSAIC_TRACE_SAMPLE "
        "unset, WAL sync=False (flush, not fsync); closed loop; "
        f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}"
    )
    for note in notes:
        print(note)
    for metric, unit in units.items():
        print(f"  {metric:<42s} {result['metrics'][metric]['value']:>16.6f} {unit}")
    print(
        f"  operations attempted {result['attempted']}, failed {result['failed']}; "
        f"checks {'passed' if result['correct'] else 'FAILED'}"
    )
    print(json.dumps(result))
    return 0


def _sizes(module, quick: bool):
    return module.QUICK if quick else module.FULL


def _timed_setup(stack, module, sizes, seed: int, seconds: float, hosted: bool):
    gc.collect()
    start = perf_counter()
    ctx = module.setup(stack, seed, sizes, seconds, hosted)
    return ctx, perf_counter() - start


def _one_pass(module, sizes, seed: int, seconds: float, hosted: bool, tracer) -> Outcome:
    """Set up, measure, finish."""
    with contextlib.ExitStack() as stack:
        ctx, setup_s = _timed_setup(stack, module, sizes, seed, seconds, hosted)
        if tracer is not None:
            tracer.enabled = True
        try:
            outcome = module.measure(ctx, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.enabled = False
        module.finish(ctx, outcome)
    outcome.metrics["setup_s"] = setup_s
    outcome.metrics["throughput_qps"] = outcome.throughput_qps
    return outcome


def _probe(name: str, seed: int, quick: bool) -> tuple[dict[str, float], list[Outcome]]:
    """The lifecycle probe: the OPEN-side and write-side metrics, measured
    on small fixed-size inputs, for workloads whose own phase lacks them."""
    filled: dict[str, float] = {}
    outcomes = []
    # Later entries win: the OPEN probe defines warm_reopen_ms and
    # stored_bytes_per_user_byte (it carries the model).
    for module in (ingest_restart, open_world):
        if module.NAME == name:
            continue
        sizes = module.QUICK if quick else module.PROBE
        outcome = _one_pass(module, sizes, seed, 1.0, False, None)
        outcomes.append(outcome)
        filled.update(outcome.metrics)
    return filled, outcomes


def _across_rounds(metric: str, values: list[float]) -> float:
    """A timing, rate or peak: the best round's.  A deterministic metric
    reads the same in every round (same seed, same inputs): the first's."""
    if metric in metrics.PAIRED_BOUNDS:
        return values[0]
    better, _ = metrics.BOUNDS[metric]
    return min(values) if better == "lower" else max(values)


def _describe(prefix: str, outcome: Outcome) -> list[str]:
    notes = [f"{prefix}: {json.dumps(outcome.details, sort_keys=True)}"]
    log = outcome.log
    for op_class in sorted({op.op_class for op in log.ops}):
        values = log.latencies(op_class)
        if not values:
            continue
        top = stats.highest_supported_percentile(len(values))
        tail = (
            f", p{top:g} {stats.percentile(values, top):.4f} ms"
            if top is not None and top > 50.0
            else ""
        )
        notes.append(
            f"{prefix}: {op_class}: n={len(values)}, p50 {stats.median(values):.4f} ms{tail}"
        )
    notes += [f"{prefix}: check failed: {failure}" for failure in outcome.check_failures]
    notes += [f"{prefix}: failed operation: {error}" for error in log.errors()]
    return notes


def _result(outcomes: list[Outcome], values: dict[str, float], units: dict[str, str]) -> dict:
    missing = [name for name in units if name not in values]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    attempted = sum(o.log.attempted for o in outcomes)
    failed = sum(o.log.failed for o in outcomes)
    return {
        "correct": failed == 0 and not any(o.check_failures for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def run_untraced(name: str, seed: int, seconds: float, quick: bool):
    module = ALL[name]
    sizes = _sizes(module, quick)
    rounds = 1 if quick else ROUNDS
    per_round: list[dict[str, float]] = []
    outcomes: list[Outcome] = []
    notes: list[str] = []
    for index in range(rounds):
        outcome = _one_pass(module, sizes, seed, seconds / rounds, False, None)
        values, probes = _probe(name, seed, quick)
        values.update(outcome.metrics)
        per_round.append(values)
        outcomes += [outcome, *probes]
        notes += _describe(f"{name} round {index + 1}", outcome)
        notes.append(
            f"{name} round {index + 1}: "
            + json.dumps({metric: round(value, 4) for metric, value in outcome.metrics.items()})
        )
        for probe in probes:
            notes += _describe(f"probe for {name} round {index + 1}", probe)
    # The further set-ups come after the measured rounds: they leave memory
    # behind (100 MB of resident set on closed_scan) that would pass for
    # the engine's.
    setups = [values["setup_s"] for values in per_round]
    while not quick and len(setups) < MAX_SETUPS and (
        len(setups) < MIN_SETUPS or sum(setups) < SETUP_BUDGET_S
    ):
        with contextlib.ExitStack() as stack:
            setups.append(_timed_setup(stack, module, sizes, seed, seconds / rounds, False)[1])
    values = {
        metric: _across_rounds(metric, [each[metric] for each in per_round])
        for metric in per_round[0]
    }
    values["setup_s"] = stats.median(setups)
    notes.append(f"{name}: setup_s of each set-up: {[round(s, 4) for s in setups]}")
    for metric, owners in metrics.NATIVE.items():
        if name not in owners:
            notes.append(f"{metric}: from the lifecycle probe, not from {name}'s own phase")
    return _result(outcomes, values, metrics.END_TO_END_UNITS), notes


def run_traced(name: str, seed: int, seconds: float, quick: bool):
    module = ALL[name]
    sizes = _sizes(module, quick)
    bare = _one_pass(module, sizes, seed, seconds, True, None)
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        traced = _one_pass(module, sizes, seed, seconds, True, tracer)
    finally:
        tracer.uninstall()
    values = layers.per_layer_metrics(name, tracer.spans, traced, bare)
    table = layers.budget_table(tracer.spans)
    notes = _describe(f"{name} (bare)", bare) + _describe(f"{name} (traced)", traced)
    notes.append(render_budget(name, table))
    notes += layers.dominance_notes(name, table)
    return _result([bare, traced], values, metrics.PER_LAYER_UNITS), notes
