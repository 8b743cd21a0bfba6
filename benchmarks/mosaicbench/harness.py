"""What every workload shares: the operation log and result comparison."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np

from repro.errors import MosaicError

from . import stats

#: Failures the load generator survives and counts: typed program errors,
#: transport failures and timeouts.  Anything else is a bug and propagates.
OPERATION_ERRORS = (MosaicError, OSError, TimeoutError)


@dataclass
class Op:
    op_class: str
    ms: float
    key: Any  # what was asked (statement object or SQL), for the checks
    result: Any
    error: str | None = None


class OpLog:
    """Every operation one load-generator thread attempted.

    A typed error, refusal or timeout is recorded as a failed operation;
    correctness checks run after the measured phase and call :meth:`fail`
    on the operations whose answers were wrong.  Failed operations count
    in ``attempted`` and ``failed`` and in no latency figure.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[Op] = []

    def run(self, op_class: str, key: Any, fn: Callable, *args) -> Any:
        handle = self.tracer.begin_op(op_class) if self.tracer is not None else None
        error = None
        result = None
        start = perf_counter()
        try:
            result = fn(*args)
        except OPERATION_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        if handle is not None:
            self.tracer.end_op(handle, start, end)
        self.ops.append(Op(op_class, (end - start) * 1e3, key, result, error))
        return result

    def fail(self, op: Op, reason: str) -> None:
        if op.error is None:
            op.error = reason

    def extend(self, other: "OpLog") -> None:
        self.ops.extend(other.ops)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.error is not None)

    def of(self, *classes: str) -> list[Op]:
        return [op for op in self.ops if op.op_class in classes and op.error is None]

    def latencies(self, *classes: str) -> list[float]:
        return [op.ms for op in self.of(*classes)]

    def errors(self, limit: int = 5) -> list[str]:
        return [f"{op.op_class}: {op.error}" for op in self.ops if op.error][:limit]


def guard_deadline(seconds: float, scaled: bool = True) -> float:
    """When a measured phase must stop even if operations remain: three
    times the seconds its count was scaled from.  Fixed counts (the probe,
    ``--quick``) have no guard: they must repeat exactly."""
    return perf_counter() + 3.0 * seconds if scaled else float("inf")


def latency_metrics(log: OpLog, prefix: str, *classes: str) -> dict[str, float]:
    """``<prefix>_p50_ms`` and ``<prefix>_p95_ms`` of the given classes,
    each the median of five consecutive blocks' percentile."""
    values = log.latencies(*classes)
    if not values:
        return {}
    return {
        f"{prefix}_p50_ms": stats.block_percentile(values, 50.0),
        f"{prefix}_p95_ms": stats.block_percentile(values, 95.0),
    }


def identical(a, b) -> bool:
    """Two query results carry the same columns with the same bits."""
    if a is None or b is None:
        return False
    if a.columns != b.columns or a.num_rows != b.num_rows:
        return False
    for name in a.columns:
        mine, theirs = a.column(name), b.column(name)
        if mine.dtype == object or theirs.dtype == object:
            if list(mine) != list(theirs):
                return False
        elif np.asarray(mine).tobytes() != np.asarray(theirs).tobytes():
            return False
    return True


def finite(result) -> bool:
    """Every numeric cell of a result is a finite number."""
    for name in result.columns:
        column = result.column(name)
        if column.dtype != object and not np.all(np.isfinite(column)):
            return False
    return True


def cache_delta(before: dict, after: dict, section: str) -> dict[str, int]:
    return {
        key: after[section][key] - before[section].get(key, 0)
        for key in after[section]
        if isinstance(after[section][key], (int, float))
    }


def hit_pct(before: dict, after: dict, section: str) -> float:
    delta = cache_delta(before, after, section)
    lookups = delta.get("hits", 0) + delta.get("misses", 0)
    return 100.0 * delta.get("hits", 0) / lookups if lookups else 0.0


def engine_counts(before: dict, after: dict) -> dict[str, float]:
    """The per-layer counts two ``cache_stats()`` snapshots give: cache hit
    rates, dictionary builds and reuses, worker-pool activity."""
    dictionaries = cache_delta(before, after, "dictionaries")
    execution = cache_delta(before, after, "execution")
    return {
        "sql.statement_cache_hit_pct": hit_pct(before, after, "statements"),
        "engine.plan_cache_hit_pct": hit_pct(before, after, "plans"),
        "reweight.cache_hit_pct": hit_pct(before, after, "reweights"),
        "generative.cache_hit_pct": hit_pct(before, after, "generators"),
        "relational.dictionary_builds": dictionaries["builds"],
        "relational.dictionary_reuse_hits": dictionaries["reuse_hits"],
        "core.pool_batches": execution["parallel_batches"],
        "core.pool_tasks": execution["tasks_dispatched"],
    }


@dataclass
class Outcome:
    """What one workload pass produced."""

    log: OpLog
    wall_s: float  # wall seconds of the phase throughput is taken over
    throughput_ops: int  # operations completed inside that wall time
    metrics: dict[str, float] = field(default_factory=dict)  # end-to-end, native
    counts: dict[str, float] = field(default_factory=dict)  # per-layer counts
    check_failures: list[str] = field(default_factory=list)  # run-level checks
    details: dict[str, Any] = field(default_factory=dict)  # printed, not gated

    @property
    def throughput_qps(self) -> float:
        return self.throughput_ops / self.wall_s if self.wall_s > 0 else 0.0

    def require_pool_off(self, execution: dict) -> None:
        """The default path is serial: any pool batch fails the run."""
        if execution["parallel_batches"]:
            self.check_failures.append("worker pool ran although it is off by default")

    def require_error_below(self, error: float, ceiling: float) -> None:
        if error > ceiling:
            self.check_failures.append(
                f"answer_rel_err_pct {error:.3f} above the ceiling {ceiling}"
            )


def run_clients(workers: list[Callable[[], None]]) -> float:
    """Run one closed-loop client per callable, released together; returns
    the wall seconds from the common start to the last finisher."""
    barrier = threading.Barrier(len(workers) + 1)
    failures: list[BaseException] = []

    def body(worker):
        barrier.wait()
        try:
            worker()
        except BaseException as exc:  # surfaced below, on the caller's thread
            failures.append(exc)

    threads = [threading.Thread(target=body, args=(w,)) for w in workers]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = perf_counter()
    for thread in threads:
        thread.join()
    elapsed = perf_counter() - start
    if failures:
        raise failures[0]
    return elapsed
