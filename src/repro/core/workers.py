"""Morsel-driven multi-process execution: worker pool + parallel context.

The GIL serializes every kernel a thread pool runs (``BENCH_concurrency``:
0.9x at 8 threads), so scan-heavy aggregation scales out with *processes*.
This module provides:

- :class:`ExecutionConfig` — how many workers (``MOSAIC_WORKERS`` /
  ``ExecutionConfig(processes=N)``), the morsel threshold
  (``MOSAIC_MORSEL_ROWS``), timeouts, retry budget.
- :class:`WorkerPool` — a persistent pool of worker processes connected by
  pipes.  Workers receive ``(plan, segment descriptor, morsel)`` tasks,
  attach the shared segment (O(1), zero row serialization — see
  :mod:`repro.relational.shm`), execute the plan fragment, and ship back
  the small partial-aggregate arrays.  Plans and segment descriptors are
  sent to each worker once and cached by key; task frames are tiny and at
  most :data:`_MAX_INFLIGHT` of them are queued into a worker's pipe at a
  time, with results drained between sends — the parent never blocks
  writing a pipe whose worker is itself blocked writing a large result,
  so a batch cannot deadlock on full socket buffers.  Crashed workers are
  respawned and their tasks retried (``max_task_retries`` times per task)
  before the batch fails with :class:`~repro.errors.WorkerCrashError` —
  a query never hangs on a dead worker, and after a failed batch the next
  query respawns a fresh pool.
- :class:`ParallelExecution` — the engine-facing context.  It owns the
  pool and the :class:`~repro.relational.shm.SharedRelationStore`, decides
  pool vs. in-process execution, and shards batched OPEN runs across
  repetitions.

Determinism contract
--------------------
The morsel decomposition is a pure function of ``(num_rows, morsel_rows)``
and partials merge in morsel-index order, so a context with ``processes=0``
running the morsel loop in-process produces byte-identical results to any
worker count — worker scheduling can never reorder a float reduction.  The
pool is therefore purely a throughput lever; correctness never depends on
it, which is also why every pool-side refusal (busy, closed, spawn
failure) silently degrades to the identical local loop.

Answers *are* a function of ``morsel_rows``, however: above the threshold
float SUM/AVG accumulate per-morsel and merge pairwise, which can differ
in the last ulp from the single-pass kernels used at or below it.  Bit
identity is guaranteed across worker counts at a **fixed** ``morsel_rows``;
changing ``MOSAIC_MORSEL_ROWS`` (or comparing against a pre-morsel
release) is a numerics-affecting configuration change, the same way a
different reduction tree would be in any parallel engine.
"""

from __future__ import annotations

import itertools
import os
import signal
import threading
import time
import weakref
from collections import OrderedDict, deque
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import connection, get_all_start_methods, get_context
from typing import Sequence

import numpy as np

from repro.engine.compiler import (
    composite_layout,
    execute_plan_morsel,
    execute_plan_open_shard,
)
from repro.errors import MosaicError, WorkerCrashError, error_from_wire, error_to_wire
from repro.observability import MetricsRegistry
from repro.observability.trace import current_trace
from repro.relational.kernels import merge_composite_partials
from repro.relational.shm import (
    AttachedRelation,
    SharedRelationStore,
    attach_relation,
)

#: Default morsel size: relations at or below this row count use the
#: classic single-pass kernels; larger scans split into ranges of this
#: many rows.  65536 rows x 8 bytes is a comfortable per-task unit (a few
#: hundred microseconds of kernel time) while keeping task counts low.
DEFAULT_MORSEL_ROWS = 65536

#: Extra-array names inside shared segments.
WEIGHTS_EXTRA = "__weights__"
REP_EXTRA = "__rep__"

#: Per-worker cap on cached (segment, window) attachments (LRU).  Windows
#: are morsel-sized, so entries are small; the cap just bounds how many
#: distinct relations x morsels a worker keeps mapped.
_ATTACH_CACHE_SIZE = 32

#: Per-worker cap on cached segment descriptors (LRU).  A descriptor is
#: sent **once per segment** — it carries the TEXT vocab tuples, which can
#: be large — and tasks reference it by segment name.  The parent mirrors
#: each worker's cache exactly (same inserts, same touches, same
#: evictions, in pipe order), so both sides always agree on which
#: descriptors a worker holds.
_REL_CACHE_SIZE = 16

#: Cap on task frames queued into one worker's pipe at a time.  Task
#: messages are tiny (the descriptor ships separately), so this many
#: always fit in the OS pipe buffer: the parent's sends never block on a
#: worker that is itself blocked writing a large partial, which rules out
#: the send/send deadlock a fire-hose dispatch could produce.  Two keeps
#: a worker busy (one computing, one buffered) without batching latency.
_MAX_INFLIGHT = 2


@dataclass
class ExecutionConfig:
    """Multi-process execution knobs (engine-level).

    ``processes=None`` reads ``MOSAIC_WORKERS`` (unset/0 disables the
    pool); ``morsel_rows=None`` reads ``MOSAIC_MORSEL_ROWS`` (default
    ``DEFAULT_MORSEL_ROWS``).  ``start_method=None`` picks ``fork`` only
    from a single-threaded parent (workers inherit the loaded
    interpreter; ~ms spawn) — the pool spawns lazily on the first
    qualifying query, by which point the engine's OPEN thread pool or the
    TCP server's threads may exist, and forking a multithreaded process
    can deadlock the child on locks held mid-fork (deprecated outright on
    CPython 3.12+).  Threaded parents get ``forkserver`` (or ``spawn``);
    ``fork`` stays available as an explicit opt-in via the field or
    ``MOSAIC_WORKER_START_METHOD``.  ``max_task_retries`` is the per-task
    crash-retry budget (0 fails fast, for deterministic crash tests).
    """

    processes: int | None = None
    morsel_rows: int | None = None
    max_shared_segments: int = 16
    worker_timeout: float = 120.0
    start_method: str | None = None
    max_task_retries: int = 1

    def resolved_processes(self) -> int:
        if self.processes is not None:
            return max(0, int(self.processes))
        env = os.environ.get("MOSAIC_WORKERS", "").strip()
        if env:
            try:
                return max(0, int(env))
            except ValueError:
                return 0
        return 0

    def resolved_morsel_rows(self) -> int:
        if self.morsel_rows is not None:
            return max(1, int(self.morsel_rows))
        env = os.environ.get("MOSAIC_MORSEL_ROWS", "").strip()
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                pass
        return DEFAULT_MORSEL_ROWS

    def resolved_start_method(self) -> str:
        method = self.start_method or os.environ.get(
            "MOSAIC_WORKER_START_METHOD", ""
        ).strip()
        available = get_all_start_methods()
        if method and method in available:
            return method
        if "fork" in available and threading.active_count() == 1:
            return "fork"
        if "forkserver" in available:
            return "forkserver"
        return "spawn"


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #


def _attach_cached(
    attachments: "OrderedDict[tuple, AttachedRelation]", descriptor, start: int, stop: int
) -> AttachedRelation:
    """This worker's attachment for one ``[start, stop)`` window (LRU-cached).

    Attaching *windows* rather than whole relations keeps the per-attach
    TEXT ``vocab[codes]`` gather proportional to the rows this worker
    actually processes; the morsel decomposition is deterministic, so the
    same windows recur across executions of a cached relation and hit the
    cache.  Keys include the segment name, which is unique per segment
    lifetime (uuid suffix), so stale reuse is impossible.
    """
    key = (descriptor.segment, start, stop)
    attached = attachments.get(key)
    if attached is not None:
        attachments.move_to_end(key)
        return attached
    attached = attach_relation(descriptor, window=(start, stop))
    attachments[key] = attached
    while len(attachments) > _ATTACH_CACHE_SIZE:
        _, stale = attachments.popitem(last=False)
        stale.close()
    return attached


def _run_worker_task(plan, descriptor, payload: dict, attachments) -> dict:
    """Execute one plan fragment over an attached shared-relation window."""
    start, stop = payload["start"], payload["stop"]
    attached = _attach_cached(attachments, descriptor, start, stop)
    window = attached.relation  # rows [start, stop) of the shared relation
    if payload["op"] == "morsel":
        weights = attached.extras.get(WEIGHTS_EXTRA) if payload["weighted"] else None
        return execute_plan_morsel(
            plan,
            window,
            0,
            window.num_rows,
            weights,
            payload["domain"],
            payload["cells"],
            row_offset=start,  # representative row ids stay global
        )
    assert payload["op"] == "open"
    rep_ids = attached.extras[REP_EXTRA]
    local_rep_ids = (rep_ids - payload["rep_base"]).astype(np.int64, copy=False)
    return execute_plan_open_shard(
        plan,
        window,
        local_rep_ids,
        payload["rep_count"],
        payload["weight"],
        payload["domain"],
        payload["domain_total"],
        start,
    )


def _worker_main(conn) -> None:
    """Worker process loop: receive plans and tasks, ship partials back.

    Errors inside a task cross the pipe as stable wire codes (the same
    transport the TCP server uses) and are re-raised in the parent; only a
    genuine process death breaks the connection.
    """
    try:  # the parent handles interrupts; workers exit via "stop"/EOF
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    plans: dict[int, object] = {}
    rels: "OrderedDict[str, object]" = OrderedDict()  # mirrored by the parent
    attachments: "OrderedDict[tuple, AttachedRelation]" = OrderedDict()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "stop":
                break
            if op == "plan":
                plans[message[1]] = message[2]
                continue
            if op == "rel":
                rels[message[1]] = message[2]
                while len(rels) > _REL_CACHE_SIZE:
                    rels.popitem(last=False)
                continue
            seq, plan_key, payload = message[1], message[2], message[3]
            try:
                descriptor = rels[payload["rel"]]
                rels.move_to_end(payload["rel"])
                result = _run_worker_task(
                    plans[plan_key], descriptor, payload, attachments
                )
                conn.send(("done", seq, result))
            except BaseException as exc:  # ship *every* failure back
                conn.send(("error", seq, error_to_wire(exc)))
    finally:
        for attached in attachments.values():
            attached.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #


class _PoolUnavailableError(MosaicError):
    """Internal: the pool cannot accept a batch (it stopped under a racing
    shutdown or crash).  Never crosses the wire; callers degrade to the
    bit-identical local loop.  Distinct from task errors, which propagate
    as their real types."""


def _register_crashes(
    crashes: dict[int, int], tasks: dict[int, dict], budget: int
) -> list[int]:
    """Count one crash against every task in ``tasks``; return the seqs
    whose per-task crash count now exceeds the retry ``budget`` (each task
    may be re-run up to ``budget`` times after its first crash)."""
    exhausted = []
    for seq in tasks:
        crashes[seq] = crashes.get(seq, 0) + 1
        if crashes[seq] > budget:
            exhausted.append(seq)
    return exhausted


class _Worker:
    __slots__ = ("process", "conn", "plans", "rels", "outstanding", "queue", "inflight")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.plans: set[int] = set()  # plan keys this worker already holds
        # Exact mirror of the worker's descriptor LRU (insert/touch/evict
        # happen in pipe order on both sides, so they never disagree).
        self.rels: "OrderedDict[str, None]" = OrderedDict()
        self.outstanding: dict[int, dict] = {}  # seq -> payload, unfinished
        self.queue: "deque[int]" = deque()  # assigned but not yet sent
        self.inflight = 0  # task frames in the pipe or being computed


class WorkerPool:
    """A fixed-size pool of persistent worker processes.

    One batch runs at a time (callers serialize); within a batch tasks are
    assigned round-robin by sequence number so the assignment is
    deterministic (results merge by sequence, so assignment only affects
    load balance, never output).  Dispatch is flow-controlled: each worker
    holds at most :data:`_MAX_INFLIGHT` small task frames at a time and
    the parent drains results between sends, so it never blocks writing
    to a worker that is blocked writing a large partial back.  Crash
    recovery: a dead worker's unfinished tasks move to a fresh process,
    at most ``max_task_retries`` times per task; beyond that the pool
    terminates and the batch raises :class:`WorkerCrashError`.
    """

    def __init__(
        self,
        processes: int,
        *,
        batch_timeout: float = 120.0,
        start_method: str = "fork",
        max_task_retries: int = 1,
    ):
        self._processes = max(1, processes)
        self._timeout = batch_timeout
        self._retries = max(0, max_task_retries)
        self._ctx = get_context(start_method)
        self._workers: list[_Worker] = []
        self._plan_keys: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._plan_counter = itertools.count()
        self._lock = threading.Lock()
        self._stopped = False
        self.restarts = 0

    def __len__(self) -> int:
        return self._processes

    @property
    def stopped(self) -> bool:
        """True once the pool terminated (crash, timeout, or stop())."""
        return self._stopped

    @property
    def worker_pids(self) -> list[int]:
        return [w.process.pid for w in self._workers if w.process.pid is not None]

    def start(self) -> None:
        with self._lock:
            if self._stopped:
                raise MosaicError("worker pool already stopped")
            while len(self._workers) < self._processes:
                self._workers.append(self._spawn())

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name="mosaic-worker",
            daemon=True,
        )
        process.start()
        # Drop the parent's copy of the child end: worker death must read
        # as EOF on parent_conn, not a silent hang.
        child_conn.close()
        return _Worker(process, parent_conn)

    def run_batch(self, plan, payloads: Sequence[dict]) -> list[dict]:
        """Execute ``payloads`` (one fragment each) and return results in order."""
        with self._lock:
            if self._stopped or not self._workers:
                raise _PoolUnavailableError("worker pool is not running")
            return self._run_batch_locked(plan, payloads)

    def _plan_key(self, plan) -> int:
        key = self._plan_keys.get(plan)
        if key is None:
            key = next(self._plan_counter)
            self._plan_keys[plan] = key
        return key

    def _run_batch_locked(self, plan, payloads: Sequence[dict]) -> list[dict]:
        plan_key = self._plan_key(plan)
        results: list = [None] * len(payloads)
        for seq, payload in enumerate(payloads):
            worker = self._workers[seq % len(self._workers)]
            worker.outstanding[seq] = payload
            worker.queue.append(seq)
        for worker in self._workers:
            self._pump(worker, plan_key, plan)

        deadline = time.monotonic() + self._timeout
        crashes: dict[int, int] = {}  # seq -> workers that died holding it
        pending = len(payloads)
        while pending:
            active = {w.conn: w for w in self._workers if w.outstanding}
            ready = connection.wait(list(active), timeout=0.1)
            if not ready:
                if time.monotonic() > deadline:
                    self._terminate_locked()
                    raise WorkerCrashError(
                        f"parallel batch stalled for {self._timeout:.0f}s; "
                        "worker pool terminated"
                    )
                continue
            for conn in ready:
                worker = active[conn]
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    self._recover(worker, crashes, plan_key, plan)
                    continue
                kind, seq, value = message
                if seq in worker.outstanding:
                    del worker.outstanding[seq]
                    worker.inflight -= 1
                    results[seq] = (kind, value)
                    pending -= 1
                self._pump(worker, plan_key, plan)

        for kind, value in results:
            if kind == "error":
                raise error_from_wire(*value)
        return [value for _, value in results]

    def _pump(self, worker: _Worker, plan_key: int, plan) -> None:
        """Top ``worker`` up to the in-flight cap (the batch's send side).

        Called once at batch start and again after every result, so sends
        interleave with receives: at most :data:`_MAX_INFLIGHT` tiny task
        frames sit in the pipe while a worker computes.  Plans and segment
        descriptors (the only large messages) go to a worker at most once
        each, and only to a worker that is draining its pipe — at batch
        start or between tasks — never queued behind an unread backlog.
        """
        try:
            while worker.queue and worker.inflight < _MAX_INFLIGHT:
                seq = worker.queue.popleft()
                payload = worker.outstanding[seq]
                if plan_key not in worker.plans:
                    worker.conn.send(("plan", plan_key, plan))
                    worker.plans.add(plan_key)
                descriptor = payload["rel"]
                segment = descriptor.segment
                if segment in worker.rels:
                    worker.rels.move_to_end(segment)
                else:
                    worker.conn.send(("rel", segment, descriptor))
                    worker.rels[segment] = None
                    while len(worker.rels) > _REL_CACHE_SIZE:
                        worker.rels.popitem(last=False)
                worker.conn.send(("task", seq, plan_key, {**payload, "rel": segment}))
                worker.inflight += 1
        except (OSError, ValueError):
            # Worker already dead: the gather loop observes EOF and retries.
            pass

    def _recover(
        self, worker: _Worker, crashes: dict[int, int], plan_key: int, plan
    ) -> None:
        """Respawn a dead worker and retry its tasks, within budget."""
        tasks = dict(worker.outstanding)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=2.0)
        self.restarts += 1
        if _register_crashes(crashes, tasks, self._retries):
            self._terminate_locked()
            raise WorkerCrashError(
                f"worker process died executing parallel task(s) {sorted(tasks)} "
                "and the retry budget is exhausted"
            )
        fresh = self._spawn()
        fresh.outstanding = tasks
        fresh.queue = deque(sorted(tasks))
        self._workers[self._workers.index(worker)] = fresh
        self._pump(fresh, plan_key, plan)

    def _terminate_locked(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
            if worker.process.is_alive():
                worker.process.terminate()
        for worker in self._workers:
            worker.process.join(timeout=2.0)
        self._workers.clear()
        self._stopped = True

    def stop(self) -> None:
        """Graceful, idempotent teardown: stop messages, join, terminate."""
        with self._lock:
            if self._stopped and not self._workers:
                return
            for worker in self._workers:
                try:
                    worker.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
            for worker in self._workers:
                worker.process.join(timeout=2.0)
                try:
                    worker.conn.close()
                except OSError:  # pragma: no cover
                    pass
                if worker.process.is_alive():  # pragma: no cover - stuck worker
                    worker.process.terminate()
                    worker.process.join(timeout=2.0)
            self._workers.clear()
            self._stopped = True


class ParallelExecution:
    """Engine-facing parallel context: pool + segment store + routing.

    Passed as ``execute_plan(..., parallel=...)``.  Exposes
    ``morsel_rows`` (the partition threshold), :meth:`map_morsels` (pool
    or identical in-process loop), and :meth:`run_open_shards` (OPEN
    repetition sharding).  Thread-safe: one pool batch runs at a
    time; a second concurrent query finding the pool busy runs its
    (bit-identical) morsel loop in-process instead of queueing.
    """

    def __init__(
        self,
        config: ExecutionConfig | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.config = config or ExecutionConfig()
        self._processes = self.config.resolved_processes()
        self.morsel_rows = self.config.resolved_morsel_rows()
        self._store = SharedRelationStore(self.config.max_shared_segments)
        self._pool: WorkerPool | None = None
        self._pool_lock = threading.Lock()
        self._batch_lock = threading.Lock()
        self._closed = False
        self._restarts_base = 0  # restarts accumulated by discarded pools
        # Counters live in the engine's metrics registry (or a private one
        # when constructed standalone) so the Prometheus endpoint and
        # cache_stats() read the same numbers.
        registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            name: registry.counter(f"mosaic_pool_{name}_total", help=help_text)
            for name, help_text in (
                ("parallel_batches", "Morsel batches executed on the worker pool"),
                ("local_batches", "Morsel batches executed in-process"),
                ("tasks_dispatched", "Individual tasks shipped to pool workers"),
                ("plan_fallbacks", "Size-qualified plans that could not be morsel-decomposed"),
                ("pool_busy", "Batches that found the pool busy and ran locally"),
            )
        }
        self._worker_crashes = registry.counter(
            "mosaic_pool_worker_crashes_total",
            help="Pool batches terminated by a worker crash or stall",
        )
        # Engines dropped without shutdown() must not leak /dev/shm
        # segments: the finalizer releases the store when this context is
        # collected (the pool's daemon processes die with the parent).
        weakref.finalize(self, SharedRelationStore.close_all, self._store)

    # -- engine integration ------------------------------------------- #

    @property
    def processes(self) -> int:
        return self._processes

    def note_fallback(self) -> None:
        """A size-qualified plan could not be morsel-decomposed."""
        self._counters["plan_fallbacks"].inc()

    def map_morsels(
        self,
        plan,
        relation,
        weights,
        ranges: Sequence[tuple[int, int]],
        domain_sizes: tuple[int, ...],
        total_cells: int,
        share_key: tuple | None = None,
    ) -> list[dict]:
        """Partial aggregates for every morsel, pool-executed when possible.

        The in-process loop below runs the *same* fragment executor over
        the same ranges, so both paths return identical partial lists.
        ``share_key`` is the optional stable segment identity forwarded to
        :meth:`SharedRelationStore.lease` so repeated queries over an
        unchanged relation reuse the live shared segment even when the
        relation object itself was re-derived (see shm.py).
        """
        if not self._closed and self._processes >= 1 and len(ranges) >= 2:
            partials = self._pool_morsels(
                plan, relation, weights, ranges, domain_sizes, total_cells, share_key
            )
            if partials is not None:
                return partials
        self._counters["local_batches"].inc()
        return [
            execute_plan_morsel(
                plan, relation, start, stop, weights, domain_sizes, total_cells
            )
            for start, stop in ranges
        ]

    def _pool_morsels(
        self, plan, relation, weights, ranges, domain_sizes, total_cells, share_key=None
    ) -> list[dict] | None:
        if not self._batch_lock.acquire(blocking=False):
            self._counters["pool_busy"].inc()
            return None
        trace = current_trace()
        try:
            pool = self._ensure_pool()
            if pool is None:
                return None
            extras = {} if weights is None else {WEIGHTS_EXTRA: weights}
            with (
                trace.span("pool.attach", rows=relation.num_rows)
                if trace is not None
                else nullcontext({})
            ):
                try:
                    handle = self._store.lease(relation, extras, key=share_key)
                except MosaicError:
                    return None
            try:
                payloads = [
                    {
                        "op": "morsel",
                        "rel": handle.descriptor,
                        "start": start,
                        "stop": stop,
                        "weighted": weights is not None,
                        "domain": domain_sizes,
                        "cells": total_cells,
                    }
                    for start, stop in ranges
                ]
                with (
                    trace.span(
                        "pool.gather", tasks=len(payloads), workers=self._processes
                    )
                    if trace is not None
                    else nullcontext({})
                ):
                    partials = self._run_pool_batch(pool, plan, payloads)
            finally:
                handle.release()
            if partials is None:
                return None
            self._counters["parallel_batches"].inc()
            self._counters["tasks_dispatched"].inc(len(payloads))
            return partials
        finally:
            self._batch_lock.release()

    def run_open_shards(
        self,
        plan,
        data,
        rep_ids: np.ndarray,
        repetitions: int,
        weight_value: float,
    ):
        """Shard one OPEN repetition chunk across repetitions on the pool.

        Returns ``(aggregate_node, CompositeAggregates)`` — per-cell values
        bit-identical to
        :func:`~repro.engine.compiler.execute_plan_composite`, groups
        numbered over the vocab cross-product domain — or ``None`` when
        the pool should not (or cannot) run it; the caller then uses the
        one-pass in-process composite, which produces the same answer.
        """
        if (
            self._closed
            or self._processes < 1
            or repetitions < 2
            or data.num_rows <= self.morsel_rows
        ):
            return None
        layout = composite_layout(plan, data)
        if layout is None:
            self.note_fallback()
            return None
        aggregate, domain_sizes, domain_total = layout
        if not self._batch_lock.acquire(blocking=False):
            self._counters["pool_busy"].inc()
            return None
        trace = current_trace()
        try:
            pool = self._ensure_pool()
            if pool is None:
                return None
            rep_ids = np.ascontiguousarray(rep_ids, dtype=np.int64)
            with (
                trace.span("pool.attach", rows=data.num_rows, repetitions=repetitions)
                if trace is not None
                else nullcontext({})
            ):
                try:
                    handle = self._store.lease(data, {REP_EXTRA: rep_ids})
                except MosaicError:
                    return None
            try:
                payloads = []
                shards = min(self._processes, repetitions)
                for chunk in np.array_split(np.arange(repetitions), shards):
                    rep_base, rep_stop = int(chunk[0]), int(chunk[-1]) + 1
                    payloads.append(
                        {
                            "op": "open",
                            "rel": handle.descriptor,
                            # rep_ids ascend (batch rows are rep-major), so
                            # shard row ranges come from binary search.
                            "start": int(np.searchsorted(rep_ids, rep_base, "left")),
                            "stop": int(np.searchsorted(rep_ids, rep_stop, "left")),
                            "rep_base": rep_base,
                            "rep_count": rep_stop - rep_base,
                            "weight": float(weight_value),
                            "domain": domain_sizes,
                            "domain_total": domain_total,
                        }
                    )
                with (
                    trace.span(
                        "pool.gather", tasks=len(payloads), workers=self._processes
                    )
                    if trace is not None
                    else nullcontext({})
                ):
                    partials = self._run_pool_batch(pool, plan, payloads)
            finally:
                handle.release()
            if partials is None:
                return None
            self._counters["parallel_batches"].inc()
            self._counters["tasks_dispatched"].inc(len(payloads))
            return aggregate, merge_composite_partials(
                partials, repetitions, domain_total
            )
        finally:
            self._batch_lock.release()

    def _run_pool_batch(
        self, pool: WorkerPool, plan, payloads: Sequence[dict]
    ) -> list[dict] | None:
        """``pool.run_batch`` with failed-pool hygiene.

        A batch that terminates the pool (crash budget exhausted, stall
        timeout) must not leave the dead pool wired into the engine —
        otherwise every later large-scan query would raise instead of
        degrading.  The crash itself still surfaces to the caller; the
        discarded reference lets the *next* query respawn a fresh pool.
        A plain refusal (pool stopped under a racing shutdown) returns
        ``None``: the caller falls back to the bit-identical local loop.
        Real task errors (a predicate raising over the data, say)
        propagate as their own types and leave the pool alone — the local
        loop would raise them identically.
        """
        try:
            return pool.run_batch(plan, payloads)
        except WorkerCrashError as exc:
            self._worker_crashes.inc()
            trace = current_trace()
            if trace is not None:
                # Stamp the failing query's trace id into the error so the
                # crash report and the trace can be correlated.  The id
                # rides error_to_wire's scalar-attribute shipping across
                # the server boundary for free.
                exc.trace_id = trace.trace_id
                if exc.args:
                    exc.args = (f"{exc.args[0]} [trace {trace.trace_id}]",)
            self._discard_pool(pool)
            raise
        except _PoolUnavailableError:
            self._discard_pool(pool)
            return None

    def _discard_pool(self, pool: WorkerPool) -> None:
        """Forget a terminated pool so the next query can respawn one."""
        with self._pool_lock:
            if self._pool is pool:
                self._restarts_base += pool.restarts
                self._pool = None
        pool.stop()

    # -- lifecycle ----------------------------------------------------- #

    def _ensure_pool(self) -> WorkerPool | None:
        with self._pool_lock:
            if self._closed:
                return None
            if self._pool is not None and self._pool.stopped:
                # A failed batch terminated this pool; respawn a fresh one.
                self._restarts_base += self._pool.restarts
                self._pool = None
            if self._pool is None:
                pool = WorkerPool(
                    self._processes,
                    batch_timeout=self.config.worker_timeout,
                    start_method=self.config.resolved_start_method(),
                    max_task_retries=self.config.max_task_retries,
                )
                try:
                    pool.start()
                except Exception:  # pragma: no cover - spawn failure
                    pool.stop()
                    self._processes = 0
                    return None
                self._pool = pool
                weakref.finalize(self, WorkerPool.stop, pool)
            return self._pool

    def shutdown(self) -> None:
        """Stop workers and unlink every shared segment (idempotent)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.stop()
        self._store.close_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> list[int]:
        pool = self._pool
        return pool.worker_pids if pool is not None else []

    def stats(self) -> dict[str, int]:
        """Flat counters for observability (``Engine.cache_stats``)."""
        store = self._store.stats()
        pool = self._pool
        return {
            "workers": self._processes,
            "worker_restarts": self._restarts_base
            + (pool.restarts if pool is not None else 0),
            **{name: int(c.value()) for name, c in self._counters.items()},
            "worker_crashes": int(self._worker_crashes.value()),
            "segments_shared": store["shares"],
            "segment_reuses": store["reuses"],
            "segment_evictions": store["evictions"],
            # Durable page files served to workers without any shm copy
            # (the zero-copy path for mmap-backed relations; see
            # repro.storage.pages and shm.MappedSegmentHandle).
            "segment_mmap_leases": store["mmap_leases"],
            "live_segments": store["live_segments"],
        }
