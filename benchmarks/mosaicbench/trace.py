"""Spans recorded from outside the program, and their self-time arithmetic.

The benchmark wraps functions of ``repro.*`` at its layer boundaries
(nothing under ``src/`` is edited): :meth:`Tracer.install` replaces each
target function object wherever it is bound in a ``repro.*`` module
namespace (``from x import f`` copies included) or on its class, and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``[name, start, end, parent, op_id, value]`` kept in one
in-memory list; nothing is written until the run ends.  ``parent`` is the
index of the span that caused this one, ``op_id`` the operation (one
request of the load generator) it belongs to.

Within a thread or asyncio task the parent is the innermost open span
(a ``ContextVar``).  A request crosses threads three times in this
program — client socket -> router task -> router executor thread ->
server executor thread — and at each hop the blocked caller *offers*
itself under the request's SQL text and the callee *adopts* it, so the
tree stays one tree per operation.

Self time follows the choosing-metrics guide: a span's duration minus
the part of that interval its child spans cover.  Children that overlap
in time ran in parallel; only the one that finishes last blocks the
result, so its subtree is counted, the other subtrees are *hidden*, and
the part of the overlap cluster not covered by the blocking child is
reported as ``<parent name>.fanout``.  With that rule the rows of an
operation always sum to its duration.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

NAME, START, END, PARENT, OP, VALUE = range(6)

OP_PREFIX = "op:"
UNATTRIBUTED = "unattributed"

_current: contextvars.ContextVar[int] = contextvars.ContextVar(
    "mosaicbench_span", default=-1
)


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``path`` is ``"package.module:function"`` or
    ``"package.module:Class.method"``.  ``tag`` extracts the request's SQL
    text from the call's positional arguments (needed by ``offer`` /
    ``adopt``); ``value`` extracts a count from ``(args, kwargs, result)``.
    ``factory`` marks a method that *returns* the callable doing the work
    (the server builds a closure per request and runs it on its executor):
    the span then covers the closure's run, not its construction.
    """

    path: str
    name: str
    tag: Callable[[tuple], str] | None = None
    offer: str | None = None
    adopt: str | None = None
    adopt_consumes: bool = True
    adopted_name: str | None = None  # span name when the parent was adopted
    value: Callable[[tuple, dict, Any], Any] | None = None
    factory: bool = False


class Tracer:
    """In-memory span recorder plus the installer of its wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._lock = threading.Lock()
        self._ops = 0
        # hop kind -> sql -> stack of span indices blocked on that request
        self._offers: dict[str, dict[str, list[int]]] = defaultdict(
            lambda: defaultdict(list)
        )
        self._installed: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _open(self, name: str, parent: int, op_id: int | None) -> int:
        record = [name, 0.0, 0.0, parent, op_id, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        record[START] = perf_counter()
        return index

    def begin_op(self, op_class: str):
        """Open the root span of one operation on the calling thread."""
        with self._lock:
            self._ops += 1
            op_id = self._ops
        index = self._open(OP_PREFIX + op_class, -1, op_id)
        return index, _current.set(index)

    def end_op(self, handle, start: float, end: float) -> None:
        """Close an operation, pinning it to the latency the caller measured."""
        index, token = handle
        _current.reset(token)
        self.spans[index][START] = start
        self.spans[index][END] = end

    def _adopt(self, target: Target, sql: str | None) -> int:
        if target.adopt is None or sql is None:
            return -1
        with self._lock:
            stack = self._offers[target.adopt].get(sql)
            if not stack:
                return -1
            return stack.pop() if target.adopt_consumes else stack[-1]

    def _run(self, target: Target, args):
        parent = _current.get()
        sql = target.tag(args) if target.tag is not None else None
        name = target.name
        if parent < 0:
            parent = self._adopt(target, sql)
            if parent >= 0 and target.adopted_name is not None:
                name = target.adopted_name
        op_id = self.spans[parent][OP] if parent >= 0 else None
        index = self._open(name, parent, op_id)
        offered = target.offer is not None and sql is not None
        if offered:
            with self._lock:
                self._offers[target.offer][sql].append(index)
        token = _current.set(index)
        return index, token, (sql if offered else None)

    def _finish(self, target: Target, index: int, token, offered_sql) -> None:
        self.spans[index][END] = perf_counter()
        _current.reset(token)
        if offered_sql is not None:
            with self._lock:
                stack = self._offers[target.offer][offered_sql]
                if index in stack:
                    stack.remove(index)

    def _wrap(self, target: Target, fn):
        tracer = self

        def traced_call(call, args, kwargs):
            index, token, offered = tracer._run(target, args)
            try:
                result = call()
                if target.value is not None:
                    tracer.spans[index][VALUE] = target.value(args, kwargs, result)
                return result
            finally:
                tracer._finish(target, index, token, offered)

        if target.factory:

            @functools.wraps(fn)
            def factory_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                if not tracer.enabled:
                    return inner
                return lambda: traced_call(inner, args, kwargs)

            return factory_wrapper

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                index, token, offered = tracer._run(target, args)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._finish(target, index, token, offered)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return traced_call(lambda: fn(*args, **kwargs), args, kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    # Installing the wrappers
    # ------------------------------------------------------------------ #

    def install(self, targets: list[Target]) -> None:
        """Wrap every target; a target that no longer exists is an error,
        so a rename in the program fails the traced run loudly instead of
        silently dropping a layer from the budget."""
        for target in targets:
            module_name, _, attr_path = target.path.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, method = attr_path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                setattr(owner, method, self._wrap(target, original))
                self._installed.append((owner, method, original))
                continue
            original = getattr(module, attr_path)
            wrapped = self._wrap(target, original)
            for name, candidate in list(sys.modules.items()):
                if candidate is None or not (
                    name == "repro" or name.startswith("repro.")
                ):
                    continue
                for attr, bound in list(vars(candidate).items()):
                    if bound is original:
                        setattr(candidate, attr, wrapped)
                        self._installed.append((candidate, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# Self-time arithmetic (pure functions over a span list)
# ---------------------------------------------------------------------- #


def self_times(spans: list[list]) -> tuple[list[float], list[bool], dict[int, float]]:
    """Per-span self time, hidden flags, and per-parent fan-out time.

    Returns ``(self_seconds, hidden, fanout_seconds_by_parent)``.  A span
    is hidden when it sits in a subtree that ran in parallel with a
    sibling that finished later (see the module docstring).
    """
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)

    own = [span[END] - span[START] for span in spans]
    hidden = [False] * len(spans)
    fanout: dict[int, float] = {}
    for parent, kids in children.items():
        low, high = spans[parent][START], spans[parent][END]
        clipped = sorted(
            (max(spans[k][START], low), min(spans[k][END], high), k) for k in kids
        )
        covered = 0.0
        extra = 0.0
        cluster: list[tuple[float, float, int]] = []

        def close_cluster() -> tuple[float, float]:
            union = max(e for _, e, _ in cluster) - cluster[0][0]
            if len(cluster) == 1:
                return union, 0.0
            blocking = max(cluster, key=lambda item: item[1])
            for _, _, k in cluster:
                if k != blocking[2]:
                    hidden[k] = True
            return union, union - (blocking[1] - blocking[0])

        for start, end, k in clipped:
            if end <= start:
                continue
            if cluster and start >= max(e for _, e, _ in cluster):
                union, spare = close_cluster()
                covered += union
                extra += spare
                cluster = []
            cluster.append((start, end, k))
        if cluster:
            union, spare = close_cluster()
            covered += union
            extra += spare
        own[parent] = max(0.0, own[parent] - covered)
        if extra > 0.0:
            fanout[parent] = extra
    # A parent always has a lower index than its children (it was open
    # when they were created), so one forward pass propagates hiding.
    for index, span in enumerate(spans):
        if span[PARENT] >= 0 and hidden[span[PARENT]]:
            hidden[index] = True
    return own, hidden, fanout


def budgets(spans: list[list], row_of: Callable[[str], str]) -> dict[str, dict]:
    """Per operation class: mean milliseconds per row, summing to the mean
    operation duration.

    ``row_of`` maps a span name to its budget row (several wrapped calls
    can share a layer row).  The operation root's own self time — time no
    wrapped call covers — is the ``unattributed`` row.
    """
    own, hidden, fanout = self_times(spans)
    root_of: list[int] = [-1] * len(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counts: dict[str, int] = defaultdict(int)
    durations: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        parent = span[PARENT]
        is_root = span[NAME].startswith(OP_PREFIX)
        root_of[index] = index if is_root else (root_of[parent] if parent >= 0 else -1)
        root = root_of[index]
        if root < 0 or hidden[index]:
            continue
        op_class = spans[root][NAME][len(OP_PREFIX):]
        if is_root:
            counts[op_class] += 1
            durations[op_class] += span[END] - span[START]
            totals[op_class][UNATTRIBUTED] += own[index]
        else:
            totals[op_class][row_of(span[NAME])] += own[index]
        if index in fanout:
            totals[op_class][row_of(span[NAME] + ".fanout")] += fanout[index]
    table: dict[str, dict] = {}
    for op_class, rows in totals.items():
        n = counts[op_class]
        table[op_class] = {
            "ops": n,
            "mean_ms": durations[op_class] / n * 1e3,
            "rows": {row: seconds / n * 1e3 for row, seconds in sorted(rows.items())},
        }
    return table


def render_budget(workload: str, table: dict[str, dict]) -> str:
    """The budget table as text: one block per operation class."""
    lines = []
    for op_class, entry in sorted(table.items()):
        mean = entry["mean_ms"]
        lines.append(
            f"budget {workload}/{op_class}: {entry['ops']} ops, "
            f"traced mean {mean:.4f} ms"
        )
        accounted = 0.0
        for row, value in sorted(entry["rows"].items(), key=lambda kv: -kv[1]):
            share = value / mean * 100.0 if mean else 0.0
            accounted += value
            lines.append(f"  {row:<32s} {value:10.4f} ms  {share:6.2f}%")
        lines.append(f"  {'sum of rows':<32s} {accounted:10.4f} ms")
    return "\n".join(lines)
