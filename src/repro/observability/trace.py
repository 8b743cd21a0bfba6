"""Per-query trace spans with context propagation and sampling.

A :class:`QueryTrace` records a flat list of named spans (start offset +
duration + free-form annotations) plus trace-level metadata and child
traces (the fleet router stitches per-shard traces under one gather).
The active trace travels in a :mod:`contextvars` variable so deep layers
— plan compilation, the OPEN repetition loop, the re-rake — can
annotate the current query without every signature growing a parameter.

Sampling (``MOSAIC_TRACE_SAMPLE``) is counter-based, not random: a rate
of ``r`` traces every ``round(1/r)``-th query, deterministically, so a
given workload always traces the same queries and the untraced majority
pays only an env read and a counter bump.  ``1`` traces everything,
``0`` disables tracing entirely.  The default (:data:`DEFAULT_SAMPLE`)
traces one query in 64 — always-on visibility whose p50 cost on the
CLOSED hot path is zero, because the median query runs the untraced
path (mosaicbench's ``closed_p50_ms`` cells run at this default).

``EXPLAIN ANALYZE`` bypasses sampling: the user asked for the trace.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter

__all__ = [
    "DEFAULT_SAMPLE",
    "QueryTrace",
    "current_trace",
    "maybe_trace",
    "new_trace_id",
    "trace_sample_rate",
]

#: Default sampling rate when ``MOSAIC_TRACE_SAMPLE`` is unset: one
#: query in 64 carries a full trace.
DEFAULT_SAMPLE = 1.0 / 64.0

_ENV_VAR = "MOSAIC_TRACE_SAMPLE"

_current: ContextVar["QueryTrace | None"] = ContextVar("mosaic_trace", default=None)

#: Monotonically increasing trace-id source.  The process-unique prefix
#: (urandom, drawn once) keeps ids globally unique across shard
#: processes; the counter keeps them unique and cheap within one.
_id_prefix = os.urandom(4).hex()
_id_counter = itertools.count(1)

# Sampling state: (raw env string, parsed rate) cache + query counter.
_rate_cache: tuple[str | None, float] = (None, DEFAULT_SAMPLE)
_sample_counter = itertools.count()


def new_trace_id() -> str:
    """A globally unique 16-hex-char trace id."""
    return f"{_id_prefix}{next(_id_counter):08x}"


def trace_sample_rate() -> float:
    """The effective sampling rate (``MOSAIC_TRACE_SAMPLE``, clamped to
    [0, 1]; unparseable values fall back to :data:`DEFAULT_SAMPLE`)."""
    global _rate_cache
    raw = os.environ.get(_ENV_VAR)
    cached_raw, cached_rate = _rate_cache
    if raw == cached_raw:
        return cached_rate
    if raw is None:
        rate = DEFAULT_SAMPLE
    else:
        try:
            rate = min(1.0, max(0.0, float(raw)))
        except ValueError:
            rate = DEFAULT_SAMPLE
    _rate_cache = (raw, rate)
    return rate


def maybe_trace() -> "QueryTrace | None":
    """A new :class:`QueryTrace` for this query, or ``None`` if the
    deterministic sampler skips it.  This is the hot-path gate: the
    skip branch costs one env read and one counter increment."""
    rate = trace_sample_rate()
    if rate <= 0.0:
        return None
    period = max(1, round(1.0 / rate))
    if next(_sample_counter) % period != 0:
        return None
    return QueryTrace()


def current_trace() -> "QueryTrace | None":
    """The trace active in this context, or ``None``.  Every
    instrumentation site guards on this, so untraced queries skip all
    recording."""
    return _current.get()


class QueryTrace:
    """One query's spans, annotations, and stitched child traces.

    Spans are plain dicts (``name``, ``start_ms``, ``ms``, plus whatever
    the instrumented site annotates) appended in completion order —
    cheap to record, trivially JSON-serializable for the wire ``trace``
    header.  A trace is built by exactly one thread at a time (the
    thread executing the query), so recording needs no locking.
    """

    __slots__ = ("trace_id", "explain", "spans", "meta", "children", "_t0", "_total_ms")

    def __init__(self, trace_id: str | None = None, explain: bool = False):
        self.trace_id = trace_id or new_trace_id()
        #: True when the user asked for the trace (EXPLAIN ANALYZE):
        #: enables the per-plan-node recording the sampled path skips.
        self.explain = explain
        self.spans: list[dict] = []
        self.meta: dict = {}
        self.children: list[dict] = []
        self._t0 = perf_counter()
        self._total_ms: float | None = None

    # -- recording ------------------------------------------------------ #

    @contextmanager
    def activate(self):
        """Make this the context's current trace for the duration."""
        token = _current.set(self)
        try:
            yield self
        finally:
            _current.reset(token)

    @contextmanager
    def span(self, name: str, **annotations):
        """Record one named span around the ``with`` body.  The yielded
        dict is the span itself — mutate it to annotate."""
        entry: dict = {"name": name, "start_ms": self._elapsed_ms(), "ms": 0.0}
        if annotations:
            entry.update(annotations)
        started = perf_counter()
        try:
            yield entry
        finally:
            entry["ms"] = round((perf_counter() - started) * 1e3, 4)
            self.spans.append(entry)

    def annotate(self, key: str, value) -> None:
        """Attach trace-level metadata (visibility, cache provenance,
        adaptive-stop details, ...)."""
        self.meta[key] = value

    def add_child(self, child: dict) -> None:
        """Stitch a serialized child trace (e.g. one shard's trace of a
        scattered query) under this one."""
        self.children.append(child)

    def finish(self) -> None:
        """Freeze the total duration (idempotent)."""
        if self._total_ms is None:
            self._total_ms = self._elapsed_ms()

    def _elapsed_ms(self) -> float:
        return round((perf_counter() - self._t0) * 1e3, 4)

    # -- serialization -------------------------------------------------- #

    def to_dict(self) -> dict:
        """JSON-safe form for the wire ``trace`` response-header field."""
        self.finish()
        payload: dict = {
            "trace_id": self.trace_id,
            "total_ms": self._total_ms,
            "spans": self.spans,
        }
        if self.meta:
            payload["meta"] = self.meta
        if self.children:
            payload["children"] = self.children
        return payload
