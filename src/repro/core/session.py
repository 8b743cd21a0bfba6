"""Per-connection state: :class:`SessionConfig` defaults and :class:`Session`.

A :class:`Session` is the cheap, per-client half of the Engine / Session
split (see ``ARCHITECTURE.md``): it carries only the client's tunable
defaults (:class:`SessionConfig`) and a private deterministic RNG, and
delegates every statement to the shared thread-safe
:class:`~repro.core.engine.Engine`.  Sessions are cheap to create
(``engine.connect()`` / ``MosaicDB.connect()``) and many may execute
concurrently; one session object is *not* itself a concurrency unit —
issue concurrent statements from distinct sessions, one per thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.visibility import Visibility
from repro.engine.open_world import OpenQueryConfig
from repro.errors import SessionClosedError
from repro.observability.trace import maybe_trace

if TYPE_CHECKING:
    from repro.catalog.metadata import Marginal
    from repro.catalog.sample import SampleRelation
    from repro.core.engine import Engine
    from repro.core.result import QueryResult
    from repro.mechanisms.base import SamplingMechanism
    from repro.relational.relation import Relation


@dataclass
class SessionConfig:
    """Tunable defaults for one database session.

    ``default_visibility`` applies when a population query omits the
    visibility keyword.  The paper leaves the default open; SEMI-OPEN is
    the conservative open-world choice (no false positives), so it is ours.

    ``combine_samples`` enables the Sec. 7 "Multiple Samples" extension:
    union all schema-compatible samples of a population before reweighting
    instead of picking the single largest.

    ``seed`` seeds the facade's root session RNG.  Sessions opened with
    ``connect()`` ignore it: their RNGs are spawned deterministically from
    the engine's root ``np.random.SeedSequence`` instead.

    The ``*_cache_size`` fields bound the engine-level compiled-pipeline
    caches (see ``ARCHITECTURE.md``): parsed statements and logical plans
    per SQL text, debiased SEMI-OPEN weight vectors per (population,
    sample), and fitted OPEN generators per (population, sample, factory).
    They take effect when the *engine* is constructed (``MosaicDB()``
    reads them from its root config); the caches are shared by every
    session of that engine.  Set a size to 0 to disable that cache.
    """

    seed: int = 0
    default_visibility: Visibility = Visibility.SEMI_OPEN
    combine_samples: bool = False
    open_config: OpenQueryConfig = field(default_factory=OpenQueryConfig)
    statement_cache_size: int = 256
    plan_cache_size: int = 256
    reweight_cache_size: int = 64
    generator_cache_size: int = 32


class Session:
    """One client's connection to a shared :class:`Engine`.

    Holds the per-connection defaults and a deterministic private RNG; all
    catalog state and caches live on the engine.  Created via
    :meth:`Engine.connect` (RNG spawned from the engine's root
    ``SeedSequence``) or :meth:`Engine.root_session` (RNG seeded directly,
    the facade's backward-compatible path).
    """

    def __init__(
        self,
        engine: "Engine",
        config: SessionConfig,
        rng: np.random.Generator,
        spawn_index: int | None = None,
    ):
        self.engine = engine
        self.config = config
        self.rng = rng
        #: Connection ordinal for sessions opened via :meth:`Engine.connect`
        #: (``None`` for root sessions).  Determines the RNG stream: session
        #: ``k`` draws from child ``k`` of the engine's root SeedSequence,
        #: so the index is what a network client needs to reproduce this
        #: session's OPEN answers in-process.
        self.spawn_index = spawn_index
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close this session; further statements raise ``SessionClosedError``.

        Idempotent.  Sessions hold no engine-side resources (the catalog
        and caches are the engine's), so closing is purely a deterministic
        teardown marker — the server relies on it to fence queries racing a
        disconnecting client.
        """
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("session is closed")

    # ------------------------------------------------------------------ #
    # SQL entry points
    # ------------------------------------------------------------------ #

    def execute(self, sql: str) -> "QueryResult":
        """Parse and run one statement; DDL returns an empty status result.

        This is the tracing root: when the deterministic sampler elects
        this query (``MOSAIC_TRACE_SAMPLE``), a
        :class:`~repro.observability.QueryTrace` is activated around the
        whole parse→bind→compile→execute pipeline and its serialized form
        rides out on ``result.trace``.  Unsampled queries take the
        original untraced path (one env read + one counter bump).
        """
        self._check_open()
        trace = maybe_trace()
        if trace is None:
            return self.engine.execute(sql, self)
        with trace.activate():
            result = self.engine.execute(sql, self)
        trace.finish()
        if result.trace is None:
            # EXPLAIN ANALYZE builds its own trace payload; keep it.
            result.trace = trace.to_dict()
        return result

    def execute_script(self, sql: str) -> list["QueryResult"]:
        """Run a ``;``-separated script, returning one result per statement."""
        self._check_open()
        return self.engine.execute_script(sql, self)

    def execute_statement(self, statement, sql_text: str | None = None) -> "QueryResult":
        """Run an already-parsed (programmatic) statement AST."""
        self._check_open()
        return self.engine.execute_statement(statement, self, sql_text=sql_text)

    # ------------------------------------------------------------------ #
    # Programmatic API (delegated; engine handles locking)
    # ------------------------------------------------------------------ #

    def draw_sample(
        self,
        name: str,
        population_name: str,
        population_data: "Relation",
        mechanism: "SamplingMechanism",
    ) -> "SampleRelation":
        """Draw a concrete sample using this session's RNG."""
        return self.engine.draw_sample(
            name, population_name, population_data, mechanism, rng=self.rng
        )

    def register_marginal(
        self, metadata_name: str, population_name: str, marginal: "Marginal"
    ) -> None:
        self.engine.register_marginal(metadata_name, population_name, marginal)

    def set_open_generator(self, factory) -> None:
        """Replace this session's OPEN generator factory.

        Fitted generators are cached per (population, sample, factory), so
        no global invalidation is needed: the new factory maps to fresh
        cache keys, and other sessions' models stay warm.
        """
        self.config.open_config.generator_factory = factory

    # ------------------------------------------------------------------ #
    # Engine observability passthroughs
    # ------------------------------------------------------------------ #

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Engine-wide cache counters (shared across sessions)."""
        return self.engine.cache_stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session(default_visibility={self.config.default_visibility}, "
            f"engine={self.engine!r})"
        )
