"""``MosaicDB``: the public facade tying the whole system together.

Typical SQL session (the paper's Sec. 2 motivating example)::

    db = MosaicDB(seed=0)
    db.execute("CREATE TEMPORARY TABLE Eurostat (country TEXT, email TEXT, n INT)")
    db.execute("INSERT INTO Eurostat VALUES ('UK', 'Yahoo', 20000), ...")
    db.execute("CREATE GLOBAL POPULATION EuropeMigrants (country TEXT, email TEXT)")
    db.execute("CREATE METADATA EuropeMigrants_M1 AS (SELECT country, n FROM Eurostat)")
    db.execute("CREATE SAMPLE YahooMigrants AS (SELECT * FROM EuropeMigrants "
               "WHERE email = 'Yahoo')")
    db.ingest_rows("YahooMigrants", [...])
    result = db.execute("SELECT SEMI-OPEN country, email, COUNT(*) "
                        "FROM EuropeMigrants GROUP BY country, email")

Since the Engine / Session split (see ``ARCHITECTURE.md``), ``MosaicDB``
is a thin facade: it builds one shared thread-safe
:class:`~repro.core.engine.Engine` plus a root
:class:`~repro.core.session.Session` and delegates every call.  Concurrent
clients open their own sessions over the same engine::

    conn = db.connect()                 # cheap; independent RNG + defaults
    conn.execute("SELECT CLOSED COUNT(*) FROM YahooMigrants")

Programmatic helpers (:meth:`draw_sample`, :meth:`register_marginal`,
:meth:`ingest_relation`) cover what experiments need beyond the SQL
surface.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from repro.catalog.metadata import Marginal
from repro.core.engine import Engine
from repro.core.result import QueryResult
from repro.core.workers import ExecutionConfig
from repro.core.session import Session, SessionConfig
from repro.core.visibility import Visibility
from repro.engine.open_world import OpenQueryConfig
from repro.mechanisms.base import SamplingMechanism
from repro.relational.relation import Relation


class MosaicDB:
    """An in-memory Mosaic database instance.

    Owns a shared :class:`Engine` and a root :class:`Session`; every
    method delegates to one of the two.  The facade itself is exactly as
    thread-safe as its root session — for concurrent clients, hand each
    thread its own session from :meth:`connect`.
    """

    def __init__(
        self,
        seed: int = 0,
        default_visibility: Visibility = Visibility.SEMI_OPEN,
        open_config: OpenQueryConfig | None = None,
        combine_samples: bool = False,
        execution: ExecutionConfig | None = None,
        data_dir: str | None = None,
    ):
        config = SessionConfig(
            seed=seed,
            default_visibility=default_visibility,
            combine_samples=combine_samples,
        )
        if open_config is not None:
            config.open_config = open_config
        self.engine = Engine(
            seed=seed,
            statement_cache_size=config.statement_cache_size,
            plan_cache_size=config.plan_cache_size,
            reweight_cache_size=config.reweight_cache_size,
            generator_cache_size=config.generator_cache_size,
            execution=execution,
            data_dir=data_dir,
        )
        self.session = self.engine.root_session(config)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Shut the shared engine down (idempotent).

        Drains the OPEN-repetition thread pool and fences further
        statements with :class:`~repro.errors.SessionClosedError` — the
        deterministic teardown the network server builds on.
        """
        self.session.close()
        self.engine.shutdown()

    shutdown = close

    def __enter__(self) -> "MosaicDB":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Connections
    # ------------------------------------------------------------------ #

    def connect(
        self,
        default_visibility: Visibility | None = None,
        open_config: OpenQueryConfig | None = None,
        combine_samples: bool | None = None,
    ) -> Session:
        """Open a new session over this database's shared engine.

        Each session sees the same catalog and caches but keeps its own
        defaults and an independent deterministic RNG (child ``k`` of the
        engine's root ``SeedSequence``, ``k`` = connection order).
        Omitted arguments inherit the facade's current defaults.
        """
        import dataclasses

        root = self.session.config
        config = SessionConfig(
            seed=root.seed,
            default_visibility=(
                root.default_visibility
                if default_visibility is None
                else default_visibility
            ),
            combine_samples=(
                root.combine_samples if combine_samples is None else combine_samples
            ),
        )
        # Inherited OPEN config is *copied*: set_open_generator (or any
        # repetitions/tolerance tweak) on one session must not leak into
        # the root or sibling sessions.
        config.open_config = (
            dataclasses.replace(root.open_config)
            if open_config is None
            else open_config
        )
        return self.engine.connect(config)

    # ------------------------------------------------------------------ #
    # Backward-compatible delegation
    # ------------------------------------------------------------------ #

    @property
    def catalog(self):
        return self.engine.catalog

    @property
    def config(self) -> SessionConfig:
        return self.session.config

    @property
    def rng(self) -> np.random.Generator:
        return self.session.rng

    def execute(self, sql: str) -> QueryResult:
        """Parse and run one statement; DDL returns an empty status result."""
        return self.session.execute(sql)

    def execute_script(self, sql: str) -> list[QueryResult]:
        """Run a ``;``-separated script, returning one result per statement."""
        return self.session.execute_script(sql)

    def query(self, sql: str) -> QueryResult:
        """Alias of :meth:`execute` for read-only callers."""
        return self.session.execute(sql)

    def execute_statement(self, statement, sql_text: str | None = None) -> QueryResult:
        """Run an already-parsed (programmatic) statement AST."""
        return self.session.execute_statement(statement, sql_text=sql_text)

    def checkpoint(self) -> dict:
        """Durably persist catalog + fitted models (needs ``data_dir``)."""
        return self.engine.checkpoint()

    def commit(self) -> dict:
        """Alias of :meth:`checkpoint` (worldbase-style commit idiom)."""
        return self.engine.commit()

    def rollback(self) -> dict:
        """Discard every mutation since the last checkpoint (needs ``data_dir``)."""
        return self.engine.rollback()

    def clear_caches(self) -> None:
        """Empty all pipeline caches (plans, statements, reweights, models)."""
        self.engine.clear_caches()

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss/size counters for every engine cache (all sessions)."""
        return self.engine.cache_stats()

    def ingest_relation(self, name: str, relation: Relation) -> None:
        """Append tuples to a sample or auxiliary table by name."""
        self.engine.ingest_relation(name, relation)

    def ingest_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> None:
        self.engine.ingest_rows(name, rows)

    def draw_sample(
        self,
        name: str,
        population_name: str,
        population_data: Relation,
        mechanism: SamplingMechanism,
    ):
        """Draw a concrete sample from materialised population data.

        Experiment-harness helper: real Mosaic deployments never hold
        population tuples, but reproductions do, and need samples whose
        bias is known exactly.
        """
        return self.session.draw_sample(
            name, population_name, population_data, mechanism
        )

    def register_marginal(
        self, metadata_name: str, population_name: str, marginal: Marginal
    ) -> None:
        """Attach a precomputed marginal to a population."""
        self.engine.register_marginal(metadata_name, population_name, marginal)

    def set_open_generator(self, factory) -> None:
        """Replace the OPEN generator factory (e.g. swap in BayesNetGenerator)."""
        self.session.set_open_generator(factory)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MosaicDB({self.engine.catalog!r})"
