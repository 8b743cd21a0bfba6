"""The shared :class:`Engine`: catalog + caches behind a readers-writer lock.

The engine is the process-wide half of the Engine / Session split (see
``ARCHITECTURE.md``).  It owns everything shared between connections:

- the :class:`~repro.catalog.catalog.Catalog` of populations, samples,
  auxiliary tables and metadata,
- the four pipeline caches (parsed statements, logical plans, SEMI-OPEN
  reweights, fitted OPEN generators),
- the :class:`~repro.core.locks.ReadWriteLock` that serializes catalog
  mutation against concurrent reads.

Per-connection state — default visibility, OPEN configuration, the
session RNG — lives in :class:`~repro.core.session.Session`; every
statement entry point here takes the calling session as an argument.

Locking contract
----------------
SELECT statements run under the **read** lock: any number execute
concurrently, and the catalog objects they read (sample tuples/weights,
population metadata, uids and versions) cannot change underneath them.
DDL, INSERT, and UPDATE WEIGHTS run under the **write** lock, fully
exclusive.  The caches are internally thread-safe, so read-side execution
may populate them without upgrading the lock.  All lock acquisition
happens in :meth:`_execute_statement`; every ``_run_*`` helper below runs
lock-free under the caller's hold and must never re-enter ``execute``.
"""

from __future__ import annotations

import itertools
import os
import threading
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from repro.catalog.catalog import Catalog
from repro.catalog.metadata import Marginal
from repro.catalog.population import PopulationRelation
from repro.catalog.sample import SampleRelation
from repro.core.caches import LRUCache, VersionedLRUCache
from repro.core.locks import ReadWriteLock
from repro.core.result import QueryResult
from repro.core.visibility import Visibility
from repro.core.workers import ExecutionConfig, ParallelExecution
from repro.engine.closed import closed_source, evaluate_closed
from repro.engine.compiler import (
    compile_select,
    execute_plan,
    execute_plan_partial,
    partial_aggregate_form,
)
from repro.engine.executor import execute_select
from repro.engine.open_world import evaluate_open
from repro.engine.plan import LogicalPlan
from repro.engine.planner import PlannedSource, choose_sample
from repro.engine.semi_open import evaluate_semi_open, reweighted_sample
from repro.errors import (
    CatalogError,
    PartialUnsupportedError,
    SessionClosedError,
    SqlCompileError,
    VisibilityError,
)
from repro.mechanisms import StratifiedMechanism, UniformMechanism
from repro.mechanisms.base import SamplingMechanism
from repro.observability import MetricsRegistry, QueryTrace, current_trace
from repro.relational.relation import Relation, dictionary_stats
from repro.relational.schema import Field, Schema
from repro.sql.ast_nodes import (
    CreateMetadata,
    CreatePopulation,
    CreateSample,
    CreateTable,
    Drop,
    ExplainAnalyze,
    Insert,
    MechanismSpec,
    SelectQuery,
    Statement,
    UpdateWeights,
)
from repro.sql.binder import bind_expression, require_column
from repro.sql.parser import parse_script, parse_statement
from repro.storage.store import DurableStore

if TYPE_CHECKING:  # circular at runtime: session imports engine for typing only
    from repro.core.session import Session, SessionConfig


class Engine:
    """The shared, thread-safe core a set of sessions executes against."""

    def __init__(
        self,
        seed: int = 0,
        statement_cache_size: int = 256,
        plan_cache_size: int = 256,
        reweight_cache_size: int = 64,
        generator_cache_size: int = 32,
        execution: ExecutionConfig | None = None,
        data_dir: str | os.PathLike | None = None,
        wal_sync: bool = False,
    ):
        self.catalog = Catalog()
        self._lock = ReadWriteLock()
        # Deterministic session spawning: session k (in connect order) draws
        # its RNG from child k of this root SeedSequence, so a fixed engine
        # seed plus a fixed connection order reproduces every session's
        # random stream exactly (np.random.SeedSequence spawn semantics).
        self._seed_sequence = np.random.SeedSequence(seed)
        self._spawned_sessions = itertools.count()
        # Children are cached so connect(spawn_index=k) can deterministically
        # (re)produce child k regardless of connect order — the fleet router
        # uses this to replay one logical client's RNG stream on every shard.
        self._seed_children: list[np.random.SeedSequence] = []
        self._spawn_mutex = threading.Lock()
        # Pipeline caches (see ARCHITECTURE.md).  Statement/plan caches key
        # on immutable inputs (SQL text, relation kind, schema fingerprint,
        # weightedness) and never need invalidation; model caches key on
        # catalog uids (+ generator factory) and validate per-entry version
        # stamps.  All four are internally thread-safe.
        self._statement_cache: LRUCache = LRUCache(statement_cache_size)
        self._plan_cache: LRUCache = LRUCache(plan_cache_size)
        self._reweight_cache: VersionedLRUCache = VersionedLRUCache(reweight_cache_size)
        self._open_generators: VersionedLRUCache = VersionedLRUCache(
            generator_cache_size
        )
        # Beside the reweight cache, per source: the cell assignments of its
        # last rake, as (sample version, metadata stamp, assignments) — what
        # the re-rake after an INSERT extends instead of rebuilding.  Memory
        # only (8 B per row per marginal); never checkpointed.
        self._cell_assignments: LRUCache = LRUCache(reweight_cache_size)
        # Unified metrics registry (ARCHITECTURE.md §9).  Counters use
        # lock-free per-thread shards, so concurrent SELECTs under the
        # *read* lock can never lose increments (the race the old plain
        # ``self._x += 1`` telemetry ints had); cache stats surface as
        # fn-backed gauges evaluated at scrape time — zero hot-path cost.
        self.metrics = MetricsRegistry()
        self._open_adaptive_runs = self.metrics.counter(
            "mosaic_open_adaptive_runs_total",
            "OPEN queries run with a stop tolerance (tolerance > 0)",
        )
        self._open_adaptive_early_stops = self.metrics.counter(
            "mosaic_open_adaptive_early_stops_total",
            "Adaptive OPEN runs that met the CI tolerance before the cap",
        )
        self._cell_assignments_built = self.metrics.counter(
            "mosaic_cell_assignments_built_total",
            "Re-rakes that assigned every sample row to marginal cells",
        )
        self._cell_assignments_extended = self.metrics.counter(
            "mosaic_cell_assignments_extended_total",
            "Re-rakes that assigned only the rows appended since the last one",
        )
        for cache_name, cache in (
            ("statements", self._statement_cache),
            ("plans", self._plan_cache),
            ("reweights", self._reweight_cache),
            ("generators", self._open_generators),
        ):
            for stat in ("size", "hits", "misses"):
                self.metrics.gauge(
                    f"mosaic_cache_{stat}",
                    f"Pipeline cache {stat} (per cache)",
                    labels={"cache": cache_name},
                    fn=lambda c=cache, s=stat: c.stats()[s],
                )
        self.metrics.gauge(
            "mosaic_catalog_version",
            "DDL counter (bumps on every catalog mutation)",
            fn=lambda: self.catalog.version,
        )
        # Morsel-driven multi-process execution (ARCHITECTURE.md §7): the
        # context owns the worker pool and the shared-memory segment store.
        # With processes=0 (the default unless MOSAIC_WORKERS is set) no
        # processes ever start, but large scans still take the morsel
        # path, so answers are bit-identical across worker counts.
        self._execution = ParallelExecution(execution, registry=self.metrics)
        self._closed = False
        # Durable storage (ARCHITECTURE.md §10): with a data_dir the engine
        # restores the catalog + fitted models from the last checkpoint and
        # replays the WAL tail before serving its first statement.
        # TEMPORARY tables are transient by contract: their names live here
        # and are excluded from both the WAL and checkpoints.
        self._transient_tables: set[str] = set()
        self._durable: DurableStore | None = None
        if data_dir is not None:
            self._durable = DurableStore(data_dir, wal_sync=wal_sync)
            self._durable.open(self)
            self.metrics.gauge(
                "mosaic_wal_bytes",
                "Bytes of write-ahead log not yet absorbed by a checkpoint",
                fn=self._durable.wal_size,
            )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def execution(self) -> ParallelExecution:
        """The engine's parallel execution context (pool + segment store)."""
        return self._execution

    def shutdown(self) -> None:
        """Shut the engine down: fence, stop the workers, flush.

        Idempotent.  In-flight statements complete: the fence is raised
        under the engine's *write* lock, so every statement already past
        its entry check finishes before the flag flips.  Statements issued
        afterwards raise :class:`SessionClosedError`.  The catalog stays
        readable for post-mortem inspection — shutdown is about
        deterministic teardown, not data destruction.
        """
        with self._lock.write_locked():
            self._closed = True
        # After the fence: no statement can reach the worker pool or lease
        # a segment, so stopping the workers and unlinking every shared
        # segment here is race-free (and idempotent).
        self._execution.shutdown()
        # Final durable flush: one last checkpoint persists every model
        # fitted this run and leaves an empty WAL, so the next boot is a
        # pure O(1) mmap restore with nothing to replay.
        if self._durable is not None and not self._durable.closed:
            try:
                self._durable.checkpoint(self)
            finally:
                self._durable.close()

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #

    def connect(
        self,
        config: "SessionConfig | None" = None,
        spawn_index: int | None = None,
    ) -> "Session":
        """Open a new session over this engine.

        Each session gets an independent deterministic RNG stream: child
        ``k`` of the engine's root :class:`~numpy.random.SeedSequence`,
        where ``k`` counts connections in order.  ``config.seed`` is
        ignored for spawned sessions (set an explicit
        ``np.random.default_rng`` on the session to override).

        An explicit ``spawn_index`` pins the session to child ``k``
        directly, without advancing the connection counter.  Child ``k`` is
        the *same* SeedSequence either way (children are cached), so an
        engine that sees connections ``spawn_index=0..n`` replays exactly
        the streams an engine with ``n`` plain connects produced — the
        fleet router relies on this to make every shard's session-``k``
        RNG identical to the single-engine reference.  Mixing both schemes
        on one engine can alias streams (a plain connect may land on an
        index already pinned explicitly).
        """
        from repro.core.session import Session, SessionConfig

        if self._closed:
            raise SessionClosedError("engine has been shut down")
        with self._spawn_mutex:
            index = next(self._spawned_sessions) if spawn_index is None else spawn_index
            if index < 0:
                raise ValueError(f"spawn_index must be >= 0, got {index}")
            child = self._seed_child(index)
        return Session(
            engine=self,
            config=config if config is not None else SessionConfig(),
            rng=np.random.default_rng(child),
            spawn_index=index,
        )

    def _seed_child(self, index: int) -> np.random.SeedSequence:
        """Child ``index`` of the root SeedSequence (caller holds the mutex).

        Successive ``spawn(1)`` calls yield children ``0, 1, 2, ...`` (the
        root's ``n_children_spawned`` advances), so spawning forward and
        caching gives random access to the deterministic child sequence.
        """
        while len(self._seed_children) <= index:
            child = self._seed_sequence.spawn(1)[0]
            assert child.spawn_key[-1] == len(self._seed_children)
            self._seed_children.append(child)
        return self._seed_children[index]

    def root_session(self, config: "SessionConfig") -> "Session":
        """The facade's default session: RNG seeded exactly like the
        pre-split ``MosaicDB`` (``np.random.default_rng(config.seed)``),
        preserving bit-for-bit reproducibility of existing seeds."""
        from repro.core.session import Session

        return Session(
            engine=self,
            config=config,
            rng=np.random.default_rng(config.seed),
        )

    # ------------------------------------------------------------------ #
    # SQL entry points
    # ------------------------------------------------------------------ #

    def parse_sql(self, sql: str) -> Statement:
        """Parse one statement through the shared statement cache.

        Public so protocol layers (the server's QUERYX dispatch, the fleet
        router's statement classification) can reuse cached parses instead
        of re-tokenising every request.
        """
        statement = self._statement_cache.get(sql)
        if statement is None:
            statement = parse_statement(sql)
            self._statement_cache.put(sql, statement)
        return statement

    def execute(self, sql: str, session: "Session") -> QueryResult:
        """Parse and run one statement; DDL returns an empty status result."""
        trace = current_trace()
        if trace is None:
            return self._execute_statement(self.parse_sql(sql), session, sql_text=sql)
        with trace.span("parse") as span:
            statement = self.parse_sql(sql)
            span["statement"] = type(statement).__name__
        return self._execute_statement(statement, session, sql_text=sql)

    def execute_script(self, sql: str, session: "Session") -> list[QueryResult]:
        """Run a ``;``-separated script, returning one result per statement."""
        # Scripts cache like single statements: the parsed list under a
        # ("script", text) key, and each statement's plan under a synthetic
        # per-position text (NUL never occurs in real SQL, so these keys
        # cannot collide with execute()'s).
        key = ("script", sql)
        statements = self._statement_cache.get(key)
        if statements is None:
            statements = parse_script(sql)
            self._statement_cache.put(key, statements)
        return [
            self._execute_statement(
                statement, session, sql_text=f"{sql}\x00{position}"
            )
            for position, statement in enumerate(statements)
        ]

    def execute_statement(
        self, statement: Statement, session: "Session", sql_text: str | None = None
    ) -> QueryResult:
        """Run an already-parsed (programmatic) statement AST.

        Without ``sql_text`` the plan cache is bypassed — a programmatic
        AST has no stable text to key on.
        """
        return self._execute_statement(statement, session, sql_text=sql_text)

    def execute_partial(
        self, sql: str, session: "Session"
    ) -> tuple[QueryResult, dict]:
        """Run ``sql`` as one shard's fragment of a scattered aggregate.

        The fleet router slices a relation across shards and sends every
        shard the *same* SELECT with this entry point; each shard returns
        its partial-aggregate relation plus the JSON merge recipe (computed
        from the plan alone, so identical on every shard), and the router
        re-reduces with :func:`~repro.relational.kernels.merge_partial_aggregates`.

        Only shard-locally computable paths are supported: auxiliary
        tables, samples queried directly (CLOSED, or SEMI-OPEN with stored
        weights — each shard holds its rows' weights), and population
        CLOSED (sample tuples + view predicate).  Population SEMI-OPEN
        reweights against *global* marginals and population OPEN generates
        from a globally fitted model — neither decomposes over a sliced
        relation, so both raise :class:`PartialUnsupportedError` directing
        the operator to replicate the relation instead.
        """
        statement = self.parse_sql(sql)
        if not isinstance(statement, SelectQuery):
            raise PartialUnsupportedError(
                "only SELECT statements can run as cross-shard partials"
            )
        with self._lock.read_locked():
            self._check_open()
            return self._run_partial_select(statement, session, sql)

    def _run_partial_select(
        self, query: SelectQuery, session: "Session", sql_text: str
    ) -> tuple[QueryResult, dict]:
        kind = self.catalog.kind_of(query.table)
        weights = None
        notes: list[str] = []
        sample_name = None
        if kind == "auxiliary":
            if query.visibility not in (None, Visibility.CLOSED):
                raise VisibilityError(
                    "visibility keywords only apply to populations and samples; "
                    f"{query.table!r} is an auxiliary table"
                )
            visibility = Visibility.CLOSED
            relation = self.catalog.auxiliary(query.table)
        elif kind == "sample":
            sample = self.catalog.sample(query.table)
            visibility = query.visibility or Visibility.CLOSED
            if visibility is Visibility.OPEN:
                raise VisibilityError(
                    "OPEN queries target populations, not samples; query the "
                    f"population {sample.population!r} instead"
                )
            if visibility is Visibility.SEMI_OPEN:
                weights = sample.weights
                notes.append("sample queried directly with its stored weights")
            else:
                notes.append("sample queried directly, unweighted")
            relation = sample.relation
            sample_name = sample.name
        else:
            population = self.catalog.population(query.table)
            visibility = query.visibility or session.config.default_visibility
            if visibility is not Visibility.CLOSED:
                raise PartialUnsupportedError(
                    f"{visibility} population queries are not shard-decomposable "
                    "(weights/generators are fitted against global marginals); "
                    f"replicate {query.table!r} across shards instead of slicing it"
                )
            source = choose_sample(
                self.catalog,
                population,
                combine_samples=session.config.combine_samples,
            )
            relation, src_notes = closed_source(source)
            notes.extend(src_notes)
            sample_name = source.sample.name
        plan, plan_note = self._compiled_plan(
            query, sql_text, kind, relation.schema, weighted=weights is not None
        )
        form = partial_aggregate_form(plan)
        if form is None:
            raise PartialUnsupportedError(
                "query is not a decomposable aggregate (need optional WHERE "
                "filters, one COUNT/SUM/AVG/MIN/MAX aggregate, optional "
                f"ORDER BY/LIMIT); replicate {query.table!r} to run it whole"
            )
        partial = execute_plan_partial(form, relation, weights)
        notes.append(plan_note)
        result = QueryResult(
            partial,
            visibility=str(visibility),
            sample_name=sample_name,
            notes=tuple(notes),
        )
        return result, form.recipe

    # ------------------------------------------------------------------ #
    # Statement dispatch (the only place the RW lock is taken)
    # ------------------------------------------------------------------ #

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("engine has been shut down")

    def _execute_statement(
        self, statement: Statement, session: "Session", sql_text: str | None = None
    ) -> QueryResult:
        # The closed check runs *under* the statement's lock: shutdown()
        # raises the fence under the write lock, so a statement either
        # observes the fence here or runs to completion before the OPEN
        # pool drains — never a torn teardown mid-statement.
        if isinstance(statement, SelectQuery):
            with self._lock.read_locked():
                self._check_open()
                return self._run_select(statement, session, sql_text)
        if isinstance(statement, ExplainAnalyze):
            # EXPLAIN ANALYZE executes the inner SELECT, so it is a read.
            with self._lock.read_locked():
                self._check_open()
                return self._run_explain_analyze(statement, session)
        with self._lock.write_locked():
            self._check_open()
            result = self._run_write_statement(statement)
            # Applied first, logged second: a failed statement must never
            # reach the WAL (replay would re-raise on every boot).
            self._log_statement(statement)
            return result

    def _run_write_statement(self, statement: Statement) -> QueryResult:
        if isinstance(statement, CreateTable):
            return self._run_create_table(statement)
        if isinstance(statement, Insert):
            return self._run_insert(statement)
        if isinstance(statement, CreatePopulation):
            return self._run_create_population(statement)
        if isinstance(statement, CreateSample):
            return self._run_create_sample(statement)
        if isinstance(statement, CreateMetadata):
            return self._run_create_metadata(statement)
        if isinstance(statement, UpdateWeights):
            return self._run_update_weights(statement)
        if isinstance(statement, Drop):
            # No cache clearing: dropped objects' uids never recur, and the
            # schema fingerprint in the plan-cache key distinguishes any
            # same-named successor with a different shape.
            self.catalog.drop(statement.kind, statement.name)
            return _status(f"dropped {statement.kind.lower()} {statement.name}")
        raise SqlCompileError(f"unsupported statement type {type(statement).__name__}")

    # ------------------------------------------------------------------ #
    # DDL (write lock held)
    # ------------------------------------------------------------------ #

    def _run_create_table(self, statement: CreateTable) -> QueryResult:
        if not statement.columns:
            raise SqlCompileError(
                f"CREATE TABLE {statement.name} needs column definitions"
            )
        schema = Schema(Field(c.name, c.dtype) for c in statement.columns)
        self.catalog.create_auxiliary(statement.name, Relation.empty(schema))
        return _status(f"created table {statement.name}")

    def _run_create_population(self, statement: CreatePopulation) -> QueryResult:
        if statement.is_global:
            if not statement.columns:
                raise SqlCompileError(
                    "a GLOBAL POPULATION needs explicit column definitions "
                    "(the paper's example elides them 'for space')"
                )
            schema = Schema(Field(c.name, c.dtype) for c in statement.columns)
            population = PopulationRelation(statement.name, schema, is_global=True)
        else:
            if statement.source is None:
                raise SqlCompileError(
                    f"population {statement.name!r} must be GLOBAL or defined "
                    "AS (SELECT ... FROM <global population> ...)"
                )
            gp = self.catalog.population(statement.source.table)
            schema = self._projected_schema(statement.source, gp.schema)
            predicate = (
                None
                if statement.source.where is None
                else bind_expression(statement.source.where, gp.schema)
            )
            population = PopulationRelation(
                statement.name,
                schema,
                is_global=False,
                source_population=gp.name,
                defining_predicate=predicate,
            )
        self.catalog.create_population(population)
        return _status(f"created population {statement.name}")

    def _run_create_sample(self, statement: CreateSample) -> QueryResult:
        source = statement.source
        population = self.catalog.population(source.table)
        schema = self._projected_schema(source, population.schema)
        predicate = (
            None
            if source.where is None
            else bind_expression(source.where, population.schema)
        )
        mechanism = self._build_mechanism(statement.mechanism, population.schema)
        sample = SampleRelation(
            name=statement.name,
            relation=Relation.empty(schema),
            population=population.name,
            defining_predicate=predicate,
            mechanism=mechanism,
        )
        self.catalog.create_sample(sample)
        return _status(
            f"created sample {statement.name} over population {population.name} "
            "(ingest tuples with INSERT INTO or MosaicDB.ingest_relation)"
        )

    @staticmethod
    def _build_mechanism(
        spec: MechanismSpec | None, schema: Schema
    ) -> SamplingMechanism | None:
        if spec is None:
            return None
        if spec.kind == "UNIFORM":
            return UniformMechanism(spec.percent)
        assert spec.kind == "STRATIFIED"
        attribute = require_column(spec.stratify_on, schema)
        return StratifiedMechanism(attribute, spec.percent)

    @staticmethod
    def _projected_schema(query: SelectQuery, base: Schema) -> Schema:
        fields: list[Field] = []
        for item in query.items:
            if item.is_star:
                fields.extend(base.fields)
            elif item.is_aggregate:
                raise SqlCompileError(
                    "aggregates are not allowed in population/sample definitions"
                )
            else:
                name = getattr(item.expr, "name", None)
                if name is None:
                    raise SqlCompileError(
                        "population/sample definitions must project plain columns"
                    )
                column = require_column(name, base)
                fields.append(Field(item.alias or column, base.dtype(column)))
        return Schema(fields)

    def _run_create_metadata(self, statement: CreateMetadata) -> QueryResult:
        relation = self.catalog.auxiliary(statement.query.table)
        result = execute_select(statement.query, relation)
        attributes, count_column = self._metadata_columns(
            statement.query, result.schema
        )
        marginal = Marginal.from_relation(
            attributes, result, count_column, name=statement.name
        )
        population_name = self.catalog.resolve_metadata_population(
            statement.name, statement.for_population
        )
        # register_metadata bumps the population's metadata_version, which
        # invalidates exactly the reweights/generators fitted against it.
        self.catalog.register_metadata(statement.name, population_name, marginal)
        return _status(
            f"registered metadata {statement.name} on population {population_name} "
            f"({marginal.num_cells} cells over {marginal.attributes})"
        )

    @staticmethod
    def _metadata_columns(query: SelectQuery, schema: Schema) -> tuple[list[str], str]:
        names = list(schema.names)
        if len(names) < 2 or len(names) > 3:
            raise SqlCompileError(
                "CREATE METADATA queries must produce 1 or 2 attribute columns "
                f"plus one count column, got columns {names}"
            )
        return names[:-1], names[-1]

    def _run_insert(self, statement: Insert) -> QueryResult:
        kind = self.catalog.kind_of(statement.table)
        if kind == "auxiliary":
            relation = self.catalog.auxiliary(statement.table)
            appended = Relation.from_rows(relation.schema, statement.rows)
            self.catalog.replace_auxiliary(statement.table, relation.concat(appended))
            return _status(
                f"inserted {len(statement.rows)} row(s) into {statement.table}"
            )
        if kind == "sample":
            sample = self.catalog.sample(statement.table)
            appended = Relation.from_rows(sample.relation.schema, statement.rows)
            self._append_to_sample(sample, appended)
            return _status(
                f"ingested {len(statement.rows)} row(s) into sample {statement.table}"
            )
        raise CatalogError(
            f"cannot INSERT into {kind} relation {statement.table!r}; populations "
            "never store tuples"
        )

    @staticmethod
    def _append_to_sample(sample: SampleRelation, appended: Relation) -> None:
        # append validates before swapping and bumps sample.version, which
        # invalidates exactly this sample's cached reweights/generators; the
        # next SEMI-OPEN read assigns cells for these rows only.
        sample.append(appended, np.ones(appended.num_rows))

    # ------------------------------------------------------------------ #
    # Durability (ARCHITECTURE.md §10; all helpers run under the write
    # lock, except _apply_wal_record which runs during the exclusive boot)
    # ------------------------------------------------------------------ #

    def _log_statement(self, statement: Statement) -> None:
        """WAL one just-applied write statement.

        TEMPORARY tables are transient by contract: their DDL and DML are
        never logged (nor checkpointed), so a restart simply forgets them.
        """
        if isinstance(statement, CreateTable):
            if statement.temporary:
                self._transient_tables.add(statement.name)
                return
            self._transient_tables.discard(statement.name)
        elif isinstance(statement, Insert):
            if statement.table in self._transient_tables:
                return
        elif isinstance(statement, Drop) and statement.kind.upper() == "TABLE":
            if statement.name in self._transient_tables:
                self._transient_tables.discard(statement.name)
                return
        self._log_write({"op": "statement", "statement": statement})

    def _log_write(self, record: dict) -> None:
        """Append one replayable record; auto-checkpoint on a large log."""
        if self._durable is None:
            return
        self._durable.log_record(record)
        if self._durable.wal_size() > self._durable.wal_limit_bytes:
            self._durable.checkpoint(self)

    def _apply_wal_record(self, record: dict) -> None:
        """Replay one WAL record at boot.

        Mirrors the four logging sites: SQL write statements re-run through
        :meth:`_run_write_statement` (which never logs — logging lives in
        the statement entry point), programmatic ingests and drawn samples
        replay their materialised relations, marginals re-register.
        """
        op = record["op"]
        if op == "statement":
            self._run_write_statement(record["statement"])
        elif op == "ingest":
            self._ingest_relation_locked(record["name"], record["relation"])
        elif op == "sample":
            self.catalog.create_sample(
                SampleRelation(
                    name=record["name"],
                    relation=record["relation"],
                    population=record["population"],
                    mechanism=record["mechanism"],
                    initial_weights=record["weights"],
                )
            )
        elif op == "marginal":
            self.catalog.register_metadata(
                record["metadata"], record["population"], record["marginal"]
            )
        else:
            raise CatalogError(f"unknown WAL record op {op!r}")

    def checkpoint(self) -> dict:
        """Durably persist the catalog and fitted models, truncate the WAL.

        Returns a small summary (checkpoint name, table/model counts).
        Queries block only for the write-out itself; afterwards the next
        boot restores this state via mmap in O(1) and replays nothing.
        """
        if self._durable is None:
            raise CatalogError("engine has no data_dir; durable storage is disabled")
        with self._lock.write_locked():
            self._check_open()
            return self._durable.checkpoint(self)

    def commit(self) -> dict:
        """Alias of :meth:`checkpoint` — the worldbase-style named-resource
        idiom: mutate the catalog, then ``commit()`` to make it durable."""
        return self.checkpoint()

    def rollback(self) -> dict:
        """Discard every mutation since the last :meth:`checkpoint`.

        The WAL tail is dropped and the catalog (plus model caches) is
        rebuilt from the live checkpoint — an empty catalog when no
        checkpoint exists yet.
        """
        if self._durable is None:
            raise CatalogError("engine has no data_dir; durable storage is disabled")
        with self._lock.write_locked():
            self._check_open()
            return self._durable.rollback(self)

    def _run_update_weights(self, statement: UpdateWeights) -> QueryResult:
        sample = self.catalog.sample(statement.sample)
        weighted = sample.weighted_relation()
        expr = bind_expression(statement.expr, weighted.schema, allow_barewords=False)
        values = np.asarray(expr.evaluate(weighted), dtype=np.float64)
        if statement.where is None:
            new_weights = values
        else:
            predicate = bind_expression(statement.where, weighted.schema)
            mask = np.asarray(predicate.evaluate(weighted), dtype=bool)
            # Build the candidate vector without touching the stored array:
            # if set_weights rejects it (negative/non-finite values), the
            # sample keeps its previous weights instead of ending up
            # half-updated.
            new_weights = np.where(mask, values, sample.weights)
        sample.set_weights(new_weights)
        return _status(f"updated weights of sample {statement.sample}")

    # ------------------------------------------------------------------ #
    # SELECT routing (read lock held)
    # ------------------------------------------------------------------ #

    def _run_select(
        self, query: SelectQuery, session: "Session", sql_text: str | None = None
    ) -> QueryResult:
        kind = self.catalog.kind_of(query.table)
        if kind == "auxiliary":
            if query.visibility not in (None, Visibility.CLOSED):
                raise VisibilityError(
                    "visibility keywords only apply to populations and samples; "
                    f"{query.table!r} is an auxiliary table"
                )
            auxiliary = self.catalog.auxiliary(query.table)
            plan, plan_note = self._compiled_plan(
                query, sql_text, kind, auxiliary.schema, weighted=False
            )
            trace = current_trace()
            with (
                trace.span("execute", visibility=str(Visibility.CLOSED), table=query.table)
                if trace is not None
                else nullcontext({})
            ) as span:
                relation = execute_plan(
                    plan,
                    auxiliary,
                    parallel=self._execution,
                    share_key=(
                        "aux",
                        query.table,
                        self.catalog.auxiliary_version(query.table),
                    ),
                )
                span["rows"] = relation.num_rows
            return QueryResult(
                relation, visibility=str(Visibility.CLOSED), notes=(plan_note,)
            )
        if kind == "sample":
            return self._select_from_sample(query, sql_text)
        return self._select_from_population(query, session, sql_text)

    def _run_explain_analyze(
        self, statement: ExplainAnalyze, session: "Session"
    ) -> QueryResult:
        """Execute the inner SELECT under a forced trace and render it.

        The query runs exactly as a bare SELECT would — same plan-cache
        key, same execution path — so the reported provenance ("plan:
        cache hit", "OPEN: generator cache hit", ...) is what the next
        plain run of the query will experience.  ``explain=True`` also
        switches on the per-plan-node row/timing recording that sampled
        traces skip.
        """
        trace = current_trace()
        if trace is not None:
            trace.explain = True
        else:
            trace = QueryTrace(explain=True)
        with trace.activate():
            inner = self._run_select(statement.query, session, statement.sql)
        trace.finish()
        trace_dict = trace.to_dict()

        steps: list[str] = []
        details: list[str] = []
        timings: list[float | None] = []

        steps.append("trace")
        details.append(f"id {trace.trace_id}")
        timings.append(trace_dict["total_ms"])
        for span in trace.spans:
            extras = {
                k: v for k, v in span.items() if k not in ("name", "start_ms", "ms")
            }
            steps.append(span["name"])
            details.append(", ".join(f"{k}={v}" for k, v in sorted(extras.items())))
            timings.append(span["ms"])
        for node in trace.meta.get("plan_nodes", ()):
            steps.append(f"node: {node['node']}")
            details.append(f"rows={node['rows']}")
            timings.append(node["ms"])
        for key, value in trace.meta.items():
            if key == "plan_nodes":
                continue
            steps.append(f"meta: {key}")
            details.append(
                ", ".join(f"{k}={v}" for k, v in sorted(value.items()))
                if isinstance(value, dict)
                else str(value)
            )
            timings.append(None)
        for note in inner.notes:
            steps.append("note")
            details.append(note)
            timings.append(None)

        relation = Relation.from_dict(
            {
                "step": steps,
                "detail": details,
                "ms": [float("nan") if t is None else float(t) for t in timings],
            }
        )
        return QueryResult(
            relation,
            visibility=inner.visibility,
            sample_name=inner.sample_name,
            notes=(*inner.notes, f"EXPLAIN ANALYZE: trace {trace.trace_id}"),
            repetitions_used=inner.repetitions_used,
            trace=trace_dict,
        )

    def _select_from_sample(
        self, query: SelectQuery, sql_text: str | None
    ) -> QueryResult:
        sample = self.catalog.sample(query.table)
        visibility = query.visibility or Visibility.CLOSED
        if visibility is Visibility.OPEN:
            raise VisibilityError(
                "OPEN queries target populations, not samples; query the "
                f"population {sample.population!r} instead"
            )
        weights = sample.weights if visibility is Visibility.SEMI_OPEN else None
        plan, plan_note = self._compiled_plan(
            query,
            sql_text,
            "sample",
            sample.relation.schema,
            weighted=weights is not None,
        )
        trace = current_trace()
        with (
            trace.span("execute", visibility=str(visibility), table=query.table)
            if trace is not None
            else nullcontext({})
        ) as span:
            relation = execute_plan(
                plan,
                sample.relation,
                weights,
                parallel=self._execution,
                share_key=("sample", sample.uid, sample.version, weights is not None),
            )
            span["rows"] = relation.num_rows
        return QueryResult(
            relation,
            visibility=str(visibility),
            sample_name=sample.name,
            notes=(
                "sample queried directly with its stored weights"
                if weights is not None
                else "sample queried directly, unweighted",
                plan_note,
            ),
        )

    def _select_from_population(
        self, query: SelectQuery, session: "Session", sql_text: str | None
    ) -> QueryResult:
        population = self.catalog.population(query.table)
        visibility = query.visibility or session.config.default_visibility
        source = choose_sample(
            self.catalog, population, combine_samples=session.config.combine_samples
        )
        weighted = visibility is Visibility.SEMI_OPEN or (
            visibility is Visibility.OPEN
            and bool(query.has_aggregates or query.group_by)
        )
        plan, plan_note = self._compiled_plan(
            query, sql_text, "population", source.sample.relation.schema, weighted
        )

        trace = current_trace()
        repetitions_used = None
        with (
            trace.span("execute", visibility=str(visibility), table=query.table)
            if trace is not None
            else nullcontext({})
        ) as span:
            if visibility is Visibility.CLOSED:
                relation, notes = evaluate_closed(
                    query,
                    source,
                    plan,
                    parallel=self._execution,
                    share_key=self._source_share_key("closed", source),
                )
            elif visibility is Visibility.SEMI_OPEN:
                relation, notes = evaluate_semi_open(
                    query,
                    source,
                    self.catalog,
                    plan,
                    self._cached_reweight(source),
                    parallel=self._execution,
                    share_key=self._source_share_key("semiopen", source),
                )
            else:
                relation, notes, meta = self._evaluate_open(
                    query, source, session, plan
                )
                repetitions_used = meta.get("repetitions_used")
                if meta.get("adaptive"):
                    self._open_adaptive_runs.inc()
                    if meta.get("early_stop"):
                        self._open_adaptive_early_stops.inc()
                if trace is not None:
                    trace.annotate("open", _open_trace_meta(meta))
            span["rows"] = relation.num_rows
        notes.append(plan_note)

        return QueryResult(
            relation,
            visibility=str(visibility),
            sample_name=source.sample.name,
            notes=tuple(notes),
            repetitions_used=repetitions_used,
        )

    def _source_share_key(
        self, path: str, source: PlannedSource
    ) -> tuple | None:
        """Stable shared-memory identity for a planned source's input data.

        The derived relation handed to ``execute_plan`` (view-filtered
        CLOSED tuples, reweighted SEMI-OPEN tuples) is a fresh object per
        query, so identity-keyed segment leases never hit.  These keys name
        the *content* instead: the CLOSED input changes only with the
        sample's data version; the SEMI-OPEN input additionally changes
        with the metadata the reweight was fitted against — exactly the
        reweight cache's version stamp.  Synthetic sample unions have no
        stable identity and fall back to id-keying (``None``).
        """
        identity = source.cache_identity()
        if identity is None:
            return None
        if path == "closed":
            return ("closed", *identity, source.sample.version)
        return ("semiopen", *identity, *source.version_stamp(self.catalog))

    def _compiled_plan(
        self,
        query: SelectQuery,
        sql_text: str | None,
        kind: str,
        schema: Schema,
        weighted: bool,
    ) -> tuple[LogicalPlan, str]:
        """The logical plan for ``query`` over ``schema``, LRU-cached.

        The cache key is ``(sql_text, kind, schema fingerprint, weighted)``
        — everything a compiled plan depends on — so entries never go stale:
        a same-named relation recreated with a different schema simply maps
        to a different key.  Statements without SQL text (programmatic ASTs)
        are compiled fresh each time.
        """
        trace = current_trace()
        if trace is not None:
            with trace.span("plan") as span:
                plan, note = self._compiled_plan_impl(
                    query, sql_text, kind, schema, weighted
                )
                span["provenance"] = note
            return plan, note
        return self._compiled_plan_impl(query, sql_text, kind, schema, weighted)

    def _compiled_plan_impl(
        self,
        query: SelectQuery,
        sql_text: str | None,
        kind: str,
        schema: Schema,
        weighted: bool,
    ) -> tuple[LogicalPlan, str]:
        if sql_text is None:
            return (
                compile_select(query, schema, weighted=weighted),
                "plan: compiled (programmatic statement, not cached)",
            )
        key = (sql_text, kind, schema, weighted)
        plan = self._plan_cache.get(key)
        if plan is not None:
            return (
                plan,
                f"plan: cache hit, parse/bind/compile skipped ({plan.describe()})",
            )
        plan = compile_select(query, schema, weighted=weighted)
        self._plan_cache.put(key, plan)
        return plan, f"plan: compiled and cached ({plan.describe()})"

    def _cached_reweight(self, source: PlannedSource):
        """SEMI-OPEN debiased weights for ``source``, version-stamp cached."""
        key = source.cache_identity()
        if key is None:
            relation, weights, notes = reweighted_sample(source, self.catalog)
            notes.append("reweight cache: skipped (synthetic sample union)")
            return relation, weights, notes
        stamp = source.version_stamp(self.catalog)
        entry = self._reweight_cache.get(key, stamp)
        if entry is not None:
            relation, weights, notes = entry
            return relation, weights, [
                *notes,
                f"SEMI-OPEN: reweight cache hit (sample {source.sample.name!r} "
                f"v{source.sample.version})",
            ]
        relation, weights, notes = self._rerake(source, key, stamp)
        self._reweight_cache.put(key, stamp, (relation, weights, list(notes)))
        return relation, weights, notes

    def _rerake(self, source: PlannedSource, key: tuple, stamp: tuple):
        """A reweight-cache miss: rake, assigning cells only for appended rows.

        The assignments retained from this source's last rake are a valid
        prefix of the sample's rows when the metadata they were matched
        against is unchanged and the rows have only grown since
        (``SampleRelation.rows_stable_since``); weight-only mutations keep
        them valid.  Concurrent readers may each extend the same retained
        tuple — it is immutable and the results are equal.
        """
        sample = source.sample
        metadata_stamp = stamp[1:]
        assignments: list = []
        retained = self._cell_assignments.get(key)
        if retained is not None:
            version, retained_stamp, prefix = retained
            if retained_stamp == metadata_stamp and version >= sample.rows_stable_since:
                assignments = list(prefix)
        extending = bool(assignments)
        reweighted = reweighted_sample(source, self.catalog, assignments)
        if assignments:
            self._cell_assignments.put(
                key, (sample.version, metadata_stamp, tuple(assignments))
            )
            if extending:
                self._cell_assignments_extended.inc()
            else:
                self._cell_assignments_built.inc()
        return reweighted

    def _evaluate_open(
        self,
        query: SelectQuery,
        source: PlannedSource,
        session: "Session",
        plan: LogicalPlan | None = None,
    ):
        open_config = session.config.open_config
        # Read the factory exactly once: a concurrent set_open_generator on
        # this session must not slip a different factory between the cache
        # key and the construction below.
        factory = open_config.generator_factory
        marginals, size, fit_relation, scope_note = self._open_fit_inputs(source)
        identity = source.cache_identity()
        key = None
        stamp = None
        generator = None
        if identity is not None:
            # The factory is part of the *key* (not the stamp): sessions with
            # different generator factories each keep their own fitted model
            # warm instead of thrashing a shared slot.
            key = (*identity, factory)
            stamp = source.version_stamp(self.catalog)
            generator = self._open_generators.get(key, stamp)
        trace = current_trace()
        cache_note = None
        if generator is None:
            generator = factory() if callable(factory) else factory
            with (
                trace.span("open.fit", rows=fit_relation.num_rows)
                if trace is not None
                else nullcontext({})
            ) as span:
                generator.fit(
                    fit_relation,
                    marginals,
                    categorical_columns=open_config.categorical_columns,
                )
                span["generator"] = getattr(generator, "name", type(generator).__name__)
                span.update(getattr(generator, "fit_report", None) or {})
            if key is not None:
                self._open_generators.put(key, stamp, generator)
        else:
            cache_note = (
                f"OPEN: generator cache hit (sample {source.sample.name!r} "
                f"v{source.sample.version})"
            )
        if trace is not None:
            trace.annotate(
                "generator",
                {
                    "name": getattr(generator, "name", type(generator).__name__),
                    "cache_hit": cache_note is not None,
                },
            )
        relation, notes, meta = evaluate_open(
            query,
            source,
            generator,
            open_config,
            population_size=size,
            rng=session.rng,
            plan=plan,
            parallel=self._execution,
        )
        if cache_note is not None:
            notes.insert(0, cache_note)
        notes.insert(0, scope_note)
        return relation, notes, meta

    def _open_fit_inputs(self, source: PlannedSource):
        """Marginals, population size, and fitting tuples for OPEN queries."""
        population = source.population
        gp = self.catalog.global_population
        if population.has_metadata:
            marginals = population.marginal_list()
            size = population.estimated_size()
            relation = source.sample.relation
            predicate = population.defining_predicate
            if predicate is not None:
                bound = bind_expression(predicate, relation.schema)
                relation = relation.filter(bound.evaluate(relation))
            scope = (
                f"OPEN: generator fit on sample {source.sample.name!r} against "
                f"population {population.name!r} metadata"
            )
            if relation.num_rows == 0:
                raise VisibilityError(
                    f"sample {source.sample.name!r} has no tuples inside "
                    f"population {population.name!r}; cannot fit a generator"
                )
            return marginals, float(size), relation, scope
        if gp is not None and gp.has_metadata:
            scope = (
                f"OPEN: generator fit on sample {source.sample.name!r} against "
                f"global population {gp.name!r} metadata"
            )
            return (
                gp.marginal_list(),
                float(gp.estimated_size()),
                source.sample.relation,
                scope,
            )
        raise VisibilityError(
            f"population {population.name!r} has no marginal metadata (nor does "
            "the global population); OPEN queries need marginals to train a "
            "generator (Sec. 5.2)"
        )

    # ------------------------------------------------------------------ #
    # Cache maintenance and observability (no RW lock needed: the caches
    # are internally synchronized and catalog.version is a single read)
    # ------------------------------------------------------------------ #

    def invalidate_model_caches(self) -> None:
        """Drop every fitted artifact (reweights and OPEN generators).

        Routine DML/DDL never needs this: version-stamped cache entries
        invalidate themselves per key (see ARCHITECTURE.md).
        """
        self._open_generators.clear()
        self._reweight_cache.clear()
        self._cell_assignments.clear()

    def clear_caches(self) -> None:
        """Empty all pipeline caches (plans, statements, reweights, models).

        Useful for cold-path benchmarking and tests; never required for
        correctness.
        """
        self._statement_cache.clear()
        self._plan_cache.clear()
        self.invalidate_model_caches()

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss/size counters for every pipeline cache.

        Shared across all sessions of this engine.  ``catalog_version`` is
        the DDL counter: comparing two snapshots tells an operator whether
        the schema landscape changed between them (fine-grained
        invalidation itself runs on per-object versions).
        """
        stats = {
            "statements": self._statement_cache.stats(),
            "plans": self._plan_cache.stats(),
            "reweights": self._reweight_cache.stats(),
            "generators": self._open_generators.stats(),
            "cell_assignments": {
                "built": int(self._cell_assignments_built.value()),
                "extended": int(self._cell_assignments_extended.value()),
                "size": len(self._cell_assignments),
            },
            # Process-wide (not per-engine): how often the storage layer
            # served a memoized/propagated dictionary encoding vs. built one.
            "dictionaries": dictionary_stats(),
            # Morsel/worker-pool counters (parallel vs. local batches,
            # shared-segment reuse, crash restarts) — see workers.py.
            "execution": self._execution.stats(),
            "open_adaptive": {
                "runs": int(self._open_adaptive_runs.value()),
                "early_stops": int(self._open_adaptive_early_stops.value()),
            },
            "catalog": {"catalog_version": self.catalog.version},
        }
        if self._durable is not None:
            # Durable-store counters (restored tables/models, WAL records,
            # checkpoints) — what the restart smoke asserts "warm" from.
            stats["storage"] = self._durable.stats_snapshot()
        return stats

    # ------------------------------------------------------------------ #
    # Programmatic API (used by sessions, experiments and examples)
    # ------------------------------------------------------------------ #

    def ingest_relation(self, name: str, relation: Relation) -> None:
        """Append tuples to a sample or auxiliary table by name."""
        with self._lock.write_locked():
            self._check_open()
            self._ingest_relation_locked(name, relation)
            if name not in self._transient_tables:
                self._log_write({"op": "ingest", "name": name, "relation": relation})

    def _ingest_relation_locked(self, name: str, relation: Relation) -> None:
        """The ingest body, shared by :meth:`ingest_relation` and WAL replay."""
        kind = self.catalog.kind_of(name)
        if kind == "auxiliary":
            existing = self.catalog.auxiliary(name)
            merged = (
                relation if existing.num_rows == 0 else existing.concat(relation)
            )
            self.catalog.replace_auxiliary(name, merged)
            return
        if kind == "sample":
            sample = self.catalog.sample(name)
            if sample.num_rows == 0:
                projected = relation.project(list(sample.relation.column_names))
                sample.replace_data(projected, np.ones(projected.num_rows))
            else:
                self._append_to_sample(
                    sample, relation.project(list(sample.relation.column_names))
                )
            return
        raise CatalogError(f"cannot ingest into {kind} relation {name!r}")

    def ingest_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> None:
        with self._lock.read_locked():
            kind = self.catalog.kind_of(name)
            schema = (
                self.catalog.auxiliary(name).schema
                if kind == "auxiliary"
                else self.catalog.sample(name).relation.schema
            )
        # Row coercion happens outside the lock; ingest_relation re-resolves
        # the name under the write lock (a concurrent schema change between
        # the two acquisitions surfaces as a SchemaError, not a torn write).
        self.ingest_relation(name, Relation.from_rows(schema, rows))

    def draw_sample(
        self,
        name: str,
        population_name: str,
        population_data: Relation,
        mechanism: SamplingMechanism,
        rng: np.random.Generator,
    ) -> SampleRelation:
        """Draw a concrete sample from materialised population data.

        Experiment-harness helper: real Mosaic deployments never hold
        population tuples, but reproductions do, and need samples whose
        bias is known exactly.
        """
        with self._lock.write_locked():
            self._check_open()
            population = self.catalog.population(population_name)
            indices = mechanism.draw(population_data, rng)
            sample = SampleRelation(
                name=name,
                relation=population_data.take(indices),
                population=population.name,
                mechanism=mechanism,
            )
            self.catalog.create_sample(sample)
            # The draw itself consumed RNG state, so replay logs the
            # materialised tuples + weights rather than re-drawing.
            self._log_write(
                {
                    "op": "sample",
                    "name": sample.name,
                    "population": sample.population,
                    "relation": sample.relation,
                    "weights": sample._weights,
                    "mechanism": mechanism,
                }
            )
            return sample

    def register_marginal(
        self, metadata_name: str, population_name: str, marginal: Marginal
    ) -> None:
        """Attach a precomputed marginal to a population."""
        with self._lock.write_locked():
            self._check_open()
            self.catalog.register_metadata(metadata_name, population_name, marginal)
            self._log_write(
                {
                    "op": "marginal",
                    "metadata": metadata_name,
                    "population": population_name,
                    "marginal": marginal,
                }
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Engine({self.catalog!r})"


def _open_trace_meta(meta: dict) -> dict:
    """Condense :func:`evaluate_open` metadata into the trace annotation
    (repetition counts plus a human-readable stop reason)."""
    used = int(meta.get("repetitions_used", 0))
    if meta.get("adaptive"):
        stop_reason = (
            "tolerance reached before cap"
            if meta.get("early_stop")
            else "repetition cap reached"
        )
    elif used == 0:
        stop_reason = "direct inference (no generation)"
    else:
        stop_reason = "fixed repetitions"
    return {
        "repetitions_used": used,
        "repetitions_cap": int(meta.get("repetitions_cap", used)),
        "early_stop": bool(meta.get("early_stop", False)),
        "stop_reason": stop_reason,
    }


def _status(message: str) -> QueryResult:
    relation = Relation.from_dict({"status": [message]})
    return QueryResult(relation, notes=(message,))
