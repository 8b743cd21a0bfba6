"""OPEN query evaluation: generate missing tuples (paper Sec. 4.2, 5).

"Any generative model can be plugged in and used to answer open queries as
long as it can be trained on sample data and marginals" — the engine
accepts any object with the :class:`OpenGenerator` protocol.  Three are
provided:

- :class:`MswgGenerator` — the paper's marginal-constrained sliced-
  Wasserstein generator (the default).
- :class:`BayesNetGenerator` — the Themis-style explicit model the paper
  contrasts against (Sec. 4.2's Bayesian-network discussion).
- :class:`IPFSynthesizer` — dense cube IPF over small categorical domains,
  which can place mass on never-sampled cells (the migrants example's
  "UK, AOL, 20" row).

Answer combination follows Sec. 5.3: generate ``repetitions`` samples,
uniformly reweight each to the population size, answer the query on each,
keep the groups appearing in *all* answers, and average the aggregates.
"""

from __future__ import annotations

import os
import threading
import weakref
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.bayesnet.model import BayesianNetworkModel
from repro.catalog.metadata import Marginal
from repro.engine.compiler import (
    compile_select,
    composite_layout,
    execute_plan,
    execute_plan_composite,
    execute_plan_open_shard,
)
from repro.engine.plan import AggregateNode, LogicalPlan
from repro.engine.planner import PlannedSource
from repro.errors import GenerativeModelError, VisibilityError
from repro.generative.mswg import MSWG, MswgConfig
from repro.observability.trace import current_trace
from repro.generative.streams import (
    REPETITION_COLUMN,
    repetition_chunks,
    repetition_streams,
    with_repetition_ids,
)
from repro.relational.dtypes import DType, object_array
from repro.relational.groupby import group_codes
from repro.relational.kernels import CompositeAggregates, WelfordMoments
from repro.relational.ops import union_all
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.reweight.cube import cube_ipf
from repro.sql.ast_nodes import SelectQuery
from repro.sql.binder import bind_expression


class OpenGenerator(Protocol):
    """What the OPEN path needs from a generative model.

    A generator whose ``generate`` only *reads* fitted state (drawing all
    randomness from the passed ``rng``) may set the class attribute
    ``thread_safe_generate = True``; the concurrent OPEN executor then
    calls it from several threads at once.  Without the marker, concurrent
    rounds serialize generation behind a per-generator lock (execution of
    the generated samples still overlaps).

    Generators may additionally provide
    ``generate_batch(n, repetitions, rng)`` returning all repetitions as
    one stacked ``R x n``-row relation tagged with a dense ``__rep__`` id
    column (see :mod:`repro.generative.streams`).  The contract: rows
    ``[r*n, (r+1)*n)`` must be bit-identical to
    ``generate(n, rng=stream_r)`` where ``stream_r`` is the ``r``-th
    stream of ``repetition_streams(rng, repetitions)``.  The engine then
    answers aggregate OPEN queries in a single batched pass instead of a
    per-repetition loop; generators without the method keep working
    through the loop.

    ``generate_batch_streams(n, streams)`` extends the contract to
    *chunked* generation: the engine pre-spawns the full stream list once
    and hands each chunk its ``streams[start:stop]`` slice, so a chunked
    emission draws values bit-identical to the monolithic batch over the
    same repetition indices (RNG stream indexing is per-repetition; see
    :mod:`repro.generative.streams`).  The adaptive streaming OPEN path
    requires it; TEXT columns must stay born-encoded against the fitted
    (stable) vocabulary so group cells mean the same keys in every chunk.

    A generator may expose ``fit_report`` — a flat dict of what its last
    ``fit`` did; the engine copies it onto the ``open.fit`` trace span.
    """

    def fit(
        self,
        sample: Relation,
        marginals: list[Marginal],
        sample_weights: np.ndarray | None = None,
        categorical_columns: set[str] | None = None,
    ): ...

    def generate(self, n: int, rng: np.random.Generator | None = None) -> Relation: ...


# Per-generator locks serializing generate() for generators that are not
# marked thread_safe_generate (e.g. MSWG's compiled plan computes in
# buffers it reuses across calls).  Keyed weakly so fitted generators
# evicted from the engine cache do not pin a lock forever.
_GENERATE_LOCKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_GENERATE_LOCKS_GUARD = threading.Lock()
_FALLBACK_GENERATE_LOCK = threading.Lock()


def _generation_lock(generator) -> threading.Lock | None:
    """The lock guarding ``generator.generate`` — ``None`` if not needed."""
    if getattr(generator, "thread_safe_generate", False):
        return None
    with _GENERATE_LOCKS_GUARD:
        try:
            lock = _GENERATE_LOCKS.get(generator)
            if lock is None:
                lock = _GENERATE_LOCKS[generator] = threading.Lock()
            return lock
        except TypeError:  # unhashable/unweakrefable generator object
            return _FALLBACK_GENERATE_LOCK


class MswgGenerator:
    """The default OPEN generator: a thin adapter over :class:`MSWG`."""

    name = "mswg"

    def __init__(self, config: MswgConfig | None = None):
        self.model = MSWG(config)

    def fit(self, sample, marginals, sample_weights=None, categorical_columns=None):
        self.model.fit(
            sample,
            marginals,
            sample_weights=sample_weights,
            categorical_columns=categorical_columns,
        )
        return self

    @property
    def fit_report(self) -> dict | None:
        """What the fit did, for the ``open.fit`` span (see ``MSWG``)."""
        return self.model.fit_report

    def generate(self, n, rng=None):
        return self.model.generate(n, rng=rng)

    def generate_batch(self, n, repetitions, rng=None):
        return self.model.generate_batch(n, repetitions, rng=rng)

    def generate_batch_streams(self, n, streams):
        return self.model.generate_batch_streams(n, streams)


class BayesNetGenerator:
    """Explicit-model alternative (Sec. 4.2): Chow-Liu tree + CPTs."""

    name = "bayesnet"
    # Ancestral sampling only reads the fitted CPTs and draws from the rng
    # argument, so concurrent generate() calls are safe.
    thread_safe_generate = True

    def __init__(self, bins: int = 20, alpha: float = 0.1, seed: int = 0):
        self.model = BayesianNetworkModel(bins=bins, alpha=alpha, seed=seed)

    def fit(self, sample, marginals, sample_weights=None, categorical_columns=None):
        self.model.fit(
            sample,
            marginals,
            sample_weights=sample_weights,
            categorical_columns=categorical_columns,
        )
        return self

    def generate(self, n, rng=None):
        return self.model.generate(n, rng=rng)

    def generate_batch(self, n, repetitions, rng=None):
        return self.model.generate_batch(n, repetitions, rng=rng)

    def generate_batch_streams(self, n, streams):
        return self.model.generate_batch_streams(n, streams)

    def expected_count(self, constraints: dict[str, Callable[[object], bool]]) -> float:
        """COUNT by exact tree inference (enables the Sec. 4.2 fast path)."""
        return self.model.expected_count(constraints)


class IPFSynthesizer:
    """Full-domain synthesis for small (categorical) domains.

    Fits a dense joint table over the cross-product of attribute domains
    (sample values ∪ marginal values) with cube IPF, seeding each cell
    with its sample count plus ``prior`` so unseen cells can receive mass.
    Generation draws tuples from the fitted joint.
    """

    name = "ipf-synth"
    # generate() only reads the fitted joint and draws from the rng
    # argument, so concurrent calls are safe.
    thread_safe_generate = True

    def __init__(self, prior: float = 0.5, max_cells: int = 1_000_000):
        self.prior = prior
        self.max_cells = max_cells
        self._result = None
        self._schema = None
        self._flat_probabilities = None

    def fit(self, sample, marginals, sample_weights=None, categorical_columns=None):
        if not marginals:
            raise GenerativeModelError("IPFSynthesizer needs marginals")
        self._schema = sample.schema
        attributes = list(sample.column_names)

        marginal_values: dict[str, set] = {a: set() for a in attributes}
        for marginal in marginals:
            for axis, attribute in enumerate(marginal.attributes):
                if attribute not in marginal_values:
                    raise GenerativeModelError(
                        f"marginal attribute {attribute!r} missing from sample"
                    )
                marginal_values[attribute].update(key[axis] for key in marginal.keys())

        domains = []
        for attribute in attributes:
            values = {_native(v) for v in sample.column(attribute)}
            values |= {_native(v) for v in marginal_values[attribute]}
            domains.append(tuple(sorted(values, key=str)))

        total_cells = 1
        for domain in domains:
            total_cells *= len(domain)
        if total_cells > self.max_cells:
            raise GenerativeModelError(
                f"domain cross-product has {total_cells} cells, exceeding the "
                f"limit of {self.max_cells}; IPFSynthesizer is for small "
                "categorical domains (use M-SWG or the Bayesian network instead)"
            )

        shape = tuple(len(d) for d in domains)
        seed = np.full(shape, self.prior, dtype=np.float64)
        indexers = [{value: i for i, value in enumerate(domain)} for domain in domains]
        weights = (
            np.ones(sample.num_rows) if sample_weights is None else sample_weights
        )
        if sample.num_rows:
            # Vectorized cell accumulation: per-attribute dictionary codes
            # remap (distinct values only) into domain positions, the
            # position tuples ravel to flat cell ids, and one weighted
            # bincount scatters the sample mass into the cube.
            axis_codes = []
            for axis, attribute in enumerate(attributes):
                uniques, codes = sample.dictionary(attribute)
                remap = np.asarray(
                    [indexers[axis][_native(value)] for value in uniques],
                    dtype=np.int64,
                )
                axis_codes.append(remap[codes])
            flat = np.ravel_multi_index(tuple(axis_codes), shape)
            seed += np.bincount(
                flat, weights=weights, minlength=seed.size
            ).reshape(shape)

        self._result = cube_ipf(attributes, domains, marginals, seed_table=seed)
        self._flat_probabilities = None
        return self

    def _cell_probabilities(self) -> np.ndarray:
        """Flat cell probabilities of the fitted joint (computed once)."""
        if self._flat_probabilities is None:
            table = self._result.table
            self._flat_probabilities = (table / table.sum()).ravel()
        return self._flat_probabilities

    def _decode_cells(self, draws: np.ndarray) -> Relation:
        """Flat cell draws → tuples, born dictionary-encoded for TEXT."""
        unraveled = np.unravel_index(draws, self._result.table.shape)
        plain: dict = {}
        encoded: dict = {}
        for axis, attribute in enumerate(self._result.attributes):
            domain = self._result.domains[axis]
            if self._schema.dtype(attribute) is DType.TEXT and all(
                isinstance(v, str) for v in domain
            ):
                # The fitted domain is the sorted distinct value set — the
                # dictionary vocabulary — and the drawn cell indices are the
                # codes, so generated samples stay in code space end to end.
                encoded[attribute] = (domain, unraveled[axis])
            else:
                plain[attribute] = object_array(domain)[unraveled[axis]]
        return Relation.from_codes(self._schema, encoded, plain)

    def generate(self, n, rng=None):
        if self._result is None or self._schema is None:
            raise GenerativeModelError("generate() before fit()")
        rng = rng if rng is not None else np.random.default_rng(0)
        probabilities = self._cell_probabilities()
        draws = rng.choice(probabilities.size, size=n, p=probabilities)
        return self._decode_cells(draws)

    def generate_batch(self, n, repetitions, rng=None):
        """All repetitions in one pass: one ``rng.choice`` per repetition
        stream over the flat cell probabilities (the per-stream draws are
        bit-identical to serial ``generate`` calls), then a single batched
        decode of the stacked cell ids."""
        streams = repetition_streams(
            rng if rng is not None else np.random.default_rng(0), repetitions
        )
        return self.generate_batch_streams(n, streams)

    def generate_batch_streams(self, n, streams):
        """One chunk of repetitions, each drawn from its given stream
        (slice of a pre-spawned list, so chunking never changes draws)."""
        if self._result is None or self._schema is None:
            raise GenerativeModelError("generate() before fit()")
        if not streams:
            raise GenerativeModelError("need at least one repetition stream")
        probabilities = self._cell_probabilities()
        draws = np.concatenate(
            [
                stream.choice(probabilities.size, size=n, p=probabilities)
                for stream in streams
            ]
        )
        return with_repetition_ids(self._decode_cells(draws), len(streams))

    def expected_count(self, constraints: dict[str, Callable[[object], bool]]) -> float:
        """Exact COUNT from the fitted joint (no materialisation)."""
        if self._result is None:
            raise GenerativeModelError("expected_count() before fit()")
        mask = np.ones(self._result.table.shape, dtype=bool)
        for attribute, predicate in constraints.items():
            axis = self._result.attributes.index(attribute)
            axis_mask = np.asarray(
                [bool(predicate(v)) for v in self._result.domains[axis]]
            )
            shape = [1] * self._result.table.ndim
            shape[axis] = len(axis_mask)
            mask &= axis_mask.reshape(shape)
        return float(self._result.table[mask].sum())


@dataclass
class OpenQueryConfig:
    """How OPEN queries are answered.

    ``generator_factory`` builds a fresh unfitted generator; the engine
    caches fitted generators per (population, sample, factory).
    ``repetitions`` and the per-repetition row count implement Sec. 5.3's
    variance reduction ("we generate 10 samples with the same number of
    rows as the original sample ... return the groups appearing in all 10
    answers, averaging the aggregate value").

    ``batched`` (the default) answers aggregate queries in a single pass:
    the generator emits all repetitions as one ``R x n``-row batch and the
    query executes once over composite ``(rep, group)`` codes.  Disabling
    it — or using a generator without ``generate_batch``, or a query with
    LIMIT (whose per-repetition truncation the batch cannot reproduce) —
    falls back to the per-repetition loop.  Both paths produce
    bit-identical answers under a fixed session RNG.

    ``max_workers`` bounds the thread pool the *per-repetition loop* fans
    out across; ``None`` sizes it to ``min(repetitions, cpu_count)`` and
    ``1`` forces the serial loop.  Each repetition draws from its own
    spawned RNG stream, so batched, concurrent, and serial execution all
    produce bit-identical answers.

    ``tolerance > 0`` switches qualifying aggregate queries to *adaptive
    streaming* execution: the generator emits repetitions in chunks of
    ``chunk_repetitions``, per-group running mean/variance update after
    every chunk (vectorized Welford), and generation stops as soon as —
    after at least ``min_repetitions`` participating repetitions — every
    surviving group's CI half-width is within ``tolerance`` of its running
    mean for every aggregate, up to the ``max_repetitions`` cap (``None``
    means ``repetitions``).  ``tolerance=0`` (the default) keeps today's
    fixed-R batched path bit-identically.  ``report_ci=True`` opts result
    relations into per-group ``{alias}__std__``/``{alias}__ci__`` columns
    (sample std across participating repetitions and the CI half-width of
    the reported mean).
    """

    generator_factory: Callable[[], OpenGenerator] = field(
        default_factory=lambda: MswgGenerator
    )
    repetitions: int = 10
    rows_per_generation: int | None = None  # None -> sample size
    max_materialized_rows: int = 50_000
    categorical_columns: set[str] | None = None
    max_workers: int | None = None
    batched: bool = True
    tolerance: float = 0.0
    min_repetitions: int = 3
    max_repetitions: int | None = None  # None -> repetitions
    chunk_repetitions: int = 4
    report_ci: bool = False

    def resolved_workers(self) -> int:
        if self.max_workers is not None:
            return max(1, min(self.max_workers, self.repetitions))
        return max(1, min(self.repetitions, os.cpu_count() or 1))

    def resolved_max_repetitions(self) -> int:
        """The adaptive repetition cap (``repetitions`` unless overridden)."""
        cap = self.repetitions if self.max_repetitions is None else self.max_repetitions
        return max(1, int(cap))

    def resolved_min_repetitions(self) -> int:
        """The earliest participating-repetition count that may stop
        (never above the cap, never below 2 — variance needs two points)."""
        return min(max(2, int(self.min_repetitions)), self.resolved_max_repetitions())


def uses_batched_execution(
    generator: OpenGenerator, config: OpenQueryConfig, query: SelectQuery
) -> bool:
    """Will ``evaluate_open`` take the batched single-pass path?

    Exposed so the engine can avoid spinning up the repetition thread pool
    for queries that will never submit to it.  Queries that GROUP BY a
    column the SELECT list drops stay on the per-repetition path: their
    answers do not carry the key columns, so the reference combine
    intersects on what is visible — a semantics the composite pass (which
    sees the real group codes) would otherwise silently improve on.
    """
    if not (
        config.batched
        and hasattr(generator, "generate_batch")
        and bool(query.has_aggregates or query.group_by)
        and query.limit is None
    ):
        return False
    selected = {
        name.lower()
        for item in query.items
        if not item.is_aggregate
        for name in [getattr(item.expr, "name", None)]
        if name is not None
    }
    return all(key.lower() in selected for key in query.group_by)


def uses_adaptive_execution(
    generator: OpenGenerator, config: OpenQueryConfig, query: SelectQuery
) -> bool:
    """Will ``evaluate_open`` take the adaptive streaming path?

    Adaptive execution is the batched path plus chunked generation and a
    variance-based stop rule, so it needs everything
    :func:`uses_batched_execution` needs, a positive ``tolerance``, and a
    generator with ``generate_batch_streams``.
    """
    return (
        config.tolerance > 0.0
        and hasattr(generator, "generate_batch_streams")
        and uses_batched_execution(generator, config, query)
    )


def evaluate_open(
    query: SelectQuery,
    source: PlannedSource,
    generator: OpenGenerator,
    config: OpenQueryConfig,
    population_size: float,
    rng: np.random.Generator,
    plan: LogicalPlan | None = None,
    executor: Executor | None = None,
    parallel=None,
) -> tuple[Relation, list[str], dict]:
    """Answer ``query`` from generated population samples.

    Returns ``(relation, notes, meta)``; ``meta`` carries execution
    metadata — at least ``repetitions_used`` (how many repetitions were
    actually generated: the fixed ``R`` on the batched/loop paths, the
    adaptive stopping point on the streaming path, 0 for direct
    inference, 1 for the non-aggregate single materialisation).

    ``generator`` must already be fitted; ``population_size`` scales the
    uniform weights of each generated sample.  ``plan`` is the compiled form
    of ``query`` over the sample's schema (generated tuples share it) —
    supplied by :class:`~repro.core.engine.Engine` on plan-cache hits,
    compiled here otherwise.

    The ``repetitions`` generate → execute → combine rounds fan out across
    a thread pool (``config.max_workers``): ``executor`` when supplied (the
    engine's shared OPEN-repetition pool, drained by ``Engine.shutdown``),
    otherwise a per-call pool.  Each round draws from its own RNG stream
    spawned off a single ``rng`` draw, so the answer is a pure function of
    the session RNG state regardless of scheduling — serial
    (``max_workers=1``), per-call-pool, and shared-pool execution are
    bit-identical.

    ``parallel`` is the engine's
    :class:`~repro.core.workers.ParallelExecution` context.  The batched
    path shards its single composite pass across repetitions on the worker
    pool (see :meth:`run_open_shards`); the per-repetition loop and the
    non-aggregate path hand it to :func:`execute_plan` for ordinary morsel
    scans.  Every parallel variant is bit-identical to serial execution.
    """
    generator_name = getattr(generator, "name", type(generator).__name__)
    rows = config.rows_per_generation or source.sample.num_rows
    predicate = source.population.defining_predicate
    schema = source.sample.relation.schema
    weighted = bool(query.has_aggregates or query.group_by)
    if plan is None:
        plan = compile_select(query, schema, weighted=weighted)

    inferred = _try_count_inference(query, source, generator)
    if inferred is not None:
        return (
            inferred,
            [
                f"OPEN: COUNT answered by direct inference over {generator_name} "
                "(no tuples materialised, Sec. 4.2)"
            ],
            {"repetitions_used": 0},
        )

    notes = [f"OPEN: {config.repetitions} generated sample(s) from {generator_name}"]
    generation_lock = _generation_lock(generator)

    def generate_with(stream: np.random.Generator, count: int) -> Relation:
        if generation_lock is None:
            return generator.generate(count, rng=stream)
        with generation_lock:
            return generator.generate(count, rng=stream)

    if not (query.has_aggregates or query.group_by):
        rows = min(int(np.ceil(population_size)), config.max_materialized_rows)
        generated = generate_with(_repetition_streams(rng, 1)[0], rows)
        generated, _ = _apply_view(generated, predicate)
        notes.append(
            f"non-aggregate OPEN query: materialised one generated sample of "
            f"{rows} row(s)"
        )
        return (
            execute_plan(plan, generated, parallel=parallel),
            notes,
            {"repetitions_used": 1},
        )

    if uses_batched_execution(generator, config, query):
        if uses_adaptive_execution(generator, config, query):
            return _evaluate_open_adaptive(
                query,
                generator,
                config,
                population_size,
                rng,
                plan,
                predicate,
                rows,
                notes,
                generation_lock,
                parallel,
            )
        if config.tolerance > 0.0:
            notes.append(
                "OPEN: adaptive execution requested but the generator has no "
                "generate_batch_streams; running the fixed-R batched path"
            )
        return _evaluate_open_batched(
            query,
            generator,
            config,
            population_size,
            rng,
            plan,
            predicate,
            rows,
            notes,
            generation_lock,
            parallel,
        )

    streams = _repetition_streams(rng, config.repetitions)

    def one_round(index: int) -> Relation | None:
        generated = generate_with(streams[index], rows)
        generated, _ = _apply_view(generated, predicate)
        if generated.num_rows == 0:
            return None
        # Each generated tuple stands for population_size / rows population
        # tuples ("uniformly reweight the generated sample to match the size
        # of the population", Sec. 5.3); the view filter keeps that scale.
        weights = np.full(generated.num_rows, population_size / rows)
        return execute_plan(plan, generated, weights, parallel=parallel)

    workers = config.resolved_workers()
    if workers > 1 and executor is not None:
        # Waves of `workers` keep the configured fan-out bound on the
        # shared pool (which may be wider) without parking blocked tasks
        # in pool threads another query could be using.
        rounds = []
        for start in range(0, config.repetitions, workers):
            wave = range(start, min(start + workers, config.repetitions))
            rounds.extend(executor.map(one_round, wave))
        notes.append("OPEN: repetitions fanned out on the shared engine pool")
    elif workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rounds = list(pool.map(one_round, range(config.repetitions)))
        notes.append(f"OPEN: repetitions fanned out over {workers} thread(s)")
    else:
        rounds = [one_round(index) for index in range(config.repetitions)]
    answers = [answer for answer in rounds if answer is not None]
    if not answers:
        raise VisibilityError(
            "every generated sample was empty after the population view "
            "predicate; the generator cannot reach this population"
        )
    if len(answers) < config.repetitions:
        notes.append(
            f"warning: {config.repetitions - len(answers)} generation(s) "
            "produced no tuples inside the population view"
        )

    key_columns = _key_columns(query, answers[0])
    combined = combine_open_answers(answers, key_columns)
    notes.append(
        f"kept groups present in all {len(answers)} answers, averaged aggregates"
    )
    return (
        _order_combined(combined, query),
        notes,
        {"repetitions_used": config.repetitions},
    )


def _evaluate_open_batched(
    query: SelectQuery,
    generator: OpenGenerator,
    config: OpenQueryConfig,
    population_size: float,
    rng: np.random.Generator,
    plan: LogicalPlan,
    predicate,
    rows: int,
    notes: list[str],
    generation_lock: threading.Lock | None,
    parallel=None,
) -> tuple[Relation, list[str], dict]:
    """The single-pass OPEN path: one batch, one execution, one combine.

    The generator emits all ``repetitions`` samples as one relation tagged
    with ``__rep__`` ids (each repetition drawn from its own spawned RNG
    stream, exactly as the serial loop draws them), the population view
    predicate filters the whole batch in one vectorized pass, the compiled
    plan executes once over composite ``(rep, group)`` codes, and
    :func:`combine_composite_answers` reduces the per-repetition answers
    without materialising ``R`` intermediate relations.  Bit-identical to
    the per-repetition loop under a fixed session RNG.
    """
    repetitions = config.repetitions
    if generation_lock is None:
        batch = generator.generate_batch(rows, repetitions, rng=rng)
    else:
        with generation_lock:
            batch = generator.generate_batch(rows, repetitions, rng=rng)
    rep_ids = np.asarray(batch.column(REPETITION_COLUMN), dtype=np.int64)
    data = batch.drop_column(REPETITION_COLUMN)
    return _finish_batched(
        query,
        config,
        data,
        rep_ids,
        repetitions,
        population_size,
        rows,
        plan,
        predicate,
        notes,
        parallel,
    )


def _finish_batched(
    query: SelectQuery,
    config: OpenQueryConfig,
    data: Relation,
    rep_ids: np.ndarray,
    repetitions: int,
    population_size: float,
    rows: int,
    plan: LogicalPlan,
    predicate,
    notes: list[str],
    parallel,
) -> tuple[Relation, list[str], dict]:
    """View-filter, composite-execute and combine one full ``R x n`` batch.

    Shared by the fixed-R batched path and the adaptive path's fallback
    (whose unioned chunk batch is row-identical to a monolithic one, so
    both entries produce bit-identical answers).
    """
    if predicate is not None and data.num_rows:
        bound = bind_expression(predicate, data.schema)
        mask = np.asarray(bound.evaluate(data), dtype=bool)
        data = data.filter(mask)
        rep_ids = rep_ids[mask]

    participating = np.bincount(rep_ids, minlength=repetitions) > 0
    answered = int(participating.sum())
    if answered == 0:
        raise VisibilityError(
            "every generated sample was empty after the population view "
            "predicate; the generator cannot reach this population"
        )
    if answered < repetitions:
        notes.append(
            f"warning: {repetitions - answered} generation(s) "
            "produced no tuples inside the population view"
        )

    # Each generated tuple stands for population_size / rows population
    # tuples ("uniformly reweight the generated sample to match the size
    # of the population", Sec. 5.3); the view filter keeps that scale.
    weight_value = population_size / rows
    # Large batches shard across the worker pool on repetition boundaries:
    # every (rep, group) composite cell lives wholly inside one shard, so
    # the stitched result is bit-identical to the one-pass execution below.
    sharded = (
        None
        if parallel is None
        else parallel.run_open_shards(plan, data, rep_ids, repetitions, weight_value)
    )
    if sharded is not None:
        aggregate_node, composite = sharded
        notes.append("OPEN: composite pass sharded across the worker pool")
    else:
        weights = np.full(data.num_rows, weight_value)
        aggregate_node, composite = execute_plan_composite(
            plan, data, rep_ids, repetitions, weights
        )
    combined = combine_composite_answers(
        data,
        aggregate_node,
        composite,
        participating,
        report_ci=config.report_ci,
    )
    notes.append(
        "OPEN: batched single-pass execution over composite (rep, group) codes"
    )
    notes.append(
        f"kept groups present in all {answered} answers, averaged aggregates"
    )
    return (
        _order_combined(combined, query),
        notes,
        {"repetitions_used": repetitions},
    )


#: z-score of the 95% normal confidence interval the adaptive stop rule
#: (and the opt-in ``__ci__`` columns) use.
CONFIDENCE_Z = 1.96

#: Relative-tolerance denominators floor here: a group whose running mean
#: is exactly zero would otherwise divide by zero.  The floor is tiny on
#: purpose — near-zero means demand near-zero spread, which is the
#: conservative reading (such groups keep generating to the cap).
_TOLERANCE_FLOOR = 1e-12


def _evaluate_open_adaptive(
    query: SelectQuery,
    generator: OpenGenerator,
    config: OpenQueryConfig,
    population_size: float,
    rng: np.random.Generator,
    plan: LogicalPlan,
    predicate,
    rows: int,
    notes: list[str],
    generation_lock: threading.Lock | None,
    parallel=None,
) -> tuple[Relation, list[str], dict]:
    """The adaptive streaming OPEN path: chunked generation, early stop.

    The full repetition-stream list spawns once (one draw on the session
    RNG, exactly as the fixed paths derive theirs), then repetitions are
    generated ``chunk_repetitions`` at a time.  Each chunk runs through
    the composite kernels in *vocab cross-product cell space* — the
    chunk-stable group identity morsel execution already relies on — and
    its per-(repetition, cell) partials merge into O(G) running state:
    present-in-all intersection, per-aggregate totals (accumulated
    repetition by repetition, the fixed combine's order), and vectorized
    Welford mean/variance.  After each chunk, once ``min_repetitions``
    participating repetitions have accumulated, generation stops as soon
    as every surviving group's CI half-width is within the relative
    ``tolerance`` of its running mean for every aggregate; otherwise the
    stream continues to the ``max_repetitions`` cap.  Chunks shard across
    the worker pool when it is available, and peak batch memory is capped
    at ``chunk_repetitions x n`` rows instead of ``R x n``.

    Queries whose GROUP BY keys lack a chunk-stable encoded domain
    (numeric keys, oversized vocab cross-products) fall back to the
    fixed-R batched path — generating the *remaining* repetitions from
    the same pre-spawned streams, so the fallback answer is bit-identical
    to the monolithic batch.
    """
    cap = config.resolved_max_repetitions()
    min_repetitions = config.resolved_min_repetitions()
    chunk = max(1, int(config.chunk_repetitions))
    streams = repetition_streams(rng, cap)
    weight_value = population_size / rows

    def generate_chunk(chunk_streams) -> Relation:
        if generation_lock is None:
            return generator.generate_batch_streams(rows, chunk_streams)
        with generation_lock:
            return generator.generate_batch_streams(rows, chunk_streams)

    aggregate_node: AggregateNode | None = None
    domain_sizes: tuple[int, ...] = ()
    domain_total = 0
    key_vocabs: list[np.ndarray] = []
    present_all: np.ndarray | None = None
    totals: list[np.ndarray] = []
    moments: list[WelfordMoments] = []
    answered = 0
    used = 0
    sharded_any = False
    trace = current_trace()
    chunk_log = (
        trace.meta.setdefault("open_chunks", []) if trace is not None else None
    )

    for start, stop in repetition_chunks(cap, chunk):
        chunk_reps = stop - start
        if trace is not None:
            with trace.span(
                "open.generate", rep_start=start, rep_stop=stop
            ) as span:
                batch = generate_chunk(streams[start:stop])
                span["rows"] = batch.num_rows
        else:
            batch = generate_chunk(streams[start:stop])
        local_ids = np.asarray(batch.column(REPETITION_COLUMN), dtype=np.int64)
        data = batch.drop_column(REPETITION_COLUMN)

        if aggregate_node is None:
            layout = composite_layout(plan, data, planned_rows=rows * cap)
            if layout is None:
                notes.append(
                    "OPEN: adaptive streaming needs chunk-stable group cells "
                    "(encoded GROUP BY keys, bounded domain); falling back "
                    "to the fixed-R batched path"
                )
                return _adaptive_layout_fallback(
                    query,
                    config,
                    population_size,
                    rows,
                    plan,
                    predicate,
                    notes,
                    parallel,
                    generate_chunk,
                    data,
                    local_ids,
                    streams,
                    stop,
                    cap,
                )
            aggregate_node, sizes, total = layout
            domain_sizes, domain_total = tuple(sizes), int(total)
            key_vocabs = [
                np.asarray(data.encoding(key)[0])
                for key in aggregate_node.group_keys
            ]
            present_all = np.ones(domain_total, dtype=bool)
            totals = [
                np.zeros(domain_total, dtype=np.float64)
                for _ in aggregate_node.specs
            ]
            moments = [WelfordMoments(domain_total) for _ in aggregate_node.specs]
        else:
            _check_vocab_stability(data, aggregate_node.group_keys, key_vocabs)

        if predicate is not None and data.num_rows:
            bound = bind_expression(predicate, data.schema)
            mask = np.asarray(bound.evaluate(data), dtype=bool)
            data = data.filter(mask)
            local_ids = local_ids[mask]

        participating = np.bincount(local_ids, minlength=chunk_reps) > 0
        sharded = (
            None
            if parallel is None
            else parallel.run_open_shards(
                plan,
                data,
                local_ids,
                chunk_reps,
                weight_value,
                layout=(aggregate_node, domain_sizes, domain_total),
            )
        )
        if sharded is not None:
            present_block = sharded[1].present
            value_blocks = sharded[1].values
            if not sharded_any:
                sharded_any = True
                notes.append("OPEN: adaptive chunks sharded across the worker pool")
        else:
            partial = execute_plan_open_shard(
                plan,
                data,
                local_ids,
                chunk_reps,
                weight_value,
                domain_sizes,
                domain_total,
                0,
            )
            present_block = partial["present"]
            value_blocks = partial["values"]

        used = stop
        rep_rows = np.flatnonzero(participating)
        if rep_rows.size:
            answered += int(rep_rows.size)
            present_all &= present_block[rep_rows].all(axis=0)
            for index, matrix in enumerate(value_blocks):
                # Accumulate repetition by repetition (ascending), the
                # fixed combine's order, so running to the cap reproduces
                # the monolithic batch's totals exactly.
                for repetition in rep_rows:
                    totals[index] += matrix[repetition]
                moments[index].update(matrix[rep_rows])

        if chunk_log is not None:
            # Per-chunk convergence telemetry: the worst (largest) relative
            # CI half-width across surviving groups and aggregates — what
            # the stopping rule compares against the tolerance.
            chunk_log.append(
                {
                    "rep_start": start,
                    "rep_stop": stop,
                    "answered": answered,
                    "max_rel_ci_half_width": _max_rel_halfwidth(
                        moments, present_all
                    ),
                }
            )

        if answered >= min_repetitions and _converged(
            moments, present_all, config.tolerance
        ):
            break

    if answered == 0:
        raise VisibilityError(
            "every generated sample was empty after the population view "
            "predicate; the generator cannot reach this population"
        )
    if used - answered:
        notes.append(
            f"warning: {used - answered} generation(s) "
            "produced no tuples inside the population view"
        )
    combined = _combine_adaptive(
        aggregate_node,
        domain_sizes,
        key_vocabs,
        present_all,
        totals,
        moments,
        answered,
        config.report_ci,
    )
    notes.append(
        f"OPEN: adaptive streaming execution over {used} of up to {cap} "
        f"repetition(s) in chunks of {chunk} (tolerance={config.tolerance:g})"
    )
    if used < cap:
        notes.append(
            "OPEN: stopped early — every group's CI half-width within the "
            f"relative tolerance after {answered} participating repetition(s)"
        )
    else:
        notes.append("OPEN: repetition cap reached before the tolerance target")
    notes.append(
        f"kept groups present in all {answered} answers, averaged aggregates"
    )
    meta = {
        "repetitions_used": used,
        "repetitions_cap": cap,
        "adaptive": True,
        "early_stop": used < cap,
        "peak_batch_rows": min(chunk, cap) * rows,
    }
    return _order_combined(combined, query), notes, meta


def _max_rel_halfwidth(
    moments: list[WelfordMoments], kept_mask: np.ndarray
) -> float | None:
    """The largest relative CI half-width across surviving groups, or
    ``None`` before any repetition participated (trace telemetry only)."""
    if not kept_mask.any():
        return None
    worst = 0.0
    for tracker in moments:
        if tracker.count == 0:
            return None
        half = tracker.ci_halfwidth(CONFIDENCE_Z)[kept_mask]
        means = tracker.mean[kept_mask]
        rel = half / np.maximum(np.abs(means), _TOLERANCE_FLOOR)
        if rel.size:
            worst = max(worst, float(rel.max()))
    return round(worst, 6)


def _converged(
    moments: list[WelfordMoments], kept_mask: np.ndarray, tolerance: float
) -> bool:
    """Does every aggregate meet the relative-tolerance target on every
    currently surviving group?"""
    if not kept_mask.any():
        return False
    for tracker in moments:
        half = tracker.ci_halfwidth(CONFIDENCE_Z)[kept_mask]
        means = tracker.mean[kept_mask]
        if not np.all(
            half <= tolerance * np.maximum(np.abs(means), _TOLERANCE_FLOOR)
        ):
            return False
    return True


def _check_vocab_stability(
    data: Relation, group_keys, key_vocabs: list[np.ndarray]
) -> None:
    """Every chunk must carry the same fitted vocabularies — cell ids are
    only comparable across chunks when the vocab never moves."""
    for key, vocab in zip(group_keys, key_vocabs):
        entry = data.encoding(key)
        if entry is None or not np.array_equal(np.asarray(entry[0]), vocab):
            raise GenerativeModelError(
                f"generator changed the vocabulary of GROUP BY key {key!r} "
                "between repetition chunks; adaptive streaming requires the "
                "stable fitted vocabulary the chunked-stream contract "
                "guarantees"
            )


def _combine_adaptive(
    aggregate_node: AggregateNode,
    domain_sizes: tuple[int, ...],
    key_vocabs: list[np.ndarray],
    present_all: np.ndarray,
    totals: list[np.ndarray],
    moments: list[WelfordMoments],
    answered: int,
    report_ci: bool,
) -> Relation:
    """The adaptive sibling of :func:`combine_composite_answers`.

    Surviving cells are those present in every participating repetition;
    key values decode straight from the captured vocabularies (chunk rows
    are long gone — this is what caps peak memory), and ascending cell id
    is ascending key order, the same key-sorted output the fixed paths
    produce.
    """
    out_schema = _combined_schema(aggregate_node, report_ci)
    kept_cells = np.flatnonzero(present_all)
    if kept_cells.size == 0:
        return Relation.empty(out_schema)

    columns: list[np.ndarray] = []
    if aggregate_node.group_keys:
        cell_indices = np.unravel_index(kept_cells, domain_sizes)
        for vocab, codes in zip(key_vocabs, cell_indices):
            columns.append(vocab[codes])
    spread_columns: list[np.ndarray] = []
    for index, spec_totals in enumerate(totals):
        columns.append(spec_totals[present_all] / answered)
        if report_ci:
            spread_columns.append(moments[index].std()[present_all])
            spread_columns.append(
                moments[index].ci_halfwidth(CONFIDENCE_Z)[present_all]
            )
    columns.extend(spread_columns)
    return Relation.from_groups(out_schema, columns)


def _adaptive_layout_fallback(
    query: SelectQuery,
    config: OpenQueryConfig,
    population_size: float,
    rows: int,
    plan: LogicalPlan,
    predicate,
    notes: list[str],
    parallel,
    generate_chunk,
    first_data: Relation,
    first_ids: np.ndarray,
    streams,
    generated: int,
    cap: int,
) -> tuple[Relation, list[str], dict]:
    """Finish an adaptive stream whose layout is not chunk-mergeable.

    The remaining repetitions generate from the same pre-spawned streams
    and union with the first chunk — row-for-row the monolithic batch —
    then the shared fixed-R tail runs, so the answer is bit-identical to
    the non-adaptive batched path.
    """
    if generated < cap:
        rest = generate_chunk(streams[generated:cap])
        rest_ids = (
            np.asarray(rest.column(REPETITION_COLUMN), dtype=np.int64) + generated
        )
        data = first_data.concat(rest.drop_column(REPETITION_COLUMN))
        rep_ids = np.concatenate([first_ids, rest_ids])
    else:
        data, rep_ids = first_data, first_ids
    return _finish_batched(
        query,
        config,
        data,
        rep_ids,
        cap,
        population_size,
        rows,
        plan,
        predicate,
        notes,
        parallel,
    )


def _order_combined(combined: Relation, query: SelectQuery) -> Relation:
    """ORDER BY / LIMIT over the combined OPEN answer (shared tail)."""
    if query.order_by:
        names = [key.column for key in query.order_by]
        combined = combined.sort_by(
            [n for n in names if n in combined.schema],
            [key.ascending for key in query.order_by if key.column in combined.schema],
        )
    if query.limit is not None:
        combined = combined.head(query.limit)
    return combined


def combine_composite_answers(
    relation: Relation,
    aggregate_node: AggregateNode,
    composite: CompositeAggregates,
    participating: np.ndarray,
    report_ci: bool = False,
) -> Relation:
    """Group-intersection + aggregate averaging, straight from composite codes.

    The batched sibling of :func:`combine_open_answers`: per-repetition
    answers never materialise.  A group survives iff it is present in
    every *participating* repetition (repetitions whose generation was
    empty inside the population view do not count, matching the serial
    loop's dropped ``None`` answers); its aggregates average the per-cell
    values repetition by repetition — the same accumulation order the
    union-then-bincount combine performs, so results are bit-identical.
    Group ids are key-sorted (dictionary order over the whole batch), so
    output rows land in the same key-sorted order as the serial combine.

    ``report_ci`` appends per-aggregate ``{alias}__std__``/``{alias}__ci__``
    columns (sample std of the per-repetition values across participating
    repetitions, and the CI half-width of the reported mean).  The default
    ``False`` leaves the schema — and every byte of the answer — unchanged.
    """
    out_schema = _combined_schema(aggregate_node, report_ci)

    repetition_rows = composite.present[participating]
    kept = (
        repetition_rows.all(axis=0)
        if repetition_rows.shape[0]
        else np.zeros(composite.num_groups, dtype=bool)
    )
    if composite.num_groups == 0 or not kept.any():
        return Relation.empty(out_schema)

    representatives = composite.first_indices[kept]
    columns = [
        relation.column(name)[representatives]
        for name in aggregate_node.key_columns
    ]
    answered = int(participating.sum())
    spread_columns: list[np.ndarray] = []
    for matrix in composite.values:
        totals = np.zeros(int(kept.sum()), dtype=np.float64)
        # Accumulate repetition by repetition (ascending), mirroring the
        # serial combine's bincount over rep-major union rows.
        for repetition in np.flatnonzero(participating):
            totals = totals + matrix[repetition][kept]
        means = totals / answered
        columns.append(means)
        if report_ci:
            spread_columns.extend(_spread_columns(matrix, participating, kept, means))
    columns.extend(spread_columns)
    return Relation.from_groups(out_schema, columns)


def _combined_schema(aggregate_node: AggregateNode, report_ci: bool) -> Schema:
    """Key fields + FLOAT aggregate fields (+ std/ci pairs when opted in)."""
    key_fields = list(aggregate_node.schema.fields[: len(aggregate_node.key_columns)])
    value_fields = [Field(spec.alias, DType.FLOAT) for spec in aggregate_node.specs]
    fields = key_fields + value_fields
    if report_ci:
        for spec in aggregate_node.specs:
            fields.append(Field(f"{spec.alias}__std__", DType.FLOAT))
            fields.append(Field(f"{spec.alias}__ci__", DType.FLOAT))
    return Schema(fields)


def _spread_columns(
    matrix: np.ndarray,
    participating: np.ndarray,
    kept: np.ndarray,
    means: np.ndarray,
) -> list[np.ndarray]:
    """``[std, ci]`` of one aggregate's per-repetition values per kept group."""
    answered = int(participating.sum())
    if answered > 1:
        deviations = matrix[participating][:, kept] - means
        std = np.sqrt((deviations * deviations).sum(axis=0) / (answered - 1))
    else:
        std = np.full(means.shape, np.inf)
    return [std, CONFIDENCE_Z * std / np.sqrt(answered)]


def _try_count_inference(
    query: SelectQuery,
    source: PlannedSource,
    generator: OpenGenerator,
) -> Relation | None:
    """The Sec. 4.2 fast path: pure COUNT via ``generator.expected_count``.

    Returns ``None`` whenever the query or predicate shape doesn't qualify
    (the caller falls back to materialisation).  Constraints on binned
    attributes are evaluated at bin representatives — a controlled
    approximation, like any histogram-based estimator.
    """
    from repro.engine.inference import is_pure_count, predicate_constraints

    expected_count = getattr(generator, "expected_count", None)
    if expected_count is None or not is_pure_count(query):
        return None

    schema = source.sample.relation.schema
    bound_where = (
        None if query.where is None else bind_expression(query.where, schema)
    )
    constraints = predicate_constraints(bound_where)
    if constraints is None:
        return None

    view = source.population.defining_predicate
    if view is not None:
        view_constraints = predicate_constraints(bind_expression(view, schema))
        if view_constraints is None:
            return None
        for column, term in view_constraints.items():
            previous = constraints.get(column)
            constraints[column] = (
                term
                if previous is None
                else (lambda v, a=previous, b=term: a(v) and b(v))
            )

    try:
        count = float(expected_count(constraints))
    except Exception:
        return None  # e.g. constraint on an attribute the model lacks
    alias = query.items[0].alias or query.items[0].default_alias()
    from repro.relational.dtypes import DType
    from repro.relational.schema import Field, Schema

    return Relation.from_columns(
        Schema([Field(alias, DType.FLOAT)]), {alias: [count]}
    )


def _repetition_streams(
    rng: np.random.Generator, count: int
) -> list[np.random.Generator]:
    """``count`` independent RNG streams from a single draw on ``rng``.

    Delegates to :func:`repro.generative.streams.repetition_streams` — the
    same derivation ``generate_batch`` implementations use, which is what
    makes the batched path, the concurrent executor, and the serial loop
    all bit-identical.
    """
    return repetition_streams(rng, count)


def combine_open_answers(answers: list[Relation], key_columns: list[str]) -> Relation:
    """Group-intersection + aggregate averaging across repeated answers.

    Vectorized over dictionary codes: the answers (each with distinct key
    combinations, as GROUP BY outputs are) are unioned into one relation,
    :func:`~repro.relational.groupby.group_codes` assigns each key
    combination a dense id, and a key survives iff its id occurs in every
    answer — i.e. its occurrence count equals ``len(answers)``.  Aggregates
    average with one ``np.bincount`` per value column; no per-row Python
    dict is built.  Because each answer's key columns carry dictionary
    encodings (grouped-aggregate output is born encoded) and ``union_all``
    merges vocabularies code-side, the whole combine stays in code space.
    Output rows are in key-sorted order (``np.unique`` semantics per
    column).
    """
    first = answers[0]
    value_columns = [c for c in first.column_names if c not in key_columns]
    repetitions = len(answers)

    schema_fields = [first.schema.field(c) for c in key_columns]
    schema_fields += [Field(c, DType.FLOAT) for c in value_columns]
    out_schema = Schema(schema_fields)

    combined = union_all(answers)
    if combined.num_rows == 0:
        return Relation.empty(out_schema)

    codes, num_groups, first_indices = group_codes(combined, list(key_columns))
    counts = np.bincount(codes, minlength=num_groups)
    kept = counts == repetitions

    columns = [combined.column(c)[first_indices][kept] for c in key_columns]
    for c in value_columns:
        values = np.asarray(combined.column(c), dtype=np.float64)
        sums = np.bincount(codes, weights=values, minlength=num_groups)
        columns.append(sums[kept] / repetitions)
    return Relation.from_groups(out_schema, columns)


def _key_columns(query: SelectQuery, answer: Relation) -> list[str]:
    aggregate_aliases = {
        (item.alias or item.default_alias())
        for item in query.items
        if item.is_aggregate
    }
    return [c for c in answer.column_names if c not in aggregate_aliases]


def _apply_view(relation: Relation, predicate) -> tuple[Relation, float]:
    if predicate is None or relation.num_rows == 0:
        return relation, 1.0
    bound = bind_expression(predicate, relation.schema)
    mask = np.asarray(bound.evaluate(relation), dtype=bool)
    kept = relation.filter(mask)
    return kept, float(np.mean(mask))


def _native(value):
    if isinstance(value, np.generic):
        return value.item()
    return value
