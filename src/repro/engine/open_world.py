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

import inspect
import threading
import weakref
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.bayesnet.model import BayesianNetworkModel
from repro.catalog.metadata import Marginal
from repro.engine.compiler import (
    compile_select,
    execute_plan,
    execute_plan_composite,
)
from repro.engine.plan import (
    AggregateNode,
    FilterNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    SortNode,
)
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
    ``thread_safe_generate = True``; sessions sharing the cached fitted
    generator then call it from several threads at once.  Without the
    marker, concurrent sessions serialize generation behind a
    per-generator lock (execution of the generated samples still
    overlaps).

    Generators may additionally provide
    ``generate_batch_streams(n, streams)`` returning one repetition per
    stream as one stacked ``len(streams) x n``-row relation tagged with a
    dense ``__rep__`` id column (see :mod:`repro.generative.streams`).
    The contract: rows ``[r*n, (r+1)*n)`` must be bit-identical to
    ``generate(n, rng=streams[r])``.  The engine pre-spawns the full
    stream list once and hands each chunk its ``streams[start:stop]``
    slice, so chunking never changes a drawn value; a generator without
    the method is driven through ``generate`` stream by stream, to the
    same answer.

    A generator may expose ``fit_report`` — a flat dict of what its last
    ``fit`` did; the engine copies it onto the ``open.fit`` trace span.

    ``generate`` may also take ``until``, a predicate over each consecutive
    row range it decodes; it then returns the prefix of the ``n``-row
    sample up to the first range for which ``until`` is true, bit-identical
    to those rows of the whole sample, with ``rng`` advanced as for the
    whole sample.  The engine passes it to stop a non-aggregate query at
    its LIMIT (:func:`_limit_met`); a generator without the parameter
    produces its whole sample as one range.  Of the provided generators
    only :class:`MswgGenerator` takes it — the other two are cheap enough
    whole.
    """

    def fit(
        self,
        sample: Relation,
        marginals: list[Marginal],
        sample_weights: np.ndarray | None = None,
        categorical_columns: set[str] | None = None,
    ): ...

    def generate(self, n: int, rng: np.random.Generator | None = None) -> Relation: ...


# Per-generator locks serializing generation for generators that are not
# marked thread_safe_generate (e.g. MSWG's compiled plan computes in
# buffers it reuses across calls) — sessions share one cached fitted model.  Keyed weakly so fitted generators
# evicted from the engine cache do not pin a lock forever.
_GENERATE_LOCKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_GENERATE_LOCKS_GUARD = threading.Lock()
_FALLBACK_GENERATE_LOCK = threading.Lock()


def _generation_lock(generator) -> threading.Lock | None:
    """The lock guarding ``generator``'s generation — ``None`` if not needed."""
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

    def generate(self, n, rng=None, until=None):
        return self.model.generate(n, rng=rng, until=until)

    def generate_batch(self, n, repetitions, rng=None):
        # The engine never calls this; mosaicbench's layer tracer names it.
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

    def generate_batch_streams(self, n, streams):
        """One chunk of repetitions: one ``choice`` per stream over the flat
        cell probabilities (each bit-identical to ``generate`` on that
        stream), then a single decode of the stacked cell ids."""
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

    ``tolerance > 0`` lets an aggregate query stop generating early:
    repetitions are emitted ``chunk_repetitions`` at a time, and generation
    stops as soon as — after at least ``min_repetitions`` participating
    repetitions — every surviving group's CI half-width is within
    ``tolerance`` of its running mean for every aggregate, up to the
    ``max_repetitions`` cap (``None`` means ``repetitions``).  With
    ``tolerance=0`` (the default) there is nothing to stop on, so all
    ``repetitions`` are generated in one chunk.  ``report_ci=True`` opts
    result relations into per-group ``{alias}__std__``/``{alias}__ci__``
    columns (sample std across participating repetitions and the CI
    half-width of the reported mean).
    """

    generator_factory: Callable[[], OpenGenerator] = field(
        default_factory=lambda: MswgGenerator
    )
    repetitions: int = 10
    rows_per_generation: int | None = None  # None -> sample size
    max_materialized_rows: int = 50_000
    categorical_columns: set[str] | None = None
    tolerance: float = 0.0
    min_repetitions: int = 3
    max_repetitions: int | None = None  # None -> repetitions
    chunk_repetitions: int = 4
    report_ci: bool = False

    def resolved_max_repetitions(self) -> int:
        """The repetition cap under ``tolerance > 0`` (``repetitions``
        unless overridden)."""
        cap = self.repetitions if self.max_repetitions is None else self.max_repetitions
        return max(1, int(cap))

    def resolved_min_repetitions(self) -> int:
        """The earliest participating-repetition count that may stop
        (never above the cap, never below 2 — variance needs two points)."""
        return min(max(2, int(self.min_repetitions)), self.resolved_max_repetitions())


def evaluate_open(
    query: SelectQuery,
    source: PlannedSource,
    generator: OpenGenerator,
    config: OpenQueryConfig,
    population_size: float,
    rng: np.random.Generator,
    plan: LogicalPlan | None = None,
) -> tuple[Relation, list[str], dict]:
    """Answer ``query`` from generated population samples.

    Returns ``(relation, notes, meta)``; ``meta`` carries execution
    metadata — at least ``repetitions_used`` (how many repetitions were
    actually generated: where the stream stopped, 0 for direct inference,
    1 for the non-aggregate single materialisation).

    ``generator`` must already be fitted; ``population_size`` scales the
    uniform weights of each generated sample.  ``plan`` is the compiled form
    of ``query`` over the sample's schema (generated tuples share it) —
    supplied by :class:`~repro.core.engine.Engine` on plan-cache hits,
    compiled here otherwise.

    Every aggregate runs on the chunked stream
    (:func:`_evaluate_open_stream`), and the plan's ORDER BY/LIMIT apply
    once, to the combined answer.  A non-aggregate query materialises one
    sample of up to ``max_materialized_rows`` rows and runs its plan over
    it; when a prefix can answer the plan (:func:`prefix_limit`),
    generation stops at the first decoded range that meets the LIMIT, so
    only the rows up to there exist.  Each repetition draws from its own RNG
    stream spawned off a single ``rng`` draw, so the answer is a function
    of the query, the model and the session RNG state — not of chunking.
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
            _order_and_limit(inferred, plan),
            [
                f"OPEN: COUNT answered by direct inference over {generator_name} "
                "(no tuples materialised, Sec. 4.2)"
            ],
            {"repetitions_used": 0},
        )

    if not weighted:
        rows = min(int(np.ceil(population_size)), config.max_materialized_rows)
        (stream,) = repetition_streams(rng, 1)
        until = _limit_met(plan, predicate, generator)
        generated = _generate(generator, rows, stream, until)
        relation = execute_plan(plan, _apply_view(generated, predicate))
        notes = [
            f"non-aggregate OPEN query: generated {generated.num_rows} of up to "
            f"{rows} row(s)"
        ]
        meta = {"repetitions_used": 1}
    else:
        relation, notes, meta = _evaluate_open_stream(
            generator, config, population_size, rng, plan, predicate, rows
        )
    notes.insert(
        0, f"OPEN: {meta['repetitions_used']} generated sample(s) from {generator_name}"
    )
    return relation, notes, meta


def _participation_notes(generated: int, answered: int) -> list[str]:
    """Warn about repetitions the population view emptied; raise if all were."""
    if answered == 0:
        raise VisibilityError(
            "every generated sample was empty after the population view "
            "predicate; the generator cannot reach this population"
        )
    if answered == generated:
        return []
    return [
        f"warning: {generated - answered} generation(s) "
        "produced no tuples inside the population view"
    ]


def _kept_note(answered: int) -> str:
    return f"kept groups present in all {answered} answers, averaged aggregates"


def _generate(
    generator: OpenGenerator,
    rows: int,
    stream: np.random.Generator,
    until: Callable[[Relation], bool] | None = None,
) -> Relation:
    """One repetition through ``generator.generate``, under its lock."""
    with _generation_lock(generator) or nullcontext():
        if until is None:
            return generator.generate(rows, rng=stream)
        return generator.generate(rows, rng=stream, until=until)


def prefix_limit(plan: LogicalPlan) -> int | None:
    """The LIMIT a prefix of the generated sample can answer, if any.

    Filters, a projection without DISTINCT, then a LIMIT: the answer is the
    first LIMIT qualifying rows in generation order, which a prefix holding
    that many has.  A Sort or DISTINCT decides its first rows from every
    row, and so does an aggregate; those plans return ``None``.
    """
    *head, last = plan.nodes
    if isinstance(last, LimitNode) and all(
        isinstance(node, FilterNode)
        or (isinstance(node, ProjectNode) and not node.distinct)
        for node in head
    ):
        return last.count
    return None


def _limit_met(
    plan: LogicalPlan, predicate, generator: OpenGenerator
) -> Callable[[Relation], bool] | None:
    """The ``until`` predicate that stops generation once ``plan``'s LIMIT
    is met, or ``None`` when the plan needs the whole sample or
    ``generator.generate`` takes no ``until``."""
    limit = prefix_limit(plan)
    if limit is None or "until" not in inspect.signature(generator.generate).parameters:
        return None
    answered = 0

    def until(rows: Relation) -> bool:
        nonlocal answered
        answered += execute_plan(plan, _apply_view(rows, predicate)).num_rows
        return answered >= limit

    return until


def _generate_chunk(
    generator: OpenGenerator, rows: int, streams: list[np.random.Generator]
) -> tuple[Relation, np.ndarray]:
    """``len(streams)`` repetitions of ``rows`` tuples, stacked in stream
    order, with each row's repetition index within the chunk.

    The stream's one generation call site: ``generate_batch_streams`` when
    the generator has it, otherwise ``generate`` stream by stream — the
    contract makes the two bit-identical.
    """
    batched = getattr(generator, "generate_batch_streams", None)
    if batched is None:
        parts = [_generate(generator, rows, stream) for stream in streams]
        sizes = [part.num_rows for part in parts]
        return union_all(parts), np.repeat(np.arange(len(parts)), sizes)
    with _generation_lock(generator) or nullcontext():
        batch = batched(rows, streams)
    rep_ids = np.asarray(batch.column(REPETITION_COLUMN), dtype=np.int64)
    return batch.drop_column(REPETITION_COLUMN), rep_ids


#: z-score of the 95% normal confidence interval the stop rule (and the
#: opt-in ``__ci__`` columns) use.
CONFIDENCE_Z = 1.96

#: Relative-tolerance denominators floor here: a group whose running mean
#: is exactly zero would otherwise divide by zero.  The floor is tiny on
#: purpose — near-zero means demand near-zero spread, which is the
#: conservative reading (such groups keep generating to the cap).
_TOLERANCE_FLOOR = 1e-12


def _evaluate_open_stream(
    generator: OpenGenerator,
    config: OpenQueryConfig,
    population_size: float,
    rng: np.random.Generator,
    plan: LogicalPlan,
    predicate,
    rows: int,
) -> tuple[Relation, list[str], dict]:
    """The OPEN aggregate path: a chunked stream of repetitions.

    The ``cap`` repetition streams spawn once (one draw on the session
    RNG), then repetitions are generated ``chunk`` at a time.  Each chunk
    is view-filtered in one vectorized pass and executed once over
    composite ``(rep, group)`` codes, and its per-(repetition, group)
    cells merge into the O(G) state of :class:`_SurvivingGroups`.  With ``tolerance == 0`` there is nothing to
    stop on: ``chunk = cap`` and the stream is one generate, one execute,
    one combine.  Otherwise, after each chunk, once ``min_repetitions``
    repetitions have participated, generation stops as soon as every
    surviving group's CI half-width is within the relative ``tolerance`` of
    its running mean for every aggregate; peak batch memory is
    ``chunk x n`` rows instead of ``cap x n``.  Chunking never changes a
    drawn value or an accumulation order, so any chunk size run to the
    same repetition gives the same bytes.  The plan's ORDER BY/LIMIT
    describe the combined answer, so they apply once, after the combine.
    """
    adaptive = config.tolerance > 0.0
    cap = config.resolved_max_repetitions() if adaptive else config.repetitions
    chunk = min(cap, max(1, int(config.chunk_repetitions))) if adaptive else cap
    min_repetitions = config.resolved_min_repetitions()
    streams = repetition_streams(rng, cap)
    # Each generated tuple stands for population_size / rows population
    # tuples ("uniformly reweight the generated sample to match the size
    # of the population", Sec. 5.3); the view filter keeps that scale.
    weight_value = population_size / rows

    groups = _SurvivingGroups(
        next(node for node in plan.nodes if isinstance(node, AggregateNode))
    )
    used = 0
    trace = current_trace()
    chunk_log = (
        trace.meta.setdefault("open_chunks", []) if trace is not None else None
    )

    for start, stop in repetition_chunks(cap, chunk):
        with (
            trace.span("open.generate", rep_start=start, rep_stop=stop)
            if trace is not None
            else nullcontext({})
        ) as span:
            data, rep_ids = _generate_chunk(generator, rows, streams[start:stop])
            span["rows"] = data.num_rows
        mask = _view_mask(data, predicate)
        if mask is not None:
            data, rep_ids = data.filter(mask), rep_ids[mask]

        used = stop
        participating = np.bincount(rep_ids, minlength=stop - start) > 0
        if participating.any():
            _, composite = execute_plan_composite(
                plan, data, rep_ids, stop - start, np.full(data.num_rows, weight_value)
            )
            groups.merge(data, composite, participating)

        if chunk_log is not None:
            # Per-chunk convergence telemetry: the worst (largest) relative
            # CI half-width across surviving groups and aggregates — what
            # the stopping rule compares against the tolerance.
            chunk_log.append(
                {
                    "rep_start": start,
                    "rep_stop": stop,
                    "answered": groups.answered,
                    "max_rel_ci_half_width": groups.max_rel_halfwidth(),
                }
            )
        if (
            adaptive
            and groups.answered >= min_repetitions
            and groups.converged(config.tolerance)
        ):
            break

    notes = _participation_notes(used, groups.answered)
    notes.append(
        f"OPEN: streamed {used} of up to {cap} repetition(s) in chunks of "
        f"{chunk} over composite (rep, group) codes"
    )
    if adaptive:
        notes.append(
            "OPEN: stopped early — every group's CI half-width within the "
            f"relative tolerance ({config.tolerance:g}) after "
            f"{groups.answered} participating repetition(s)"
            if used < cap
            else "OPEN: repetition cap reached before the tolerance target"
        )
    notes.append(_kept_note(groups.answered))
    meta = {
        "repetitions_used": used,
        "repetitions_cap": cap,
        "adaptive": adaptive,
        "early_stop": used < cap,
    }
    combined = combine_composite_answers(groups, config.report_ci)
    return _order_and_limit(combined, plan), notes, meta


class _SurvivingGroups:
    """O(G) running state of the groups present in every repetition so far.

    Chunks are matched by *key rows*, not by a shared cell domain: the
    surviving set only shrinks, so each merge is one ``concat`` +
    :meth:`Relation.group_codes` over at most ``G + g`` representative rows —
    whatever the key types.  Group order stays key-sorted throughout (the
    order the composite kernels emit within a chunk and ``group_codes``
    assigns across the union), which is the order of the combined answer.
    """

    def __init__(self, aggregate_node: AggregateNode):
        self.aggregate_node = aggregate_node
        self.rows: Relation | None = None  # one generated row per surviving group
        self.totals: list[np.ndarray] = []
        self.moments: list[WelfordMoments] = []
        self.answered = 0  # participating repetitions merged so far

    def merge(
        self,
        data: Relation,
        composite: CompositeAggregates,
        participating: np.ndarray,
    ) -> None:
        """Fold one chunk's per-(repetition, group) cells into the state."""
        repetitions = np.flatnonzero(participating)
        cells = np.flatnonzero(composite.present[repetitions].all(axis=0))
        rows = data.take(composite.first_indices[cells])
        if self.rows is None:
            specs = self.aggregate_node.specs
            self.totals = [np.zeros(cells.size) for _ in specs]
            self.moments = [WelfordMoments(cells.size) for _ in specs]
        else:
            held = self.rows.num_rows
            codes, _, _ = self.rows.concat(rows).group_codes(
                self.aggregate_node.group_keys
            )
            _, mine, theirs = np.intersect1d(
                codes[:held], codes[held:], assume_unique=True, return_indices=True
            )
            rows, cells = self.rows.take(mine), cells[theirs]
            self.totals = [totals[mine] for totals in self.totals]
            for tracker in self.moments:
                tracker.take(mine)
        self.rows = rows
        for index, matrix in enumerate(composite.values):
            values = matrix[np.ix_(repetitions, cells)]
            # Accumulate repetition by repetition (ascending) — the order
            # the reference combine's bincount over rep-major union rows
            # adds in, so totals match it to the last bit.
            for row in values:
                self.totals[index] = self.totals[index] + row
            self.moments[index].update(values)
        self.answered += int(repetitions.size)

    def max_rel_halfwidth(self) -> float | None:
        """The largest relative CI half-width across surviving groups and
        aggregates, or ``None`` while there is nothing to measure (trace
        telemetry only)."""
        if self.rows is None or self.rows.num_rows == 0:
            return None
        worst = 0.0
        for tracker in self.moments:
            relative = tracker.ci_halfwidth(CONFIDENCE_Z) / np.maximum(
                np.abs(tracker.mean), _TOLERANCE_FLOOR
            )
            worst = max(worst, float(relative.max()))
        return round(worst, 6)

    def converged(self, tolerance: float) -> bool:
        """Does every aggregate meet the relative-tolerance target on every
        surviving group?"""
        if self.rows is None or self.rows.num_rows == 0:
            return False
        return all(
            np.all(
                tracker.ci_halfwidth(CONFIDENCE_Z)
                <= tolerance * np.maximum(np.abs(tracker.mean), _TOLERANCE_FLOOR)
            )
            for tracker in self.moments
        )


def combine_composite_answers(
    groups: _SurvivingGroups, report_ci: bool = False
) -> Relation:
    """Group-intersection + aggregate averaging, finished from the stream.

    The streamed sibling of :func:`combine_open_answers`: per-repetition
    answers never materialise.  A group survived iff it was present in
    every *participating* repetition (repetitions whose generation was
    empty inside the population view do not count, as Sec. 5.3's
    per-repetition loop drops their answers); its aggregates are the
    per-repetition-ordered totals over the number of participating
    repetitions, so results are bit-identical to that loop's
    :func:`combine_open_answers`, in the same key-sorted row order.

    ``report_ci`` appends per-aggregate ``{alias}__std__``/``{alias}__ci__``
    columns (sample std of the per-repetition values across participating
    repetitions, and the CI half-width of the reported mean) from the
    running Welford moments.  The default ``False`` leaves the schema —
    and every byte of the answer — unchanged.
    """
    aggregate_node = groups.aggregate_node
    out_schema = _combined_schema(aggregate_node, report_ci)
    if groups.rows.num_rows == 0:
        return Relation.empty(out_schema)
    columns = [groups.rows.column(name) for name in aggregate_node.key_columns]
    columns += [totals / groups.answered for totals in groups.totals]
    if report_ci:
        for tracker in groups.moments:
            columns += [tracker.std(), tracker.ci_halfwidth(CONFIDENCE_Z)]
    return Relation.from_groups(out_schema, columns)


def _order_and_limit(answer: Relation, plan: LogicalPlan) -> Relation:
    """The plan's ORDER BY / LIMIT over a combined OPEN aggregate answer
    (or a COUNT answered by direct inference).

    Compiled aggregate plans end in them, after the aggregate; their names
    are already resolved against its output, which the answer keeps.
    """
    for node in plan.nodes:
        if isinstance(node, SortNode):
            answer = answer.sort_by(list(node.columns), list(node.ascending))
        elif isinstance(node, LimitNode):
            answer = answer.head(node.count)
    return answer


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


def combine_open_answers(answers: list[Relation], key_columns: list[str]) -> Relation:
    """Group-intersection + aggregate averaging across repeated answers.

    Sec. 5.3's combine over materialised per-repetition answers — the
    reference :func:`combine_composite_answers` must equal.  Vectorized over dictionary codes: the answers (each with distinct key
    combinations, as GROUP BY outputs are) are unioned into one relation,
    :meth:`~repro.relational.relation.Relation.group_codes` assigns each key
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

    codes, num_groups, first_indices = combined.group_codes(key_columns)
    counts = np.bincount(codes, minlength=num_groups)
    kept = counts == repetitions

    columns = [combined.column(c)[first_indices][kept] for c in key_columns]
    for c in value_columns:
        values = np.asarray(combined.column(c), dtype=np.float64)
        sums = np.bincount(codes, weights=values, minlength=num_groups)
        columns.append(sums[kept] / repetitions)
    return Relation.from_groups(out_schema, columns)


def _view_mask(relation: Relation, predicate) -> np.ndarray | None:
    """Rows of ``relation`` inside the population view (``None``: all)."""
    if predicate is None or relation.num_rows == 0:
        return None
    bound = bind_expression(predicate, relation.schema)
    return np.asarray(bound.evaluate(relation), dtype=bool)


def _apply_view(relation: Relation, predicate) -> Relation:
    mask = _view_mask(relation, predicate)
    return relation if mask is None else relation.filter(mask)


def _native(value):
    if isinstance(value, np.generic):
        return value.item()
    return value
