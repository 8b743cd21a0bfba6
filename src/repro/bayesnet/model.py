"""The Bayesian-network population model: fit, infer, sample.

Pipeline (Themis-style):

1. (optional) IPF-rake the sample weights against the population
   marginals, so everything downstream reflects the debiased mass.
2. Discretise: categoricals keep their domains (extended with marginal
   values); numerics get equal-width bins covering sample ∪ marginal
   ranges.
3. Learn a Chow-Liu tree from the weighted codes and fit smoothed CPTs.
4. Answer ``expected_count`` queries by exact message passing on the tree
   (no tuple materialisation — the paper's Sec. 4.2 "COUNT(*) ... using
   direct inference over the network"), or draw synthetic tuples by
   ancestral sampling for group-by / top-k queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bayesnet.cpd import ConditionalTable, RootTable
from repro.bayesnet.structure import TreeStructure, learn_chow_liu
from repro.catalog.metadata import Marginal
from repro.errors import GenerativeModelError
from repro.generative.streams import with_repetition_ids
from repro.relational.dtypes import DType, object_array
from repro.relational.relation import Relation
from repro.relational.schema import Field, Schema
from repro.reweight.contingency import Binner
from repro.reweight.ipf import ipf_reweight


@dataclass(frozen=True)
class AttributeModel:
    """Discretisation of one attribute.

    ``kind`` is ``"categorical"`` (explicit domain) or ``"binned"``
    (equal-width bins of a numeric column).  ``representatives`` holds the
    value used to evaluate predicates / decode samples per code: the
    category itself, or the bin midpoint.
    """

    name: str
    dtype: DType
    kind: str
    representatives: tuple
    binner: Binner | None = None

    @property
    def domain_size(self) -> int:
        return len(self.representatives)


class BayesianNetworkModel:
    """A tree-structured generative population model.

    Satisfies the engine's OPEN-generator protocol
    (``fit(sample, marginals, sample_weights=None)`` / ``generate(n, rng)``)
    and additionally supports :meth:`expected_count` — aggregate answering
    without materialisation.
    """

    def __init__(
        self,
        bins: int = 20,
        alpha: float = 0.1,
        max_categorical_int_values: int = 30,
        seed: int = 0,
    ):
        self.bins = bins
        self.alpha = alpha
        self.max_categorical_int_values = max_categorical_int_values
        self._rng = np.random.default_rng(seed)
        self.structure: TreeStructure | None = None
        self.attributes: dict[str, AttributeModel] = {}
        self.population_size: float = 0.0
        self._root_table: RootTable | None = None
        self._cpds: dict[str, ConditionalTable] = {}
        self._schema = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    def fit(
        self,
        sample: Relation,
        marginals: list[Marginal],
        sample_weights: np.ndarray | None = None,
        categorical_columns: set[str] | None = None,
    ) -> "BayesianNetworkModel":
        if sample.num_rows == 0:
            raise GenerativeModelError("cannot fit a Bayesian network on an empty sample")
        self._schema = sample.schema

        self.attributes = self._discretize(sample, marginals, categorical_columns or set())
        codes = {
            name: self._encode_column(sample, model)
            for name, model in self.attributes.items()
        }

        if sample_weights is None:
            if marginals:
                # Rake on the *discretised* view: continuous marginal cells
                # only match sample tuples at the bin level.
                discrete_relation = self._discrete_relation(codes, sample.num_rows)
                discrete_marginals = [self._discretize_marginal(m) for m in marginals]
                sample_weights = ipf_reweight(
                    discrete_relation, discrete_marginals
                ).weights
            else:
                sample_weights = np.ones(sample.num_rows)
        else:
            sample_weights = np.asarray(sample_weights, dtype=np.float64)

        alive = sample_weights > 0
        if not np.any(alive):
            raise GenerativeModelError("all sample weights are zero after raking")

        if marginals:
            totals = sorted(m.total_mass for m in marginals)
            mid = len(totals) // 2
            self.population_size = (
                totals[mid]
                if len(totals) % 2
                else 0.5 * (totals[mid - 1] + totals[mid])
            )
        else:
            self.population_size = float(np.sum(sample_weights))
        domain_sizes = {name: model.domain_size for name, model in self.attributes.items()}
        self.structure = learn_chow_liu(codes, domain_sizes, sample_weights)

        root = self.structure.root
        self._root_table = RootTable(
            codes[root], domain_sizes[root], sample_weights, self.alpha
        )
        self._cpds = {}
        for child, parent in self.structure.parents.items():
            if parent is None:
                continue
            self._cpds[child] = ConditionalTable(
                codes[child],
                codes[parent],
                domain_sizes[child],
                domain_sizes[parent],
                sample_weights,
                self.alpha,
            )
        if marginals:
            self.calibrate_to_marginals(marginals)
        return self

    # ------------------------------------------------------------------ #
    # Marginal calibration (tree-structured IPF)
    # ------------------------------------------------------------------ #

    def calibrate_to_marginals(
        self,
        marginals: list[Marginal],
        rounds: int = 30,
        tolerance: float = 1e-9,
    ) -> None:
        """Rescale the CPTs so the model's attribute marginals match metadata.

        Raked sample weights cannot put mass on attribute values the sample
        never contains (the migrants sample has zero non-Yahoo tuples), but
        the metadata says those values exist.  This step runs IPF directly
        on the tree distribution: per attribute, compare the model-implied
        marginal against the metadata's 1-D projection and scale that
        attribute's CPT (root vector, or conditional columns) by
        ``target / implied``, iterating to a fixed point.  Laplace smoothing
        guarantees the scaled cells start nonzero.
        """
        assert self.structure is not None and self._root_table is not None
        targets: dict[str, np.ndarray] = {}
        for marginal in marginals:
            for attribute in marginal.attributes:
                if attribute in targets:
                    continue
                target = self._target_vector(marginal.project(attribute), attribute)
                if target is not None:
                    targets[attribute] = target
        if not targets:
            return

        for _ in range(rounds):
            worst = 0.0
            for attribute, target in targets.items():
                implied = self._implied_marginal(attribute)
                positive = (implied > 0) & (target > 0)
                factor = np.ones_like(implied)
                factor[positive] = target[positive] / implied[positive]
                factor[target <= 0] = 0.0
                worst = max(worst, float(np.max(np.abs(factor - 1.0))))
                self._scale_attribute(attribute, factor)
            if worst <= tolerance:
                break

    def _target_vector(self, marginal: Marginal, attribute: str) -> np.ndarray | None:
        """The metadata marginal as a probability vector over codes."""
        model = self.attributes[attribute]
        masses = np.zeros(model.domain_size)
        cell_masses = np.asarray(
            [mass for _, mass in marginal.cells()], dtype=np.float64
        )
        if model.kind == "categorical":
            index = {value: i for i, value in enumerate(model.representatives)}
            positions = [index.get(_native(key[0])) for key in marginal.keys()]
            if any(position is None for position in positions):
                return None  # domain mismatch; leave uncalibrated
            codes = np.asarray(positions, dtype=np.int64)
        else:
            assert model.binner is not None
            values = np.asarray(
                [float(key[0]) for key in marginal.keys()], dtype=np.float64
            )
            codes = model.binner.assign(values)
        np.add.at(masses, codes, cell_masses)
        total = masses.sum()
        if total <= 0:
            return None
        return masses / total

    def _implied_marginal(self, attribute: str) -> np.ndarray:
        """P(attribute) under the current tree, by a top-down pass."""
        assert self.structure is not None and self._root_table is not None
        node_marginals: dict[str, np.ndarray] = {
            self.structure.root: self._root_table.probabilities
        }
        for node in self.structure.order[1:]:
            parent = self.structure.parents[node]
            assert parent is not None
            node_marginals[node] = (
                node_marginals[parent] @ self._cpds[node].probabilities
            )
        return node_marginals[attribute]

    def _scale_attribute(self, attribute: str, factor: np.ndarray) -> None:
        assert self.structure is not None and self._root_table is not None
        if attribute == self.structure.root:
            scaled = self._root_table.probabilities * factor
            total = scaled.sum()
            if total > 0:
                self._root_table.probabilities = scaled / total
            return
        table = self._cpds[attribute].probabilities * factor[None, :]
        totals = table.sum(axis=1, keepdims=True)
        zero_rows = totals[:, 0] <= 0
        if np.any(zero_rows):
            table[zero_rows] = 1.0 / table.shape[1]
            totals = table.sum(axis=1, keepdims=True)
        self._cpds[attribute].probabilities = table / totals

    def _discretize(
        self,
        sample: Relation,
        marginals: list[Marginal],
        categorical_columns: set[str],
    ) -> dict[str, AttributeModel]:
        marginal_values: dict[str, list] = {}
        for marginal in marginals:
            for axis, attribute in enumerate(marginal.attributes):
                marginal_values.setdefault(attribute, []).extend(
                    key[axis] for key in marginal.keys()
                )

        attributes: dict[str, AttributeModel] = {}
        for field in sample.schema:
            values = sample.column(field.name)
            extras = marginal_values.get(field.name, [])
            treat_categorical = (
                field.dtype in (DType.TEXT, DType.BOOL)
                or field.name in categorical_columns
            )
            if not treat_categorical and field.dtype is DType.INT:
                distinct = set(np.unique(values).tolist()) | {
                    int(v) for v in extras
                }
                if len(distinct) <= self.max_categorical_int_values:
                    treat_categorical = True
            if treat_categorical:
                domain = sorted(
                    {_native(v) for v in values} | {_native(v) for v in extras},
                    key=str,
                )
                attributes[field.name] = AttributeModel(
                    name=field.name,
                    dtype=field.dtype,
                    kind="categorical",
                    representatives=tuple(domain),
                )
            else:
                numeric = np.concatenate(
                    [
                        np.asarray(values, dtype=np.float64),
                        np.asarray([float(v) for v in extras], dtype=np.float64),
                    ]
                )
                binner = Binner.fit(numeric, self.bins)
                attributes[field.name] = AttributeModel(
                    name=field.name,
                    dtype=field.dtype,
                    kind="binned",
                    representatives=tuple(binner.midpoints().tolist()),
                    binner=binner,
                )
        return attributes

    def _discrete_relation(self, codes: dict[str, np.ndarray], n: int) -> Relation:
        """The sample with every attribute replaced by its representative.

        Built born-encoded: TEXT categoricals hand their (sorted, distinct)
        representative tuple straight to :meth:`Relation.from_codes` as the
        dictionary vocabulary, so the downstream IPF rake reads memoized
        codes instead of re-factorizing; other attributes gather their
        representative arrays in one vectorized take.
        """
        fields: list[Field] = []
        encoded: dict[str, tuple] = {}
        plain: dict[str, object] = {}
        for name, model in self.attributes.items():
            if model.kind == "binned":
                fields.append(Field(name, DType.FLOAT))
                plain[name] = np.asarray(model.representatives, dtype=np.float64)[
                    codes[name]
                ]
            elif _text_vocabulary(model) is not None:
                fields.append(Field(name, DType.TEXT))
                encoded[name] = (model.representatives, codes[name])
            else:
                fields.append(Field(name, model.dtype))
                plain[name] = _representative_array(model)[codes[name]]
        return Relation.from_codes(Schema(fields), encoded, plain)

    def _discretize_marginal(self, marginal: Marginal) -> Marginal:
        """Remap marginal cell keys onto representatives (bins collapse).

        Binned axes assign all cell values in one vectorized pass instead
        of one :meth:`Binner.assign` call per cell.
        """
        models = [self.attributes[a] for a in marginal.attributes]
        keys = list(marginal.keys())
        mapped_axes: list[list] = []
        for axis, model in enumerate(models):
            if model.kind == "binned":
                assert model.binner is not None
                values = np.asarray(
                    [float(key[axis]) for key in keys], dtype=np.float64
                )
                axis_codes = model.binner.assign(values)
                representatives = np.asarray(model.representatives, dtype=np.float64)
                mapped_axes.append(representatives[axis_codes].tolist())
            else:
                mapped_axes.append([_native(key[axis]) for key in keys])
        cells: dict[tuple, float] = {}
        for position, (_, mass) in enumerate(marginal.cells()):
            mapped_key = tuple(axis[position] for axis in mapped_axes)
            cells[mapped_key] = cells.get(mapped_key, 0.0) + mass
        return Marginal(list(marginal.attributes), cells, name=f"{marginal.name}|binned")

    def _encode_column(self, relation: Relation, model: AttributeModel) -> np.ndarray:
        """Per-row discrete codes, remapped from the memoized dictionary.

        Only the relation's (small) distinct value set is looked up in
        Python; the per-row remap is one vectorized gather.
        """
        if model.kind == "binned":
            assert model.binner is not None
            values = relation.column(model.name)
            return model.binner.assign(np.asarray(values, dtype=np.float64))
        index = {value: i for i, value in enumerate(model.representatives)}
        uniques, codes = relation.dictionary(model.name)
        remap = np.asarray([index[_native(v)] for v in uniques], dtype=np.int64)
        return remap[codes]

    # ------------------------------------------------------------------ #
    # Exact inference
    # ------------------------------------------------------------------ #

    def probability(self, constraints: dict[str, Callable[[object], bool]]) -> float:
        """``P(⋀_i  pred_i(A_i))`` by message passing on the tree.

        Each constraint is a Python predicate evaluated over the
        attribute's discrete representatives (category values / bin
        midpoints).  Attributes without a constraint are unconstrained.
        """
        if self.structure is None or self._root_table is None:
            raise GenerativeModelError("probability() before fit()")
        for name in constraints:
            if name not in self.attributes:
                raise GenerativeModelError(f"unknown attribute {name!r} in constraint")

        masks = {
            name: self._constraint_mask(model, constraints.get(name))
            for name, model in self.attributes.items()
        }

        def upward(node: str) -> np.ndarray:
            """Message to the parent: per parent-less code, the probability of
            the constrained subtree below (and including) ``node``."""
            mask = masks[node].astype(np.float64)
            product = mask.copy()
            for child in self.structure.children(node):
                product = product * upward_through_cpd(child)
            return product

        def upward_through_cpd(child: str) -> np.ndarray:
            child_vector = upward(child)
            return self._cpds[child].probabilities @ child_vector

        root = self.structure.root
        root_vector = upward(root)
        return float(np.dot(self._root_table.probabilities, root_vector))

    def expected_count(self, constraints: dict[str, Callable[[object], bool]]) -> float:
        """Estimated ``COUNT(*)`` of population tuples matching the constraints."""
        return self.population_size * self.probability(constraints)

    @staticmethod
    def _constraint_mask(
        model: AttributeModel, predicate: Callable[[object], bool] | None
    ) -> np.ndarray:
        if predicate is None:
            return np.ones(model.domain_size, dtype=bool)
        return np.asarray(
            [bool(predicate(value)) for value in model.representatives], dtype=bool
        )

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #

    def generate(self, n: int, rng: np.random.Generator | None = None) -> Relation:
        """Draw ``n`` synthetic tuples by ancestral sampling.

        Binned attributes decode uniformly within their bin (rounded for
        INT columns), categoricals decode to their category value.

        Every draw is a deterministic inverse-CDF transform of uniforms
        consumed in a fixed order (root, tree order, then one decode
        uniform per binned attribute), so stacking the uniforms of several
        repetitions and transforming them in one pass —
        :meth:`generate_batch_streams` — is bit-identical to repeated calls.
        """
        self._require_fitted()
        if n <= 0:
            raise GenerativeModelError(f"need a positive sample size, got {n}")
        rng = rng if rng is not None else self._rng
        node_uniforms, decode_uniforms = self._draw_uniforms(n, rng)
        codes = self._ancestral_codes(node_uniforms)
        return self._decode_codes(codes, decode_uniforms)

    def generate_batch_streams(
        self, n: int, streams: list[np.random.Generator]
    ) -> Relation:
        """One chunk of repetitions, each drawn from its given stream.

        Draws each repetition's uniforms from its stream (the OPEN
        per-repetition stream contract), stacks them, and runs ancestral
        sampling over the stacked code matrices once.  Callers slice a
        pre-spawned stream list, so chunked generation draws exactly what
        one batch over all streams would.  The result is the serial
        per-repetition output concatenated, tagged with a dense ``__rep__``
        id column.
        """
        self._require_fitted()
        if n <= 0:
            raise GenerativeModelError(f"need a positive sample size, got {n}")
        if not streams:
            raise GenerativeModelError("need at least one repetition stream")
        node_names, decode_names = self._uniform_layout()
        total = n * len(streams)
        node_uniforms = {name: np.empty(total) for name in node_names}
        decode_uniforms = {name: np.empty(total) for name in decode_names}
        for index, stream in enumerate(streams):
            # Fill each repetition's slice in the exact order generate()
            # consumes its stream, so the slices are bit-identical to the
            # serial loop's draws.
            lo, hi = index * n, (index + 1) * n
            for name in node_names:
                stream.random(out=node_uniforms[name][lo:hi])
            for name in decode_names:
                stream.random(out=decode_uniforms[name][lo:hi])
        codes = self._ancestral_codes(node_uniforms)
        return with_repetition_ids(
            self._decode_codes(codes, decode_uniforms), len(streams)
        )

    def _require_fitted(self) -> None:
        if self.structure is None or self._root_table is None or self._schema is None:
            raise GenerativeModelError("generate() before fit()")

    def _uniform_layout(self) -> tuple[list[str], list[str]]:
        """The fixed order generation consumes uniforms in: tree order for
        ancestral draws, attribute order for binned decode draws."""
        assert self.structure is not None
        return (
            list(self.structure.order),
            [
                name
                for name, model in self.attributes.items()
                if model.kind == "binned"
            ],
        )

    def _draw_uniforms(
        self, n: int, rng: np.random.Generator
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """All randomness of one generation round, in consumption order."""
        node_names, decode_names = self._uniform_layout()
        node_uniforms = {node: rng.random(n) for node in node_names}
        decode_uniforms = {name: rng.random(n) for name in decode_names}
        return node_uniforms, decode_uniforms

    def _ancestral_codes(
        self, node_uniforms: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Inverse-CDF ancestral sampling over stacked code matrices.

        The root inverts its CDF with one ``searchsorted``.  Each child
        also uses a *single* ``searchsorted`` for all rows at once: the
        per-parent conditional CDFs are laid out consecutively with offset
        ``parent`` (every CDF lives in ``[0, 1]``, so ``parent + cdf`` is
        globally non-decreasing) and row queries become
        ``parent_code + uniform`` — no per-row gather, no sort, no
        per-parent loop.  A row's code is a pure function of its own
        uniform and its parent's code, so the result is independent of how
        rows are batched.
        """
        assert self.structure is not None and self._root_table is not None
        codes: dict[str, np.ndarray] = {}
        root = self.structure.root
        root_cdf = np.cumsum(self._root_table.probabilities)
        codes[root] = np.minimum(
            _count_entries_below(root_cdf, node_uniforms[root], span=1),
            self.attributes[root].domain_size - 1,
        )
        for node in self.structure.order[1:]:
            parent = self.structure.parents[node]
            assert parent is not None
            cdf = np.cumsum(self._cpds[node].probabilities, axis=1)
            num_parents, domain = cdf.shape
            flat_cdf = (cdf + np.arange(num_parents)[:, None]).ravel()
            parent_codes = codes[parent]
            queries = parent_codes + node_uniforms[node]
            drawn = (
                _count_entries_below(flat_cdf, queries, span=num_parents)
                - parent_codes * domain
            )
            # Both clips guard float edges of the CDF: a row cumsum ending
            # below 1 can overshoot the top; one ending above 1 can leak a
            # count into the next parent's block and undershoot to -1.
            codes[node] = np.clip(drawn, 0, domain - 1)
        return codes

    def _decode_codes(
        self,
        codes: dict[str, np.ndarray],
        decode_uniforms: dict[str, np.ndarray],
    ) -> Relation:
        """Codes → tuples, born dictionary-encoded for TEXT categoricals.

        TEXT categorical domains are sorted and distinct — exactly a
        dictionary vocabulary — so the sampled codes go straight into
        :meth:`Relation.from_codes` with no per-row Python materialisation;
        other categoricals gather their representative arrays, and binned
        attributes decode uniformly within their bin.
        """
        assert self._schema is not None
        plain: dict[str, object] = {}
        encoded: dict[str, tuple] = {}
        for name, model in self.attributes.items():
            attr_codes = codes[name]
            if model.kind == "categorical":
                vocabulary = _text_vocabulary(model)
                if vocabulary is not None:
                    encoded[name] = (vocabulary, attr_codes)
                else:
                    plain[name] = _representative_array(model)[attr_codes]
            else:
                assert model.binner is not None
                width = (model.binner.high - model.binner.low) / model.binner.bins
                low_edges = model.binner.low + attr_codes * width
                values = low_edges + decode_uniforms[name] * width
                if model.dtype is DType.INT:
                    values = np.round(values)
                plain[name] = values
        return Relation.from_codes(self._schema, encoded, plain)


#: Inverse-CDF quantisation: slots per unit interval.  Higher = fewer rows
#: falling back to binary search, at the cost of a larger (still tiny) LUT.
_INVERSE_CDF_SLOTS = 512


def _count_entries_below(
    flat_cdf: np.ndarray, queries: np.ndarray, span: int
) -> np.ndarray:
    """``count(flat_cdf <= q)`` per query, via a quantised lookup table.

    ``flat_cdf`` is non-decreasing over ``[0, span]``.  The unit range is
    cut into :data:`_INVERSE_CDF_SLOTS` slots and a prefix-count LUT built
    with one (sorted-query, cache-friendly) ``searchsorted``; each query
    then resolves with one gather.  Rows whose neighbouring slots contain
    a CDF jump — a bounded few percent, since each conditional row has at
    most ``domain`` jumps — fall back to an exact binary search, so the
    result equals ``searchsorted(flat_cdf, queries, side="right")``
    everywhere (the widened two-slot window also absorbs float rounding of
    the slot index).  Replaces a branch-miss-bound binary search per row
    with O(1) work for the common case.
    """
    grid_size = span * _INVERSE_CDF_SLOTS
    grid = np.arange(grid_size + 1, dtype=np.float64) / _INVERSE_CDF_SLOTS
    lut = np.searchsorted(flat_cdf, grid, side="right")
    slots = (queries * _INVERSE_CDF_SLOTS).astype(np.int64)
    np.clip(slots, 0, grid_size - 1, out=slots)
    counts = lut[slots]
    ambiguous = np.flatnonzero(lut[slots + 1] > lut[np.maximum(slots - 1, 0)])
    if ambiguous.size:
        counts[ambiguous] = np.searchsorted(
            flat_cdf, queries[ambiguous], side="right"
        )
    return counts


def _text_vocabulary(model: AttributeModel) -> tuple | None:
    """The representatives as a dictionary vocabulary, if usable as one.

    A TEXT categorical whose representatives are all ``str`` is exactly a
    vocabulary — sorted (``_discretize`` sorts by ``str``) and distinct —
    so sampled codes can go straight into :meth:`Relation.from_codes`.
    ``None`` for anything else (binned, non-TEXT, mixed-type domains).
    The single definition keeps fit-time (``_discrete_relation``) and
    generate-time (``_decode_codes``) encodability decisions in lockstep.
    """
    if (
        model.kind == "categorical"
        and model.dtype is DType.TEXT
        and all(isinstance(v, str) for v in model.representatives)
    ):
        return model.representatives
    return None


def _representative_array(model: AttributeModel) -> np.ndarray:
    """The representatives as a gatherable array, numeric where possible.

    Homogeneous numeric/bool domains produce a typed array so per-row
    gathers stay in C (coercing a 150k-element *object* array of ints back
    to int64 walks Python objects row by row); anything else falls back to
    an object array, preserving the values untouched.
    """
    kinds = {type(v) for v in model.representatives}
    if kinds == {bool}:
        return np.asarray(model.representatives, dtype=bool)
    if kinds == {int}:
        return np.asarray(model.representatives, dtype=np.int64)
    if kinds <= {int, float}:
        return np.asarray(model.representatives, dtype=np.float64)
    return object_array(model.representatives)


def _native(value):
    if isinstance(value, np.generic):
        return value.item()
    return value
