"""The :class:`Relation`: an immutable columnar table backed by numpy.

A relation is a :class:`~repro.relational.schema.Schema` plus one numpy
array per column, all of equal length.  Every transformation returns a new
relation; column arrays are shared where safe (the arrays themselves are
treated as immutable by convention).

Storage layout for TEXT columns
-------------------------------
TEXT columns are *dictionary encoded* as a first-class storage property:
alongside the object array, the relation carries ``(vocab, codes)`` where
``vocab`` is a sorted object array of the distinct strings and ``codes`` an
``int32`` array with ``vocab[codes[i]] == column[i]``.  The encoding is
built exactly once at ingest (:meth:`from_columns` / :meth:`from_rows` /
:meth:`from_codes`) and then *sliced* — never recomputed — through
:meth:`filter`, :meth:`take`, :meth:`project`, and :meth:`with_column`;
:meth:`concat` merges the two vocabularies and remaps codes without
decoding.  Scan-level predicates and the group-by kernels evaluate against
the vocab (k distinct values) and broadcast through the codes, so repeated
filter + group-by over the same stored tuples never touches the object
array.

Derived structure
-----------------
Two kinds of derived structure are memoized on a relation, because it is
immutable: the dense dictionary of a column (:meth:`dictionary`) and the
dense group codes of a key list (:meth:`group_codes`).  Both live only as
long as the relation; a relation made by any transformation starts with
neither, and pickling carries the dictionaries but never the group codes.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.relational.dtypes import CODES_DTYPE, DType
from repro.relational.schema import Field, Schema

# Observability counters for the dictionary-encoding layer.  ``builds``
# counts full encode computations (hash factorization / np.unique over all
# rows); ``reuse_hits`` counts every time a memoized or propagated encoding
# was served instead.  ``grouping_builds`` / ``grouping_reuse_hits`` count
# the same for the group codes of a key list.  Plain int increments under
# the GIL: concurrent updates may occasionally drop a count, which is
# acceptable for an approximate observability counter (never consulted for
# correctness).
_STATS = {"builds": 0, "reuse_hits": 0, "grouping_builds": 0, "grouping_reuse_hits": 0}


def dictionary_stats() -> dict[str, int]:
    """Snapshot of the global dictionary-encoding counters."""
    return dict(_STATS)


def compact_codes(
    codes: np.ndarray, domain_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact sparse group/dictionary codes to a dense 0..k-1 range.

    Returns ``(dense_codes, present, counts)``: ``present`` flags which of
    the ``domain_size`` domain entries are referenced by ``codes``,
    ``counts`` is the per-present-entry occurrence count, and
    ``dense_codes`` re-indexes ``codes`` into the compacted (order-
    preserving) domain.  When every entry is referenced the input codes
    are returned unchanged.
    """
    counts = np.bincount(codes, minlength=domain_size)
    present = counts > 0
    if counts.all():
        return codes, present, counts
    remap = np.cumsum(present) - 1
    return remap[codes].astype(CODES_DTYPE, copy=False), present, counts[present]


class Relation:
    """An immutable, schema-typed columnar table.

    Construct with :meth:`from_columns`, :meth:`from_rows`,
    :meth:`from_codes`, or :meth:`empty`.  The raw constructor assumes the
    arrays are already coerced to the schema's storage dtypes.
    """

    # __weakref__ lets callers hold weak references to relations.
    __slots__ = (
        "_schema", "_columns", "_nrows", "_dictionaries", "_encodings",
        "_groupings", "__weakref__",
    )

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        encodings: Mapping[str, tuple[np.ndarray, np.ndarray]] | None = None,
    ):
        if set(columns) != set(schema.names):
            raise SchemaError(
                f"column set {sorted(columns)} does not match schema {list(schema.names)}"
            )
        lengths = {arr.shape[0] for arr in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self._schema = schema
        self._columns = {name: columns[name] for name in schema.names}
        self._nrows = next(iter(lengths)) if lengths else 0
        self._dictionaries: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._encodings: dict[str, tuple[np.ndarray, np.ndarray]] = (
            dict(encodings) if encodings else {}
        )
        self._groupings: dict[tuple[str, ...], tuple[np.ndarray, int, np.ndarray]] = {}

    def __getstate__(self) -> tuple[None, dict[str, Any]]:
        """The default slot state minus the group-code memo.

        The memo is rebuilt on demand, so persisting it would only add
        8 bytes per row per key list; a relation pickles to the same bytes
        whether or not a grouped query has filled it.
        """
        _, slots = super().__getstate__()
        slots.pop("_groupings", None)
        return None, slots

    def __setstate__(self, state: tuple[None, dict[str, Any]]) -> None:
        _, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        self._groupings = {}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_columns(cls, schema: Schema, columns: Mapping[str, Any]) -> "Relation":
        """Build a relation, coercing each column to its declared dtype.

        TEXT columns are dictionary encoded here, in the same pass that
        coerces their values to ``str`` — the one place an encoding is ever
        built for ingested data.
        """
        coerced: dict[str, np.ndarray] = {}
        encodings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for field in schema:
            _ingest_column(field, columns[field.name], coerced, encodings)
        return cls(schema, coerced, encodings=encodings)

    @classmethod
    def from_dict(cls, columns: Mapping[str, Any]) -> "Relation":
        """Build a relation inferring the schema from the column values."""
        schema = Schema(Field(name, DType.infer(values)) for name, values in columns.items())
        return cls.from_columns(schema, columns)

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence[Any]]) -> "Relation":
        """Build a relation from an iterable of row tuples."""
        materialized = [tuple(row) for row in rows]
        for row in materialized:
            if len(row) != len(schema):
                raise SchemaError(
                    f"row arity {len(row)} does not match schema arity {len(schema)}"
                )
        columns = {
            field.name: [row[position] for row in materialized]
            for position, field in enumerate(schema)
        }
        return cls.from_columns(schema, columns)

    @classmethod
    def from_groups(cls, schema: Schema, columns: Sequence[Any]) -> "Relation":
        """Build a relation column-wise from per-group result arrays.

        ``columns`` holds one array (or array-like) per schema field, in
        schema order — the shape grouped-aggregation kernels naturally
        produce.  Unlike :meth:`from_rows` nothing is materialised as Python
        row tuples; each array is coerced to its field's storage dtype
        directly.
        """
        fields = schema.fields
        if len(columns) != len(fields):
            raise SchemaError(
                f"got {len(columns)} column array(s) for schema arity {len(fields)}"
            )
        return cls.from_columns(
            schema, {field.name: values for field, values in zip(fields, columns)}
        )

    @classmethod
    def from_codes(
        cls,
        schema: Schema,
        encoded: Mapping[str, tuple[Any, Any]],
        plain: Mapping[str, Any] | None = None,
    ) -> "Relation":
        """Build a relation from pre-encoded TEXT columns plus plain columns.

        ``encoded`` maps TEXT column names to ``(vocab, codes)``: ``vocab``
        a strictly increasing array of distinct strings, ``codes`` integers
        indexing it.  The stored object column is materialised as
        ``vocab[codes]`` (a C gather that shares the vocab's ``str``
        objects) and the encoding is installed directly — no
        re-factorization.  This is how generators hand their fitted output
        vocabulary straight to the execution pipeline.  Columns not in
        ``encoded`` are taken from ``plain`` and coerced as in
        :meth:`from_columns`.
        """
        plain = plain or {}
        columns: dict[str, np.ndarray] = {}
        encodings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for field in schema:
            if field.name in encoded:
                if field.dtype is not DType.TEXT:
                    raise SchemaError(
                        f"from_codes: column {field.name!r} is {field.dtype.value}, "
                        "only TEXT columns are dictionary encoded"
                    )
                raw_vocab, raw_codes = encoded[field.name]
                vocab = np.empty(len(raw_vocab), dtype=object)
                vocab[:] = list(raw_vocab)
                if vocab.size > 1 and not np.all(vocab[:-1] < vocab[1:]):
                    raise SchemaError(
                        f"from_codes: vocab for {field.name!r} must be strictly "
                        "increasing (sorted, distinct)"
                    )
                codes = np.asarray(raw_codes, dtype=CODES_DTYPE)
                if codes.size and (
                    vocab.size == 0
                    or codes.min() < 0
                    or codes.max() >= vocab.size
                ):
                    raise SchemaError(
                        f"from_codes: codes for {field.name!r} fall outside "
                        f"the vocab range [0, {vocab.size})"
                    )
                columns[field.name] = _decode(vocab, codes)
                encodings[field.name] = (vocab, codes)
            else:
                _ingest_column(field, plain[field.name], columns, encodings)
        return cls(schema, columns, encodings=encodings)

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        """A zero-row relation with the given schema."""
        return cls(
            schema,
            {field.name: np.empty(0, dtype=field.dtype.numpy_dtype) for field in schema},
            encodings={
                field.name: (np.empty(0, dtype=object), np.empty(0, dtype=CODES_DTYPE))
                for field in schema
                if field.dtype is DType.TEXT
            },
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def num_rows(self) -> int:
        return self._nrows

    @property
    def column_names(self) -> tuple[str, ...]:
        return self._schema.names

    def __len__(self) -> int:
        return self._nrows

    def __repr__(self) -> str:
        return f"Relation({self._schema!r}, rows={self._nrows})"

    def column(self, name: str) -> np.ndarray:
        """The raw storage array for a column. Treat as read-only."""
        self._schema.field(name)
        return self._columns[name]

    def encoding(self, name: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The first-class ``(vocab, codes)`` encoding of a TEXT column.

        ``vocab`` is sorted and distinct but may be a *superset* of the
        values present (filtering slices codes and keeps the vocab), so
        consumers must tolerate unreferenced vocab entries.  ``None`` for
        columns without a stored encoding (non-TEXT, or relations built by
        the raw constructor from arbitrary expression output).
        """
        entry = self._encodings.get(name)
        if entry is not None:
            _STATS["reuse_hits"] += 1
        return entry

    def dictionary(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Dictionary encoding of a column: ``(sorted_uniques, codes)``.

        ``codes[i]`` indexes ``sorted_uniques`` (``np.unique`` semantics:
        codes follow value-sorted order and every unique is present in the
        data).  Memoized per column — relations are immutable, so the
        encoding is computed at most once, which makes repeated group-bys /
        sorts over the same relation nearly free.  Columns with a
        first-class storage encoding derive the dense form from it with one
        vectorized remap (no re-factorization); TEXT columns without one
        use a hash-based factorizer instead of sorting all rows.

        Race-safe under concurrent readers: the encoding is fully built
        before publication, and publication is a single atomic
        ``dict.setdefault`` — two threads may redundantly compute, but the
        first writer wins and both return that complete entry (a half-built
        encoding is never observable).
        """
        cached = self._dictionaries.get(name)
        if cached is not None:
            _STATS["reuse_hits"] += 1
            return cached
        stored = self._encodings.get(name)
        if stored is not None:
            # Densify the sliced storage encoding: drop vocab entries no
            # code references, remap codes to the compacted positions.
            vocab, codes = stored
            dense, present, _ = compact_codes(codes, vocab.size)
            entry = (vocab if present.all() else vocab[present], dense)
            _STATS["reuse_hits"] += 1
            return self._dictionaries.setdefault(name, entry)
        column = self.column(name)
        if self._schema.dtype(name) is DType.TEXT:
            uniques, codes = _factorize_object(column)
        else:
            uniques, raw = np.unique(column, return_inverse=True)
            codes = raw.astype(np.int64, copy=False)
        _STATS["builds"] += 1
        return self._dictionaries.setdefault(name, (uniques, codes))

    def group_codes(self, keys: Sequence[str]) -> tuple[np.ndarray, int, np.ndarray]:
        """Dense per-row group codes over the distinct values of ``keys``.

        Returns ``(codes, num_groups, first_indices)``:

        - ``codes[i]`` is the group id of row ``i``; ids run
          ``0..num_groups-1`` in key-sorted order (per-column ``np.unique``
          order),
        - ``first_indices[g]`` is the first row (in row order) of group
          ``g``, usable as a representative for reading key values.

        With no key columns every row belongs to a single group 0 — even
        for an empty relation, where the one group has zero member rows.

        Memoized per key list (order matters), beside :meth:`dictionary`
        and race-safe the same way: built in full, then published with one
        atomic ``dict.setdefault``.  Every caller shares the arrays, so
        treat them as read-only (those built here are flagged so).
        Multi-key codes cost 8 bytes per row per key list; a single key
        reuses its dictionary's codes.
        """
        memo_key = tuple(keys)
        cached = self._groupings.get(memo_key)
        if cached is not None:
            _STATS["grouping_reuse_hits"] += 1
            return cached
        codes, num_groups, first_indices = self._build_group_codes(memo_key)
        first_indices.flags.writeable = False
        if len(memo_key) != 1:  # one key's codes are its dictionary's
            codes.flags.writeable = False
        _STATS["grouping_builds"] += 1
        return self._groupings.setdefault(memo_key, (codes, num_groups, first_indices))

    def _build_group_codes(
        self, keys: tuple[str, ...]
    ) -> tuple[np.ndarray, int, np.ndarray]:
        n = self._nrows
        if not keys:
            return (
                np.zeros(n, dtype=np.int64),
                1,
                np.zeros(1 if n else 0, dtype=np.int64),
            )
        if n == 0:
            return np.empty(0, dtype=np.int64), 0, np.empty(0, dtype=np.int64)

        if len(keys) == 1:
            uniques, codes = self.dictionary(keys[0])
            return codes, len(uniques), _first_occurrences(codes, len(uniques))

        combined = np.zeros(n, dtype=np.int64)
        cross_product = 1
        for name in keys:
            uniques, codes = self.dictionary(name)
            combined = combined * len(uniques) + codes
            cross_product *= len(uniques)

        # Multi-key combination leaves gaps (absent value pairs); re-densify.
        if cross_product <= max(4 * n, 1024):
            # Small key domain: presence mask + remap, no O(n log n) sort.
            present = np.flatnonzero(np.bincount(combined, minlength=cross_product))
            remap = np.empty(cross_product, dtype=np.int64)
            remap[present] = np.arange(len(present))
            codes = remap[combined]
            return codes, len(present), _first_occurrences(codes, len(present))
        uniques, first_indices, codes = np.unique(
            combined, return_index=True, return_inverse=True
        )
        return (
            codes.astype(np.int64, copy=False),
            len(uniques),
            first_indices.astype(np.int64, copy=False),
        )

    def rows(self) -> Iterator[tuple]:
        """Iterate rows as Python tuples (TEXT as str, numerics as numpy scalars)."""
        arrays = [self._columns[name] for name in self._schema.names]
        for i in range(self._nrows):
            yield tuple(arr[i] for arr in arrays)

    def to_pylist(self) -> list[dict[str, Any]]:
        """Rows as a list of plain-Python dicts (useful for tests and display)."""
        names = self._schema.names
        out = []
        for row in self.rows():
            out.append({name: _to_python(value) for name, value in zip(names, row)})
        return out

    # ------------------------------------------------------------------ #
    # Transformations (all return new relations)
    # ------------------------------------------------------------------ #

    def filter(self, mask: np.ndarray) -> "Relation":
        """Keep rows where the boolean ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != self._nrows:
            raise SchemaError(
                f"mask length {mask.shape[0]} does not match row count {self._nrows}"
            )
        return Relation(
            self._schema,
            {name: arr[mask] for name, arr in self._columns.items()},
            encodings={
                name: (vocab, codes[mask])
                for name, (vocab, codes) in self._encodings.items()
            },
        )

    def take(self, indices: np.ndarray) -> "Relation":
        """Select rows by integer position (duplicates and reorderings allowed)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Relation(
            self._schema,
            {name: arr[indices] for name, arr in self._columns.items()},
            encodings={
                name: (vocab, codes[indices])
                for name, (vocab, codes) in self._encodings.items()
            },
        )

    def head(self, n: int) -> "Relation":
        return self.take(np.arange(min(n, self._nrows)))

    def slice_rows(self, start: int, stop: int) -> "Relation":
        """The contiguous row window ``[start, stop)`` as zero-copy views.

        Basic numpy slicing: column arrays and encoding codes become views
        over the parent's buffers (no row data moves).  Memoized dictionaries
        are not carried over (they describe the full row set)."""
        if not (0 <= start <= stop <= self._nrows):
            raise SchemaError(
                f"row slice [{start}, {stop}) outside relation of {self._nrows} rows"
            )
        if start == 0 and stop == self._nrows:
            return self  # immutable, so the full-range window is the relation
        return Relation(
            self._schema,
            {name: arr[start:stop] for name, arr in self._columns.items()},
            encodings={
                name: (vocab, codes[start:stop])
                for name, (vocab, codes) in self._encodings.items()
            },
        )

    def project(self, names: Sequence[str]) -> "Relation":
        """Keep only the named columns, in the given order."""
        schema = self._schema.project(names)
        return Relation(
            schema,
            {name: self._columns[name] for name in names},
            encodings={
                name: self._encodings[name] for name in names if name in self._encodings
            },
        )

    def with_column(self, name: str, dtype: DType, values: Any) -> "Relation":
        """Append (or replace) a column."""
        coerced = dtype.coerce_array(values)
        if coerced.shape[0] != self._nrows:
            raise SchemaError(
                f"new column length {coerced.shape[0]} does not match row count {self._nrows}"
            )
        if name in self._schema:
            fields = [
                Field(name, dtype) if field.name == name else field for field in self._schema
            ]
        else:
            fields = [*self._schema.fields, Field(name, dtype)]
        columns = dict(self._columns)
        columns[name] = coerced
        encodings = {k: v for k, v in self._encodings.items() if k != name}
        return Relation(Schema(fields), columns, encodings=encodings)

    def drop_column(self, name: str) -> "Relation":
        remaining = [n for n in self._schema.names if n != name]
        if len(remaining) == len(self._schema.names):
            raise SchemaError(f"no such column: {name!r}")
        return self.project(remaining)

    def concat(self, other: "Relation") -> "Relation":
        """Vertical union (schemas must match exactly).

        Dictionary encodings are *merged*, not recomputed: when both sides
        share the same vocab the codes simply concatenate; otherwise the
        vocabs union (k log k over the distinct values) and each side's
        codes remap through a searchsorted lookup — the row data is never
        decoded.
        """
        if other.schema != self._schema:
            raise SchemaError(
                f"cannot concat relations with different schemas: "
                f"{self._schema!r} vs {other.schema!r}"
            )
        columns = {
            name: np.concatenate([self._columns[name], other._columns[name]])
            for name in self._schema.names
        }
        encodings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name, (vocab, codes) in self._encodings.items():
            theirs = other._encodings.get(name)
            if theirs is None:
                continue
            other_vocab, other_codes = theirs
            encodings[name] = _merge_encodings(vocab, codes, other_vocab, other_codes)
        return Relation(self._schema, columns, encodings=encodings)

    def sort_by(self, names: Sequence[str], ascending: Sequence[bool] | None = None) -> "Relation":
        """Stable multi-key sort.

        Each key column is reduced to dense integer codes (value ranks), which
        makes descending order a simple negation and lets ``np.lexsort`` do a
        single stable pass over all keys.
        """
        if ascending is None:
            ascending = [True] * len(names)
        if len(ascending) != len(names):
            raise SchemaError("sort keys and directions must have equal length")
        if self._nrows == 0 or not names:
            return self
        keys = []
        for name, asc in zip(names, ascending):
            _, codes = self.dictionary(name)
            keys.append(codes if asc else -codes)
        # np.lexsort treats the *last* key as primary, so reverse the list.
        order = np.lexsort(tuple(reversed(keys)))
        return self.take(order)

    def equals(self, other: "Relation") -> bool:
        """Exact equality: same schema, same rows in the same order."""
        if self._schema != other.schema or self._nrows != other.num_rows:
            return False
        for name in self._schema.names:
            mine, theirs = self._columns[name], other.column(name)
            if self._schema.dtype(name) is DType.FLOAT:
                if not np.allclose(mine, theirs, equal_nan=True):
                    return False
            elif not np.array_equal(mine, theirs):
                return False
        return True


def _ingest_column(
    field: Field,
    values: Any,
    columns: dict[str, np.ndarray],
    encodings: dict[str, tuple[np.ndarray, np.ndarray]],
) -> None:
    """Coerce one ingested column into ``columns``, encoding TEXT fields."""
    if field.dtype is DType.TEXT:
        vocab, codes = _factorize_text(values)
        columns[field.name] = _decode(vocab, codes)
        encodings[field.name] = (vocab, codes)
    else:
        columns[field.name] = field.dtype.coerce_array(values)


def _first_occurrences(codes: np.ndarray, num_groups: int) -> np.ndarray:
    """First row index of each group, without sorting.

    Fancy assignment with duplicate indices keeps the last write; writing
    row indices in reverse row order therefore leaves each group's minimum.
    """
    n = codes.shape[0]
    first = np.empty(num_groups, dtype=np.int64)
    first[codes[::-1]] = np.arange(n - 1, -1, -1)
    return first


def _decode(vocab: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Materialise the object column for an encoding (C gather, shared strs)."""
    if vocab.size == 0:
        return np.empty(codes.shape[0], dtype=object)
    return vocab[codes]


def _merge_encodings(
    left_vocab: np.ndarray,
    left_codes: np.ndarray,
    right_vocab: np.ndarray,
    right_codes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Union two sorted vocabs and remap both code arrays into the union."""
    if left_vocab is right_vocab or (
        left_vocab.size == right_vocab.size
        and bool(np.all(left_vocab == right_vocab))
    ):
        return left_vocab, np.concatenate([left_codes, right_codes])
    if left_vocab.size == 0:
        return right_vocab, np.concatenate(
            [left_codes.astype(CODES_DTYPE, copy=False), right_codes]
        )
    if right_vocab.size == 0:
        return left_vocab, np.concatenate(
            [left_codes, right_codes.astype(CODES_DTYPE, copy=False)]
        )
    merged = np.unique(np.concatenate([left_vocab, right_vocab]))
    left_remap = np.searchsorted(merged, left_vocab)
    right_remap = np.searchsorted(merged, right_vocab)
    codes = np.concatenate([left_remap[left_codes], right_remap[right_codes]])
    return merged, codes.astype(CODES_DTYPE, copy=False)


def _factorize_text(values: Any) -> tuple[np.ndarray, np.ndarray]:
    """Coerce + factorize raw TEXT input in one pass.

    Applies ``str()`` to every value while assigning first-appearance codes
    (the same hash-based scheme as :func:`_factorize_object`, fused with the
    coercion loop so ingest walks the Python values exactly once), then
    sorts the unique set and remaps.
    """
    arr = np.asarray(values, dtype=object)
    if arr.ndim != 1:
        arr = arr.ravel()
    mapping: dict[str, int] = {}
    codes = np.empty(arr.shape[0], dtype=CODES_DTYPE)
    for position, value in enumerate(arr):
        text = value if type(value) is str else str(value)
        code = mapping.get(text)
        if code is None:
            code = mapping[text] = len(mapping)
        codes[position] = code
    _STATS["builds"] += 1
    return _sort_and_remap(mapping, codes)


def _factorize_object(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted uniques + dense codes for an object column, hash-based.

    A dict pass assigns first-appearance codes (no O(n log n) comparison
    sort over all rows); only the (small) unique set is sorted, and the
    codes are remapped to that order so the result matches ``np.unique``.
    """
    mapping: dict = {}
    codes = np.empty(column.shape[0], dtype=CODES_DTYPE)
    for position, value in enumerate(column):
        code = mapping.get(value)
        if code is None:
            code = mapping[value] = len(mapping)
        codes[position] = code
    return _sort_and_remap(mapping, codes)


def _sort_and_remap(mapping: dict, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    uniques = np.empty(len(mapping), dtype=object)
    uniques[:] = list(mapping)
    order = np.argsort(uniques, kind="stable")
    remap = np.empty(len(mapping), dtype=CODES_DTYPE)
    remap[order] = np.arange(len(mapping), dtype=CODES_DTYPE)
    return uniques[order], remap[codes]


def _to_python(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    return value
