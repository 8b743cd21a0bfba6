"""Relation schemas: ordered, named, typed columns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import SchemaError
from repro.relational.dtypes import DType


@dataclass(frozen=True)
class Field:
    """A single named, typed column."""

    name: str
    dtype: DType

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"field name must be a non-empty string, got {self.name!r}")

    def __repr__(self) -> str:
        return f"{self.name} {self.dtype.value}"


class Schema:
    """An ordered collection of :class:`Field` with unique names.

    Column-name lookup is case-sensitive; SQL identifiers are normalised
    before they reach this layer.
    """

    def __init__(self, fields: Iterable[Field]):
        self._fields: tuple[Field, ...] = tuple(fields)
        self._index: dict[str, int] = {}
        for position, field in enumerate(self._fields):
            if field.name in self._index:
                raise SchemaError(f"duplicate column name: {field.name!r}")
            self._index[field.name] = position

    @classmethod
    def of(cls, **columns: DType) -> "Schema":
        """Build a schema from keyword arguments: ``Schema.of(x=DType.FLOAT)``."""
        return cls(Field(name, dtype) for name, dtype in columns.items())

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(field.name for field in self._fields)

    @property
    def fields(self) -> tuple[Field, ...]:
        return self._fields

    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[Field]:
        return iter(self._fields)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        inner = ", ".join(repr(field) for field in self._fields)
        return f"Schema({inner})"

    def field(self, name: str) -> Field:
        """Look up a field by name, raising :class:`SchemaError` if absent."""
        position = self._index.get(name)
        if position is None:
            raise SchemaError(f"no such column: {name!r} (have {list(self.names)})")
        return self._fields[position]

    def dtype(self, name: str) -> DType:
        return self.field(name).dtype

    def position(self, name: str) -> int:
        self.field(name)
        return self._index[name]

    def project(self, names: Iterable[str]) -> "Schema":
        """A new schema containing ``names`` in the given order."""
        return Schema(self.field(name) for name in names)
