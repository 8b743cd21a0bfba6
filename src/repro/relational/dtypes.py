"""Column type system for the relational substrate.

Four logical types cover everything the paper's workloads need:

- ``INT`` — 64-bit integers (flight times, counts, whole-number attributes).
- ``FLOAT`` — 64-bit floats (generator output, weights, continuous data).
- ``TEXT`` — strings, stored as numpy object arrays (categorical attributes
  such as the flights ``carrier``).
- ``BOOL`` — booleans.

Each logical type knows its numpy storage dtype and how to coerce raw
Python values or arrays into that storage form.
"""

from __future__ import annotations

import enum
from typing import Any

import numpy as np

from repro.errors import TypeMismatchError

#: Storage dtype of dictionary codes.  int32 halves the code-array memory
#: of int64 and comfortably indexes any realistic vocabulary (2**31 distinct
#: strings); arithmetic that combines codes (multi-key group ids) upcasts to
#: int64 automatically.
CODES_DTYPE = np.dtype(np.int32)


def object_array(values: Any) -> np.ndarray:
    """A 1-D object array holding ``values`` untouched.

    ``np.asarray`` on a mixed/str sequence would coerce (ints to ``<U``
    strings) or reject ragged values; filling a preallocated object array
    keeps every element exactly as given while staying gatherable
    (``arr[codes]`` is a C loop).  The canonical spelling for domain /
    category / representative lookups.
    """
    materialized = list(values)
    array = np.empty(len(materialized), dtype=object)
    array[:] = materialized
    return array


class DType(enum.Enum):
    """Logical column type."""

    INT = "INT"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOL = "BOOL"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used to store columns of this logical type."""
        return _NUMPY_DTYPES[self]

    @property
    def is_numeric(self) -> bool:
        """Whether the type supports arithmetic and range predicates."""
        return self in (DType.INT, DType.FLOAT)

    @classmethod
    def parse(cls, name: str) -> "DType":
        """Parse a SQL type name (case-insensitive, common aliases allowed)."""
        normalized = name.strip().upper()
        alias = _TYPE_ALIASES.get(normalized)
        if alias is None:
            raise TypeMismatchError(f"unknown column type: {name!r}")
        return alias

    @classmethod
    def infer(cls, values: Any) -> "DType":
        """Infer the narrowest logical type that holds every value.

        Booleans are checked before integers because ``bool`` is a subclass
        of ``int`` in Python.
        """
        arr = np.asarray(values)
        if arr.dtype == np.bool_:
            return cls.BOOL
        if np.issubdtype(arr.dtype, np.integer):
            return cls.INT
        if np.issubdtype(arr.dtype, np.floating):
            return cls.FLOAT
        if arr.dtype == object:
            flat = [v for v in arr.ravel()]
            if flat and all(isinstance(v, bool) for v in flat):
                return cls.BOOL
            if flat and all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in flat):
                return cls.INT
            if flat and all(
                isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
                for v in flat
            ):
                return cls.FLOAT
        return cls.TEXT

    def coerce_array(self, values: Any) -> np.ndarray:
        """Coerce ``values`` into a 1-D numpy array of this type's storage dtype.

        Raises :class:`TypeMismatchError` when a value cannot be represented
        (for example a string in an ``INT`` column, or a non-integral float).
        """
        arr = np.asarray(values)
        if arr.ndim != 1:
            arr = arr.ravel()
        try:
            if self is DType.TEXT:
                out = np.empty(arr.shape[0], dtype=object)
                out[:] = [str(v) for v in arr]
                return out
            if self is DType.INT:
                return _int_array(values, arr)
            if self is DType.FLOAT:
                return arr.astype(np.float64)
            return arr.astype(np.bool_)
        except (ValueError, TypeError) as exc:
            raise TypeMismatchError(f"cannot coerce values to {self.value}: {exc}") from exc


_INT_MIN, _INT_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _int_array(values: Any, arr: np.ndarray) -> np.ndarray:
    """``values`` (already ``np.asarray``-ed as ``arr``) as exact int64s.

    No value takes a float64 round trip it did not arrive in (which would
    drop the low bits of magnitudes beyond 2**53), and nothing reaches a
    cast that could overflow and warn.
    """
    if np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
        if arr.dtype == np.uint64 and arr.size and arr.max() > _INT_MAX:
            raise _out_of_range(int(arr.max()))
        return arr.astype(np.int64)
    if isinstance(values, np.ndarray) and np.issubdtype(arr.dtype, np.floating):
        integral = np.isfinite(arr) & (arr == np.trunc(arr))
        if not integral.all():
            raise _non_integral(float(arr[~integral][0]))
        outside = (arr < _INT_MIN) | (arr >= 2.0**63)
        if outside.any():
            raise _out_of_range(float(arr[outside][0]))
        return arr.astype(np.int64)
    # Python values, which np.asarray may have widened to float64 or kept as
    # objects: convert each one exactly.
    exact = np.asarray(values, dtype=object).ravel()
    out = np.empty(exact.shape[0], dtype=np.int64)
    out[:] = [_exact_int(value) for value in exact]
    return out


def _exact_int(value: Any) -> int:
    if isinstance(value, (int, np.integer)):
        result = int(value)
    else:
        as_float = float(value)
        if not as_float.is_integer():
            raise _non_integral(value)
        result = int(as_float)
    if not _INT_MIN <= result <= _INT_MAX:
        raise _out_of_range(value)
    return result


def _non_integral(value: Any) -> TypeMismatchError:
    return TypeMismatchError(f"non-integral value for INT column: {value!r}")


def _out_of_range(value: Any) -> TypeMismatchError:
    return TypeMismatchError(
        f"value {value!r} is outside the INT range [{_INT_MIN}, {_INT_MAX}]"
    )


_NUMPY_DTYPES: dict[DType, np.dtype] = {
    DType.INT: np.dtype(np.int64),
    DType.FLOAT: np.dtype(np.float64),
    DType.TEXT: np.dtype(object),
    DType.BOOL: np.dtype(np.bool_),
}

_TYPE_ALIASES: dict[str, DType] = {
    "INT": DType.INT,
    "INTEGER": DType.INT,
    "BIGINT": DType.INT,
    "FLOAT": DType.FLOAT,
    "REAL": DType.FLOAT,
    "DOUBLE": DType.FLOAT,
    "NUMERIC": DType.FLOAT,
    "TEXT": DType.TEXT,
    "VARCHAR": DType.TEXT,
    "STRING": DType.TEXT,
    "CHAR": DType.TEXT,
    "BOOL": DType.BOOL,
    "BOOLEAN": DType.BOOL,
}


def common_numeric_type(left: DType, right: DType) -> DType:
    """The result type of arithmetic between two numeric types."""
    if not (left.is_numeric and right.is_numeric):
        raise TypeMismatchError(f"arithmetic requires numeric types, got {left.value} and {right.value}")
    if left is DType.FLOAT or right is DType.FLOAT:
        return DType.FLOAT
    return DType.INT
