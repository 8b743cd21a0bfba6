"""Unit tests for the logical type system."""

import warnings

import numpy as np
import pytest

from repro.errors import TypeMismatchError
from repro.relational.dtypes import DType, common_numeric_type

_INT_RANGE = r"outside the INT range \[-9223372036854775808, 9223372036854775807\]"


class TestParse:
    def test_canonical_names(self):
        assert DType.parse("INT") is DType.INT
        assert DType.parse("FLOAT") is DType.FLOAT
        assert DType.parse("TEXT") is DType.TEXT
        assert DType.parse("BOOL") is DType.BOOL

    def test_aliases(self):
        assert DType.parse("integer") is DType.INT
        assert DType.parse("DOUBLE") is DType.FLOAT
        assert DType.parse("varchar") is DType.TEXT
        assert DType.parse("Boolean") is DType.BOOL

    def test_whitespace_tolerated(self):
        assert DType.parse("  real ") is DType.FLOAT

    def test_unknown_type_raises(self):
        with pytest.raises(TypeMismatchError, match="unknown column type"):
            DType.parse("BLOB")


class TestInfer:
    def test_int_list(self):
        assert DType.infer([1, 2, 3]) is DType.INT

    def test_float_list(self):
        assert DType.infer([1.5, 2.0]) is DType.FLOAT

    def test_mixed_int_float_is_float(self):
        assert DType.infer([1, 2.5]) is DType.FLOAT

    def test_bool_list(self):
        assert DType.infer([True, False]) is DType.BOOL

    def test_bool_not_confused_with_int(self):
        # bool is a subclass of int in Python; inference must not collapse it.
        assert DType.infer([True, True]) is DType.BOOL

    def test_string_list(self):
        assert DType.infer(["a", "b"]) is DType.TEXT

    def test_numpy_arrays(self):
        assert DType.infer(np.array([1, 2], dtype=np.int32)) is DType.INT
        assert DType.infer(np.array([1.0])) is DType.FLOAT
        assert DType.infer(np.array([True])) is DType.BOOL


class TestCoerceArray:
    def test_int_from_floats_with_integral_values(self):
        out = DType.INT.coerce_array([1.0, 2.0])
        assert out.dtype == np.int64
        assert out.tolist() == [1, 2]

    def test_int_rejects_fractional(self):
        with pytest.raises(TypeMismatchError, match="non-integral"):
            DType.INT.coerce_array([1.5])

    def test_int_rejects_strings(self):
        with pytest.raises(TypeMismatchError):
            DType.INT.coerce_array(["a"])

    @pytest.mark.parametrize(
        "values",
        [
            [99999999999999999999],
            [2**63],
            [2**63, -1],
            [-(2**63) - 1],
            [1e20, 2.0],
            np.array([2**63], dtype=np.uint64),
            np.array([-1e19]),
        ],
        ids=["huge", "int64_max_plus_1", "mixed_sign", "below_min", "float", "uint64", "ndarray"],
    )
    def test_int_out_of_range_names_the_range_without_warning(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeMismatchError, match=_INT_RANGE):
                DType.INT.coerce_array(values)

    def test_int_keeps_the_int64_extremes(self):
        out = DType.INT.coerce_array([-(2**63), 2**63 - 1])
        assert out.tolist() == [-(2**63), 2**63 - 1]
        assert DType.INT.coerce_array([2**53 + 1]).tolist() == [2**53 + 1]

    def test_int_mixed_with_floats_converts_exactly(self):
        # np.asarray would widen this list to float64 and lose the low bit.
        out = DType.INT.coerce_array([9007199254740993, 2.0])
        assert out.tolist() == [9007199254740993, 2]

    @pytest.mark.parametrize("values", [[float("nan")], [float("inf")], np.array([0.5, np.nan])])
    def test_int_rejects_non_finite_and_fractional_without_warning(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeMismatchError, match="non-integral"):
                DType.INT.coerce_array(values)

    def test_text_stringifies_everything(self):
        out = DType.TEXT.coerce_array([1, "b", 2.5])
        assert out.tolist() == ["1", "b", "2.5"]
        assert out.dtype == object

    def test_float_from_ints(self):
        out = DType.FLOAT.coerce_array([1, 2])
        assert out.dtype == np.float64

    def test_bool(self):
        out = DType.BOOL.coerce_array([1, 0])
        assert out.tolist() == [True, False]


class TestCommonNumericType:
    def test_int_int(self):
        assert common_numeric_type(DType.INT, DType.INT) is DType.INT

    def test_int_float(self):
        assert common_numeric_type(DType.INT, DType.FLOAT) is DType.FLOAT

    def test_text_rejected(self):
        with pytest.raises(TypeMismatchError):
            common_numeric_type(DType.TEXT, DType.INT)


class TestProperties:
    def test_is_numeric(self):
        assert DType.INT.is_numeric
        assert DType.FLOAT.is_numeric
        assert not DType.TEXT.is_numeric
        assert not DType.BOOL.is_numeric

    def test_numpy_dtype_mapping(self):
        assert DType.INT.numpy_dtype == np.dtype(np.int64)
        assert DType.TEXT.numpy_dtype == np.dtype(object)
