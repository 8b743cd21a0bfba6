"""Columnar relational engine on numpy.

This subpackage is the storage/execution substrate the Mosaic layers build
on.  It deliberately mirrors a tiny slice of a real column store:

- :class:`~repro.relational.schema.Schema` / ``Field`` — typed relation
  schemas (:mod:`repro.relational.dtypes`).
- :class:`~repro.relational.relation.Relation` — an immutable columnar
  table backed by numpy arrays.
- :mod:`repro.relational.expressions` / ``predicates`` — vectorised scalar
  and boolean expression trees.
- :mod:`repro.relational.aggregates` / ``kernels`` — weighted and
  unweighted aggregates (``COUNT(*) -> SUM(weight)``).
- :mod:`repro.relational.groupby` / ``ops`` — group-by, project, union,
  distinct.
"""

from repro.relational.dtypes import DType
from repro.relational.schema import Field, Schema
from repro.relational.relation import Relation

__all__ = ["DType", "Field", "Schema", "Relation"]
