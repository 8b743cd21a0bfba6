"""Per-relation partition policy: replicate (default) or slice.

The fleet's partitioning contract (``ARCHITECTURE.md`` §8):

- **Replicated** relations exist in full on every shard.  DDL and INSERT
  fan out; SELECTs route whole-query to one shard.  This is the default
  for every relation — it is always correct.
- **Sliced** relations spread their rows across shards, each row living
  on exactly one shard.  INSERTs scatter row slices; decomposable
  aggregate SELECTs scatter as partials and gather.  Slicing is opt-in
  per table (``--partition Table`` / ``--partition Table:column``)
  because it restricts the supported query surface.

Row assignment is deterministic and independent of shard liveness, so a
row's home shard never changes: hash partitioning keys on a stable hash
of the named column's value; round-robin partitioning deals contiguous
runs of each INSERT statement's rows across shards in turn.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fleet.ring import stable_hash


def parse_partition_option(text: str) -> tuple[str, "PartitionSpec"]:
    """Parse one ``--partition`` flag: ``Table`` or ``Table:column``."""
    table, _, column = text.partition(":")
    table = table.strip()
    column = column.strip()
    if not table:
        raise ValueError(f"bad --partition spec {text!r}: empty table name")
    return table, PartitionSpec(table=table, key_column=column or None)


@dataclass(frozen=True)
class PartitionSpec:
    """How one sliced relation's rows map to shards."""

    table: str
    #: Hash-partition on this column's value; ``None`` = round-robin runs.
    key_column: str | None = None

    def describe(self) -> str:
        if self.key_column is None:
            return f"{self.table}: sliced round-robin"
        return f"{self.table}: sliced by hash({self.key_column})"

    def assign_rows(
        self,
        rows: tuple,
        num_shards: int,
        key_index: int | None = None,
    ) -> list[list[int]]:
        """Per-shard row-index lists for one INSERT statement's rows.

        ``key_index`` is the position of :attr:`key_column` in the row
        tuples (the table's column order) — required for hash
        partitioning, ignored for round-robin.  Every index appears in
        exactly one shard's list; order within a list is statement order,
        so each shard ingests its rows in the order they were written.
        """
        assignment: list[list[int]] = [[] for _ in range(num_shards)]
        if self.key_column is not None:
            if key_index is None:
                raise ValueError(
                    f"hash partitioning {self.table!r} needs the index of "
                    f"column {self.key_column!r}"
                )
            for index, row in enumerate(rows):
                shard = stable_hash(str(row[key_index])) % num_shards
                assignment[shard].append(index)
            return assignment
        # Round-robin: deal near-equal contiguous runs, so shard s holds
        # rows [s*n/N, (s+1)*n/N) of each statement.
        count = len(rows)
        for shard in range(num_shards):
            start = shard * count // num_shards
            stop = (shard + 1) * count // num_shards
            assignment[shard].extend(range(start, stop))
        return assignment
