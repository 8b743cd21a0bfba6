"""Query results returned by :class:`~repro.core.database.MosaicDB`."""

from __future__ import annotations

from typing import Any, Iterator

from repro.relational.relation import Relation


class QueryResult:
    """A materialised query answer.

    Wraps the result :class:`~repro.relational.relation.Relation` with the
    metadata users care about: which visibility level produced it and which
    sample (if any) backed the population.  Iterating yields row tuples.
    """

    def __init__(
        self,
        relation: Relation,
        visibility: str | None = None,
        sample_name: str | None = None,
        notes: tuple[str, ...] = (),
        repetitions_used: int | None = None,
        trace: dict | None = None,
    ):
        self._relation = relation
        self.visibility = visibility
        self.sample_name = sample_name
        self.notes = notes
        #: OPEN only: how many generated repetitions the answer consumed
        #: (0 for direct inference, 1 for a non-aggregate materialisation,
        #: where the repetition stream stopped otherwise); ``None`` for
        #: CLOSED / SEMI-OPEN results.
        self.repetitions_used = repetitions_used
        #: Serialized :class:`~repro.observability.QueryTrace` when this
        #: query was sampled for tracing (or ran under EXPLAIN ANALYZE);
        #: crosses the wire as the append-only ``trace`` header field.
        self.trace = trace

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def columns(self) -> tuple[str, ...]:
        return self._relation.column_names

    @property
    def num_rows(self) -> int:
        return self._relation.num_rows

    def __len__(self) -> int:
        return self._relation.num_rows

    def __iter__(self) -> Iterator[tuple]:
        return self._relation.rows()

    def rows(self) -> list[tuple]:
        return list(self._relation.rows())

    def to_pylist(self) -> list[dict[str, Any]]:
        return self._relation.to_pylist()

    def has_note(self, substring: str) -> bool:
        """Whether any engine note contains ``substring``.

        Notes carry the execution trail — reweighting decisions, plan
        compilation vs. plan-cache hits, reweight/generator cache hits — so
        this is how callers observe pipeline behaviour (e.g.
        ``result.has_note("plan: cache hit")``).
        """
        return any(substring in note for note in self.notes)

    def scalar(self) -> Any:
        """The single value of a 1x1 result (e.g. ``SELECT COUNT(*) ...``)."""
        if self.num_rows != 1 or len(self.columns) != 1:
            raise ValueError(
                f"scalar() requires a 1x1 result, got {self.num_rows}x{len(self.columns)}"
            )
        return next(iter(self))[0]

    def column(self, name: str):
        return self._relation.column(name)

    def __repr__(self) -> str:
        return (
            f"QueryResult(rows={self.num_rows}, columns={list(self.columns)}, "
            f"visibility={self.visibility})"
        )

    def pretty(self, max_rows: int = 25) -> str:
        """Fixed-width textual rendering (for examples and the CLI)."""
        names = list(self.columns)
        rows = [
            [_fmt(v) for v in row]
            for _, row in zip(range(max_rows), self._relation.rows())
        ]
        widths = [len(n) for n in names]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = [" | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows]
        lines = [header, rule, *body]
        if self.num_rows > max_rows:
            lines.append(f"... ({self.num_rows - max_rows} more rows)")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}".rstrip("0").rstrip(".") if value == value else "nan"
    return str(value)
