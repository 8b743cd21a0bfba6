"""Which calls are wrapped, and how spans become the per-layer metrics.

Layers are this repo's packages.  Each wrapped call is a layer boundary;
a layer's time is the *self time* of its spans (see ``trace.py``).

Three of the targets are private methods — the points where a request
changes thread, which no public function marks:
``MosaicServer._query_call`` / ``_extended_call`` (the closure a server
runs on its executor for one request) and ``FleetRouter._route_statement``
(the router task handling one statement).  ``Tracer.install`` raises if a
target is renamed, so a traced run cannot silently lose a layer.
"""

from __future__ import annotations

from collections import defaultdict

from . import metrics
from .harness import Outcome
from .trace import END, NAME, OP_PREFIX, PARENT, START, VALUE, Target, budgets, self_times

#: Operation classes of the steady measured phase (the others — the cold
#: first answer and the reopen cycles — are one-off phases).
STEADY = ("closed", "semi_open", "open", "write")


def _arg(position: int):
    def pick(args: tuple):
        value = args[position] if len(args) > position else None
        return value if isinstance(value, str) else None

    return pick


def _rows_in_out(args, kwargs, result):
    return (args[1].num_rows, result.num_rows)


def _rows_in_cells_out(args, kwargs, result):
    # execute_plan_composite returns (aggregate node, per-(repetition, group) cells).
    return (args[1].num_rows, int(result[1].present.sum()))


def _result_rows(args, kwargs, result):
    return result.num_rows


TARGETS = [
    Target("repro.sql.parser:parse_statement", "sql.parse"),
    Target("repro.engine.compiler:compile_select", "engine.compile"),
    Target("repro.engine.compiler:execute_plan", "engine.execute_plan", value=_rows_in_out),
    Target(
        "repro.engine.compiler:execute_plan_composite",
        "engine.execute_plan_composite",
        value=_rows_in_cells_out,
    ),
    Target("repro.engine.open_world:evaluate_open", "engine.open_execute"),
    Target("repro.engine.open_world:combine_composite_answers", "engine.open_combine"),
    Target("repro.engine.open_world:combine_open_answers", "engine.open_combine"),
    Target("repro.relational.kernels:grouped_aggregate", "relational.grouped_aggregate"),
    Target(
        "repro.relational.kernels:grouped_aggregate_composite",
        "relational.grouped_aggregate",
    ),
    Target(
        "repro.reweight.ipf:ipf_reweight",
        "reweight.ipf",
        value=lambda args, kwargs, result: result.iterations,
    ),
    Target("repro.engine.semi_open:reweighted_sample", "reweight.reweighted_sample"),
    Target("repro.engine.open_world:MswgGenerator.fit", "generative.mswg_fit"),
    Target(
        "repro.engine.open_world:MswgGenerator.generate",
        "generative.mswg_generate",
        value=_result_rows,
    ),
    Target(
        "repro.engine.open_world:MswgGenerator.generate_batch",
        "generative.mswg_generate",
        value=_result_rows,
    ),
    Target(
        "repro.engine.open_world:MswgGenerator.generate_batch_streams",
        "generative.mswg_generate",
        value=_result_rows,
    ),
    Target("repro.core.session:Session.execute", "core.dispatch"),
    Target(
        "repro.server.protocol:encode_result",
        "server.encode",
        value=lambda args, kwargs, result: len(result),
    ),
    Target("repro.server.protocol:decode_result_with_header", "client.decode"),
    Target(
        "repro.client.client:Connection.execute",
        "client.call",
        tag=_arg(1),
        offer="call",
        adopt="route",
        adopt_consumes=False,
        adopted_name="fleet.shard_call",
    ),
    Target(
        "repro.client.client:Connection.query_extended",
        "client.call",
        tag=_arg(2),
        offer="call",
        adopt="route",
        adopt_consumes=False,
        adopted_name="fleet.shard_call",
    ),
    Target(
        "repro.server.server:MosaicServer._query_call",
        "server.request",
        tag=_arg(2),
        adopt="call",
        factory=True,
    ),
    Target(
        "repro.server.server:MosaicServer._extended_call",
        "server.request",
        tag=_arg(3),
        adopt="call",
        factory=True,
    ),
    Target(
        "repro.fleet.router:FleetRouter._route_statement",
        "fleet.route",
        tag=_arg(2),
        adopt="call",
        offer="route",
    ),
    Target("repro.fleet.merge:gather_partials", "fleet.gather_merge"),
    Target(
        "repro.storage.wal:WriteAheadLog.append",
        "storage.wal_append",
        value=lambda args, kwargs, result: len(args[1]),
    ),
    Target("repro.core.engine:Engine.checkpoint", "storage.checkpoint"),
    Target("repro.storage.store:DurableStore.open", "storage.restore"),
    Target("repro.storage.pages:write_page", "storage.page_write"),
    Target("repro.storage.pages:open_page", "storage.page_open"),
]

#: Span name -> budget row.  Spans not listed keep their own name.
ROWS = {
    "engine.execute_plan_composite": "engine.open_execute",
    "client.call": "server.transport_self",
    "server.request": "server.transport_self",
    "fleet.route": "fleet.route_self",
    "fleet.route.fanout": "fleet.scatter_fanout",
    "fleet.shard_call": "fleet.shard_hop",
}


def row_of(span_name: str) -> str:
    return ROWS.get(span_name, span_name)


def budget_table(spans: list[list]) -> dict[str, dict]:
    return budgets(spans, row_of)


class _Sums:
    """Per (operation class, budget row): self seconds, whole-span seconds,
    call count and recorded values, over spans that count (not hidden,
    inside an operation)."""

    def __init__(self, spans: list[list]):
        own, hidden, fanout = self_times(spans)
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.total_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.values: dict[tuple[str, str], list] = defaultdict(list)
        class_of: list[str | None] = [None] * len(spans)
        for index, span in enumerate(spans):
            if span[NAME].startswith(OP_PREFIX):
                class_of[index] = span[NAME][len(OP_PREFIX):]
                continue
            parent = span[PARENT]
            op_class = class_of[parent] if parent >= 0 else None
            class_of[index] = op_class
            if op_class is None or hidden[index]:
                continue
            key = (op_class, row_of(span[NAME]))
            self.self_s[key] += own[index]
            self.total_s[key] += span[END] - span[START]
            self.calls[key] += 1
            if span[VALUE] is not None:
                self.values[key].append(span[VALUE])
            if index in fanout:
                self.self_s[(op_class, row_of(span[NAME] + ".fanout"))] += fanout[index]

    def self_ms(self, row: str, classes=STEADY) -> float:
        return sum(self.self_s.get((c, row), 0.0) for c in classes) * 1e3

    def mean_call_ms(self, row: str) -> float:
        calls = sum(n for (_, r), n in self.calls.items() if r == row)
        total = sum(s for (_, r), s in self.total_s.items() if r == row)
        return total / calls * 1e3 if calls else 0.0

    def recorded(self, row: str, classes=STEADY) -> list:
        return [v for c in classes for v in self.values.get((c, row), [])]


def per_layer_metrics(
    workload: str, spans: list[list], traced: Outcome, bare: Outcome
) -> dict[str, float]:
    """All 48 per-layer values of one traced run; layers a workload never
    enters read 0."""
    sums = _Sums(spans)
    log = traced.log
    steady_ops = max(1, len(log.of(*STEADY)))
    open_ops = max(1, len(log.of("open")))
    write_ops = max(1, len([op for op in log.of("write") if op.key != "checkpoint"]))
    scatter_ops = max(1, traced.counts.get("fleet.scatter_ops", 0))

    def per_op(row: str, ops: int = steady_ops) -> float:
        return sums.self_ms(row) / ops

    scanned = sums.recorded("engine.execute_plan") + sums.recorded("engine.open_execute")
    rows_in = sum(pair[0] for pair in scanned)
    rows_out = sum(pair[1] for pair in scanned)
    iterations = sums.recorded("reweight.ipf")
    generated = sums.recorded("generative.mswg_generate")
    encoded = sums.recorded("server.encode")
    wal_bytes = sum(sums.recorded("storage.wal_append"))
    user_bytes = traced.counts.get("storage.user_bytes_inserted", 0)

    values = {name: 0.0 for name, _, _ in metrics.PER_LAYER}
    values.update(
        {
            "sql.parse_ms": per_op("sql.parse"),
            "engine.compile_ms": per_op("engine.compile"),
            "engine.execute_plan_ms": per_op("engine.execute_plan"),
            "engine.open_execute_ms": per_op("engine.open_execute"),
            "engine.open_combine_ms": per_op("engine.open_combine"),
            "relational.grouped_aggregate_ms": per_op("relational.grouped_aggregate"),
            "relational.rows_scanned_per_result_row": rows_in / rows_out if rows_out else 0.0,
            "reweight.ipf_ms": per_op("reweight.ipf"),
            "reweight.ipf_iterations": sum(iterations) / len(iterations) if iterations else 0.0,
            "generative.mswg_fit_s": sums.self_ms("generative.mswg_fit", ("cold_open",)) / 1e3,
            "generative.mswg_generate_ms": per_op("generative.mswg_generate", open_ops),
            "generative.rows_generated_per_op": sum(generated) / open_ops,
            "core.dispatch_self_ms": per_op("core.dispatch"),
            "server.encode_ms": per_op("server.encode"),
            "server.result_bytes_per_op": sum(encoded) / steady_ops,
            "server.transport_self_ms": per_op("server.transport_self"),
            "client.decode_ms": per_op("client.decode"),
            "fleet.route_self_ms": per_op("fleet.route_self"),
            "fleet.scatter_fanout_ms": per_op("fleet.scatter_fanout", scatter_ops),
            "fleet.gather_merge_ms": per_op("fleet.gather_merge", scatter_ops),
            "storage.wal_append_ms": per_op("storage.wal_append", write_ops),
            "storage.wal_bytes_per_user_byte": wal_bytes / user_bytes if user_bytes else 0.0,
            "storage.checkpoint_ms": sums.mean_call_ms("storage.checkpoint"),
            "storage.page_write_ms": sums.mean_call_ms("storage.page_write"),
            "storage.page_open_ms": sums.mean_call_ms("storage.page_open"),
            "observability.bench_trace_overhead_pct": (
                (bare.throughput_qps - traced.throughput_qps) / bare.throughput_qps * 100.0
                if bare.throughput_qps
                else 0.0
            ),
        }
    )
    for name, value in traced.counts.items():
        if name in values:
            values[name] = float(value)
    return values


def _share(table: dict[str, dict], rows: tuple[str, ...], classes=STEADY) -> float | None:
    """Share of the pooled steady operation time spent in ``rows``."""
    total = sum(table[c]["mean_ms"] * table[c]["ops"] for c in classes if c in table)
    if not total:
        return None
    spent = sum(
        table[c]["rows"].get(row, 0.0) * table[c]["ops"]
        for c in classes
        if c in table
        for row in rows
    )
    return spent / total * 100.0


DATA_ROWS = ("relational.grouped_aggregate", "engine.execute_plan")
OPEN_ROWS = (
    "generative.mswg_fit",
    "generative.mswg_generate",
    "engine.open_execute",
    "engine.open_combine",
)


def dominance_notes(workload: str, table: dict[str, dict]) -> list[str]:
    """The share each workload was chosen for, as the traced run saw it."""
    notes = []
    data = _share(table, DATA_ROWS)
    if data is not None and workload in ("closed_scan", "served_mix"):
        want = ">= 80%" if workload == "closed_scan" else "<= 15%"
        notes.append(
            f"dominance {workload}: relational + engine.execute_plan = "
            f"{data:.1f}% of a steady operation (chosen for {want})"
        )
    if workload == "open_world":
        share = _share(table, OPEN_ROWS, ("open",))
        if share is not None:
            notes.append(
                f"dominance open_world: generative.* + engine.open_* = "
                f"{share:.1f}% of an OPEN operation (chosen for >= 80%)"
            )
    fleet = _share(table, ("fleet.route_self", "fleet.scatter_fanout", "fleet.gather_merge", "fleet.shard_hop"))
    wal = _share(table, ("storage.wal_append",))
    if fleet is not None:
        notes.append(
            f"dominance {workload}: fleet.* = {fleet:.2f}% of a steady operation "
            "(non-zero only on fleet_scatter)"
        )
    if wal is not None:
        notes.append(
            f"dominance {workload}: storage.wal_append = {wal:.2f}% of a steady "
            "operation (non-zero only on ingest_restart)"
        )
    for op_class, entry in sorted(table.items()):
        unattributed = entry["rows"].get("unattributed", 0.0)
        share = unattributed / entry["mean_ms"] * 100.0 if entry["mean_ms"] else 0.0
        notes.append(f"unattributed {workload}/{op_class}: {share:.2f}% of the traced mean")
    return notes
