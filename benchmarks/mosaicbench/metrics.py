"""The metric names, units and bounds — one table the runner, the
comparison and ``BENCHMARK.json`` all agree with (a test pins the last).

``bound`` is the share of the parent's median by which an end-to-end
metric may worsen before a change counts as a regression.  Each timing
bound is the issue's figure unless the machine cannot hold it:
``noise_floor.json`` records the measured run-to-run spread that widened
it.  The deterministic metrics are a different matter: see
:data:`PAIRED_BOUNDS`.
"""

from __future__ import annotations

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.25),
    ("closed_p50_ms", "ms", "lower", 0.25),
    ("closed_p95_ms", "ms", "lower", 0.25),
    ("semi_open_p50_ms", "ms", "lower", 0.25),
    ("semi_open_p95_ms", "ms", "lower", 0.25),
    ("open_p50_ms", "ms", "lower", 0.25),
    ("open_p95_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("write_p95_ms", "ms", "lower", 0.25),
    ("cold_first_answer_s", "s", "lower", 0.25),
    ("warm_reopen_ms", "ms", "lower", 0.25),
    ("answer_rel_err_pct", "%", "lower", 0.25),
    ("stored_bytes_per_user_byte", "B/B", "lower", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.18),
)

# name, unit, better
PER_LAYER = (
    ("sql.parse_ms", "ms", "lower"),
    ("sql.statement_cache_hit_pct", "%", "higher"),
    ("engine.compile_ms", "ms", "lower"),
    ("engine.plan_cache_hit_pct", "%", "higher"),
    ("engine.execute_plan_ms", "ms", "lower"),
    ("engine.open_execute_ms", "ms", "lower"),
    ("engine.open_combine_ms", "ms", "lower"),
    ("engine.open_fallback_ops", "count", "lower"),
    ("engine.open_repetitions_used", "count", "lower"),
    ("relational.grouped_aggregate_ms", "ms", "lower"),
    ("relational.rows_scanned_per_result_row", "count", "lower"),
    ("relational.dictionary_builds", "count", "lower"),
    ("relational.dictionary_reuse_hits", "count", "higher"),
    ("relational.shm_share_ms", "ms", "lower"),
    ("relational.shm_attach_ms", "ms", "lower"),
    ("reweight.ipf_ms", "ms", "lower"),
    ("reweight.ipf_iterations", "count", "lower"),
    ("reweight.cache_hit_pct", "%", "higher"),
    ("generative.mswg_fit_s", "s", "lower"),
    ("generative.mswg_generate_ms", "ms", "lower"),
    ("generative.rows_generated_per_op", "count", "lower"),
    ("generative.cache_hit_pct", "%", "higher"),
    ("bayesnet.fit_ms", "ms", "lower"),
    ("bayesnet.generate_ms", "ms", "lower"),
    ("generative.ipf_synth_fit_ms", "ms", "lower"),
    ("generative.ipf_synth_generate_ms", "ms", "lower"),
    ("core.dispatch_self_ms", "ms", "lower"),
    ("core.pool_batches", "count", "lower"),
    ("core.pool_tasks", "count", "lower"),
    ("server.encode_ms", "ms", "lower"),
    ("server.result_bytes_per_op", "B", "lower"),
    ("server.transport_self_ms", "ms", "lower"),
    ("client.decode_ms", "ms", "lower"),
    ("fleet.route_self_ms", "ms", "lower"),
    ("fleet.scatter_fanout_ms", "ms", "lower"),
    ("fleet.gather_merge_ms", "ms", "lower"),
    ("fleet.shard_requests_per_op", "count", "lower"),
    ("storage.wal_append_ms", "ms", "lower"),
    ("storage.wal_bytes_per_user_byte", "B/B", "lower"),
    ("storage.checkpoint_ms", "ms", "lower"),
    ("storage.checkpoint_bytes", "B", "lower"),
    ("storage.model_bytes", "B", "lower"),
    ("storage.page_write_ms", "ms", "lower"),
    ("storage.page_open_ms", "ms", "lower"),
    ("storage.replay_reopen_ms", "ms", "lower"),
    ("storage.wal_replay_records", "count", "lower"),
    ("storage.restored_models", "count", "higher"),
    ("observability.bench_trace_overhead_pct", "%", "lower"),
)

#: The bounds the issue asked for, before the noise floor widened them
#: (``None``: the issue's figure was absolute, which the contract cannot hold).
ISSUE_BOUNDS = {
    "setup_s": 0.10,
    "throughput_qps": 0.10,
    "closed_p50_ms": 0.10,
    "closed_p95_ms": 0.15,
    "semi_open_p50_ms": 0.10,
    "semi_open_p95_ms": 0.15,
    "open_p50_ms": 0.10,
    "open_p95_ms": 0.15,
    "write_p50_ms": 0.10,
    "write_p95_ms": 0.15,
    "cold_first_answer_s": 0.10,
    "warm_reopen_ms": 0.15,
    "answer_rel_err_pct": None,
    "stored_bytes_per_user_byte": 0.01,
    "peak_rss_mb": 0.10,
}

#: Metrics that repeat bit for bit when the seed does, and the bound
#: ``run.py --compare`` holds them to.  It compares them seed by seed (the
#: median of each seed's own worsening), which takes the inputs' variance
#: out: two sets of one commit differ by exactly 0.  Their ``bound`` in
#: :data:`END_TO_END` is wider only because the driver's acceptance runs
#: use a different seed each and require that seed-to-seed spread (10% for
#: the answer error of closed_scan, 9-16% for open_world's) to stay inside it.
PAIRED_BOUNDS = {
    "answer_rel_err_pct": 0.01,
    "stored_bytes_per_user_byte": 0.01,
}

END_TO_END_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
BOUNDS = {name: (better, bound) for name, _, better, bound in END_TO_END}

WORKLOADS = ("closed_scan", "served_mix", "open_world", "ingest_restart", "fleet_scatter")

#: Which workloads measure which end-to-end metric in their own measured
#: phase.  Only these cells are summarized, compared and counted in the
#: noise floor; the other cells of a run's result come from the lifecycle
#: probe (see README.md) and exist because the driver's contract wants
#: every metric in every result.
NATIVE = {
    "setup_s": WORKLOADS,
    "throughput_qps": WORKLOADS,
    "closed_p50_ms": ("closed_scan", "served_mix", "ingest_restart", "fleet_scatter"),
    "closed_p95_ms": ("closed_scan", "served_mix", "ingest_restart", "fleet_scatter"),
    "semi_open_p50_ms": ("closed_scan", "served_mix", "ingest_restart", "fleet_scatter"),
    "semi_open_p95_ms": ("closed_scan", "served_mix", "ingest_restart", "fleet_scatter"),
    "open_p50_ms": ("open_world",),
    "open_p95_ms": ("open_world",),
    "write_p50_ms": ("ingest_restart",),
    "write_p95_ms": ("ingest_restart",),
    "cold_first_answer_s": ("open_world",),
    "warm_reopen_ms": ("open_world", "ingest_restart"),
    "answer_rel_err_pct": ("closed_scan", "open_world"),
    "stored_bytes_per_user_byte": ("open_world", "ingest_restart"),
    "peak_rss_mb": WORKLOADS,
}
