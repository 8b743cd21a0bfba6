"""Unit tests for the observability layer (``repro.observability``).

Covers the metrics registry (typed families, per-thread counter shards,
histogram buckets, Prometheus exposition), the deterministic trace
sampler, trace-id uniqueness, end-to-end trace capture through
``Session.execute``, and ``EXPLAIN ANALYZE`` across all three visibility
levels in-process.
"""

import threading
import urllib.request

import numpy as np
import pytest

from repro import MosaicDB
from repro.catalog.metadata import Marginal
from repro.engine.open_world import IPFSynthesizer, MswgGenerator, OpenQueryConfig
from repro.generative.mswg import MswgConfig
from repro.observability import (
    MetricsExporter,
    MetricsRegistry,
    QueryTrace,
    new_trace_id,
)
from repro.observability import trace as trace_module


@pytest.fixture()
def sampled(monkeypatch):
    """Force the sampler to trace every query for the test's duration."""
    monkeypatch.setenv("MOSAIC_TRACE_SAMPLE", "1")


def build_closed_db(seed: int = 3) -> MosaicDB:
    db = MosaicDB(seed=seed)
    db.execute("CREATE TABLE T (name TEXT, n INT)")
    db.execute("INSERT INTO T VALUES ('a', 1), ('b', 2), ('a', 3)")
    return db


def build_population_db(
    seed: int = 0, generator_factory=IPFSynthesizer, **open_kwargs
) -> MosaicDB:
    db = MosaicDB(
        seed=seed,
        open_config=OpenQueryConfig(
            generator_factory=generator_factory,
            repetitions=4,
            rows_per_generation=200,
            **open_kwargs,
        ),
    )
    db.execute_script(
        """
        CREATE GLOBAL POPULATION P (country TEXT, email TEXT);
        CREATE SAMPLE S AS (SELECT * FROM P);
        """
    )
    db.register_marginal(
        "M1", "P", Marginal(["country"], {("UK",): 700, ("FR",): 300})
    )
    db.register_marginal(
        "M2", "P", Marginal(["email"], {("Yahoo",): 600, ("AOL",): 400})
    )
    db.ingest_rows("S", [("UK", "Yahoo")] * 60 + [("FR", "Yahoo")] * 40)
    return db


class TestMetricsRegistry:
    def test_counter_sums_across_threads(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", help="x")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(1000)]
            )
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 4000

    def test_register_is_idempotent_and_kind_checked(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total")
        assert registry.counter("x_total") is a
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_labels_key_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("c", labels={"cache": "plans"}).inc(2)
        registry.counter("c", labels={"cache": "statements"}).inc(5)
        snapshot = registry.snapshot()
        assert snapshot['c{cache="plans"}'] == 2
        assert snapshot['c{cache="statements"}'] == 5

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_ms", buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 100.0):
            histogram.observe(value)
        value = histogram.value()
        buckets = dict(value["buckets"])
        assert buckets[1.0] == 2
        assert buckets[10.0] == 3
        assert buckets[float("inf")] == 4
        assert value["count"] == 4
        assert value["sum"] == pytest.approx(106.2)

    def test_prometheus_exposition_parses(self):
        registry = MetricsRegistry()
        registry.counter("q_total", help="queries").inc(3)
        registry.gauge("up", fn=lambda: 1)
        registry.histogram("lat_ms", buckets=(1.0,)).observe(0.4)
        text = registry.render_prometheus()
        lines = text.strip().splitlines()
        # Every non-comment line is `name{labels} value` with a float value.
        for line in lines:
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            name, value = line.rsplit(" ", 1)
            float(value)
            assert name
        assert "q_total 3" in text
        assert 'lat_ms_bucket{le="1"} 1' in text
        assert 'lat_ms_bucket{le="+Inf"} 1' in text
        assert "lat_ms_count 1" in text

    def test_exporter_serves_scrapes(self):
        registry = MetricsRegistry()
        registry.counter("served_total").inc(7)
        exporter = MetricsExporter(registry.render_prometheus, port=0)
        exporter.start()
        try:
            body = urllib.request.urlopen(
                f"http://127.0.0.1:{exporter.port}/metrics", timeout=10
            ).read().decode()
            assert "served_total 7" in body
        finally:
            exporter.stop()


class TestSampler:
    def test_rate_one_traces_every_query(self, monkeypatch):
        monkeypatch.setenv("MOSAIC_TRACE_SAMPLE", "1")
        assert all(
            trace_module.maybe_trace() is not None for _ in range(5)
        )

    def test_rate_zero_disables_tracing(self, monkeypatch):
        monkeypatch.setenv("MOSAIC_TRACE_SAMPLE", "0")
        assert all(trace_module.maybe_trace() is None for _ in range(5))

    def test_fractional_rate_is_periodic(self, monkeypatch):
        monkeypatch.setenv("MOSAIC_TRACE_SAMPLE", "0.25")
        hits = [trace_module.maybe_trace() is not None for _ in range(8)]
        assert sum(hits) == 2  # one in four, deterministically

    def test_unparseable_rate_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv("MOSAIC_TRACE_SAMPLE", "not-a-rate")
        assert trace_module.trace_sample_rate() == trace_module.DEFAULT_SAMPLE

    def test_trace_ids_unique(self):
        ids = {new_trace_id() for _ in range(1000)}
        assert len(ids) == 1000


class TestQueryTrace:
    def test_span_records_annotations_and_duration(self):
        trace = QueryTrace()
        with trace.span("stage", table="T") as span:
            span["rows"] = 3
        trace.finish()
        payload = trace.to_dict()
        assert payload["spans"][0]["name"] == "stage"
        assert payload["spans"][0]["table"] == "T"
        assert payload["spans"][0]["rows"] == 3
        assert payload["spans"][0]["ms"] >= 0.0
        assert payload["total_ms"] >= payload["spans"][0]["ms"]

    def test_activate_sets_and_restores_context(self):
        trace = QueryTrace()
        assert trace_module.current_trace() is None
        with trace.activate():
            assert trace_module.current_trace() is trace
        assert trace_module.current_trace() is None


class TestSessionTracing:
    def test_sampled_select_carries_trace(self, sampled):
        db = build_closed_db()
        result = db.execute("SELECT CLOSED name, SUM(n) AS t FROM T GROUP BY name")
        assert result.trace is not None
        names = [span["name"] for span in result.trace["spans"]]
        assert "parse" in names
        assert "plan" in names
        assert "execute" in names

    def test_unsampled_select_has_no_trace(self, monkeypatch):
        monkeypatch.setenv("MOSAIC_TRACE_SAMPLE", "0")
        db = build_closed_db()
        result = db.execute("SELECT CLOSED name, SUM(n) AS t FROM T GROUP BY name")
        assert result.trace is None

    def test_plan_cache_provenance_in_trace(self, sampled):
        db = build_closed_db()
        sql = "SELECT CLOSED name, SUM(n) AS t FROM T GROUP BY name"
        db.execute(sql)
        result = db.execute(sql)
        plan_span = next(
            span for span in result.trace["spans"] if span["name"] == "plan"
        )
        assert "cache hit" in plan_span["provenance"]

    def test_trace_ids_distinct_across_queries(self, sampled):
        db = build_closed_db()
        sql = "SELECT CLOSED name, SUM(n) AS t FROM T GROUP BY name"
        ids = {db.execute(sql).trace["trace_id"] for _ in range(3)}
        assert len(ids) == 3


class TestExplainAnalyze:
    SQL = "SELECT CLOSED name, SUM(n) AS t FROM T GROUP BY name"

    def test_closed_reports_per_node_rows_and_timings(self):
        db = build_closed_db()
        result = db.execute(f"EXPLAIN ANALYZE {self.SQL}")
        assert result.columns == ("step", "detail", "ms")
        steps = [row[0] for row in result]
        assert "node: Scan" in steps
        assert any(step.startswith("node: Aggregate") for step in steps)
        assert result.trace is not None
        node_rows = {
            node["node"]: node["rows"]
            for node in result.trace["meta"]["plan_nodes"]
        }
        assert node_rows["Scan"] == 3
        assert result.has_note("EXPLAIN ANALYZE")

    def test_explain_bypasses_sampling(self, monkeypatch):
        monkeypatch.setenv("MOSAIC_TRACE_SAMPLE", "0")
        db = build_closed_db()
        result = db.execute(f"EXPLAIN ANALYZE {self.SQL}")
        assert result.trace is not None

    def test_explain_uses_same_plan_cache_as_bare_select(self):
        db = build_closed_db()
        db.execute(self.SQL)
        result = db.execute(f"EXPLAIN ANALYZE {self.SQL}")
        assert result.has_note("plan: cache hit")

    def test_semi_open_explain(self):
        db = build_population_db()
        result = db.execute(
            "EXPLAIN ANALYZE SELECT SEMI-OPEN country, COUNT(*) AS n "
            "FROM P GROUP BY country"
        )
        assert result.visibility == "SEMI-OPEN"
        execute_span = next(
            span for span in result.trace["spans"] if span["name"] == "execute"
        )
        assert execute_span["visibility"] == "SEMI-OPEN"

    def test_semi_open_explain_says_what_the_rerake_did(self):
        db = build_population_db()
        sql = (
            "EXPLAIN ANALYZE SELECT SEMI-OPEN country, COUNT(*) AS n "
            "FROM P GROUP BY country"
        )

        def reweight_spans():
            return [
                span
                for span in db.execute(sql).trace["spans"]
                if span["name"] == "semi_open.reweight"
            ]

        (built,) = reweight_spans()
        assert (built["rows"], built["rows_assigned"], built["extended"]) == (100, 100, False)
        # The sample holds no AOL row, so M1 and M2 pull against each other:
        # the rake stalls (stall_window + 1 passes) at a misfit floor.
        assert (built["iterations"], built["converged"], built["stalled"]) == (9, False, True)
        assert 0.0 < built["max_relative_error"] < 1.0
        # Answered from the reweight cache: nothing raked, no span.
        assert reweight_spans() == []
        db.ingest_rows("S", [("FR", "AOL")] * 5)
        (extended,) = reweight_spans()
        assert (extended["rows"], extended["rows_assigned"], extended["extended"]) == (
            105, 5, True,
        )
        assert db.cache_stats()["cell_assignments"] == {
            "built": 1, "extended": 1, "size": 1,
        }
        # Span and counters only: the notes are pickled with the weights.
        notes = " ".join(db.execute(sql.removeprefix("EXPLAIN ANALYZE ")).notes)
        assert "assign" not in notes and "extend" not in notes

    def test_open_explain_records_generator_and_stop_reason(self):
        db = build_population_db()
        result = db.execute(
            "EXPLAIN ANALYZE SELECT OPEN country, email, COUNT(*) AS n "
            "FROM P GROUP BY country, email"
        )
        meta = result.trace["meta"]
        assert meta["generator"]["name"] == "ipf-synth"
        assert meta["open"]["repetitions_used"] == result.repetitions_used
        assert meta["open"]["stop_reason"]
        fit_spans = [
            span for span in result.trace["spans"] if span["name"] == "open.fit"
        ]
        assert len(fit_spans) == 1

    def test_open_explain_says_what_the_mswg_fit_did(self):
        db = build_population_db(
            generator_factory=lambda: MswgGenerator(
                MswgConfig(
                    hidden_layers=1, hidden_units=8, num_projections=4,
                    batch_size=50, epochs=3,
                )
            )
        )
        sql = "EXPLAIN ANALYZE SELECT OPEN country, COUNT(*) AS n FROM P GROUP BY country"
        (fit_span,) = [
            span for span in db.execute(sql).trace["spans"] if span["name"] == "open.fit"
        ]
        # 100 sample rows at batch 50: two steps an epoch; two distinct rows
        # in a four-wide one-hot space (2 <= 2**4): the GEMM.
        assert fit_span["generator"] == "mswg"
        assert (fit_span["steps"], fit_span["epochs"]) == (6, 3)
        assert (fit_span["unique_sample_rows"], fit_span["nearest"]) == (2, "gemm")
        # The second statement is answered from the cached model: no fit.
        assert all(span["name"] != "open.fit" for span in db.execute(sql).trace["spans"])

    @pytest.mark.parametrize(
        "open_kwargs",
        [{}, {"tolerance": 0.05, "min_repetitions": 2, "chunk_repetitions": 2}],
        ids=["default", "tolerance"],
    )
    def test_open_explain_logs_chunk_half_widths(self, open_kwargs):
        db = build_population_db(**open_kwargs)
        result = db.execute(
            "EXPLAIN ANALYZE SELECT OPEN country, email, COUNT(*) AS n "
            "FROM P GROUP BY country, email"
        )
        meta = result.trace["meta"]
        chunks = meta["open_chunks"]
        assert chunks, "every OPEN aggregate logs per-chunk telemetry"
        if not open_kwargs:
            # Nothing to stop on: the whole budget is one chunk, and its
            # CI width is the answer's (four repetitions: finite).
            assert [(c["rep_start"], c["rep_stop"]) for c in chunks] == [(0, 4)]
            assert np.isfinite(chunks[0]["max_rel_ci_half_width"])
        for chunk in chunks:
            assert chunk["rep_stop"] > chunk["rep_start"]
            assert chunk["max_rel_ci_half_width"] is None or (
                chunk["max_rel_ci_half_width"] >= 0.0
            )
        assert meta["open"]["repetitions_used"] == chunks[-1]["rep_stop"]
        generate_spans = [
            span
            for span in result.trace["spans"]
            if span["name"] == "open.generate"
        ]
        assert len(generate_spans) == len(chunks)


class TestRegistryViewsOfEngineCounters:
    def test_cache_stats_match_registry_snapshot(self):
        db = build_closed_db()
        sql = "SELECT CLOSED name, SUM(n) AS t FROM T GROUP BY name"
        db.execute(sql)
        db.execute(sql)
        stats = db.engine.cache_stats()
        snapshot = db.engine.metrics.snapshot()
        assert snapshot['mosaic_cache_hits{cache="plans"}'] == (
            stats["plans"]["hits"]
        )
        assert snapshot['mosaic_cache_size{cache="statements"}'] == (
            stats["statements"]["size"]
        )
        assert snapshot["mosaic_open_adaptive_runs_total"] == (
            stats["open_adaptive"]["runs"]
        )

    def test_execution_stats_keys_stable(self):
        db = build_closed_db()
        execution = db.engine.cache_stats()["execution"]
        # Append-only contract: the seed keys survive, worker_crashes adds.
        for key in (
            "workers",
            "worker_restarts",
            "worker_crashes",
            "parallel_batches",
            "local_batches",
            "tasks_dispatched",
            "plan_fallbacks",
            "pool_busy",
            "segments_shared",
            "segment_reuses",
            "segment_evictions",
            "live_segments",
        ):
            assert key in execution
