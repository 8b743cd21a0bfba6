"""Tests of the benchmark itself: span arithmetic, determinism, statistics,
and one quick end-to-end run that must honour the result contract."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parents[1]
for path in (str(REPO_ROOT / "src"), str(BENCH_DIR.parent)):
    if path not in sys.path:
        sys.path.insert(0, path)

from mosaicbench import inputs, layers, metrics, report, stats  # noqa: E402
from mosaicbench.trace import Tracer, budgets, self_times  # noqa: E402
from mosaicbench.workloads import ALL  # noqa: E402


# ---------------------------------------------------------------------- #
# Span self-time arithmetic
# ---------------------------------------------------------------------- #


def span(name, start, end, parent=-1):
    return [name, float(start), float(end), parent, None, None]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span("op:read", 0, 10),  # 0
        span("core", 1, 9, 0),  # 1
        span("parse", 1, 2, 1),  # 2
        span("execute", 3, 8, 1),  # 3
        span("kernel", 4, 7, 3),  # 4
    ]
    own, hidden, fanout = self_times(spans)
    assert own == [2.0, 2.0, 1.0, 2.0, 3.0]
    assert sum(own) == 10.0
    assert not any(hidden) and not fanout


def test_children_are_clipped_to_their_parent():
    # A child adopted across threads may overhang its parent by clock skew.
    spans = [span("op:read", 0, 10), span("late", 8, 12, 0)]
    own, _, _ = self_times(spans)
    assert own[0] == 8.0


def test_parallel_children_count_the_blocking_one_and_report_fanout():
    spans = [
        span("op:scatter", 0, 10),  # 0
        span("route", 1, 9, 0),  # 1
        span("call", 2, 5, 1),  # 2: finishes first -> hidden
        span("work", 2, 4, 2),  # 3: under the hidden call
        span("call", 3, 8, 1),  # 4: finishes last -> blocks the result
        span("merge", 8, 9, 1),  # 5
    ]
    own, hidden, fanout = self_times(spans)
    assert hidden == [False, False, True, True, False, False]
    # the overlap cluster covers [2, 8]; the blocking call covers [3, 8]
    assert fanout == {1: 1.0}
    assert own[1] == 8.0 - 6.0 - 1.0  # route minus cluster minus merge
    table = budgets(spans, lambda name: name)
    rows = table["scatter"]["rows"]
    assert rows["route.fanout"] == pytest.approx(1000.0)
    assert "work" not in rows  # hidden subtree is not in the budget
    assert sum(rows.values()) == pytest.approx(table["scatter"]["mean_ms"])


def test_budget_rows_sum_to_the_mean_operation_time():
    spans = [
        span("op:a", 0, 4),
        span("x", 1, 3, 0),
        span("op:a", 10, 16),
        span("x", 10, 12, 2),
        span("y", 12, 15, 2),
        span("orphan", 20, 21),  # belongs to no operation: not counted
    ]
    table = budgets(spans, lambda name: name)
    entry = table["a"]
    assert entry["ops"] == 2
    assert entry["mean_ms"] == pytest.approx(5000.0)
    assert entry["rows"] == {
        "unattributed": pytest.approx(1500.0),
        "x": pytest.approx(2000.0),
        "y": pytest.approx(1500.0),
    }


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import repro.core.engine as engine_module
    import repro.sql.parser as parser_module

    original = parser_module.parse_statement
    assert engine_module.parse_statement is original  # a from-import copy
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        assert parser_module.parse_statement is not original
        assert engine_module.parse_statement is parser_module.parse_statement
        # Installed but not enabled: calls pass straight through, unrecorded.
        parser_module.parse_statement("SELECT CLOSED COUNT(*) AS n FROM T")
        assert tracer.spans == []
        tracer.enabled = True
        handle = tracer.begin_op("parse")
        parser_module.parse_statement("SELECT CLOSED COUNT(*) AS n FROM T")
        tracer.end_op(handle, 0.0, 1.0)
        assert [s[0] for s in tracer.spans] == ["op:parse", "sql.parse"]
        assert tracer.spans[1][3] == 0  # parented to the operation
    finally:
        tracer.uninstall()
    assert parser_module.parse_statement is original
    assert engine_module.parse_statement is original


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


def test_percentile_edges():
    assert stats.percentile([7.0], 95) == 7.0
    assert stats.percentile([1, 2, 3, 4], 0) == 1.0
    assert stats.percentile([1, 2, 3, 4], 100) == 4.0
    assert stats.median([4, 1, 3, 2]) == 2.5
    assert stats.percentile(list(range(101)), 95) == 95.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_highest_supported_percentile_needs_ten_samples_beyond():
    assert stats.highest_supported_percentile(19) is None
    assert stats.highest_supported_percentile(20) == 50.0
    assert stats.highest_supported_percentile(100) == 90.0
    assert stats.highest_supported_percentile(200) == 95.0
    assert stats.highest_supported_percentile(1000) == 99.0
    assert stats.highest_supported_percentile(10_000) == 99.9


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 14.5)
    assert stats.spread([5.0]) == 0.0
    assert stats.spread([3.0, 3.0, 3.0]) == 0.0


def test_verdict_worse_no_worse_unresolved():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert stats.verdict(steady, [v * 1.02 for v in steady], "lower", 0.10)["verdict"] == "no worse"
    assert stats.verdict(steady, [v * 1.30 for v in steady], "lower", 0.10)["verdict"] == "worse"
    assert stats.verdict(steady, [v * 0.70 for v in steady], "higher", 0.10)["verdict"] == "worse"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert stats.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10)["verdict"] == "unresolved"
    # Wide spread, but every run of the change beats every run of the parent.
    assert stats.verdict(noisy, [v * 0.2 for v in noisy], "lower", 0.10)["verdict"] == "no worse"


def test_paired_verdict_judges_each_seed_against_itself():
    # Inputs differ a lot from seed to seed; the code did not change.
    by_seed = [0.10, 0.13, 0.09, 0.12, 0.11]
    same = stats.paired_verdict(by_seed, by_seed, "lower", 0.01)
    assert same["verdict"] == "no worse" and same["worsening"] == 0.0 and same["spread"] == 0.0
    # 3% worse on every seed: far inside the seed-to-seed spread, still caught.
    assert stats.paired_verdict(by_seed, [v * 1.03 for v in by_seed], "lower", 0.01)["verdict"] == "worse"
    assert stats.paired_verdict(by_seed, [v * 0.5 for v in by_seed], "lower", 0.01)["verdict"] == "no worse"
    with pytest.raises(ValueError):
        stats.paired_verdict(by_seed, by_seed[:-1], "lower", 0.01)


# ---------------------------------------------------------------------- #
# Comparing result files
# ---------------------------------------------------------------------- #


def _result_file(path, scale=1.0, error_scale=1.0, incorrect=(), drop=()):
    """Five closed_scan runs with every end-to-end metric at seed-dependent
    values; timings (lower is better) multiplied by ``scale``."""
    runs = []
    for seed in range(1, 6):
        if seed in drop:
            continue
        values = {}
        for name, unit, better, _ in metrics.END_TO_END:
            value = 10.0 + seed
            if name == "answer_rel_err_pct":
                value *= error_scale
            elif better == "lower":
                value *= scale
            values[name] = {"value": value, "unit": unit}
        bad = seed in incorrect
        runs.append(
            {
                "workload": "closed_scan", "seed": seed, "trace": 0,
                "result": {"correct": not bad, "attempted": 100, "failed": 7 if bad else 0, "metrics": values},
            }
        )
    path.write_text(json.dumps({"claim": None, "runs": runs}))
    return str(path)


def test_compare_counts_incorrect_missing_and_failed_runs_as_worse(tmp_path, capsys):
    parent = _result_file(tmp_path / "parent.json")
    assert report.compare_files(parent, _result_file(tmp_path / "same.json")) == 0
    assert "comparing the 5 seeds correct on both sides" in capsys.readouterr().out
    # Incorrect runs are not dropped in silence: they make the workload worse.
    bad = _result_file(tmp_path / "bad.json", incorrect=(2, 3))
    assert report.compare_files(parent, bad) == 1
    out = capsys.readouterr().out
    assert "runs with seeds [2, 3] are incorrect" in out
    assert "the change failed 14 operations, the parent 0" in out
    assert "comparing the 3 seeds correct on both sides" in out
    missing = _result_file(tmp_path / "missing.json", drop=(4,))
    assert report.compare_files(parent, missing) == 1
    assert "no run for seeds [4]" in capsys.readouterr().out


def test_compare_gates_native_cells_only_and_pairs_the_deterministic_ones(tmp_path, capsys):
    parent = _result_file(tmp_path / "parent.json")
    slower = _result_file(tmp_path / "slower.json", scale=1.5)
    assert report.compare_files(parent, slower) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if "%" in line]
    verdicts = {row[1]: " ".join(row[7:]) for row in rows}
    # closed_scan does not measure writes or OPEN queries itself: the
    # probe's cells are 50% slower too, and are not judged.
    assert set(verdicts) == {m for m, owners in metrics.NATIVE.items() if "closed_scan" in owners}
    assert verdicts["closed_p50_ms"] == "worse"
    assert verdicts["answer_rel_err_pct"] == "no worse"
    # A 3% loss of accuracy is inside the 25% the driver's bound allows
    # and the seed-to-seed spread hides; seed by seed it is caught.
    less_exact = _result_file(tmp_path / "less_exact.json", error_scale=1.03)
    assert report.compare_files(parent, less_exact) == 1
    assert report.load(parent)["closed_scan"][3]["correct"] is True


# ---------------------------------------------------------------------- #
# Seed determinism
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name", sorted(ALL))
def test_statement_stream_is_a_function_of_the_seed(name):
    module = ALL[name]
    first = module.statement_stream(11, module.QUICK, 30)
    again = module.statement_stream(11, module.QUICK, 30)
    other = module.statement_stream(12, module.QUICK, 30)
    assert first == again
    assert first != other
    assert all(isinstance(sql, str) and sql for _, sql in first)


def test_generated_rows_are_a_function_of_the_seed():
    first = inputs.make_flights(11, 6_000, 5.0, spare_rows=100)
    again = inputs.make_flights(11, 6_000, 5.0, spare_rows=100)
    other = inputs.make_flights(12, 6_000, 5.0, spare_rows=100)
    for part in ("population", "sample", "spare"):
        assert inputs.row_bytes(getattr(first, part)) == inputs.row_bytes(getattr(again, part))
        assert inputs.row_bytes(getattr(first, part)) != inputs.row_bytes(getattr(other, part))
    assert inputs.cold_literals(11) == inputs.cold_literals(11)
    assert inputs.cold_literals(11) != inputs.cold_literals(12)
    assert len(set(inputs.cold_literals(11))) == 4000


def test_brute_force_matches_hand_computed_groups():
    import numpy as np

    columns = {
        "carrier": np.asarray(["AA", "WN", "AA", "AS"], dtype=object),
        "distance": np.asarray([100, 200, 300, 400]),
        "taxi_out": np.asarray([5, 6, 7, 8]),
    }
    statement = inputs.ClosedStatement(
        sql="",
        group_by=("carrier",),
        aggregates=(("COUNT", None, "n"), ("AVG", "distance", "d"), ("MAX", "taxi_out", "hi")),
        mask=lambda c: c["distance"] < 400,
    )
    assert inputs.brute_force(statement, columns) == {
        ("AA",): (2.0, 200.0, 7.0),
        ("WN",): (1.0, 200.0, 6.0),
    }


# ---------------------------------------------------------------------- #
# The contract: BENCHMARK.json and one quick run
# ---------------------------------------------------------------------- #


def test_benchmark_json_agrees_with_the_metric_table():
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in declared["workloads"]] == list(metrics.WORKLOADS)
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(ALL)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in declared["per_layer"]
    ] == list(metrics.PER_LAYER)
    assert len(metrics.END_TO_END) == 15 and len(metrics.PER_LAYER) == 48
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_quick_closed_scan_run_emits_every_metric_and_passes_its_checks():
    done = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", "closed_scan", "--seed", "5", "--quick",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 150
    assert list(result["metrics"]) == [name for name, _, _, _ in metrics.END_TO_END]
    for name, unit, _, _ in metrics.END_TO_END:
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert entry["value"] > 0, name
    # Every metric is also printed by name with its unit.
    for name, unit, _, _ in metrics.END_TO_END:
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in done.stdout.splitlines()
        ), name
    # Nothing is left behind: no data directory of the run survives it.
    scratch = REPO_ROOT / ".bench_build" / "mosaicbench"
    assert not scratch.exists() or not list(scratch.glob("mosaic-data-*"))


# ---------------------------------------------------------------------- #
# Nothing keeps running after a run
# ---------------------------------------------------------------------- #

_SESSION_SURVIVORS = """
import os, subprocess, sys
run = subprocess.Popen(sys.argv[1:], start_new_session=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
_, err = run.communicate()
left = []
for pid in filter(str.isdigit, os.listdir("/proc")):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rpartition(")")[2].split()
    except OSError:
        continue
    if int(fields[3]) == run.pid:  # same session as the run
        left.append(int(pid))
print(run.returncode, left, err.decode()[-400:] if run.returncode else "")
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_traced_run_leaves_no_process_behind():
    # The traced closed_scan times shm.share_relation, which starts
    # multiprocessing's resource tracker: a child that would otherwise end
    # only some milliseconds after the benchmark has exited.
    done = subprocess.run(
        [
            sys.executable, "-c", _SESSION_SURVIVORS,
            sys.executable, str(BENCH_DIR / "run.py"),
            "--workload", "closed_scan", "--seed", "5", "--trace", "1", "--quick",
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert done.stdout.split()[:2] == ["0", "[]"], done.stdout


def test_stop_child_processes_ends_and_reaps_a_stray_child():
    from mosaicbench import procs

    stray = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        procs.stop_child_processes(grace_s=5.0)
        assert not procs._running(stray.pid)
    finally:
        stray.kill()
        stray.wait()
