"""``benchmarks/check_regressions.py``: the benchmark baseline gate binds.

The checker is a script, not a package module, so it is loaded by path.
Each test builds a two-row baseline and a fresh log in ``tmp_path`` and
asserts the exit status ``main`` returns for it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

CHECKER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "check_regressions.py"
_spec = importlib.util.spec_from_file_location("check_regressions", CHECKER_PATH)
checker = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checker)

LATENCY = {"experiment": "F-x", "op": "walk", "new_ms": 10.0}
THROUGHPUT = {"experiment": "F-y", "op": "annotate", "docs_per_s": 100.0}


def write_log(path: Path, rows: list[dict]) -> Path:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return path


def check(tmp_path: Path, fresh: list[dict], *flags: str) -> int:
    baseline = write_log(tmp_path / "baseline.jsonl", [LATENCY, THROUGHPUT])
    fresh_log = write_log(tmp_path / "fresh.jsonl", fresh)
    return checker.main(["--baseline", str(baseline), "--fresh", str(fresh_log), *flags])


def test_equal_rows_pass(tmp_path):
    assert check(tmp_path, [LATENCY, THROUGHPUT]) == 0


def test_latency_slowdown_beyond_threshold_fails(tmp_path):
    assert check(tmp_path, [{**LATENCY, "new_ms": 21.0}, THROUGHPUT]) == 1
    assert check(tmp_path, [{**LATENCY, "new_ms": 19.0}, THROUGHPUT]) == 0
    assert check(tmp_path, [{**LATENCY, "new_ms": 2.0}, THROUGHPUT]) == 0


def test_throughput_drop_beyond_threshold_fails(tmp_path):
    assert check(tmp_path, [LATENCY, {**THROUGHPUT, "docs_per_s": 40.0}]) == 1
    assert check(tmp_path, [LATENCY, {**THROUGHPUT, "docs_per_s": 60.0}]) == 0
    assert check(tmp_path, [LATENCY, {**THROUGHPUT, "docs_per_s": 500.0}]) == 0


def test_non_positive_timing_fails(tmp_path):
    assert check(tmp_path, [LATENCY, {**THROUGHPUT, "docs_per_s": 0.0}]) == 1
    assert check(tmp_path, [{**LATENCY, "new_ms": 0.0}, THROUGHPUT]) == 1


def test_missing_stage_fails_unless_allowed(tmp_path):
    assert check(tmp_path, [LATENCY]) == 1
    assert check(tmp_path, [LATENCY], "--allow-missing") == 0


def test_renamed_metric_counts_as_missing(tmp_path):
    renamed = {"experiment": "F-x", "op": "walk", "mean_query_us": 10.0}
    assert check(tmp_path, [renamed, THROUGHPUT]) == 1
    assert check(tmp_path, [renamed, THROUGHPUT], "--allow-missing") == 0


def test_overhead_budget_is_enforced(tmp_path):
    over = {"experiment": "F-z", "overhead_vs_bare": 1.2, "overhead_budget": 1.05}
    assert check(tmp_path, [LATENCY, THROUGHPUT, over]) == 1
    assert check(tmp_path, [LATENCY, THROUGHPUT, {**over, "overhead_vs_bare": 1.0}]) == 0


def test_corrupt_row_exits_nonzero(tmp_path):
    baseline = write_log(tmp_path / "baseline.jsonl", [LATENCY])
    fresh = tmp_path / "fresh.jsonl"
    fresh.write_text(json.dumps(LATENCY) + '\n{"experiment": "F-x", "new_ms":\n')
    result = subprocess.run(
        [sys.executable, str(CHECKER_PATH), "--baseline", str(baseline), "--fresh", str(fresh)],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode != 0
    assert "corrupt results row" in result.stderr


def test_fresh_log_is_required(tmp_path):
    baseline = write_log(tmp_path / "baseline.jsonl", [LATENCY])
    result = subprocess.run(
        [sys.executable, str(CHECKER_PATH), "--baseline", str(baseline)],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode != 0


def test_committed_baseline_parses_with_positive_timings():
    rows = checker.load_rows(checker.DEFAULT_BASELINE)
    latest = checker.latest_metrics(rows)
    assert latest
    assert all(value > 0 for _name, value, _lower in latest.values())
    assert checker.budget_violations(rows) == []
