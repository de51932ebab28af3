#!/usr/bin/env python
"""Guard the benchmark trajectory: fail on >2x slowdown vs the baseline.

``results.jsonl`` is an append-only log of benchmark rows; the *last*
committed row per stage is the performance baseline this repo promises.
This script compares a fresh run's rows against that baseline and exits
non-zero when any previously benchmarked stage slowed down by more than
``--threshold`` (default 2x):

    BENCH_RESULTS=/tmp/fresh.jsonl python -m pytest benchmarks
    python benchmarks/check_regressions.py --fresh /tmp/fresh.jsonl

Stages missing from the baseline are new and pass by definition.  A
baseline stage *missing from the fresh run*, or timed there by a
different metric, fails the check: a silently deleted or renamed
benchmark is a coverage regression, not a pass (``--allow-missing``
overrides when a stage was intentionally retired).  Rows carrying an
``overhead_budget`` must honour it in both logs.

When a speedup legitimately shifts a baseline (a faster implementation
lands), re-run the benchmarks at scale=1.0 so fresh rows are appended to
``results.jsonl`` and commit the file — the newest row per stage becomes
the new baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).parent / "results.jsonl"

# Fields that discriminate stages within one experiment, in precedence
# order (a row may carry several; all present ones join the key).
STAGE_FIELDS = (
    "op",
    "index",
    "tier",
    "config",
    "backend",
    "change_fraction",
    "workers",
    "mode",
)

# Timing metrics, with their direction.  The first one present in a row
# is the stage's canonical metric; rows with none are quality-only and
# not regression-checked here.  Higher-is-better throughput rows (docs/s,
# queries/s) gate exactly like latency rows: a >threshold *drop* fails.
LOWER_IS_BETTER = (
    "new_ms",
    "mean_query_us",
    "cold_start_ms",
    "cold_cache_s_per_50_texts",
    "recovery_ms",
)
HIGHER_IS_BETTER = ("docs_per_s", "scored_per_s", "queries_per_s")


def budget_violations(rows: list[dict]) -> list[str]:
    """Rows carrying an ``overhead_budget`` promise an *absolute* bound:
    each of the row's ``overhead_vs_*`` fields must stay within it (the
    F-obs sampled-tracing row gates tracing overhead ≤5% this way)."""
    violations: list[str] = []
    for row in rows:
        budget = row.get("overhead_budget")
        if budget is None:
            continue
        overheads = {
            key: float(value)
            for key, value in row.items()
            if key.startswith("overhead_vs_")
        }
        if not overheads:
            violations.append(
                f"{' / '.join(stage_key(row))}: overhead_budget={budget} "
                "but no overhead_vs_* field to check"
            )
            continue
        for key, value in sorted(overheads.items()):
            if value > float(budget):
                violations.append(
                    f"{' / '.join(stage_key(row))}: {key}={value:g} "
                    f"exceeds budget {float(budget):g}"
                )
    return violations


def load_rows(path: Path) -> list[dict]:
    rows = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise SystemExit(f"{path}:{line_no}: corrupt results row: {exc}")
    return rows


def stage_key(row: dict) -> tuple:
    parts = [row.get("experiment", "?")]
    for field in STAGE_FIELDS:
        if field in row:
            parts.append(f"{field}={row[field]}")
    return tuple(parts)


def metric_of(row: dict) -> tuple[str, float, bool] | None:
    """(name, value, lower_is_better) of a row's timing metric, if any."""
    for name in LOWER_IS_BETTER:
        if name in row:
            return name, float(row[name]), True
    for name in HIGHER_IS_BETTER:
        if name in row:
            return name, float(row[name]), False
    return None


def latest_metrics(rows: list[dict]) -> dict[tuple, tuple[str, float, bool]]:
    """Last-seen timed metric per stage (later rows override earlier)."""
    latest: dict[tuple, tuple[str, float, bool]] = {}
    for row in rows:
        metric = metric_of(row)
        if metric is not None:
            latest[stage_key(row)] = metric
    return latest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help="committed results log (default: benchmarks/results.jsonl)",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="fresh run's results log",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="slowdown factor that fails the check (default: 2.0)",
    )
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="tolerate baseline stages absent from the fresh run "
        "(use when a benchmark was intentionally retired)",
    )
    args = parser.parse_args(argv)

    for path in (args.baseline, args.fresh):
        if not path.exists():
            print(f"results log not found: {path}", file=sys.stderr)
            return 1
    baseline_rows = load_rows(args.baseline)
    fresh_rows = load_rows(args.fresh)
    budget_failures = budget_violations(baseline_rows) + budget_violations(fresh_rows)
    baseline = latest_metrics(baseline_rows)
    if not baseline:
        print(f"no timed stages found in {args.baseline}", file=sys.stderr)
        return 1
    fresh = latest_metrics(fresh_rows)

    regressions: list[str] = []
    missing: list[str] = []
    for key, (base_name, base_value, lower_better) in sorted(baseline.items()):
        label = " / ".join(key)
        name, fresh_value, _ = fresh.get(key, (None, 0.0, True))
        if name != base_name:
            missing.append(label)
            marker = "missing" if args.allow_missing else "MISSING"
            found = "no fresh row" if name is None else f"fresh row times {name}"
            print(f"{marker:>10}  {label:<60} {base_name}: {found}")
            continue
        if min(base_value, fresh_value) <= 0:
            slowdown = math.inf  # a non-positive timing is no measurement
        else:
            slowdown = fresh_value / base_value if lower_better else base_value / fresh_value
        marker = "REGRESSION" if slowdown > args.threshold else "ok"
        print(
            f"{marker:>10}  {label:<60} {name}: "
            f"{base_value:g} -> {fresh_value:g}  ({slowdown:.2f}x)"
        )
        if slowdown > args.threshold:
            regressions.append(label)

    compared = len(baseline) - len(missing)
    print(f"\n{compared} stage(s) compared against {args.baseline} (fresh: {args.fresh})")
    failures = (
        ("baseline stage(s) disappeared from the fresh run "
         "(pass --allow-missing if intentionally retired)", [] if args.allow_missing else missing),
        (f"stage(s) slower than {args.threshold}x baseline", regressions),
        ("row(s) exceed their overhead budget", budget_failures),
    )
    for title, items in failures:
        if items:
            print(f"{len(items)} {title}:", file=sys.stderr)
            for item in items:
                print(f"  - {item}", file=sys.stderr)
    if any(items for _title, items in failures):
        return 1
    print("no regressions beyond threshold; all overhead budgets honoured")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
