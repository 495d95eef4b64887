from __future__ import annotations

import csv
import io

import pytest

from balint import GenSpec, GuardError, generate, oracle_mcis
from balint.bench import (
    BENCH_FIELDS,
    BenchRow,
    doubling_ratios,
    quality_summary,
    run_dp_scaling_suite,
    run_quality_suite,
)


def test_bench_row_csv_shape():
    row = BenchRow(
        instance="x", n=5, k=2, param="-", method="greedy", result="2",
        optimum="2", ratio="1.0000", wall_time_s=0.125, peak_state="",
    )
    cells = row.as_csv()
    assert len(cells) == len(BENCH_FIELDS)
    assert cells[8] == "0.125000"


def test_quality_suite_rows_and_csv():
    out = io.StringIO()
    rows = run_quality_suite(count=3, n=10, k=3, reps=1, out=out)
    assert len(rows) == 6  # greedy and local per instance
    reader = list(csv.reader(io.StringIO(out.getvalue())))
    assert reader[0] == list(BENCH_FIELDS)
    assert len(reader) == 7
    by_instance: dict[str, dict[str, int]] = {}
    for row in rows:
        assert row.method in ("greedy", "local")
        assert 0.0 < float(row.ratio) <= 1.0
        by_instance.setdefault(row.instance, {})[row.method] = int(row.result)
    for methods in by_instance.values():
        assert methods["local"] >= methods["greedy"]


def test_quality_suite_deterministic_results():
    a = run_quality_suite(count=2, n=10, k=3, reps=1)
    b = run_quality_suite(count=2, n=10, k=3, reps=1)
    stable = lambda rows: [
        (r.instance, r.method, r.result, r.optimum, r.ratio) for r in rows
    ]
    assert stable(a) == stable(b)


def test_quality_suite_optimum_matches_oracle():
    for row in run_quality_suite(count=4, n=12, k=4, reps=1):
        seed = int(row.instance.rsplit("-s", 1)[1])
        inst = generate(GenSpec(n=12, k=4, seed=seed))
        assert int(row.optimum) == oracle_mcis(inst).distinct_colors


def test_quality_suite_answers_past_the_oracle_budget():
    # the exhaustive oracle refuses this instance (42162120+ combinations)
    inst = generate(GenSpec(n=80, k=7, seed=0))
    with pytest.raises(GuardError):
        oracle_mcis(inst)
    rows = run_quality_suite(count=1, n=80, k=7, reps=1)
    assert [(r.method, r.result, r.optimum, r.ratio) for r in rows] == [
        ("greedy", "6", "7", "0.8571"),
        ("local", "7", "7", "1.0000"),
    ]


def test_quality_summary_mean():
    rows = [
        BenchRow("a", 1, 1, "-", "greedy", "1", "2", "0.5000"),
        BenchRow("b", 1, 1, "-", "greedy", "2", "2", "1.0000"),
        BenchRow("a", 1, 1, "b=2", "local", "2", "2", "1.0000"),
    ]
    summary = quality_summary(rows)
    assert summary == {"greedy": 0.75, "local": 1.0}


def test_dp_scaling_suite_shape():
    rows = run_dp_scaling_suite(sizes=(32, 64), k=3, f=1, reps=1)
    assert [row.n for row in rows] == [32, 64]
    for row in rows:
        assert row.method == "dp"
        assert row.result in ("feasible", "infeasible")
        assert row.wall_time_s > 0
        assert int(row.peak_state) >= 1
    assert len(doubling_ratios(rows)) == 1


def test_doubling_ratios_arithmetic():
    rows = [
        BenchRow("a", 1, 1, "", "dp", "feasible", wall_time_s=1.0),
        BenchRow("b", 2, 1, "", "dp", "feasible", wall_time_s=2.0),
        BenchRow("c", 4, 1, "", "dp", "feasible", wall_time_s=4.0),
    ]
    assert doubling_ratios(rows) == [2.0, 2.0]
