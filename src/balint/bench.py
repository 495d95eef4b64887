"""Benchmark suites writing one CSV row per (instance, method) pair.

Columns, in order: instance, n, k, param, method, result, optimum, ratio,
wall_time_s, peak_state.  result is the feasibility verdict or the color
count; optimum and ratio are filled when the exhaustive oracle ran.  Wall
times are medians of `reps` runs of the solve call alone (parsing and
generation excluded).  Rows are appended and flushed as they complete.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import TextIO

from .fbis_dp import solve_fbis_dp
from .gen import GenSpec, generate
from .mcis import LocalSearchConfig, greedy_mcis, local_search_mcis
from .oracle import oracle_mcis

BENCH_FIELDS = (
    "instance",
    "n",
    "k",
    "param",
    "method",
    "result",
    "optimum",
    "ratio",
    "wall_time_s",
    "peak_state",
)

DP_SCALING_SIZES = tuple(2**e for e in range(10, 18))


@dataclass(frozen=True)
class BenchRow:
    instance: str
    n: int
    k: int
    param: str
    method: str
    result: str
    optimum: str = ""
    ratio: str = ""
    wall_time_s: float = 0.0
    peak_state: str = ""

    def as_csv(self) -> list[str]:
        return [
            self.instance,
            str(self.n),
            str(self.k),
            self.param,
            self.method,
            self.result,
            self.optimum,
            self.ratio,
            f"{self.wall_time_s:.6f}",
            self.peak_state,
        ]


class _RowSink:
    def __init__(self, out: TextIO | None):
        self.rows: list[BenchRow] = []
        self.writer = None
        self.out = out
        if out is not None:
            self.writer = csv.writer(out)
            self.writer.writerow(BENCH_FIELDS)
            out.flush()

    def add(self, row: BenchRow) -> None:
        self.rows.append(row)
        if self.writer is not None:
            self.writer.writerow(row.as_csv())
            self.out.flush()


def _timed(fn, reps: int):
    """Median wall time of reps calls; returns (result of last call, seconds)."""
    times = []
    result = None
    for _ in range(reps):
        start = perf_counter()
        result = fn()
        times.append(perf_counter() - start)
    return result, median(times)


def _quality_task(args) -> list[BenchRow]:
    spec, b, reps = args
    inst = generate(spec)
    name = f"uniform-n{spec.n}-k{spec.k}-s{spec.seed}"
    optimum = oracle_mcis(inst).distinct_colors
    rows = []
    greedy, greedy_time = _timed(lambda: greedy_mcis(inst), reps)
    local, local_time = _timed(
        lambda: local_search_mcis(inst, LocalSearchConfig(b=b)), reps
    )
    for method, sol, seconds, param in (
        ("greedy", greedy, greedy_time, "-"),
        ("local", local, local_time, f"b={b}"),
    ):
        ratio = sol.distinct_colors / optimum if optimum else 1.0
        rows.append(
            BenchRow(
                instance=name,
                n=inst.n,
                k=inst.k,
                param=param,
                method=method,
                result=str(sol.distinct_colors),
                optimum=str(optimum),
                ratio=f"{ratio:.4f}",
                wall_time_s=seconds,
            )
        )
    return rows


def run_quality_suite(
    count: int = 100,
    n: int = 16,
    k: int = 5,
    b: int = 2,
    seed: int = 0,
    reps: int = 5,
    jobs: int = 1,
    out: TextIO | None = None,
) -> list[BenchRow]:
    """Color-count quality of greedy and b-swap local search against the oracle
    optimum on small uniform-random instances."""
    # the specs check n and k before the sink writes the CSV header
    tasks = [
        (GenSpec(n=n, k=k, seed=seed + i, model="uniform-random"), b, reps)
        for i in range(count)
    ]
    sink = _RowSink(out)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for rows in pool.map(_quality_task, tasks):
                for row in rows:
                    sink.add(row)
    else:
        for task in tasks:
            for row in _quality_task(task):
                sink.add(row)
    return sink.rows


def quality_summary(rows: list[BenchRow]) -> dict[str, float]:
    """Mean solution/optimum ratio per method over quality-suite rows."""
    sums: dict[str, list[float]] = {}
    for row in rows:
        if row.ratio:
            sums.setdefault(row.method, []).append(float(row.ratio))
    return {method: sum(vals) / len(vals) for method, vals in sums.items()}


def run_dp_scaling_suite(
    sizes: tuple[int, ...] = DP_SCALING_SIZES,
    k: int = 4,
    f: int = 2,
    seed: int = 0,
    reps: int = 5,
    out: TextIO | None = None,
) -> list[BenchRow]:
    """Wall time of the vector DP on uniform-random instances of doubling size.

    The per-size instance is generated once; the solve call is timed reps
    times and the median reported.  Time should grow about linearly in n."""
    specs = [GenSpec(n=n, k=k, seed=seed + n, model="uniform-random") for n in sizes]
    sink = _RowSink(out)
    for spec in specs:
        inst = generate(spec)
        stats: dict = {}

        def solve():
            stats.clear()
            return solve_fbis_dp(inst, f, stats)

        sol, seconds = _timed(solve, reps)
        sink.add(
            BenchRow(
                instance=f"uniform-n{spec.n}-k{k}-s{spec.seed}",
                n=inst.n,
                k=inst.k,
                param=f"f={f}",
                method="dp",
                result="feasible" if sol is not None else "infeasible",
                wall_time_s=seconds,
                peak_state=str(stats.get("peak_states", "")),
            )
        )
    return sink.rows


def doubling_ratios(rows: list[BenchRow]) -> list[float]:
    """Wall-time ratios between successive rows of a scaling suite."""
    times = [row.wall_time_s for row in rows]
    return [b / a for a, b in zip(times, times[1:]) if a > 0]
