"""Benchmark suites writing one CSV row per (instance, method) pair.

Columns, in order: instance, n, k, param, method, result, optimum, ratio,
wall_time_s, peak_state.  result is the feasibility verdict or the color
count.  Quality rows always fill optimum, the exact 1-MCIS color count from
the f = 1 vector DP (fbis_dp.max_colors), and ratio = result / optimum.  Wall
times are medians of `reps` runs of the solve call alone (parsing, generation
and the optimum excluded), each on a fresh copy of the instance, so that every
run builds the instance's sorted view and masks anew.  Rows are appended and
flushed as they complete.  `out` is a text stream, or a function that opens
one; a suite calls it only after its GenSpecs (and, for quality, the
local-search guard) have passed their checks, so a refused run opens nothing.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable, TextIO

from .fbis_dp import max_colors, solve_fbis_dp
from .gen import GenSpec, generate
from .mcis import (
    NEIGHBOR_BUDGET,
    LocalSearchConfig,
    _guard_budget,
    greedy_mcis,
    local_search_mcis,
)
from .model import ColoredIntervalInstance

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
    def __init__(self, out: TextIO | Callable[[], TextIO] | None):
        self.rows: list[BenchRow] = []
        self.writer = None
        self.out = out = out() if callable(out) else out
        if out is not None:
            self.writer = csv.writer(out)
            self.writer.writerow(BENCH_FIELDS)
            out.flush()

    def add(self, row: BenchRow) -> None:
        self.rows.append(row)
        if self.writer is not None:
            self.writer.writerow(row.as_csv())
            self.out.flush()


def _timed(solve, inst: ColoredIntervalInstance, reps: int):
    """Median wall time of reps calls of solve, each on a copy of inst made
    outside the timer; returns (result of last call, seconds)."""
    times = []
    result = None
    for _ in range(reps):
        copy = ColoredIntervalInstance.from_columns(
            inst.k, inst.lefts, inst.rights, inst.colors, inst.proper_flag
        )
        start = perf_counter()
        result = solve(copy)
        times.append(perf_counter() - start)
    return result, median(times)


def _quality_task(spec: GenSpec, b: int, reps: int) -> list[BenchRow]:
    inst = generate(spec)
    name = f"uniform-n{spec.n}-k{spec.k}-s{spec.seed}"
    optimum = max_colors(inst)
    rows = []
    greedy, greedy_time = _timed(greedy_mcis, inst, reps)
    local, local_time = _timed(
        lambda copy: local_search_mcis(copy, LocalSearchConfig(b=b)), inst, reps
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
    out: TextIO | Callable[[], TextIO] | None = None,
) -> list[BenchRow]:
    """Color-count quality of greedy and b-swap local search against the exact
    optimum on uniform-random instances."""
    # the specs check n and k, and the local-search guard n and b, before the
    # sink writes the CSV header
    specs = [GenSpec(n=n, k=k, seed=seed + i, model="uniform-random") for i in range(count)]
    _guard_budget(n, b, NEIGHBOR_BUDGET)
    sink = _RowSink(out)
    for spec in specs:
        for row in _quality_task(spec, b, reps):
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
    out: TextIO | Callable[[], TextIO] | None = None,
) -> list[BenchRow]:
    """Wall time of the vector DP on uniform-random instances of doubling size.

    The per-size instance is generated once; the solve call is timed reps
    times and the median reported.  Time should grow about linearly in n."""
    specs = [GenSpec(n=n, k=k, seed=seed + n, model="uniform-random") for n in sizes]
    sink = _RowSink(out)
    for spec in specs:
        inst = generate(spec)
        stats: dict = {}
        sol, seconds = _timed(lambda copy: solve_fbis_dp(copy, f, stats), inst, reps)
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
