"""Tables for the README from the files that run.py leaves in perfbench/results.

    python3 perfbench/summarize.py runs 1-10 11-20   # end-to-end, two seed sets
    python3 perfbench/summarize.py trace 1           # layer shares, traced seed 1

`runs` prints, per workload, metric and set of seeds, the median, the
quartiles and their distance as a share of the median, as
statistics.quantiles(n=4) gives them, plus the failed share.  `trace` prints
each layer's share of the operations' time and of the probes' time, the
tracing overhead and the span coverage.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"
WORKLOADS = ("bis-dp", "bis-vc", "small-batch", "sat-roundtrip")


def _load(workload: str, seed: int, trace: int) -> dict:
    return json.loads((RESULTS / f"{workload}-s{seed}-t{trace}.json").read_text())


def _cell(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}] {(q3 - q1) / median:.3f}"


def runs(sets: list[range]) -> None:
    names = " | ".join(f"seeds {s.start}-{s.stop - 1}" for s in sets)
    print(f"| workload | metric | {names} |")
    print("|---|---|" + "---|" * len(sets))
    for workload in WORKLOADS:
        results = [[_load(workload, seed, 0) for seed in seeds] for seeds in sets]
        for name in results[0][0]["metrics"]:
            cells = [_cell([r["metrics"][name]["value"] for r in rs]) for rs in results]
            print(f"| {workload} | {name} | " + " | ".join(cells) + " |")
        shares = [sorted({r["failed"] / r["attempted"] for r in rs}) for rs in results]
        print(f"| {workload} | failed share | " + " | ".join(map(str, shares)) + " |")


def trace(seed: int) -> None:
    for workload in WORKLOADS:
        spans = [json.loads(line) for line in
                 (RESULTS / f"{workload}-s{seed}-t1.spans.jsonl").read_text().splitlines()]
        kind = {sid: name for sid, name, _, _, parent, _ in spans if parent is None}
        totals: dict[tuple[str, str], float] = {}
        for sid, name, start, end, parent, _ in spans:
            key = (kind[sid], "") if parent is None else (kind[parent], name)
            totals[key] = totals.get(key, 0.0) + end - start
        metrics = _load(workload, seed, 1)["metrics"]
        print(f"\n{workload} (seed {seed}): overhead "
              f"{metrics['trace.overhead_pct']['value']:+.1f}%, span coverage "
              f"{metrics['trace.span_coverage']['value']:.4f} "
              f"(min {metrics['trace.span_coverage_min']['value']:.4f})")
        for root in ("op", "probe"):
            whole = totals.get((root, ""), 0.0)
            layers = sorted(((t, name) for (r, name), t in totals.items() if r == root and name),
                            reverse=True)
            shares = ", ".join(f"{name} {100 * t / whole:.1f}%" for t, name in layers)
            print(f"  {root}: {shares}")


def main(argv: list[str]) -> None:
    mode, *args = argv
    if mode == "runs":
        bounds = [[int(x) for x in arg.split("-")] for arg in args]
        runs([range(first, last + 1) for first, last in bounds])
    else:
        trace(int(args[0]))


if __name__ == "__main__":
    main(sys.argv[1:])
