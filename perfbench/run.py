"""Benchmark for balint: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload bis-dp --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout, in one process and one thread, with
asserts on.  Set-up builds the workload's seeded inputs as text.  The timed
phase is a closed loop over whole rounds of the same operations until
``--seconds`` have passed; the set-up is rebuilt four more times between
rounds, spread over the run.  ``setup_s`` is the median time of ``import
balint`` in a fresh interpreter, timed next to each build, plus the median
build.  ``ops_per_s`` and ``latency_p50_ms`` come from each
operation's median latency over the rounds, so a burst of contention from
other processes moves them less.  Correctness checks run afterwards and are
not timed.  The last line of standard output is ``{"correct", "attempted",
"failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
rounds alternate between untraced and traced; traced rounds record a span
around every call into balint and then probe each operation's instance and
output outside the operation's span.  The metrics are then the per-layer
ones: each ``*_s`` is a layer's time per round (per set-up for set-up
layers), each counter is summed over one round, and ``trace.*`` sizes the
tracing itself.  Spans and the full result go to perfbench/results/.
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
SETUP_REPS = 5
# `import balint` happens once per process, so set-up times it in a fresh
# interpreter next to each build: a single import is as noisy as the host.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import balint; print(time.perf_counter() - t)"
)

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "peak_rss_mb": "MB"}
LAYER_TIMES = (
    "gen.generate",
    "model.serialize_instance",
    "model.parse_instance",
    "model.serialize_solution",
    "model.parse_solution",
    "model.solution_from_ids",
    "model.parse_assignment",
    "model.serialize_assignment",
    "model.build_sorted_view",
    "model.verify_solution",
    "fbis_dp.solve_fbis_dp",
    "fbis_vc.solve_fbis_vc",
    "fbis_vc.minimum_vertex_cover",
    "mcis.greedy_mcis",
    "mcis.local_search_mcis",
    "bds.solve_fbds_brute",
    "bds.domination_index",
    "cnf.parse_dimacs",
    "reductions.reduce_domset",
    "reductions.reduce_indset",
    "reductions.metadata_json",
    "reductions.encode_domset",
    "reductions.encode_indset",
    "reductions.decode_domset",
    "reductions.decode_indset",
)
COUNTERS = (
    "fbis_dp.peak_states",
    "fbis_vc.candidates_examined",
    "fbis_vc.tau_sum",
    "mcis.neighbors_evaluated",
    "mcis.rounds",
    "mcis.colors_greedy",
    "mcis.colors_local",
    "bds.combinations_tried",
    "bds.combinations_bound",
)
TRACE_METRICS = {
    "trace.overhead_pct": "%",
    "trace.span_coverage": "ratio",
    "trace.span_coverage_min": "ratio",
    "trace.spans_per_round": "count",
}
PER_LAYER = (
    {f"{name}_s": "s" for name in LAYER_TIMES}
    | {name: "count" for name in COUNTERS}
    | TRACE_METRICS
)


def untraced(name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans kept in memory as (name, start, end, parent, op) tuples; a span's
    id is its index.  Roots are "setup", "op" and "probe" spans."""

    def __init__(self):
        self.spans: list = []
        self.parent = None
        self.op = None

    def call(self, name, fn, *args):
        start = perf_counter()
        out = fn(*args)
        self.spans.append((name, start, perf_counter(), self.parent, self.op))
        return out

    def open(self, op) -> int:
        self.parent, self.op = len(self.spans), op
        self.spans.append(None)
        return self.parent

    def close(self, sid: int, name: str, start: float, end: float) -> None:
        self.spans[sid] = (name, start, end, None, self.op)
        self.parent = self.op = None

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                out.write(json.dumps([sid, name, start, end, parent, op]) + "\n")


class Run:
    """One run of a workload: set-up builds, rounds of operations, checks."""

    def __init__(self, workload, seed: int, tracer, probe):
        self.workload, self.seed, self.tracer, self.probe = workload, seed, tracer, probe
        self.imports: list[float] = []
        self.builds: list[float] = []
        self.items = self.build()
        n = len(self.items)
        self.latencies: list[list[float]] = []  # per round, per operation
        self.traced: list[bool] = []  # per round
        self.first: list = [None] * n  # each operation's first outputs
        self.errors = [0] * n  # attempts that raised or whose output changed
        self.messages: dict[int, str] = {}
        self.counters: dict[str, int] = {}

    def build(self):
        """Time `import balint` and build the inputs once more; a rebuild
        must equal the first build."""
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True, timeout=120)
        self.imports.append(float(probe.stdout))
        tracer = self.tracer
        sid = tracer.open(None) if tracer else None
        t0 = perf_counter()
        items = self.workload.make(tracer.call if tracer else untraced, self.seed)
        t1 = perf_counter()
        if tracer:
            tracer.close(sid, "setup", t0, t1)
        self.builds.append(t1 - t0)
        if len(self.builds) > 1 and items != self.items:
            raise RuntimeError("set-up is not deterministic")
        gc.collect()
        return items

    def rounds(self, seconds: float) -> None:
        """Whole rounds until `seconds` have passed, with the set-up rebuilds
        spread evenly over that time.  With a tracer, rounds alternate
        untraced / traced and stop after an even number."""
        began = perf_counter()
        while True:
            self.round(self.tracer is not None and len(self.latencies) % 2 == 1)
            elapsed = perf_counter() - began
            if len(self.builds) < SETUP_REPS and elapsed >= len(self.builds) * seconds / SETUP_REPS:
                self.build()
            if elapsed >= seconds and (self.tracer is None or len(self.latencies) % 2 == 0):
                break
        while len(self.builds) < SETUP_REPS:
            self.build()

    def round(self, traced: bool) -> None:
        tracer = self.tracer
        call = tracer.call if traced else untraced
        times = []
        for i, item in enumerate(self.items):
            sid = tracer.open(i) if traced else None
            t0 = perf_counter()
            try:
                outcome = self.workload.op(call, item)
            except Exception as exc:  # a failed operation is counted, not fatal
                t1 = perf_counter()
                outcome = None
                self.errors[i] += 1
                self.messages.setdefault(i, f"{type(exc).__name__}: {exc}")
            else:
                t1 = perf_counter()
            times.append(t1 - t0)
            if traced:
                tracer.close(sid, "op", t0, t1)
            if outcome is None:
                continue
            if self.first[i] is None:
                self.first[i] = outcome.outputs
            elif outcome.outputs != self.first[i]:
                self.errors[i] += 1
                self.messages.setdefault(i, "output differs between rounds")
            for key, value in outcome.counters.items():
                self.counters[key] = self.counters.get(key, 0) + value
            if traced:
                sid = tracer.open(i)
                p0 = perf_counter()
                self.probe(tracer.call, outcome.probes)
                tracer.close(sid, "probe", p0, perf_counter())
        self.latencies.append(times)
        self.traced.append(traced)

    def check(self) -> tuple[bool, int]:
        """(correct, failed): an operation whose output fails a check fails in
        every round; otherwise the attempts that raised or changed fail."""
        rejected = set()
        for i, item in enumerate(self.items):
            problems = self.workload.check(item, self.first[i]) if self.first[i] else []
            if problems:
                rejected.add(i)
                self.messages.setdefault(i, "; ".join(problems))
        rounds = len(self.latencies)
        failed = sum(rounds if i in rejected else e for i, e in enumerate(self.errors))
        return not rejected, failed

    def op_medians(self, traced: bool) -> list[float]:
        """Each operation's median latency over the (un)traced rounds."""
        rows = [t for t, flag in zip(self.latencies, self.traced) if flag == traced]
        return [statistics.median(column) for column in zip(*rows)]

    def end_to_end(self, peak_rss_mb: float) -> dict[str, float]:
        medians = self.op_medians(False)
        return {
            "setup_s": statistics.median(self.imports) + statistics.median(self.builds),
            "ops_per_s": len(medians) / sum(medians),
            "latency_p50_ms": 1000.0 * statistics.median(medians),
            "peak_rss_mb": peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        tracer = self.tracer
        traced_rounds = self.traced.count(True)
        roots = {sid: span[0] for sid, span in enumerate(tracer.spans) if span[3] is None}
        per_setup: dict[str, float] = {}
        per_round: dict[str, float] = {}
        op_time: dict[int, float] = {}
        child_time: dict[int, float] = {}
        for name, start, end, parent, op in tracer.spans:
            if parent is None:
                if name == "op":
                    op_time[op] = op_time.get(op, 0.0) + end - start
                continue
            bucket = per_setup if roots[parent] == "setup" else per_round
            bucket[name] = bucket.get(name, 0.0) + end - start
            if roots[parent] == "op":
                child_time[op] = child_time.get(op, 0.0) + end - start
        metrics = {
            f"{name}_s": per_setup.get(name, 0.0) / len(self.builds)
            + per_round.get(name, 0.0) / traced_rounds
            for name in LAYER_TIMES
        }
        for name in COUNTERS:
            metrics[name] = self.counters.get(name, 0) / len(self.latencies)
        metrics["trace.overhead_pct"] = 100.0 * (
            sum(self.op_medians(True)) / sum(self.op_medians(False)) - 1.0
        )
        metrics["trace.span_coverage"] = sum(child_time.values()) / sum(op_time.values())
        metrics["trace.span_coverage_min"] = min(
            child_time.get(op, 0.0) / op_time[op] for op in op_time
        )
        metrics["trace.spans_per_round"] = len(tracer.spans) / traced_rounds
        return metrics


def main(argv=None) -> int:
    if not (SRC / "balint" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'balint'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, probe

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run = Run(WORKLOADS[args.workload], args.seed, Tracer() if args.trace else None, probe)
    run.rounds(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct, failed = run.check()
    for i in sorted(run.messages):
        print(f"operation {i}: {run.messages[i]}", file=sys.stderr)

    if args.trace:
        metrics, units = run.per_layer(), PER_LAYER
    else:
        metrics, units = run.end_to_end(peak_rss_mb), END_TO_END
    result = {
        "correct": correct,
        "attempted": len(run.latencies) * len(run.items),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  setup_imports_s=run.imports, setup_builds_s=run.builds, traced_rounds=run.traced,
                  op_latency_s=run.latencies)
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail) + "\n", encoding="utf-8")
    if run.tracer:
        run.tracer.write(RESULTS / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
