"""Command line front end.

Exit codes: 0 success (solution found / verification passed), 2 infeasible or
invalid, 1 runtime error (bad input, guard refusal, exceeded budget), 64 usage
error.  ``--json`` switches stdout to a single machine-readable object with
the documented fields.  Every solution produced here is re-verified against
the instance before it is written anywhere.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from time import perf_counter

from . import bench as bench_mod
from .bds import solve_fbds_brute
from .cnf import parse_dimacs
from .fbis_dp import max_f_with_witness, solve_fbis_dp
from .fbis_vc import solve_fbis_vc
from .gen import MODELS, GenSpec, generate
from .mcis import LocalSearchConfig, greedy_mcis, local_search_mcis
from .model import (
    FormatError,
    GuardError,
    VerificationError,
    parse_assignment,
    parse_instance,
    parse_solution,
    serialize_assignment,
    serialize_instance,
    serialize_solution,
    solution_from_ids,
    verify_solution,
)
from .oracle import OracleBudget, oracle_fbds, oracle_fbis, oracle_mcis, oracle_sat
from .reductions import (
    GadgetMetadata,
    canonicalize_bds,
    decode_domset,
    decode_indset,
    encode_domset_solution,
    encode_indset_solution,
    reduce_domset,
    reduce_indset,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _finish(args, payload: dict, sol, f: int, infeasible_message: str) -> int:
    """Write the verified solution and/or the JSON payload, or report infeasible."""
    if sol is None:
        if args.json:
            print(json.dumps(payload))
        else:
            print(infeasible_message, file=sys.stderr)
        return EXIT_INFEASIBLE
    payload["ids"] = sorted(sol.ids)
    text = serialize_solution(sol, f)
    if args.json:
        print(json.dumps(payload))
    if args.out:
        _write(args.out, text)
        if not args.json:
            print(f"solution written to {args.out}", file=sys.stderr)
    elif not args.json:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))
    payload: dict = {"command": "solve", "problem": args.problem, "n": inst.n, "k": inst.k}
    if args.problem != "bds":
        payload["method"] = args.method
    if args.problem == "bis" and args.maximize:
        return _solve_max_f(args, inst, payload)
    # Solvers are looked up by their module-global names when the command runs.
    if args.problem == "mcis":
        f = 1
        if args.method == "greedy":
            solve = lambda stats: greedy_mcis(inst, stats)
        else:
            cfg = LocalSearchConfig(b=args.b, neighbor_budget=args.budget)
            solve = lambda stats: local_search_mcis(inst, cfg, stats)
    else:
        if args.problem == "bds":
            solver = solve_fbds_brute
        else:
            solver = solve_fbis_dp if args.method == "dp" else solve_fbis_vc
        payload["f"] = f = args.f
        solve = lambda stats: solver(inst, f, stats)
    stats: dict = {}
    start = perf_counter()
    sol = solve(stats)
    payload.update(wall_time_s=perf_counter() - start, **stats)
    noun = "dominating" if args.problem == "bds" else "independent"
    return _finish(args, payload, sol, f, f"infeasible: no {f}-balanced {noun} set")


def _solve_max_f(args, inst, payload: dict) -> int:
    """solve bis --maximize: the largest feasible f, with its witness if f >= 1."""
    stats: dict = {}
    start = perf_counter()
    best, sol = max_f_with_witness(inst, stats)
    payload.update(
        max_f=best, wall_time_s=perf_counter() - start, peak_states=stats.get("peak_states", 0)
    )
    if sol is None:
        payload["ids"] = []
        print(json.dumps(payload) if args.json else f"max f = {best}")
        return EXIT_OK
    _finish(args, payload, sol, best, "")
    if not args.json and args.out is None:
        print(f"# max f = {best}", file=sys.stderr)
    return EXIT_OK


def _load_solution(inst, path: str):
    """(SolutionSet, f) of a solution file over inst."""
    kind, f, ids = parse_solution(_read(path))
    return solution_from_ids(inst, kind, ids), f


def _cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    sol, f = _load_solution(inst, args.solution)
    verdict = verify_solution(inst, sol, f)
    colors = verdict.distinct_colors
    payload = {
        "command": "verify",
        "kind": sol.kind,
        "f": f,
        "valid": verdict.valid,
        "reason": verdict.reason,
    }
    if colors is not None:
        payload["distinct_colors"] = colors
    if args.json:
        print(json.dumps(payload))
    elif verdict.valid:
        print(f"valid {sol.kind} f={f}" + (f" ({colors} colors)" if colors is not None else ""))
    else:
        print(f"invalid: {verdict.reason}", file=sys.stderr)
    return EXIT_OK if verdict.valid else EXIT_INFEASIBLE


def _cmd_reduce(args) -> int:
    phi = parse_dimacs(_read(args.cnf))
    inst, meta = (reduce_indset if args.target == "indset" else reduce_domset)(phi)
    _write(args.out, serialize_instance(inst))
    if args.meta:
        _write(args.meta, json.dumps(meta.to_json_dict(), indent=2) + "\n")
    if args.json:
        print(json.dumps({
            "command": "reduce",
            "target": args.target,
            "num_vars": phi.num_vars,
            "num_clauses": len(phi.clauses),
            "n": inst.n,
            "k": inst.k,
        }))
    return EXIT_OK


def _cmd_bridge(args) -> int:
    """decode, encode and canonicalize: read the instance and the metadata,
    then the command's solution or assignment, and write the result."""
    inst = parse_instance(_read(args.instance))
    meta = GadgetMetadata.from_json_dict(json.loads(_read(args.meta)))
    indset = meta.kind == "indset"
    if args.command == "encode":
        assignment = parse_assignment(_read(args.assignment))
        encode = encode_indset_solution if indset else encode_domset_solution
        text = serialize_solution(encode(inst, meta, assignment), 1)
    else:
        sol = _load_solution(inst, args.solution)[0]
        if args.command == "decode":
            decode = decode_indset if indset else decode_domset
            text = serialize_assignment(decode(inst, meta, sol))
        else:
            text = serialize_solution(canonicalize_bds(inst, meta, sol), 1)
    _write(args.out, text)
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n, k=args.k, seed=args.seed, model=args.model, f_target=args.f_target
    )
    inst = generate(spec)
    _write(args.out, serialize_instance(inst))
    return EXIT_OK


def _cmd_bench(args) -> int:
    report = {"command": "bench", "suite": args.suite}
    if args.out:
        sink = open(args.out, "w", newline="", encoding="utf-8")
    else:
        sink = nullcontext(sys.stdout)
    with sink as out:
        if args.suite == "quality":
            rows = bench_mod.run_quality_suite(
                count=args.count, n=args.n, k=5 if args.k is None else args.k, b=args.b,
                seed=args.seed, reps=args.reps, jobs=args.jobs, out=out,
            )
            report["mean_ratio"] = bench_mod.quality_summary(rows)
        else:
            sizes = (
                tuple(int(s) for s in args.sizes.split(","))
                if args.sizes
                else bench_mod.DP_SCALING_SIZES
            )
            rows = bench_mod.run_dp_scaling_suite(
                sizes=sizes, k=4 if args.k is None else args.k, f=args.f,
                seed=args.seed, reps=args.reps, out=out,
            )
            report["doubling_ratios"] = bench_mod.doubling_ratios(rows)
    report_to_stdout = args.json and args.out is not None
    print(json.dumps(report), file=sys.stdout if report_to_stdout else sys.stderr)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    budget = OracleBudget(max_subsets=args.max_subsets, max_assignments=args.max_assignments)
    if args.problem == "sat":
        phi = parse_dimacs(_read(args.input))
        assignment = oracle_sat(phi, budget)
        payload = {"command": "oracle", "problem": "sat", "satisfiable": assignment is not None}
        if assignment is not None:
            payload["assignment"] = {f"x{v}": int(val) for v, val in assignment.items()}
        if args.json:
            print(json.dumps(payload))
        elif assignment is None:
            print("unsatisfiable", file=sys.stderr)
        else:
            sys.stdout.write(serialize_assignment(assignment))
        return EXIT_OK if assignment is not None else EXIT_INFEASIBLE
    inst = parse_instance(_read(args.input))
    payload = {"command": "oracle", "problem": args.problem, "n": inst.n, "k": inst.k}
    if args.problem == "mcis":
        sol, f = oracle_mcis(inst, budget), 1
        payload["colors"] = sol.distinct_colors
    else:
        search = oracle_fbis if args.problem == "bis" else oracle_fbds
        sol, f = search(inst, args.f, budget), args.f
    payload["feasible"] = sol is not None
    return _finish(args, payload, sol, f, "infeasible")


def build_parser() -> _Parser:
    parser = _Parser(prog="balint", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on an instance file")
    solve_sub = solve.add_subparsers(dest="problem", required=True)
    bis = solve_sub.add_parser("bis", help="f-balanced independent set")
    bis.add_argument("--f", type=int, default=1)
    bis.add_argument("--method", choices=("dp", "vc"), default="dp")
    bis.add_argument("--maximize", action="store_true", help="report the largest feasible f")
    mcis = solve_sub.add_parser("mcis", help="most colors, one interval per color")
    mcis.add_argument("--method", choices=("greedy", "local"), default="greedy")
    mcis.add_argument("--b", type=int, default=2, help="swap radius for --method local")
    mcis.add_argument("--budget", type=int, default=10**9)
    bds = solve_sub.add_parser("bds", help="f-balanced dominating set")
    bds.add_argument("--f", type=int, default=1)
    for p in (bis, mcis, bds):
        p.add_argument("--out", help="write the solution file here")
        p.add_argument("--json", action="store_true")
        p.add_argument("instance", help="instance file, or - for stdin")
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="check a solution file against an instance")
    verify.add_argument("--solution", required=True)
    verify.add_argument("--json", action="store_true")
    verify.add_argument("instance")
    verify.set_defaults(func=_cmd_verify)

    reduce_p = sub.add_parser("reduce", help="reduce a DIMACS CNF to an instance")
    reduce_p.add_argument("target", choices=("indset", "domset"))
    reduce_p.add_argument("--cnf", required=True, help="DIMACS file, or - for stdin")
    reduce_p.add_argument("--out", help="instance file destination")
    reduce_p.add_argument("--meta", help="gadget metadata JSON destination")
    reduce_p.add_argument("--json", action="store_true")
    reduce_p.set_defaults(func=_cmd_reduce)

    for name, help, source in (
        ("decode", "solution of a reduced instance -> assignment", "--solution"),
        ("encode", "satisfying assignment -> solution file", "--assignment"),
        ("canonicalize", "rewrite a domset solution to canonical form", "--solution"),
    ):
        bridge = sub.add_parser(name, help=help)
        for flag in ("--instance", "--meta", source):
            bridge.add_argument(flag, required=True)
        bridge.add_argument("--out")
        bridge.set_defaults(func=_cmd_bridge)

    gen = sub.add_parser("gen", help="generate a seeded instance")
    gen.add_argument("--model", choices=MODELS, default="uniform-random")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--f-target", type=int, default=None, dest="f_target")
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    bench = sub.add_parser("bench", help="run a benchmark suite, writing CSV rows")
    bench.add_argument("--suite", choices=("quality", "dp-scaling"), required=True)
    bench.add_argument("--out", help="CSV destination (default stdout)")
    bench.add_argument("--count", type=int, default=100, help="quality: instances")
    bench.add_argument("--n", type=int, default=16)
    bench.add_argument("--k", type=int, default=None)
    bench.add_argument("--f", type=int, default=2)
    bench.add_argument("--b", type=int, default=2)
    bench.add_argument("--sizes", help="dp-scaling: comma-separated n values")
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=_cmd_bench)

    oracle = sub.add_parser("oracle", help="exhaustive reference solvers (dev tool)")
    oracle.add_argument("problem", choices=("bis", "mcis", "bds", "sat"))
    oracle.add_argument("--dev", action="store_true", help="required; oracles are test tools")
    oracle.add_argument("--f", type=int, default=1)
    oracle.add_argument("--max-subsets", type=int, default=1 << 24, dest="max_subsets")
    oracle.add_argument(
        "--max-assignments", type=int, default=1 << 20, dest="max_assignments"
    )
    oracle.add_argument("--out")
    oracle.add_argument("--json", action="store_true")
    oracle.add_argument("input", help="instance file (or DIMACS for sat), - for stdin")
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def run_cli(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "oracle" and not args.dev:
            raise _UsageError("oracle is a dev tool; pass --dev to confirm")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        FormatError, GuardError, VerificationError, ValueError, OSError, json.JSONDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
