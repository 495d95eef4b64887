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
from time import perf_counter

from . import bench as bench_mod
from .bds import canonicalize_bds, solve_fbds_brute
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


def _emit_solution(args, sol, f: int, payload: dict) -> None:
    """Write the verified solution and/or the JSON stats object."""
    text = serialize_solution(sol, f)
    if args.json:
        print(json.dumps(payload))
        if args.out:
            _write(args.out, text)
    elif args.out:
        _write(args.out, text)
        print(f"solution written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _emit_infeasible(args, payload: dict, message: str) -> int:
    if args.json:
        print(json.dumps(payload))
    else:
        print(message, file=sys.stderr)
    return EXIT_INFEASIBLE


def _cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))
    stats: dict = {}
    payload: dict = {
        "command": "solve",
        "problem": args.problem,
        "n": inst.n,
        "k": inst.k,
    }
    if args.problem == "bis":
        payload["method"] = args.method
        if args.maximize:
            start = perf_counter()
            best, sol = max_f_with_witness(inst, stats)
            payload.update(
                max_f=best,
                wall_time_s=perf_counter() - start,
                peak_states=stats.get("peak_states", 0),
            )
            if sol is None:
                payload["ids"] = []
                if args.json:
                    print(json.dumps(payload))
                else:
                    print(f"max f = {best}")
                return EXIT_OK
            payload["ids"] = sorted(sol.ids)
            _emit_solution(args, sol, best, payload)
            if not args.json and args.out is None:
                print(f"# max f = {best}", file=sys.stderr)
            return EXIT_OK
        solver = solve_fbis_dp if args.method == "dp" else solve_fbis_vc
        start = perf_counter()
        sol = solver(inst, args.f, stats)
        payload.update(f=args.f, wall_time_s=perf_counter() - start, **stats)
        if sol is None:
            return _emit_infeasible(args, payload, f"infeasible: no {args.f}-balanced independent set")
        payload["ids"] = sorted(sol.ids)
        _emit_solution(args, sol, args.f, payload)
        return EXIT_OK
    if args.problem == "mcis":
        payload["method"] = args.method
        start = perf_counter()
        if args.method == "greedy":
            sol = greedy_mcis(inst, stats)
        else:
            sol = local_search_mcis(
                inst, LocalSearchConfig(b=args.b, neighbor_budget=args.budget), stats
            )
        payload.update(wall_time_s=perf_counter() - start, **stats)
        payload["ids"] = sorted(sol.ids)
        _emit_solution(args, sol, 1, payload)
        return EXIT_OK
    # bds
    start = perf_counter()
    sol = solve_fbds_brute(inst, args.f, stats)
    payload.update(f=args.f, wall_time_s=perf_counter() - start, **stats)
    if sol is None:
        return _emit_infeasible(args, payload, f"infeasible: no {args.f}-balanced dominating set")
    payload["ids"] = sorted(sol.ids)
    _emit_solution(args, sol, args.f, payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    kind, f, ids = parse_solution(_read(args.solution))
    sol = solution_from_ids(inst, kind, ids)
    verdict = verify_solution(inst, sol, f)
    payload = {
        "command": "verify",
        "kind": kind,
        "f": f,
        "valid": verdict.valid,
        "reason": verdict.reason,
    }
    if verdict.distinct_colors is not None:
        payload["distinct_colors"] = verdict.distinct_colors
    if args.json:
        print(json.dumps(payload))
    elif verdict.valid:
        extra = (
            f" ({verdict.distinct_colors} colors)"
            if verdict.distinct_colors is not None
            else ""
        )
        print(f"valid {kind} f={f}{extra}")
    else:
        print(f"invalid: {verdict.reason}", file=sys.stderr)
    return EXIT_OK if verdict.valid else EXIT_INFEASIBLE


def _cmd_reduce(args) -> int:
    phi = parse_dimacs(_read(args.cnf))
    if args.target == "indset":
        inst, meta = reduce_indset(phi)
    else:
        inst, meta = reduce_domset(phi)
    _write(args.out, serialize_instance(inst))
    if args.meta:
        _write(args.meta, json.dumps(meta.to_json_dict(), indent=2) + "\n")
    if args.json:
        print(
            json.dumps(
                {
                    "command": "reduce",
                    "target": args.target,
                    "num_vars": phi.num_vars,
                    "num_clauses": len(phi.clauses),
                    "n": inst.n,
                    "k": inst.k,
                }
            )
        )
    return EXIT_OK


def _load_meta(path: str) -> GadgetMetadata:
    return GadgetMetadata.from_json_dict(json.loads(_read(path)))


def _cmd_decode(args) -> int:
    inst = parse_instance(_read(args.instance))
    meta = _load_meta(args.meta)
    kind, f, ids = parse_solution(_read(args.solution))
    sol = solution_from_ids(inst, kind, ids)
    if meta.kind == "indset":
        assignment = decode_indset(inst, meta, sol)
    else:
        assignment = decode_domset(inst, meta, sol)
    _write(args.out, serialize_assignment(assignment))
    return EXIT_OK


def _cmd_encode(args) -> int:
    inst = parse_instance(_read(args.instance))
    meta = _load_meta(args.meta)
    assignment = parse_assignment(_read(args.assignment))
    if meta.kind == "indset":
        sol = encode_indset_solution(inst, meta, assignment)
    else:
        sol = encode_domset_solution(inst, meta, assignment)
    _write(args.out, serialize_solution(sol, 1))
    return EXIT_OK


def _cmd_canonicalize(args) -> int:
    inst = parse_instance(_read(args.instance))
    meta = _load_meta(args.meta)
    kind, f, ids = parse_solution(_read(args.solution))
    sol = solution_from_ids(inst, kind, ids)
    out = canonicalize_bds(inst, meta, sol)
    _write(args.out, serialize_solution(out, 1))
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = GenSpec(
        n=args.n, k=args.k, seed=args.seed, model=args.model, f_target=args.f_target
    )
    inst = generate(spec)
    _write(args.out, serialize_instance(inst))
    return EXIT_OK


def _cmd_bench(args) -> int:
    out = None
    opened = None
    if args.out:
        opened = open(args.out, "w", newline="", encoding="utf-8")
        out = opened
    else:
        out = sys.stdout
    try:
        if args.suite == "quality":
            rows = bench_mod.run_quality_suite(
                count=args.count,
                n=args.n,
                k=args.k,
                b=args.b,
                seed=args.seed,
                reps=args.reps,
                jobs=args.jobs,
                out=out,
            )
            summary = bench_mod.quality_summary(rows)
            report = {"command": "bench", "suite": "quality", "mean_ratio": summary}
        else:
            sizes = (
                tuple(int(s) for s in args.sizes.split(","))
                if args.sizes
                else bench_mod.DP_SCALING_SIZES
            )
            rows = bench_mod.run_dp_scaling_suite(
                sizes=sizes, k=args.k, f=args.f, seed=args.seed, reps=args.reps, out=out
            )
            report = {
                "command": "bench",
                "suite": "dp-scaling",
                "doubling_ratios": bench_mod.doubling_ratios(rows),
            }
        if args.json:
            print(json.dumps(report), file=sys.stderr if args.out is None else sys.stdout)
        else:
            print(json.dumps(report), file=sys.stderr)
    finally:
        if opened is not None:
            opened.close()
    return EXIT_OK


def _cmd_oracle(args) -> int:
    budget = OracleBudget(
        max_subsets=args.max_subsets, max_assignments=args.max_assignments
    )
    if args.problem == "sat":
        phi = parse_dimacs(_read(args.input))
        assignment = oracle_sat(phi, budget)
        payload = {
            "command": "oracle",
            "problem": "sat",
            "satisfiable": assignment is not None,
        }
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
    if args.problem == "bis":
        sol = oracle_fbis(inst, args.f, budget)
        f = args.f
    elif args.problem == "bds":
        sol = oracle_fbds(inst, args.f, budget)
        f = args.f
    else:
        sol = oracle_mcis(inst, budget)
        f = 1
        payload["colors"] = sol.distinct_colors
    if sol is None:
        payload["feasible"] = False
        return _emit_infeasible(args, payload, "infeasible")
    payload["feasible"] = True
    payload["ids"] = sorted(sol.ids)
    _emit_solution(args, sol, f, payload)
    return EXIT_OK


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

    decode = sub.add_parser("decode", help="solution of a reduced instance -> assignment")
    decode.add_argument("--instance", required=True)
    decode.add_argument("--meta", required=True)
    decode.add_argument("--solution", required=True)
    decode.add_argument("--out")
    decode.set_defaults(func=_cmd_decode)

    encode = sub.add_parser("encode", help="satisfying assignment -> solution file")
    encode.add_argument("--instance", required=True)
    encode.add_argument("--meta", required=True)
    encode.add_argument("--assignment", required=True)
    encode.add_argument("--out")
    encode.set_defaults(func=_cmd_encode)

    canon = sub.add_parser("canonicalize", help="rewrite a domset solution to canonical form")
    canon.add_argument("--instance", required=True)
    canon.add_argument("--meta", required=True)
    canon.add_argument("--solution", required=True)
    canon.add_argument("--out")
    canon.set_defaults(func=_cmd_canonicalize)

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
        if args.command == "bench" and args.k is None:
            args.k = 5 if args.suite == "quality" else 4
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
