from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from balint import parse_assignment, parse_instance, parse_solution
from balint.cli import run_cli
from helpers import EARLIER_DOMSET_METADATA

INSTANCE = "n=3 k=2\n0 0 2 1\n1 1 3 2\n2 4 5 2\n"
DIMACS = "p cnf 2 2\n1 2 0\n-1 2 0\n"
TPTN_DIMACS = "p cnf 2 4\n1 2 0\n1 2 0\n-1 -2 0\n-1 -2 0\n"


@pytest.fixture()
def inst_file(tmp_path: Path) -> str:
    path = tmp_path / "inst.txt"
    path.write_text(INSTANCE)
    return str(path)


def run(argv, capsys):
    code = run_cli(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_bis_writes_solution(inst_file, capsys, tmp_path):
    out_path = tmp_path / "sol.txt"
    code, out, _ = run(["solve", "bis", "--f", "1", inst_file, "--out", str(out_path)], capsys)
    assert code == 0
    kind, f, ids = parse_solution(out_path.read_text())
    assert (kind, f, ids) == ("BIS", 1, frozenset({0, 2}))


def test_solve_bis_json_stats(inst_file, capsys):
    code, out, _ = run(["solve", "bis", "--f", "1", "--json", inst_file], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["method"] == "dp"
    assert payload["feasible"] is True
    assert payload["ids"] == [0, 2]
    assert payload["wall_time_s"] >= 0
    assert payload["peak_states"] >= 1


def test_solve_bis_vc_method(inst_file, capsys):
    code, out, _ = run(
        ["solve", "bis", "--f", "1", "--method", "vc", "--json", inst_file], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "vc"
    assert payload["ids"] == [0, 2]
    assert "tau" in payload


def test_solve_bis_infeasible_exit_two(inst_file, capsys):
    code, out, err = run(["solve", "bis", "--f", "2", inst_file], capsys)
    assert code == 2
    assert "infeasible" in out + err


def test_solve_bis_maximize(inst_file, capsys):
    code, out, _ = run(["solve", "bis", "--maximize", "--json", inst_file], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["max_f"] == 1
    assert payload["ids"] == [0, 2]


def test_maximize_with_vc_method_is_a_usage_error(inst_file, capsys):
    code, out, err = run(
        ["solve", "bis", "--maximize", "--method", "vc", "--json", inst_file], capsys
    )
    assert (code, out) == (64, "")
    assert err == "usage error: --maximize uses the vector DP, not --method vc\n"


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(INSTANCE))
    code, out, _ = run(["solve", "bis", "--f", "1", "-"], capsys)
    assert code == 0
    assert parse_solution(out)[2] == frozenset({0, 2})


def test_solve_mcis_local(inst_file, capsys):
    code, out, _ = run(
        ["solve", "mcis", "--method", "local", "--b", "2", "--json", inst_file], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["colors"] == 2
    assert payload["rounds"] <= 2


def test_solve_bds(inst_file, capsys):
    code, out, _ = run(["solve", "bds", "--f", "1", "--json", inst_file], capsys)
    assert code == 0
    assert json.loads(out)["feasible"] is True


def test_verify_valid_and_invalid(inst_file, capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("kind=BIS f=1\n0\n2\n")
    code, out, _ = run(["verify", "--solution", str(good), inst_file], capsys)
    assert code == 0
    assert "valid" in out
    bad = tmp_path / "bad.txt"
    bad.write_text("kind=BIS f=1\n0\n1\n")
    code, out, err = run(["verify", "--solution", str(bad), inst_file], capsys)
    assert code == 2
    assert "intersect" in out + err


def test_verify_json_payload(inst_file, capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("kind=BIS f=1\n0\n2\n")
    code, out, _ = run(["verify", "--solution", str(good), "--json", inst_file], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["kind"] == "BIS"


def test_reduce_solve_decode_encode_pipeline(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(DIMACS)
    red = tmp_path / "red.txt"
    meta = tmp_path / "meta.json"
    code, _, _ = run(
        ["reduce", "indset", "--cnf", str(cnf), "--out", str(red), "--meta", str(meta)],
        capsys,
    )
    assert code == 0
    inst = parse_instance(red.read_text())
    assert inst.n == 4 and inst.k == 2
    assert json.loads(meta.read_text())["kind"] == "indset"

    sol = tmp_path / "sol.txt"
    code, _, _ = run(["solve", "bis", "--f", "1", str(red), "--out", str(sol)], capsys)
    assert code == 0

    code, out, _ = run(
        [
            "decode",
            "--instance", str(red),
            "--meta", str(meta),
            "--solution", str(sol),
        ],
        capsys,
    )
    assert code == 0
    assignment = parse_assignment(out)
    assert assignment[2] is True  # x2 satisfies both clauses of the fixture

    asg = tmp_path / "asg.txt"
    asg.write_text("x1=0\nx2=1\n")
    enc = tmp_path / "enc.txt"
    code, _, _ = run(
        [
            "encode",
            "--instance", str(red),
            "--meta", str(meta),
            "--assignment", str(asg),
            "--out", str(enc),
        ],
        capsys,
    )
    assert code == 0
    assert parse_solution(enc.read_text())[0] == "BIS"


def test_reduce_domset_and_canonicalize(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(TPTN_DIMACS)
    red = tmp_path / "red.txt"
    meta = tmp_path / "meta.json"
    code, _, _ = run(
        ["reduce", "domset", "--cnf", str(cnf), "--out", str(red), "--meta", str(meta)],
        capsys,
    )
    assert code == 0
    sol = tmp_path / "sol.txt"
    code, _, _ = run(["solve", "bds", "--f", "1", str(red), "--out", str(sol)], capsys)
    assert code == 0
    canon = tmp_path / "canon.txt"
    code, _, _ = run(
        [
            "canonicalize",
            "--instance", str(red),
            "--meta", str(meta),
            "--solution", str(sol),
            "--out", str(canon),
        ],
        capsys,
    )
    assert code == 0
    code, out, _ = run(
        [
            "decode",
            "--instance", str(red),
            "--meta", str(meta),
            "--solution", str(canon),
        ],
        capsys,
    )
    assert code == 0
    assignment = parse_assignment(out)
    assert assignment[1] != assignment[2]  # the fixture forces opposite values


def test_gen_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run(
            [
                "gen",
                "--model", "uniform-random",
                "--n", "8",
                "--k", "3",
                "--seed", "5",
                "--out", str(path),
            ],
            capsys,
        )
        assert code == 0
    assert a.read_text() == b.read_text()
    assert parse_instance(a.read_text()).n == 8


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--f-target", "-1"], "error: need f_target >= 0\n"),
        (["--model", "proper-unit", "--f-target", "3"],
         "error: f_target applies only to uniform-random, not proper-unit\n"),
    ],
)
def test_gen_refuses_an_f_target_it_would_ignore(capsys, extra, message):
    code, out, err = run(["gen", "--n", "8", "--k", "3", *extra], capsys)
    assert (code, out, err) == (1, "", message)


def test_bench_quality_csv(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code, out, _ = run(
        [
            "bench",
            "--suite", "quality",
            "--count", "2",
            "--n", "10",
            "--reps", "1",
            "--out", str(out_csv),
            "--json",
        ],
        capsys,
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("instance,n,k,param,method")
    assert len(lines) == 5
    report = json.loads(out)
    assert report["suite"] == "quality"
    assert "greedy" in report["mean_ratio"]


def test_bench_dp_scaling_custom_sizes(tmp_path, capsys):
    out_csv = tmp_path / "scale.csv"
    code, out, _ = run(
        [
            "bench",
            "--suite", "dp-scaling",
            "--sizes", "32,64",
            "--reps", "1",
            "--out", str(out_csv),
            "--json",
        ],
        capsys,
    )
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 3
    report = json.loads(out)
    assert report["suite"] == "dp-scaling"
    assert len(report["doubling_ratios"]) == 1


@pytest.mark.parametrize(
    "suite_args",
    [
        ["--suite", "quality", "--count", "1", "--n", "8", "--k", "0", "--reps", "1"],
        ["--suite", "dp-scaling", "--sizes", "32", "--k", "0", "--reps", "1"],
    ],
)
def test_refused_bench_leaves_out_file_alone(tmp_path, capsys, suite_args):
    _assert_refusal_leaves_out_alone(
        tmp_path, capsys, suite_args, "error: need n >= 0 and k >= 1\n"
    )


def test_local_search_guard_refusal_leaves_out_file_alone(tmp_path, capsys):
    # n = 178 passes the GenSpec check; the b = 2 neighbor budget refuses it
    _assert_refusal_leaves_out_alone(
        tmp_path,
        capsys,
        ["--suite", "quality", "--count", "2", "--n", "178", "--reps", "1"],
        "error: n^(2b) = 1003875856 neighbor evaluations exceeds budget 1000000000\n",
    )


def test_optimum_guard_refusal_leaves_out_file_alone(tmp_path, capsys):
    # k = 27 passes the GenSpec check; max_colors' 2^k vector guard refuses it
    _assert_refusal_leaves_out_alone(
        tmp_path,
        capsys,
        ["--suite", "quality", "--count", "1", "--n", "8", "--k", "27", "--reps", "1"],
        "error: (f+1)^k = 134217728 vectors exceeds 67108864; "
        "parameter too large for the vector DP\n",
    )


def test_bench_without_rows_writes_the_header_alone(tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code, _, _ = run(
        ["bench", "--suite", "quality", "--count", "0", "--out", str(out_csv)], capsys
    )
    assert code == 0
    header = b"instance,n,k,param,method,result,optimum,ratio,wall_time_s,peak_state\r\n"
    assert out_csv.read_bytes() == header


@pytest.mark.parametrize(
    "suite_args, error",
    [
        (["--suite", "dp-scaling", "--sizes", "32", "--reps", "0"], "need reps >= 1, got 0"),
        (["--suite", "dp-scaling", "--sizes", "32", "--reps", "-1"], "need reps >= 1, got -1"),
        (["--suite", "quality", "--count", "2", "--reps", "0"], "need reps >= 1, got 0"),
        (["--suite", "dp-scaling", "--sizes", "32", "--f", "0", "--reps", "1"], "f must be >= 1"),
        (
            ["--suite", "dp-scaling", "--sizes", "32", "--f", "1000", "--reps", "1"],
            "(f+1)^k = 1004006004001 vectors exceeds 67108864; parameter too large for the vector DP",
        ),
    ],
)
def test_refused_reps_or_f_leaves_out_file_alone(tmp_path, capsys, suite_args, error):
    _assert_refusal_leaves_out_alone(tmp_path, capsys, suite_args, f"error: {error}\n")


@pytest.mark.parametrize(
    "suite_args, error",
    [
        (["--suite", "quality", "--count", "-3"], "--count: need an integer >= 0, got -3"),
        (["--suite", "dp-scaling", "--sizes", ""], "--sizes: '' is not a list of integers"),
        (["--suite", "dp-scaling", "--sizes", ","], "--sizes: ',' is not a list of integers"),
        (["--suite", "dp-scaling", "--sizes", "1,,2"], "--sizes: '1,,2' is not a list of integers"),
        (["--suite", "dp-scaling", "--sizes", "x"], "--sizes: 'x' is not a list of integers"),
    ],
)
def test_bench_usage_error_leaves_out_file_alone(tmp_path, capsys, suite_args, error):
    # refused before --out is opened: exit 64, and an existing file keeps its bytes
    usage = f"usage error: argument {error}\n"
    _assert_refusal_leaves_out_alone(tmp_path, capsys, suite_args, usage, exit_code=64)


def _assert_refusal_leaves_out_alone(tmp_path, capsys, suite_args, error, exit_code=1):
    fresh, existing = tmp_path / "fresh.csv", tmp_path / "existing.csv"
    existing.write_bytes(b"earlier rows\r\n")
    for target in (fresh, existing):
        code, out, err = run(["bench", *suite_args, "--out", str(target)], capsys)
        assert (code, out, err) == (exit_code, "", error)
    assert not fresh.exists()
    assert existing.read_bytes() == b"earlier rows\r\n"


def test_oracle_requires_dev_flag(inst_file, capsys):
    code, out, err = run(["oracle", "bis", "--f", "1", inst_file], capsys)
    assert code == 64
    assert "--dev" in out + err
    code, out, _ = run(["oracle", "--dev", "bis", "--f", "1", inst_file], capsys)
    assert code == 0
    assert parse_solution(out)[2] == frozenset({0, 2})


def test_oracle_sat_subcommand(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(DIMACS)
    code, out, _ = run(["oracle", "--dev", "sat", str(cnf)], capsys)
    assert code == 0
    assert parse_assignment(out) == {1: False, 2: True}


def test_oracle_unsat_exit_two(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, err = run(["oracle", "--dev", "sat", str(cnf)], capsys)
    assert code == 2


def test_usage_errors_exit_64(capsys):
    assert run(["nosuch"], capsys)[0] == 64
    assert run(["solve", "bis"], capsys)[0] == 64
    assert run([], capsys)[0] == 64


def test_bad_inputs_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert run(["solve", "bis", "--f", "1", missing], capsys)[0] == 1
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("not an instance\n")
    assert run(["solve", "bis", "--f", "1", str(garbage)], capsys)[0] == 1
    inst = tmp_path / "inst.txt"
    inst.write_text(INSTANCE)
    assert run(["solve", "bis", "--f", "0", str(inst)], capsys)[0] == 1


def test_mismatched_metadata_exits_one(inst_file, capsys, tmp_path):
    meta = tmp_path / "meta.json"
    meta.write_text('{"kind": "domset", "num_vars": 1, "clauses": []}')
    sol = tmp_path / "sol.txt"
    sol.write_text("kind=BDS f=1\n0\n2\n")
    code, out, err = run(
        ["canonicalize", "--instance", inst_file, "--meta", str(meta), "--solution", str(sol)],
        capsys,
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: metadata roles do not match")
    meta.write_text('{"kind": "domset", "roles": []}')
    code, _, err = run(
        ["decode", "--instance", inst_file, "--meta", str(meta), "--solution", str(sol)], capsys
    )
    assert code == 1
    assert err.startswith("error: metadata: num_vars")


def test_metadata_in_an_earlier_format_exits_one(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    red, meta, asg = tmp_path / "red.txt", tmp_path / "meta.json", tmp_path / "asg.txt"
    asg.write_text("x1=1\nx2=1\n")
    argv = ["encode", "--instance", str(red), "--meta", str(meta), "--assignment", str(asg)]
    assert run(["reduce", "domset", "--cnf", str(cnf), "--out", str(red), "--meta", str(meta)],
               capsys)[0] == 0
    # the formula is unsatisfiable, so the current file gets as far as the clauses
    assert run(argv, capsys)[::2] == (1, "error: assignment does not satisfy clause 4\n")
    meta.write_text(EARLIER_DOMSET_METADATA)
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: metadata: unknown key")


def test_encode_refuses_a_variable_index_below_one(tmp_path, capsys):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text(DIMACS)
    red, meta, asg = tmp_path / "red.txt", tmp_path / "meta.json", tmp_path / "asg.txt"
    assert run(["reduce", "indset", "--cnf", str(cnf), "--out", str(red), "--meta", str(meta)],
               capsys)[0] == 0
    argv = ["encode", "--instance", str(red), "--meta", str(meta), "--assignment", str(asg)]
    asg.write_text("x2=1\n")
    assert run(argv, capsys)[0] == 0
    for text, no in (("x2=1\nx0=1\n", 2), ("x-1=1\nx2=1\n", 1)):
        asg.write_text(text)
        assert run(argv, capsys) == (1, "", f"error: line {no}: variable index must be >= 1\n")


def test_huge_swap_radius_is_refused_quickly(inst_file, capsys):
    start = perf_counter()
    code, _, err = run(
        ["solve", "mcis", "--method", "local", "--b", "1000000000", inst_file], capsys
    )
    assert perf_counter() - start < 1
    assert code == 1
    assert err == "error: n^(2b) = 3^2000000000 neighbor evaluations exceeds budget 1000000000\n"


def test_failed_verification_exits_one(inst_file, capsys, monkeypatch):
    import balint.cli
    from balint import VerificationError

    def broken(inst, stats):
        raise VerificationError("MCIS solution with f=1 fails verification")

    monkeypatch.setattr(balint.cli, "greedy_mcis", broken)
    code, _, err = run(["solve", "mcis", inst_file], capsys)
    assert code == 1
    assert "fails verification" in err


def test_unverified_oracle_answer_exits_one(inst_file, capsys, monkeypatch):
    import balint.oracle
    from balint import solution_from_ids

    # intervals 0 = [0, 2] and 1 = [1, 3] clash; the oracle command imports
    # its solvers from balint.oracle when it runs
    monkeypatch.setattr(
        balint.oracle, "oracle_fbis", lambda inst, f, budget: solution_from_ids(inst, "BIS", [0, 1])
    )
    code, out, err = run(["oracle", "--dev", "bis", "--f", "1", inst_file], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: BIS solution with f=1 fails verification")


def test_installed_entry_point_matches_run_cli(tmp_path):
    inst = tmp_path / "inst.txt"
    inst.write_text(INSTANCE)
    proc = subprocess.run(
        [sys.executable, "-m", "balint.cli", "solve", "bis", "--f", "1", str(inst)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert parse_solution(proc.stdout)[2] == frozenset({0, 2})
