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
