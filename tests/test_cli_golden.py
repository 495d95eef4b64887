"""Byte-level golden record of the CLI: stdout, stderr, exit code and every
--out / --meta file for a fixed list of commands, run in order in one
directory (later commands read files that earlier ones wrote).

Timings are masked: the `wall_time_s` JSON field and CSV column, and the
`doubling_ratios` list.  The temporary directory prints as `<tmp>`.

Regenerate the record after an intended output change with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from balint.cli import run_cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

FILES = {
    "inst.txt": "n=3 k=2\n0 0 2 1\n1 1 3 2\n2 4 5 2\n",
    "empty_color.txt": "n=2 k=3\n0 0 1 1\n1 2 3 2\n",
    "six.txt": "n=6 k=3\n0 0 2 1\n1 1 4 2\n2 3 5 3\n3 6 7 1\n4 6 9 2\n5 8 10 3\n",
    "good.txt": "kind=BIS f=1\n0\n2\n",
    "bad.txt": "kind=BIS f=1\n0\n1\n",
    "mcis_sol.txt": "kind=MCIS f=1\n0\n",
    "phi.cnf": "p cnf 2 2\n1 2 0\n-1 2 0\n",
    "tptn.cnf": "p cnf 2 4\n1 2 0\n1 2 0\n-1 -2 0\n-1 -2 0\n",
    "unsat.cnf": "p cnf 1 2\n1 0\n-1 0\n",
    "asg.txt": "x1=0\nx2=1\n",
    "garbage.txt": "not an instance\n",
    "empty.txt": "n=0 k=0\n",
    "wide.txt": "n=256 k=2\n" + "".join(f"{i} {2 * i} {2 * i} {i % 2 + 1}\n" for i in range(256)),
}

CASES: list[list[str]] = [
    ["solve", "bis", "--f", "1", "inst.txt"],
    ["solve", "bis", "--f", "1", "--json", "inst.txt"],
    ["solve", "bis", "--f", "1", "--out", "sol_dp.txt", "inst.txt"],
    ["solve", "bis", "--f", "1", "--json", "--out", "sol_dp_json.txt", "inst.txt"],
    ["solve", "bis", "--f", "2", "inst.txt"],
    ["solve", "bis", "--f", "2", "--json", "inst.txt"],
    ["solve", "bis", "--method", "vc", "--f", "1", "inst.txt"],
    ["solve", "bis", "--method", "vc", "--f", "1", "--json", "six.txt"],
    ["solve", "bis", "--method", "vc", "--f", "2", "inst.txt"],
    ["solve", "bis", "--method", "vc", "--f", "2", "--json", "--out", "vc_none.txt", "inst.txt"],
    ["solve", "bis", "--maximize", "six.txt"],
    ["solve", "bis", "--maximize", "--json", "six.txt"],
    ["solve", "bis", "--maximize", "--out", "max.txt", "six.txt"],
    ["solve", "bis", "--maximize", "empty_color.txt"],
    ["solve", "bis", "--maximize", "--json", "empty_color.txt"],
    ["solve", "bis", "--maximize", "empty.txt"],
    ["solve", "bis", "--maximize", "--json", "empty.txt"],
    ["solve", "bis", "--f", "0", "inst.txt"],
    ["solve", "mcis", "inst.txt"],
    ["solve", "mcis", "--json", "six.txt"],
    ["solve", "mcis", "--method", "local", "--b", "2", "--json", "six.txt"],
    ["solve", "mcis", "--method", "local", "--out", "local.txt", "six.txt"],
    ["solve", "mcis", "--method", "local", "--b", "0", "inst.txt"],
    ["solve", "mcis", "--method", "local", "--budget", "1000", "six.txt"],
    ["solve", "mcis", "--method", "local", "wide.txt"],
    ["solve", "mcis", "--method", "local", "--b", "7000", "empty_color.txt"],
    ["solve", "bds", "--f", "1", "inst.txt"],
    ["solve", "bds", "--f", "1", "--json", "six.txt"],
    ["solve", "bds", "--f", "2", "inst.txt"],
    ["solve", "bds", "--f", "2", "--json", "inst.txt"],
    ["solve", "bds", "--f", "1", "--json", "--out", "bds.txt", "six.txt"],
    ["solve", "bis", "--f", "1", "garbage.txt"],
    ["solve", "bis", "--f", "1", "missing.txt"],
    ["verify", "--solution", "good.txt", "inst.txt"],
    ["verify", "--solution", "bad.txt", "inst.txt"],
    ["verify", "--solution", "good.txt", "--json", "inst.txt"],
    ["verify", "--solution", "bad.txt", "--json", "inst.txt"],
    ["verify", "--solution", "mcis_sol.txt", "inst.txt"],
    ["verify", "--solution", "sol_dp.txt", "--json", "inst.txt"],
    ["reduce", "indset", "--cnf", "phi.cnf"],
    ["reduce", "indset", "--cnf", "phi.cnf", "--out", "red.txt", "--meta", "meta.json", "--json"],
    ["reduce", "domset", "--cnf", "tptn.cnf", "--out", "dred.txt", "--meta", "dmeta.json"],
    ["reduce", "domset", "--cnf", "phi.cnf"],
    ["solve", "bis", "--f", "1", "--out", "rsol.txt", "red.txt"],
    ["decode", "--instance", "red.txt", "--meta", "meta.json", "--solution", "rsol.txt"],
    ["encode", "--instance", "red.txt", "--meta", "meta.json", "--assignment", "asg.txt",
     "--out", "enc.txt"],
    ["solve", "bds", "--f", "1", "--out", "dsol.txt", "dred.txt"],
    ["canonicalize", "--instance", "dred.txt", "--meta", "dmeta.json", "--solution",
     "dsol.txt", "--out", "canon.txt"],
    ["decode", "--instance", "dred.txt", "--meta", "dmeta.json", "--solution", "canon.txt"],
    ["encode", "--instance", "dred.txt", "--meta", "dmeta.json", "--assignment", "asg.txt"],
    ["decode", "--instance", "red.txt", "--meta", "missing.json", "--solution", "rsol.txt"],
    ["oracle", "bis", "--f", "1", "inst.txt"],
    ["oracle", "--dev", "bis", "--f", "1", "inst.txt"],
    ["oracle", "--dev", "bis", "--f", "1", "--json", "six.txt"],
    ["oracle", "--dev", "bis", "--f", "2", "inst.txt"],
    ["oracle", "--dev", "bis", "--f", "2", "--json", "inst.txt"],
    ["oracle", "--dev", "mcis", "inst.txt"],
    ["oracle", "--dev", "mcis", "--json", "--out", "omcis.txt", "six.txt"],
    ["oracle", "--dev", "bds", "--f", "1", "--json", "six.txt"],
    ["oracle", "--dev", "bds", "--f", "2", "inst.txt"],
    ["oracle", "--dev", "sat", "phi.cnf"],
    ["oracle", "--dev", "sat", "--json", "phi.cnf"],
    ["oracle", "--dev", "sat", "--out", "osat.txt", "phi.cnf"],
    ["oracle", "--dev", "sat", "unsat.cnf"],
    ["oracle", "--dev", "sat", "--json", "unsat.cnf"],
    ["gen", "--n", "8", "--k", "3", "--seed", "5"],
    ["gen", "--model", "proper-unit", "--n", "6", "--k", "2", "--seed", "1", "--out", "gen.txt"],
    ["bench", "--suite", "quality", "--count", "2", "--n", "8", "--reps", "1"],
    ["bench", "--suite", "quality", "--count", "2", "--n", "8", "--reps", "1", "--json"],
    ["bench", "--suite", "quality", "--count", "2", "--n", "8", "--reps", "1", "--json",
     "--out", "quality.csv"],
    ["bench", "--suite", "quality", "--count", "1", "--n", "8", "--k", "0", "--reps", "1"],
    ["bench", "--suite", "dp-scaling", "--sizes", "32,64", "--reps", "1", "--out",
     "scale.csv", "--json"],
    ["bench", "--suite", "dp-scaling", "--sizes", "32", "--k", "0", "--reps", "1"],
    ["nosuch"],
    ["solve", "bis"],
    [],
]

OUTPUT_FLAGS = ("--out", "--meta")


def _mask(text: str, tmp: str) -> str:
    text = text.replace(tmp, "<tmp>")
    text = re.sub(r'"wall_time_s": [-0-9.e]+', '"wall_time_s": "<t>"', text)
    text = re.sub(
        r'"doubling_ratios": \[[^\]]*\]',
        lambda m: re.sub(r"[-0-9.e]+(?=[,\]])", '"<t>"', m.group(0)),
        text,
    )
    if "instance,n,k,param,method" in text:
        lines = text.split("\n")
        for i, line in enumerate(lines):
            cells = line.split(",")
            if len(cells) == 10 and not line.startswith("instance,"):
                cells[8] = "<t>"
                lines[i] = ",".join(cells)
        text = "\n".join(lines)
    return text


def run_cases(tmp_path: Path) -> list[dict]:
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    tmp = str(tmp_path)
    results = []
    for case in CASES:
        argv = [str(tmp_path / a) if a.endswith((".txt", ".json", ".cnf", ".csv")) else a
                for a in case]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
        files = {}
        for flag, value in zip(case, case[1:]):
            if flag in OUTPUT_FLAGS:
                path = tmp_path / value
                files[value] = _mask(path.read_bytes().decode(), tmp) if path.exists() else None
        results.append({
            "argv": case,
            "code": code,
            "stdout": _mask(out.getvalue(), tmp),
            "stderr": _mask(err.getvalue(), tmp),
            "files": files,
        })
    return results


def test_cli_output_matches_golden_record(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = run_cases(tmp_path)
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for want, have in zip(expected, got):
        assert have == want, " ".join(want["argv"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(run_cases(Path(tmp)), indent=1) + "\n")
    sys.exit(0)
