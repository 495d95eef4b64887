"""The CLI's exit-code contract on generated input: every call returns 0, 1, 2
or 64 and never raises, whatever the instance, solution, metadata,
assignment and CNF files hold.  All sizes stay small."""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

from hypothesis import given, settings, strategies as st

from balint import (
    random_three_bounded,
    random_tptn_uniform3,
    reduce_domset,
    reduce_indset,
    serialize_dimacs,
    serialize_instance,
    serialize_solution,
    solve_fbds_brute,
    solve_fbis_dp,
)
from balint.cli import run_cli
from helpers import instances

EXIT_CODES = {0, 1, 2, 64}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.text("abcx0-1", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("0123kindtype", max_size=4), inner, max_size=3),
    max_leaves=6,
)
noise = st.text("0123456789 -=nkxpcfBISMDproper\n", max_size=40)


@st.composite
def reductions(draw):
    """(instance, metadata dict, DIMACS text, solution text or None) of a
    small reduced formula; the solution is the solver's when there is one."""
    rng = Random(draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        phi = random_three_bounded(draw(st.integers(2, 4)), rng, max_clauses=4)
        inst, meta = reduce_indset(phi)
        sol = solve_fbis_dp(inst, 1)
    else:
        phi = random_tptn_uniform3(3, rng)
        inst, meta = reduce_domset(phi)
        sol = solve_fbds_brute(inst, 1)
    solution = serialize_solution(sol, 1) if sol is not None else None
    return inst, meta.to_json_dict(), serialize_dimacs(phi), solution


@st.composite
def mutated(draw, meta: dict):
    """A metadata dict with up to three random edits at any depth."""
    meta = json.loads(json.dumps(meta))
    for _ in range(draw(st.integers(0, 3))):
        node = meta
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if not isinstance(node[key], (dict, list)) or not node[key]:
                break
            node = node[key]
        if not isinstance(node, (dict, list)) or not node:
            continue
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        action = draw(st.sampled_from(("delete", "replace", "rekey")))
        if action == "delete":
            del node[key]
        elif action == "replace":
            node[key] = draw(json_values)
        elif isinstance(node, dict):
            node[draw(st.text("0123456789-x", min_size=1, max_size=3))] = node.pop(key)
    return meta


@st.composite
def files(draw):
    """Contents for every input file a command may read; each part is swapped
    for another or for noise now and then."""
    sometimes = st.integers(0, 3).map(lambda x: x == 0)
    inst, meta, dimacs, solution = draw(reductions())
    if draw(sometimes):
        inst = draw(instances(max_n=6, max_k=3))
    if solution is None or draw(sometimes):
        ids = draw(st.lists(st.integers(-1, max(inst.n, 1)), max_size=6))
        kind = draw(st.sampled_from(("BIS", "MCIS", "BDS", "XYZ")))
        solution = f"kind={kind} f={draw(st.integers(0, 2))}\n" + "".join(f"{i}\n" for i in ids)
    assignment = "".join(
        f"x{v}={draw(st.sampled_from('01'))}\n" for v in range(draw(st.integers(0, 5)))
    )
    contents = {
        "inst.txt": serialize_instance(inst),
        "sol.txt": solution,
        "meta.json": json.dumps(draw(mutated(meta))),
        "asg.txt": assignment,
        "phi.cnf": dimacs,
    }
    if draw(sometimes):
        for name in draw(st.sets(st.sampled_from(sorted(contents)), min_size=1, max_size=2)):
            contents[name] = draw(noise)
    if draw(sometimes):
        contents["meta.json"] = json.dumps(draw(json_values))
    return contents


def commands():
    small = st.integers(-1, 3).map(str)
    bridge = st.sampled_from((
        ["decode", "--instance", "inst.txt", "--meta", "meta.json", "--solution", "sol.txt"],
        ["encode", "--instance", "inst.txt", "--meta", "meta.json", "--assignment", "asg.txt"],
        ["canonicalize", "--instance", "inst.txt", "--meta", "meta.json", "--solution", "sol.txt"],
    ))
    return st.one_of(
        bridge,
        bridge,
        st.builds(lambda m, f: ["solve", "bis", "--method", m, "--f", f, "inst.txt"],
                  st.sampled_from(("dp", "vc")), small),
        st.just(["solve", "bis", "--maximize", "--json", "inst.txt"]),
        st.builds(lambda m, b: ["solve", "mcis", "--method", m, "--b", b, "inst.txt"],
                  st.sampled_from(("greedy", "local")), small),
        st.builds(lambda f: ["solve", "bds", "--f", f, "--json", "inst.txt"], small),
        st.just(["verify", "--solution", "sol.txt", "inst.txt"]),
        st.builds(lambda t: ["reduce", t, "--cnf", "phi.cnf", "--meta", "out.json"],
                  st.sampled_from(("indset", "domset"))),
        st.builds(lambda p, f: ["oracle", "--dev", p, "--f", f, "--max-subsets", "4096",
                                "--max-assignments", "64",
                                "phi.cnf" if p == "sat" else "inst.txt"],
                  st.sampled_from(("bis", "mcis", "bds", "sat")), small),
        st.lists(st.sampled_from(("solve", "bis", "gen", "--f", "--n", "2", "-1", "inst.txt",
                                  "--json", "oracle", "bench", "--suite")), max_size=5),
    )


@settings(max_examples=400, deadline=None)
@given(contents=files(), argv=commands())
def test_cli_exit_codes_hold_on_generated_input(contents, argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in contents.items():
            Path(tmp, name).write_text(text)
        args = [str(Path(tmp, a)) if "." in a else a for a in argv]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run_cli(args)
    assert code in EXIT_CODES
