"""Tests of the benchmark itself: each check rejects a corrupted output, the
exact references agree with balint's oracles, and the result line has the
declared form.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402
from balint import (  # noqa: E402
    GenSpec,
    LocalSearchConfig,
    OracleBudget,
    generate,
    greedy_mcis,
    local_search_mcis,
    oracle_fbds,
    oracle_fbis,
    oracle_mcis,
    parse_instance,
    serialize_instance,
    serialize_solution,
    solve_fbds_brute,
    solve_fbis_dp,
)

import checks  # noqa: E402
import planted  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import INFEASIBLE  # noqa: E402


def _instance(n=30, k=3, seed=4, model="uniform-random"):
    inst = generate(GenSpec(n=n, k=k, seed=seed, model=model))
    return inst, checks.parse_intervals(serialize_instance(inst))


def _selection(kind, f, ids) -> str:
    return "\n".join([f"kind={kind} f={f}", *map(str, ids)]) + "\n"


def _swap_one(iv, text, keep_color: bool) -> str:
    """Replace one selected id by an unselected one: of another color, or of
    the same color and meeting another selected interval."""
    kind, f, ids = checks.parse_selection(text)
    for pos, old in enumerate(ids):
        rest = ids[:pos] + ids[pos + 1 :]
        for new in range(iv.n):
            if new in ids or (iv.colors[new] == iv.colors[old]) != keep_color:
                continue
            if keep_color and not any(
                iv.rights[new] >= iv.lefts[j] and iv.rights[j] >= iv.lefts[new] for j in rest
            ):
                continue
            return _selection(kind, f, [new, *rest])
    raise AssertionError("no such swap")


def test_bis_check_accepts_solver_output_and_rejects_swapped_ids():
    inst, iv = _instance()
    text = serialize_solution(solve_fbis_dp(inst, 1), 1)
    assert checks.check_bis(iv, 1, text) == []
    assert checks.check_bis(iv, 1, _swap_one(iv, text, keep_color=False))
    assert checks.check_bis(iv, 1, _swap_one(iv, text, keep_color=True))


def test_bis_check_rejects_a_flipped_verdict():
    inst, iv = _instance()
    assert solve_fbis_dp(inst, 1) is not None
    assert checks.check_bis(iv, 1, INFEASIBLE)


def test_bis_vc_check_rejects_a_flipped_verdict():
    item = workloads.make_bis_vc(run.untraced, 1)[0]
    outcome = workloads.op_bis_vc(run.untraced, item)
    assert workloads.check_bis_vc(item, outcome.outputs) == []
    flipped = workloads.VcItem(item.text, item.f, item.alpha, not item.feasible)
    assert workloads.check_bis_vc(flipped, outcome.outputs)
    if item.feasible:
        assert workloads.check_bis_vc(item, (INFEASIBLE,))


# Two valid 1-balanced dominating sets, {0, 1} and {2, 3}; swapping any one
# member for the other interval of its color leaves an interval undominated.
BDS_TEXT = "n=4 k=2\n0 0 10 1\n1 12 14 2\n2 5 6 2\n3 11 12 1\n"


def test_bds_check_rejects_swapped_ids():
    iv = checks.parse_intervals(BDS_TEXT)
    text = serialize_solution(solve_fbds_brute(parse_instance(BDS_TEXT), 1), 1)
    assert checks.check_bds(iv, 1, text) == []
    assert checks.check_bds(iv, 1, _swap_one(iv, text, keep_color=False))
    kind, f, ids = checks.parse_selection(text)
    for pos, old in enumerate(ids):
        new = next(i for i in range(iv.n) if i != old and iv.colors[i] == iv.colors[old])
        swapped = ids[:pos] + [new] + ids[pos + 1 :]
        assert checks.check_bds(iv, 1, _selection(kind, f, swapped))
    assert checks.check_bds(iv, 1, INFEASIBLE)


def test_mcis_checks_reject_swaps_regressions_and_short_greedy():
    inst, iv = _instance(n=12, k=8, model="greedy-adversarial")
    greedy = serialize_solution(greedy_mcis(inst), 1)
    local = serialize_solution(local_search_mcis(inst, LocalSearchConfig(b=2)), 1)
    assert checks.check_mcis_pair(iv, greedy, local) == []
    assert checks.check_mcis_pair(iv, greedy, _swap_one(iv, local, keep_color=True))
    # local search reporting the greedy set while greedy reports the better one
    assert checks.check_mcis_pair(iv, local, greedy)
    # a greedy answer of a single color is below half of the optimum
    one = "\n".join(greedy.splitlines()[:2]) + "\n"
    assert checks.check_mcis_pair(iv, one, one)


def test_sat_checks_reject_a_negated_literal_and_wrong_counts():
    item = workloads.make_sat_roundtrip(run.untraced, 1)[0]
    outputs = workloads.op_sat_roundtrip(run.untraced, item).outputs
    assert workloads.check_sat_roundtrip(item, outputs) == []
    dom_text, dom_truth, ind_text, ind_truth = outputs
    truth = checks.parse_truth(ind_truth)
    # negate a variable that is the only true literal of some clause
    supports = [[l for l in c if truth[abs(l)] == (l > 0)] for c in item.indset.clauses]
    sole = next(abs(true[0]) for true in supports if len(true) == 1)
    value = int(truth[sole])
    negated = ind_truth.replace(f"x{sole}={value}\n", f"x{sole}={1 - value}\n")
    assert workloads.check_sat_roundtrip(item, (dom_text, dom_truth, ind_text, negated))
    # stretch the first leaf of the first gadget to meet the gadget's other leaf
    lines = dom_text.split("\n")
    id_, left, right, color = lines[1].split()
    lines[1] = f"{id_} {left} {int(right) + 2} {color}"
    stretched = "\n".join(lines)
    assert workloads.check_sat_roundtrip(item, (stretched, dom_truth, ind_text, ind_truth))
    # drop the last indset interval
    dropped = ind_text.rsplit("\n", 2)[0] + "\n"
    head, rest = dropped.split("\n", 1)
    n = int(head.split()[0][2:])
    dropped = head.replace(f"n={n}", f"n={n - 1}") + "\n" + rest
    assert workloads.check_sat_roundtrip(item, (dom_text, dom_truth, dropped, ind_truth))


@pytest.mark.parametrize("seed", range(40))
def test_references_agree_with_oracles(seed):
    inst, iv = _instance(n=12, k=3, seed=seed)
    budget = OracleBudget()
    for f in (1, 2):
        assert checks.bis_feasible(iv, f) == (oracle_fbis(inst, f, budget) is not None)
        assert checks.bds_feasible(iv, f) == (oracle_fbds(inst, f, budget) is not None)
    assert checks.mcis_optimum(iv) == oracle_mcis(inst, budget).distinct_colors
    pairs = sum(
        1 for i in range(iv.n) for j in range(i)
        if max(iv.lefts[i], iv.lefts[j]) <= min(iv.rights[i], iv.rights[j])
    )
    assert checks.edge_count(iv) == pairs


def test_planted_formulas_have_fixed_shape_and_are_satisfied():
    from balint import CnfFormula

    rng = Random(5)
    clauses, truth = planted.planted_tptn(30, rng)
    assert CnfFormula.build(30, clauses).flavor == "tptn"
    assert len(clauses) == 40 and checks.satisfies(clauses, truth)
    clauses, truth = planted.planted_three_bounded(100, 25, 25, rng)
    assert CnfFormula.build(100, clauses).flavor == "three_bounded"
    assert sorted(map(len, clauses)) == [2] * 25 + [3] * 25
    assert checks.satisfies(clauses, truth)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
def test_result_line(trace, capsys):
    assert run.main(["--workload", "small-batch", "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (1 + trace) * workloads.BATCH_INSTANCES
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
