"""The benchmark's workloads: seeded inputs, one operation, and its checks.

A workload's ``make(call, seed)`` builds the fixed list of operation inputs
as text; ``op(call, item)`` takes one input from text to output text through
balint's public functions, in the order the CLI calls them; ``check(item,
outputs)`` returns the errors that checks.py finds in the outputs.  Every
call into balint goes through ``call(name, fn, *args)``, so the traced run can
record a span per call; ``name`` is ``<module>.<function>``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from random import Random
from typing import Callable

from balint import (
    DominationIndex,
    GadgetMetadata,
    GenSpec,
    LocalSearchConfig,
    build_sorted_view,
    decode_domset,
    decode_indset,
    encode_domset_solution,
    encode_indset_solution,
    generate,
    greedy_mcis,
    local_search_mcis,
    minimum_vertex_cover,
    parse_assignment,
    parse_dimacs,
    parse_instance,
    parse_solution,
    reduce_domset,
    reduce_indset,
    serialize_assignment,
    serialize_instance,
    serialize_solution,
    solution_from_ids,
    solve_fbds_brute,
    solve_fbis_dp,
    solve_fbis_vc,
    verify_solution,
)

import checks
import planted
from checks import INFEASIBLE


@dataclass(frozen=True)
class Outcome:
    """What one operation returns: its output texts, its solver counters, and
    the (instance, [(solution, f)]) pairs the traced run probes."""

    outputs: tuple[str, ...]
    counters: dict[str, int]
    probes: list


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable
    op: Callable
    check: Callable


def _sub_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = Random(f"{name}/{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


def _emit(call, sol, f: int) -> str:
    if sol is None:
        return INFEASIBLE
    return call("model.serialize_solution", serialize_solution, sol, f)


def _probe(inst, *pairs) -> list:
    return [(inst, [(sol, f) for sol, f in pairs if sol is not None])]


# --- bis-dp: the (f,k) vector DP on large uniform instances ---------------

DP_INSTANCES, DP_N, DP_K, DP_F = 4, 16384, 4, 2


@dataclass(frozen=True)
class InstanceItem:
    text: str
    f: int = 1


def make_bis_dp(call, seed: int) -> list[InstanceItem]:
    items = []
    for sub in _sub_seeds("bis-dp", seed, DP_INSTANCES):
        inst = call("gen.generate", generate, GenSpec(n=DP_N, k=DP_K, seed=sub))
        items.append(InstanceItem(call("model.serialize_instance", serialize_instance, inst), DP_F))
    return items


def op_bis_dp(call, item: InstanceItem) -> Outcome:
    inst = call("model.parse_instance", parse_instance, item.text)
    stats: dict = {}
    sol = call("fbis_dp.solve_fbis_dp", solve_fbis_dp, inst, item.f, stats)
    return Outcome(
        (_emit(call, sol, item.f),),
        {"fbis_dp.peak_states": stats["peak_states"]},
        _probe(inst, (sol, item.f)),
    )


def check_bis_dp(item: InstanceItem, outputs) -> list[str]:
    return checks.check_bis(checks.parse_intervals(item.text), item.f, outputs[0])


# --- bis-vc: the 2^tau candidate scan on small proper-unit instances ------

VC_N, VC_K = 48, 4

# A round holds VC_FEASIBLE feasible and 68 infeasible instances, about the
# natural ratio.  I is the number of independent subsets of the greedy vertex
# cover: the candidates scanned on an infeasible instance.  It takes few
# values (products of small counts), so the infeasible picks are quotas per
# value of I: the shares of 5174 infeasible draws with 256 <= I < 4096
# (16000 draws of the stream "bis-vc/calibration"), rounded to 68, with two
# picks moved from 768 and two from 1024 to 1152: the median operation of a
# round is then an I = 1152 solve while up to 8 feasible solves outlast it
# (seeds 1-20 had 0 to 5).  A value short in the pool takes the nearest
# ones.  Feasible instances are picked at evenly spaced ranks of I.  Every
# seed thus gets nearly the same spread of cheap and costly solves, and the
# cap on I keeps any one solve short (uncapped draws reach I ~ 10^5 and 2 s).
# Set-up always makes VC_DRAWS draws, so its cost does not depend on the seed.
VC_INFEASIBLE = {
    256: 1, 288: 1, 384: 3, 512: 2, 576: 3, 768: 4, 864: 1, 1024: 2,
    1152: 10, 1536: 9, 1728: 4, 2048: 4, 2304: 10, 3072: 11, 3456: 3,
}
VC_FEASIBLE = 32
VC_MIN_COUNT, VC_MAX_COUNT = 2**8, 2**12
VC_DRAWS, VC_MAX_DRAWS = 1600, 50000


@dataclass(frozen=True)
class VcItem:
    text: str
    f: int
    alpha: int
    feasible: bool


def make_bis_vc(call, seed: int) -> list[VcItem]:
    rng = Random(f"bis-vc/{seed}")
    quotas = {True: VC_FEASIBLE, False: sum(VC_INFEASIBLE.values())}
    pools: dict[bool, list] = {True: [], False: []}
    for draw in range(VC_MAX_DRAWS):
        if draw >= VC_DRAWS and all(len(pools[v]) >= q for v, q in quotas.items()):
            break
        inst = call("gen.generate", generate,
                    GenSpec(n=VC_N, k=VC_K, seed=rng.getrandbits(32), model="proper-unit"))
        text = call("model.serialize_instance", serialize_instance, inst)
        iv = checks.parse_intervals(text)
        alpha = checks.alpha(iv)
        f = alpha // VC_K
        count = checks.cover_independent_subsets(iv)
        if f >= 1 and VC_MIN_COUNT <= count < VC_MAX_COUNT:
            feasible = checks.bis_feasible(iv, f)
            pools[feasible].append((count, draw, VcItem(text, f, alpha, feasible)))
    else:
        raise RuntimeError(f"bis-vc: too few instances after {VC_MAX_DRAWS} draws")
    pool = sorted(pools[True], key=lambda entry: entry[:2])
    picked = [pool[(2 * j + 1) * len(pool) // (2 * VC_FEASIBLE)] for j in range(VC_FEASIBLE)]
    pool = pools[False]
    for count, quota in VC_INFEASIBLE.items():
        pool.sort(key=lambda entry: (abs(math.log(entry[0] / count)), entry[1]))
        picked += pool[:quota]
        del pool[:quota]
    return [item for _, _, item in sorted(picked, key=lambda entry: entry[1])]


def op_bis_vc(call, item: VcItem) -> Outcome:
    inst = call("model.parse_instance", parse_instance, item.text)
    stats: dict = {}
    sol = call("fbis_vc.solve_fbis_vc", solve_fbis_vc, inst, item.f, stats)
    return Outcome(
        (_emit(call, sol, item.f),),
        {"fbis_vc.candidates_examined": stats["candidates_examined"],
         "fbis_vc.tau_sum": stats["tau"]},
        _probe(inst, (sol, item.f)),
    )


def check_bis_vc(item: VcItem, outputs) -> list[str]:
    iv = checks.parse_intervals(item.text)
    errors = checks.check_bis(iv, item.f, outputs[0])
    feasible = outputs[0] != INFEASIBLE
    if feasible != item.feasible:
        errors.append(f"verdict {feasible} disagrees with the exact reference")
    if (solve_fbis_dp(parse_instance(item.text), item.f) is not None) != feasible:
        errors.append(f"verdict {feasible} disagrees with solve_fbis_dp")
    if feasible and iv.k * item.f > item.alpha:
        errors.append(f"feasible although k*f = {iv.k * item.f} > alpha = {item.alpha}")
    return errors


# --- small-batch: every small-instance solver on many short inputs --------

BATCH_INSTANCES, BATCH_N, BATCH_K, BATCH_B = 400, 120, 5, 2


def make_small_batch(call, seed: int) -> list[InstanceItem]:
    items = []
    for sub in _sub_seeds("small-batch", seed, BATCH_INSTANCES):
        inst = call("gen.generate", generate, GenSpec(n=BATCH_N, k=BATCH_K, seed=sub))
        items.append(InstanceItem(call("model.serialize_instance", serialize_instance, inst)))
    return items


def op_small_batch(call, item: InstanceItem) -> Outcome:
    inst = call("model.parse_instance", parse_instance, item.text)
    g_stats: dict = {}
    greedy = call("mcis.greedy_mcis", greedy_mcis, inst, g_stats)
    greedy_text = call("model.serialize_solution", serialize_solution, greedy, 1)
    l_stats: dict = {}
    local = call("mcis.local_search_mcis", local_search_mcis, inst,
                 LocalSearchConfig(b=BATCH_B), l_stats)
    local_text = call("model.serialize_solution", serialize_solution, local, 1)
    b_stats: dict = {}
    bds = call("bds.solve_fbds_brute", solve_fbds_brute, inst, 1, b_stats)
    bds_text = _emit(call, bds, 1)
    d_stats: dict = {}
    bis = call("fbis_dp.solve_fbis_dp", solve_fbis_dp, inst, 1, d_stats)
    bis_text = _emit(call, bis, 1)
    return Outcome(
        (greedy_text, local_text, bds_text, bis_text),
        {
            "mcis.neighbors_evaluated": l_stats["neighbors_evaluated"],
            "mcis.rounds": l_stats["rounds"],
            "mcis.colors_greedy": g_stats["colors"],
            "mcis.colors_local": l_stats["colors"],
            "bds.combinations_tried": b_stats["combinations_tried"],
            "bds.combinations_bound": b_stats["combinations_bound"],
            "fbis_dp.peak_states": d_stats["peak_states"],
        },
        _probe(inst, (greedy, 1), (local, 1), (bds, 1), (bis, 1)),
    )


def check_small_batch(item: InstanceItem, outputs) -> list[str]:
    iv = checks.parse_intervals(item.text)
    greedy_text, local_text, bds_text, bis_text = outputs
    return (
        checks.check_mcis_pair(iv, greedy_text, local_text)
        + [f"bds: {e}" for e in checks.check_bds(iv, 1, bds_text)]
        + [f"bis: {e}" for e in checks.check_bis(iv, 1, bis_text)]
    )


# --- sat-roundtrip: both reductions and their decode/encode bridges -------

SAT_PAIRS = 2
TPTN_VARS = 150
BOUNDED_VARS, BOUNDED_PAIRS, BOUNDED_TRIPLES = 2000, 500, 500


@dataclass(frozen=True)
class Formula:
    num_vars: int
    clauses: tuple
    dimacs: str
    assignment: str


@dataclass(frozen=True)
class SatItem:
    domset: Formula
    indset: Formula


def _formula(num_vars: int, made) -> Formula:
    clauses, truth = made
    return Formula(num_vars, tuple(clauses), planted.dimacs(num_vars, clauses),
                   planted.assignment_text(truth))


def make_sat_roundtrip(call, seed: int) -> list[SatItem]:
    rng = Random(f"sat-roundtrip/{seed}")
    return [
        SatItem(
            _formula(TPTN_VARS, planted.planted_tptn(TPTN_VARS, rng)),
            _formula(BOUNDED_VARS, planted.planted_three_bounded(
                BOUNDED_VARS, BOUNDED_PAIRS, BOUNDED_TRIPLES, rng)),
        )
        for _ in range(SAT_PAIRS)
    ]


def _dump_meta(meta: GadgetMetadata) -> str:
    return json.dumps(meta.to_json_dict(), indent=2) + "\n"


def _load_meta(text: str) -> GadgetMetadata:
    return GadgetMetadata.from_json_dict(json.loads(text))


BRIDGES = {
    "domset": (reduce_domset, encode_domset_solution, decode_domset),
    "indset": (reduce_indset, encode_indset_solution, decode_indset),
}


def _roundtrip(call, target: str, formula: Formula):
    """reduce, then encode the planted assignment, then decode it back, as
    `balint reduce`, `balint encode` and `balint decode` would."""
    reduce, encode, decode = BRIDGES[target]
    phi = call("cnf.parse_dimacs", parse_dimacs, formula.dimacs)
    inst, meta = call(f"reductions.reduce_{target}", reduce, phi)
    inst_text = call("model.serialize_instance", serialize_instance, inst)
    meta_text = call("reductions.metadata_json", _dump_meta, meta)
    inst = call("model.parse_instance", parse_instance, inst_text)
    meta = call("reductions.metadata_json", _load_meta, meta_text)
    truth = call("model.parse_assignment", parse_assignment, formula.assignment)
    sol = call(f"reductions.encode_{target}", encode, inst, meta, truth)
    sol_text = call("model.serialize_solution", serialize_solution, sol, 1)
    kind, f, ids = call("model.parse_solution", parse_solution, sol_text)
    sol = call("model.solution_from_ids", solution_from_ids, inst, kind, ids)
    verdict = call("model.verify_solution", verify_solution, inst, sol, f)
    if not verdict.valid:
        raise RuntimeError(f"encoded {target} solution rejected: {verdict.reason}")
    decoded = call(f"reductions.decode_{target}", decode, inst, meta, sol)
    return inst, inst_text, call("model.serialize_assignment", serialize_assignment, decoded)


def op_sat_roundtrip(call, item: SatItem) -> Outcome:
    dom_inst, dom_text, dom_truth = _roundtrip(call, "domset", item.domset)
    ind_inst, ind_text, ind_truth = _roundtrip(call, "indset", item.indset)
    return Outcome(
        (dom_text, dom_truth, ind_text, ind_truth),
        {},
        _probe(dom_inst) + _probe(ind_inst),
    )


def check_sat_roundtrip(item: SatItem, outputs) -> list[str]:
    dom_text, dom_truth, ind_text, ind_truth = outputs
    dom, ind = item.domset, item.indset
    return (
        checks.check_domset_reduction(dom.num_vars, dom.clauses, dom_text)
        + [f"domset: {e}" for e in checks.check_assignment(dom.num_vars, dom.clauses, dom_truth)]
        + checks.check_indset_reduction(ind.clauses, ind_text)
        + [f"indset: {e}" for e in checks.check_assignment(ind.num_vars, ind.clauses, ind_truth)]
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bis-dp", make_bis_dp, op_bis_dp, check_bis_dp),
        Workload("bis-vc", make_bis_vc, op_bis_vc, check_bis_vc),
        Workload("small-batch", make_small_batch, op_small_batch, check_small_batch),
        Workload("sat-roundtrip", make_sat_roundtrip, op_sat_roundtrip, check_sat_roundtrip),
    )
}


# DominationIndex is O(n + edges); the dense 16k-interval bis-dp instances
# have ~10^8 edges, so that probe is skipped above this size.
DOMINATION_PROBE_MAX_N = 4096


def probe(call, pairs) -> None:
    """Index and verification calls on an operation's instances and outputs,
    made by the traced run outside the operation's span."""
    for inst, solutions in pairs:
        call("model.build_sorted_view", build_sorted_view, inst)
        call("fbis_vc.minimum_vertex_cover", minimum_vertex_cover, inst)
        if inst.n <= DOMINATION_PROBE_MAX_N:
            call("bds.domination_index", DominationIndex.from_instance, inst)
        for sol, f in solutions:
            call("model.verify_solution", verify_solution, inst, sol, f)
