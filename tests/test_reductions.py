from __future__ import annotations

import json
from dataclasses import replace
from random import Random

import pytest

from balint import (
    CnfFormula,
    ColoredIntervalInstance,
    FormatError,
    GadgetMetadata,
    canonicalize_bds,
    decode_domset,
    decode_indset,
    encode_domset_solution,
    encode_indset_solution,
    intersects,
    oracle_sat,
    random_three_bounded,
    random_tptn_uniform3,
    reduce_domset,
    reduce_indset,
    solution_from_ids,
    solve_fbds_brute,
    solve_fbis_dp,
    verify_solution,
)
from balint.cnf import evaluate
from balint.reductions import ClauseRole, HubRole, OccurrenceRole

EDGE_FORMULA = CnfFormula.build(2, [(1, 2), (-1, 2)])
PATH_FORMULA = CnfFormula.build(2, [(1, 2), (1, -2), (-1, 2)])
UNSAT_3B = CnfFormula.build(4, [(1, 3), (1, -3), (2, 4), (2, -4), (-1, -2)])
TPTN = CnfFormula.build(2, [(1, 2), (1, 2), (-1, -2), (-1, -2)])
UNSAT_TPTN = CnfFormula.build(1, [(1,), (1,), (-1,), (-1,)])
FORCED_TPTN = CnfFormula.build(
    3,
    [(1,), (1,), (-1, 2, 3), (-1, -2, -3), (2, 3), (-2, -3)],
)


def geometric_edges(inst: ColoredIntervalInstance) -> set[tuple[int, int]]:
    out = set()
    for a in inst.intervals:
        for b in inst.intervals:
            if a.id < b.id and intersects(a, b):
                out.add((a.id, b.id))
    return out


def test_indset_edge_gadget_layout():
    inst, meta = reduce_indset(EDGE_FORMULA)
    assert inst.n == 4
    assert inst.k == 2
    assert inst.proper_flag
    # x1 occurs once per polarity: a two-interval overlap at the base offset.
    assert (inst.interval(0).left, inst.interval(0).right) == (0, 4)
    assert (inst.interval(1).left, inst.interval(1).right) == (2, 6)
    # x2 is purely positive: two isolated intervals on their own offsets.
    assert (inst.interval(2).left, inst.interval(2).right) == (100, 104)
    assert (inst.interval(3).left, inst.interval(3).right) == (200, 204)
    assert geometric_edges(inst) == {(0, 1)}
    assert meta.roles[0] == OccurrenceRole(variable=1, clause=1, positive=True)
    assert meta.roles[1] == OccurrenceRole(variable=1, clause=2, positive=False)


def test_indset_colors_follow_clause_index():
    inst, meta = reduce_indset(PATH_FORMULA)
    for id, role in meta.roles.items():
        assert inst.interval(id).color == role.clause


def test_indset_path_gadget_puts_minority_polarity_in_middle():
    inst, meta = reduce_indset(PATH_FORMULA)
    assert inst.n == 6
    # x1: positive in clauses 1 and 2, negative in clause 3 -> the negative
    # occurrence sits on the middle interval [2,6] of the path template.
    assert (inst.interval(1).left, inst.interval(1).right) == (2, 6)
    assert meta.roles[1] == OccurrenceRole(variable=1, clause=3, positive=False)
    assert meta.roles[0] == OccurrenceRole(variable=1, clause=1, positive=True)
    assert meta.roles[2] == OccurrenceRole(variable=1, clause=2, positive=True)
    assert geometric_edges(inst) == {(0, 1), (1, 2), (3, 4), (4, 5)}


def test_indset_rejects_non_three_bounded():
    with pytest.raises(ValueError):
        reduce_indset(TPTN)
    with pytest.raises(ValueError):
        reduce_indset(CnfFormula.build(1, [(1,)]))


def _expected_indset_edges(meta: GadgetMetadata) -> set[tuple[int, int]]:
    ids = sorted(meta.roles)
    out = set()
    for i in ids:
        for j in ids:
            if i >= j:
                continue
            a, b = meta.roles[i], meta.roles[j]
            if a.variable == b.variable and a.positive != b.positive:
                out.add((i, j))
    return out


@pytest.mark.parametrize("seed", range(30))
def test_indset_adjacency_is_exactly_opposite_polarity_pairs(seed: int):
    rng = Random(seed)
    phi = random_three_bounded(rng.randint(2, 6), rng)
    inst, meta = reduce_indset(phi)
    assert inst.n == sum(len(c) for c in phi.clauses)
    assert inst.k == len(phi.clauses)
    assert geometric_edges(inst) == _expected_indset_edges(meta)
    # every component is a path on at most three vertices
    degree = {}
    for u, v in geometric_edges(inst):
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    assert all(d <= 2 for d in degree.values())


@pytest.mark.parametrize("seed", range(25))
def test_indset_equivalence_and_decode_round_trip(seed: int):
    rng = Random(100 + seed)
    phi = random_three_bounded(rng.randint(2, 6), rng)
    inst, meta = reduce_indset(phi)
    model = oracle_sat(phi)
    sol = solve_fbis_dp(inst, 1)
    assert (model is None) == (sol is None)
    if sol is None:
        return
    decoded = decode_indset(inst, meta, sol)
    assert evaluate(phi, decoded)
    encoded = encode_indset_solution(inst, meta, model)
    assert verify_solution(inst, encoded, 1).valid
    assert evaluate(phi, decode_indset(inst, meta, encoded))


def test_indset_unsat_formula_reduces_to_infeasible():
    assert oracle_sat(UNSAT_3B) is None
    inst, _ = reduce_indset(UNSAT_3B)
    assert solve_fbis_dp(inst, 1) is None


def test_indset_encode_rejects_falsifying_assignment():
    inst, meta = reduce_indset(EDGE_FORMULA)
    with pytest.raises(ValueError):
        encode_indset_solution(inst, meta, {1: True, 2: False})


def test_domset_vertex_and_color_layout():
    inst, meta = reduce_domset(TPTN)
    assert inst.n == 20
    assert inst.k == 10
    assert inst.proper_flag
    # variable 1 true-path: ends [0,4],[5,9] with hub [2,6] between them
    assert [(iv.left, iv.right) for iv in inst.intervals[:3]] == [
        (0, 4),
        (2, 6),
        (5, 9),
    ]
    assert [iv.color for iv in inst.intervals[:6]] == [1, 5, 2, 3, 5, 4]
    assert meta.roles[1] == HubRole(variable=1, name="h_t")
    assert meta.roles[4] == HubRole(variable=1, name="h_f")
    # clause vertices reuse the matching leaf color
    assert meta.roles[12] == ClauseRole(clause=1, variable=1, positive=True, slot=1)
    assert inst.interval(12).color == 1
    assert meta.roles[19] == ClauseRole(clause=4, variable=2, positive=False, slot=2)
    assert inst.interval(19).color == 9


def test_domset_triangle_clause_template():
    inst, meta = reduce_domset(FORCED_TPTN)
    by_clause: dict[int, list[int]] = {}
    for id, role in meta.roles.items():
        if isinstance(role, ClauseRole):
            by_clause.setdefault(role.clause, []).append(id)
    three = sorted(by_clause[3])
    lefts = sorted(inst.interval(i).left for i in three)
    rights = sorted(inst.interval(i).right for i in three)
    assert [l - lefts[0] for l in lefts] == [0, 1, 2]
    assert [r - rights[0] for r in rights] == [0, 1, 2]


def _expected_domset_edges(meta: GadgetMetadata) -> set[tuple[int, int]]:
    out = set()
    for g in meta.variable_gadgets.values():
        for u, v in ((g.t1, g.h_t), (g.h_t, g.t2), (g.f1, g.h_f), (g.h_f, g.f2)):
            out.add((min(u, v), max(u, v)))
    by_clause: dict[int, list[int]] = {}
    for id, role in meta.roles.items():
        if isinstance(role, ClauseRole):
            by_clause.setdefault(role.clause, []).append(id)
    for members in by_clause.values():
        members = sorted(members)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                out.add((u, v))
    return out


@pytest.mark.parametrize("seed", range(20))
def test_domset_counts_and_adjacency(seed: int):
    rng = Random(seed)
    phi = random_tptn_uniform3(3, rng)
    inst, meta = reduce_domset(phi)
    n, m = phi.num_vars, len(phi.clauses)
    assert inst.n == 6 * n + 3 * m
    assert inst.k == 5 * n
    edges = geometric_edges(inst)
    assert len(edges) == 4 * n + 3 * m
    assert edges == _expected_domset_edges(meta)


def test_domset_mixed_clause_sizes_generalized_counts():
    inst, meta = reduce_domset(FORCED_TPTN)
    sizes = [len(c) for c in FORCED_TPTN.clauses]
    assert inst.n == 6 * 3 + sum(sizes)
    edges = geometric_edges(inst)
    assert len(edges) == 4 * 3 + sum(s * (s - 1) // 2 for s in sizes)


def test_domset_rejects_non_tptn():
    with pytest.raises(ValueError):
        reduce_domset(EDGE_FORMULA)


def test_domset_forced_variable_decodes_true():
    inst, meta = reduce_domset(FORCED_TPTN)
    sol = solve_fbds_brute(inst, 1)
    assert sol is not None
    decoded = decode_domset(inst, meta, sol)
    assert decoded[1] is True
    assert evaluate(FORCED_TPTN, decoded)


def test_domset_unsat_formula_reduces_to_infeasible():
    assert oracle_sat(UNSAT_TPTN) is None
    inst, _ = reduce_domset(UNSAT_TPTN)
    assert inst.n == 10
    assert inst.k == 5
    assert solve_fbds_brute(inst, 1) is None


@pytest.mark.parametrize("seed", range(15))
def test_domset_encode_decode_round_trip(seed: int):
    rng = Random(40 + seed)
    phi = random_tptn_uniform3(3, rng)
    model = oracle_sat(phi)
    assert model is not None  # three-variable uniform tptn is always satisfiable
    inst, meta = reduce_domset(phi)
    encoded = encode_domset_solution(inst, meta, model)
    assert verify_solution(inst, encoded, 1).valid
    assert decode_domset(inst, meta, encoded) == model


def test_domset_encode_rejects_falsifying_assignment():
    inst, meta = reduce_domset(TPTN)
    with pytest.raises(ValueError):
        encode_domset_solution(inst, meta, {1: True, 2: True})


def test_decoders_reject_mismatched_metadata():
    inst_d, meta_d = reduce_domset(TPTN)
    inst_i, meta_i = reduce_indset(EDGE_FORMULA)
    sol_d = solve_fbds_brute(inst_d, 1)
    with pytest.raises(ValueError):
        decode_indset(inst_d, meta_d, sol_d)
    sol_i = solve_fbis_dp(inst_i, 1)
    with pytest.raises(ValueError):
        decode_domset(inst_i, meta_i, sol_i)


def test_bridges_reject_metadata_that_does_not_match_the_instance():
    inst_d, meta_d = reduce_domset(TPTN)
    sol_d = solve_fbds_brute(inst_d, 1)
    inst_i, meta_i = reduce_indset(EDGE_FORMULA)
    bare = GadgetMetadata(kind="domset", num_vars=1, clauses=())
    with pytest.raises(ValueError, match="roles"):
        canonicalize_bds(inst_i, bare, solve_fbis_dp(inst_i, 1))
    with pytest.raises(ValueError, match="roles"):
        decode_domset(inst_d, replace(meta_d, roles=dict(list(meta_d.roles.items())[1:])), sol_d)
    with pytest.raises(ValueError, match="gadgets"):
        encode_domset_solution(inst_d, replace(meta_d, variable_gadgets={}), {1: True})
    with pytest.raises(ValueError, match="no occurrence of x1 in clause 3"):
        encode_indset_solution(
            inst_i, replace(meta_i, clauses=meta_i.clauses + ((1, 2),)), {1: True, 2: True}
        )


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"num_vars": 1, "clauses": []},
        {"kind": "indset", "num_vars": "1", "clauses": []},
        {"kind": "indset", "num_vars": 1, "clauses": [[1, "2"]]},
        {"kind": "indset", "num_vars": 1, "clauses": [], "roles": []},
        {"kind": "indset", "num_vars": 1, "clauses": [], "roles": {"a": {}}},
        {"kind": "indset", "num_vars": 1, "clauses": [], "roles": {"0": {"type": ["x"]}}},
        {"kind": "indset", "num_vars": 1, "clauses": [],
         "roles": {"0": {"type": "occurrence", "variable": 1, "clause": 1}}},
        {"kind": "indset", "num_vars": 1, "clauses": [],
         "roles": {"0": {"type": "occurrence", "variable": 1, "clause": 1, "positive": 1}}},
        {"kind": "domset", "num_vars": 1, "clauses": [], "variable_gadgets": {"1": {"t1": 0}}},
    ],
)
def test_metadata_json_rejects_malformed_shape(data):
    with pytest.raises(FormatError):
        GadgetMetadata.from_json_dict(data)


def test_metadata_json_round_trip():
    for phi, reducer in ((EDGE_FORMULA, reduce_indset), (TPTN, reduce_domset)):
        _, meta = reducer(phi)
        again = GadgetMetadata.from_json_dict(meta.to_json_dict())
        assert again == meta
        assert again.formula() == phi


def test_metadata_occurrence_lookup():
    _, meta = reduce_indset(EDGE_FORMULA)
    assert meta.occurrence_id(1, 1) == 0
    assert meta.occurrence_id(1, 2) == 1
    with pytest.raises(KeyError):
        meta.occurrence_id(1, 9)


# The metadata file format: `balint reduce --meta` writes this JSON (indented)
# and `balint decode` / `encode` read it back.
PINNED_INDSET_JSON = (
    '{"kind": "indset", "num_vars": 2, "clauses": [[1, 2], [-1, -2], [1, -2]], "roles": {'
    '"0": {"type": "occurrence", "variable": 1, "clause": 1, "positive": true}, '
    '"1": {"type": "occurrence", "variable": 1, "clause": 2, "positive": false}, '
    '"2": {"type": "occurrence", "variable": 1, "clause": 3, "positive": true}, '
    '"3": {"type": "occurrence", "variable": 2, "clause": 2, "positive": false}, '
    '"4": {"type": "occurrence", "variable": 2, "clause": 1, "positive": true}, '
    '"5": {"type": "occurrence", "variable": 2, "clause": 3, "positive": false}}, '
    '"variable_gadgets": {}}'
)
PINNED_DOMSET_JSON = (
    '{"kind": "domset", "num_vars": 2, "clauses": [[1, 2], [1, -2], [-1, 2], [-1, -2]], "roles": {'
    '"0": {"type": "var", "variable": 1, "name": "t1"}, '
    '"1": {"type": "var", "variable": 1, "name": "h_t"}, '
    '"2": {"type": "var", "variable": 1, "name": "t2"}, '
    '"3": {"type": "var", "variable": 1, "name": "f1"}, '
    '"4": {"type": "var", "variable": 1, "name": "h_f"}, '
    '"5": {"type": "var", "variable": 1, "name": "f2"}, '
    '"6": {"type": "var", "variable": 2, "name": "t1"}, '
    '"7": {"type": "var", "variable": 2, "name": "h_t"}, '
    '"8": {"type": "var", "variable": 2, "name": "t2"}, '
    '"9": {"type": "var", "variable": 2, "name": "f1"}, '
    '"10": {"type": "var", "variable": 2, "name": "h_f"}, '
    '"11": {"type": "var", "variable": 2, "name": "f2"}, '
    '"12": {"type": "clause", "clause": 1, "variable": 1, "positive": true, "slot": 1}, '
    '"13": {"type": "clause", "clause": 1, "variable": 2, "positive": true, "slot": 1}, '
    '"14": {"type": "clause", "clause": 2, "variable": 1, "positive": true, "slot": 2}, '
    '"15": {"type": "clause", "clause": 2, "variable": 2, "positive": false, "slot": 1}, '
    '"16": {"type": "clause", "clause": 3, "variable": 1, "positive": false, "slot": 1}, '
    '"17": {"type": "clause", "clause": 3, "variable": 2, "positive": true, "slot": 2}, '
    '"18": {"type": "clause", "clause": 4, "variable": 1, "positive": false, "slot": 2}, '
    '"19": {"type": "clause", "clause": 4, "variable": 2, "positive": false, "slot": 2}}, '
    '"variable_gadgets": {'
    '"1": {"t1": 0, "t2": 2, "f1": 3, "f2": 5, "h_t": 1, "h_f": 4, "c_t1": 12, "c_t2": 14, '
    '"c_f1": 16, "c_f2": 18, "pos_clauses": [1, 2], "neg_clauses": [3, 4]}, '
    '"2": {"t1": 6, "t2": 8, "f1": 9, "f2": 11, "h_t": 7, "h_f": 10, "c_t1": 13, "c_t2": 17, '
    '"c_f1": 15, "c_f2": 19, "pos_clauses": [1, 3], "neg_clauses": [2, 4]}}}'
)


@pytest.mark.parametrize(
    "reducer, clauses, pinned",
    [
        (reduce_indset, [(1, 2), (-1, -2), (1, -2)], PINNED_INDSET_JSON),
        (reduce_domset, [(1, 2), (1, -2), (-1, 2), (-1, -2)], PINNED_DOMSET_JSON),
    ],
)
def test_metadata_json_format_is_pinned(reducer, clauses, pinned):
    _, meta = reducer(CnfFormula.build(2, clauses))
    assert json.dumps(meta.to_json_dict()) == pinned
    assert GadgetMetadata.from_json_dict(json.loads(pinned)) == meta
