from __future__ import annotations

import hashlib
import json
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
    serialize_instance,
    solution_from_ids,
    solve_fbds_brute,
    solve_fbis_dp,
    verify_solution,
)
from balint.cnf import evaluate
from balint.reductions import ClauseRole, HubRole, OccurrenceRole
from helpers import EARLIER_DOMSET_METADATA

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
    _, other_d = reduce_domset(FORCED_TPTN)
    with pytest.raises(ValueError, match="roles"):
        decode_domset(inst_d, other_d, sol_d)
    with pytest.raises(ValueError, match="roles"):
        encode_domset_solution(inst_d, other_d, {1: True})
    with pytest.raises(ValueError, match="roles"):
        encode_indset_solution(
            inst_i,
            GadgetMetadata(meta_i.kind, meta_i.num_vars, meta_i.clauses + ((1, 2),)),
            {1: True, 2: True},
        )
    # same counts as the instance, but a formula the reduction does not take
    not_tptn = GadgetMetadata(kind="domset", num_vars=2, clauses=((1, 2), (1, 2), (1, 2), (1, 2)))
    with pytest.raises(ValueError, match="roles"):
        decode_domset(inst_d, not_tptn, sol_d)


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
        json.loads(EARLIER_DOMSET_METADATA),
    ],
)
def test_metadata_json_rejects_malformed_shape(data):
    with pytest.raises(FormatError):
        GadgetMetadata.from_json_dict(data)


def _dealt_tptn(num_vars: int, rng: Random) -> CnfFormula:
    """A 2P2N formula with clauses of 1-3 literals: deal each variable's four
    signed occurrences into clauses of random sizes until every clause
    mentions distinct variables."""
    slots = [lit for v in range(1, num_vars + 1) for lit in (v, v, -v, -v)]
    while True:
        rng.shuffle(slots)
        clauses, i = [], 0
        while i < len(slots):
            size = rng.randint(1, 3)
            clauses.append(tuple(slots[i : i + size]))
            i += size
        if all(len({abs(lit) for lit in c}) == len(c) for c in clauses):
            return CnfFormula.build(num_vars, clauses)


def _pinned_family():
    """(reducer, formula) pairs covering every gadget: 3-bounded formulas with
    singletons, edges and paths of both majorities, uniform 2P2N formulas,
    and 2P2N formulas with 1- and 2-literal clauses."""
    family = []
    for seed in range(60):
        rng = Random(seed)
        num_vars = (2, 3, 5, 8, 13, 40)[seed % 6]
        family.append((reduce_indset, random_three_bounded(num_vars, rng)))
        family.append((reduce_domset, random_tptn_uniform3(3 * (1 + seed % 8), rng)))
        family.append((reduce_domset, _dealt_tptn(1 + seed % 10, rng)))
    return family


PINNED_FAMILY = _pinned_family()


def test_pinned_family_covers_every_gadget():
    shapes = set()
    for reducer, phi in PINNED_FAMILY:
        if reducer is reduce_indset:
            for pos, neg in phi.occurrence_lists[1:]:
                shapes.add((len(pos), len(neg)) if pos and neg else "singleton")
        else:
            shapes.update(len(c) for c in phi.clauses)
    assert {"singleton", (1, 1), (2, 1), (1, 2), 1, 2, 3} <= shapes


# sha256 of every reduced instance and its metadata JSON over PINNED_FAMILY:
# the reductions' layout, ids, colors and metadata format, byte for byte.
PINNED_FAMILY_DIGEST = "7a1aba1e47393897246140ec9006fac48e64d49aa7673c758450b52a2e5d8881"


def test_reductions_are_pinned_over_a_seeded_family():
    digest = hashlib.sha256()
    for reducer, phi in PINNED_FAMILY:
        inst, meta = reducer(phi)
        text = serialize_instance(inst) + json.dumps(meta.to_json_dict())
        digest.update(text.encode())
    assert digest.hexdigest() == PINNED_FAMILY_DIGEST


# sha256 over PINNED_FAMILY of the reduced instances alone, and of the roles
# and variable gadgets alone: layout, ids, roles and gadgets, whatever the
# metadata file stores.
PINNED_INSTANCES_DIGEST = "5f33cf5b90276ff5092d6eb081cda66cfa545db16bd95506c4dbb1d28fe70b6b"
PINNED_ROLES_DIGEST = "68e6d3fc6875b3d5e4dcd35aa491746cab5871362f89dedff9bde5b2388beba6"


def test_instances_roles_and_gadgets_are_pinned_over_a_seeded_family():
    instances, roles = hashlib.sha256(), hashlib.sha256()
    for reducer, phi in PINNED_FAMILY:
        inst, meta = reducer(phi)
        instances.update(serialize_instance(inst).encode())
        text = repr((sorted(meta.roles.items()), sorted(meta.variable_gadgets.items())))
        roles.update(text.encode())
    assert instances.hexdigest() == PINNED_INSTANCES_DIGEST
    assert roles.hexdigest() == PINNED_ROLES_DIGEST


def test_metadata_json_round_trip():
    pairs = [(reduce_indset, EDGE_FORMULA), (reduce_domset, TPTN), *PINNED_FAMILY]
    for reducer, phi in pairs:
        _, meta = reducer(phi)
        again = GadgetMetadata.from_json_dict(json.loads(json.dumps(meta.to_json_dict())))
        assert again == meta
        assert again.formula == phi


def test_metadata_occurrence_lookup():
    _, meta = reduce_indset(EDGE_FORMULA)
    assert meta.occurrence_id(1, 1) == 0
    assert meta.occurrence_id(1, 2) == 1
    with pytest.raises(KeyError):
        meta.occurrence_id(1, 9)


# The metadata file format: `balint reduce --meta` writes this JSON (indented)
# and `balint decode` / `encode` / `canonicalize` read it back.
PINNED_INDSET_JSON = '{"kind": "indset", "num_vars": 2, "clauses": [[1, 2], [-1, -2], [1, -2]]}'
PINNED_DOMSET_JSON = (
    '{"kind": "domset", "num_vars": 2, "clauses": [[1, 2], [1, -2], [-1, 2], [-1, -2]]}'
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
