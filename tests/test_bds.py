from __future__ import annotations

import pytest
from hypothesis import example, given, settings

from balint import (
    CnfFormula,
    ColoredIntervalInstance,
    GenSpec,
    GuardError,
    canonicalize_bds,
    decode_domset,
    encode_domset_solution,
    generate,
    oracle_fbds,
    reduce_domset,
    solution_from_ids,
    solve_fbds_brute,
    verify_solution,
)
from balint.bds import DominationIndex
from balint.model import intersects
from helpers import build_instance, instances


def test_brute_triangle_two_colors():
    inst = build_instance(2, [(0, 4, 1), (1, 5, 2), (2, 6, 1)])
    sol = solve_fbds_brute(inst, 1)
    assert sol is not None
    assert sol.ids == frozenset({0, 1})
    assert verify_solution(inst, sol, 1).valid


def test_brute_spread_singletons_infeasible():
    inst = build_instance(1, [(0, 1, 1), (4, 5, 1), (8, 9, 1)])
    assert solve_fbds_brute(inst, 1) is None


def test_brute_rejects_nonpositive_f():
    inst = build_instance(1, [(0, 1, 1)])
    with pytest.raises(ValueError):
        solve_fbds_brute(inst, 0)


def test_brute_small_class_is_infeasible_not_an_error():
    inst = build_instance(1, [(0, 1, 1), (3, 4, 1)])
    stats = {}
    assert solve_fbds_brute(inst, 3, stats) is None
    assert not stats["feasible"]


def test_brute_combination_guard():
    inst = build_instance(1, [(3 * i, 3 * i + 1, 1) for i in range(40)])
    with pytest.raises(GuardError):
        solve_fbds_brute(inst, 20)


def test_brute_search_depth_is_not_bounded_by_recursion():
    # one class per color, far more classes than the interpreter's recursion limit
    inst = build_instance(1500, [(3 * i, 3 * i + 1, i + 1) for i in range(1500)])
    stats = {}
    sol = solve_fbds_brute(inst, 1, stats)
    assert sol is not None and sol.ids == frozenset(range(1500))
    assert stats["combinations_tried"] == 1500
    # infeasible: the singleton class is tried once, then each pick of the
    # two-interval class counts as tried before the prune rejects it
    inst = build_instance(2, [(0, 1, 1), (3, 4, 1), (6, 7, 2)])
    stats = {}
    assert solve_fbds_brute(inst, 1, stats) is None
    assert stats["combinations_tried"] == 3


def test_brute_stats_count_work():
    inst = build_instance(2, [(0, 4, 1), (1, 5, 2), (2, 6, 1)])
    stats = {}
    solve_fbds_brute(inst, 1, stats)
    assert stats["feasible"]
    assert 1 <= stats["combinations_tried"] <= stats["combinations_bound"]


def test_brute_bound_sums_the_combinations_of_each_level():
    stats = {}
    assert solve_fbds_brute(DEEP_INFEASIBLE, 1, stats) is None
    assert sorted(map(len, DEEP_INFEASIBLE.color_class_ids())) == [3, 4, 5]
    assert stats["combinations_bound"] == stats["combinations_tried"] == 75
    stats = {}
    empty = ColoredIntervalInstance.from_columns(0, [], [], [])
    assert solve_fbds_brute(empty, 1, stats) is not None
    assert stats["combinations_bound"] == 0


@settings(max_examples=200, deadline=None)
@given(inst=instances(max_n=24))
@example(inst=build_instance(2, [(0, 4, 1), (1, 5, 2), (2, 6, 1), (9, 11, 2)]))
@example(inst=build_instance(1, [(0, 2, 1), (2, 4, 1), (4, 4, 1), (5, 9, 1), (6, 7, 1), (6, 9, 1)]))
def test_domination_index_matches_pairwise_checks(inst: ColoredIntervalInstance):
    index = DominationIndex.from_instance(inst)
    for a in inst.intervals:
        for b in inst.intervals:
            bit = bool(index.closed_masks[a.id] >> b.id & 1)
            assert bit == intersects(a, b)
    assert index.full_mask == (1 << inst.n) - 1


# classes of 3, 4 and 5 intervals and no dominating set at f = 1: the search
# draws 3 + 3*4 + 3*4*5 = 75 combinations, more than the product 60
DEEP_INFEASIBLE = generate(GenSpec(n=12, k=3, seed=53))


@settings(max_examples=150, deadline=None)
@given(inst=instances(max_n=11, max_k=3))
@example(inst=DEEP_INFEASIBLE)
def test_brute_matches_oracle(inst: ColoredIntervalInstance):
    for f in (1, 2):
        stats = {}
        got = solve_fbds_brute(inst, f, stats)
        want = oracle_fbds(inst, f)
        assert (got is None) == (want is None)
        assert stats["combinations_tried"] <= stats["combinations_bound"]
        if got is not None:
            assert verify_solution(inst, got, f).valid


def test_brute_deterministic_witness():
    inst = build_instance(2, [(0, 4, 1), (1, 5, 2), (2, 6, 1), (3, 7, 2)])
    assert solve_fbds_brute(inst, 1).ids == solve_fbds_brute(inst, 1).ids


# Canonicalization fixtures.  phi has exactly two satisfying shapes that
# matter: every clause holds both variables, so each valid 1-BDS is already
# canonical.  phi3 admits valid non-canonical variants.
PHI = CnfFormula.build(2, [(1, 2), (1, 2), (-1, -2), (-1, -2)])
PHI3 = CnfFormula.build(3, [(1, 2, 3), (1, 2, 3), (-1, -2, -3), (-1, -2, -3)])
PHI3_MODEL = {1: True, 2: True, 3: False}


def test_canonicalize_fixes_solver_output():
    inst, meta = reduce_domset(PHI)
    sol = solve_fbds_brute(inst, 1)
    assert sorted(sol.ids) == [0, 2, 4, 7, 9, 11, 13, 15, 16, 18]
    canon = canonicalize_bds(inst, meta, sol)
    assert canon.ids == sol.ids
    assert verify_solution(inst, canon, 1).valid


def test_canonicalize_all_oracle_solutions():
    inst, meta = reduce_domset(PHI)
    every = oracle_fbds(inst, 1, find_all=True)
    assert len(every) == 2
    images = set()
    for sol in every:
        canon = canonicalize_bds(inst, meta, sol)
        assert verify_solution(inst, canon, 1).valid
        assert canonicalize_bds(inst, meta, canon).ids == canon.ids
        images.add(tuple(sorted(canon.ids)))
    assert images == {
        (0, 2, 4, 7, 9, 11, 13, 15, 16, 18),
        (1, 3, 5, 6, 8, 10, 12, 14, 17, 19),
    }


def test_canonicalize_swaps_path_end_back_to_clause_vertex():
    # Clause 1 of PHI3 holds two true literals under PHI3_MODEL, so trading
    # variable 1's clause vertex for its path end keeps the solution valid
    # but breaks canonical form; canonicalization must undo the trade.
    inst, meta = reduce_domset(PHI3)
    enc = encode_domset_solution(inst, meta, PHI3_MODEL)
    g1 = meta.variable_gadgets[1]
    perturbed = solution_from_ids(inst, "BDS", (enc.ids - {g1.c_t1}) | {g1.t1})
    assert verify_solution(inst, perturbed, 1).valid
    canon = canonicalize_bds(inst, meta, perturbed)
    assert canon.ids == enc.ids
    assert decode_domset(inst, meta, canon) == PHI3_MODEL


def test_canonicalize_rejects_invalid_solution():
    inst, meta = reduce_domset(PHI3)
    enc = encode_domset_solution(inst, meta, PHI3_MODEL)
    g1 = meta.variable_gadgets[1]
    g2 = meta.variable_gadgets[2]
    # Swapping out both true literals of clause 1 leaves it undominated.
    broken = (enc.ids - {g1.c_t1, g2.c_t1}) | {g1.t1, g2.t1}
    assert not verify_solution(inst, solution_from_ids(inst, "BDS", broken), 1).valid
    with pytest.raises(ValueError):
        canonicalize_bds(inst, meta, solution_from_ids(inst, "BDS", broken))
