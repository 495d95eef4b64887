from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from balint import (
    ColoredIntervalInstance,
    GuardError,
    LocalSearchConfig,
    greedy_mcis,
    is_b_locally_optimal,
    local_search_mcis,
    oracle_mcis,
    verify_solution,
)
from balint.mcis import _guard_budget
from helpers import build_instance, instances

ADVERSARIAL = [(0, 2, 1), (1, 4, 2), (5, 6, 1)]


def test_greedy_takes_disjoint_pair():
    inst = build_instance(2, [(0, 1, 1), (2, 3, 2)])
    sol = greedy_mcis(inst)
    assert sol.ids == frozenset({0, 1})
    assert sol.distinct_colors == 2


def test_greedy_half_optimal_example():
    inst = build_instance(2, ADVERSARIAL)
    sol = greedy_mcis(inst)
    assert sol.ids == frozenset({0})
    assert sol.distinct_colors == 1
    opt = oracle_mcis(inst)
    assert opt.distinct_colors == 2
    assert opt.ids == frozenset({1, 2})


def test_greedy_one_slot_per_color():
    inst = build_instance(1, [(0, 1, 1)] * 5)
    assert greedy_mcis(inst).distinct_colors == 1


def test_greedy_stats_and_verification():
    inst = build_instance(2, ADVERSARIAL)
    stats = {}
    sol = greedy_mcis(inst, stats)
    assert stats == {"colors": 1}
    assert verify_solution(inst, sol, 1).valid


@settings(max_examples=200, deadline=None)
@given(inst=instances(max_n=14, max_k=5))
def test_greedy_meets_half_bound(inst: ColoredIntervalInstance):
    got = greedy_mcis(inst)
    assert verify_solution(inst, got, 1).valid
    opt = oracle_mcis(inst).distinct_colors
    assert got.distinct_colors >= math.ceil(opt / 2)


def test_local_search_no_op_when_greedy_optimal():
    inst = build_instance(2, [(0, 1, 1), (2, 3, 2)])
    stats = {}
    sol = local_search_mcis(inst, LocalSearchConfig(b=1), stats)
    assert sol.ids == frozenset({0, 1})
    assert stats["rounds"] == 0


def test_local_search_b1_stuck_at_one_color():
    inst = build_instance(2, ADVERSARIAL)
    sol = local_search_mcis(inst, LocalSearchConfig(b=1))
    assert sol.ids == frozenset({0})
    assert is_b_locally_optimal(inst, sol, 1)
    assert not is_b_locally_optimal(inst, sol, 2)


def test_local_search_b2_escapes_to_optimum():
    inst = build_instance(2, ADVERSARIAL)
    stats = {}
    sol = local_search_mcis(inst, LocalSearchConfig(b=2), stats)
    assert sol.ids == frozenset({1, 2})
    assert sol.distinct_colors == 2
    assert stats["rounds"] == 1
    assert stats["neighbors_evaluated"] > 0


def test_local_search_budget_guard():
    inst = build_instance(2, [(i, i + 1, 1 + i % 2) for i in range(40)])
    with pytest.raises(GuardError):
        local_search_mcis(inst, LocalSearchConfig(b=2, neighbor_budget=10**6))


def test_local_search_rejects_nonpositive_b():
    inst = build_instance(1, [(0, 1, 1)])
    with pytest.raises(ValueError):
        local_search_mcis(inst, LocalSearchConfig(b=0))


@settings(max_examples=120, deadline=None)
@given(inst=instances(max_n=12, max_k=4))
def test_local_search_improves_and_certifies(inst: ColoredIntervalInstance):
    greedy = greedy_mcis(inst)
    stats = {}
    local = local_search_mcis(inst, LocalSearchConfig(b=2), stats)
    assert verify_solution(inst, local, 1).valid
    assert local.distinct_colors >= greedy.distinct_colors
    assert stats["rounds"] <= inst.k
    assert is_b_locally_optimal(inst, local, 2)


def test_locally_optimal_when_all_colors_used():
    inst = build_instance(2, [(0, 1, 1), (2, 3, 2)])
    sol = local_search_mcis(inst)
    assert sol.distinct_colors == 2
    assert is_b_locally_optimal(inst, sol, 2)


def test_empty_set_not_locally_optimal():
    inst = build_instance(1, [(0, 1, 1)])
    from balint import solution_from_ids

    empty = solution_from_ids(inst, "MCIS", [])
    assert not is_b_locally_optimal(inst, empty, 1)


def test_local_optimality_check_budget_guard():
    inst = build_instance(2, [(i, i + 1, 1 + i % 2) for i in range(40)])
    sol = greedy_mcis(inst)
    with pytest.raises(GuardError):
        is_b_locally_optimal(inst, sol, 2, budget=10**6)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 300),
    b=st.integers(1, 8),
    budget=st.integers(-3, 10**9) | st.integers(-3, 10**40),
)
def test_budget_guard_refuses_iff_power_exceeds_budget(n, b, budget):
    if n ** (2 * b) > budget:
        # a power this small is printed in full
        with pytest.raises(GuardError, match=f"= {n ** (2 * b)} neighbor"):
            _guard_budget(n, b, budget)
    else:
        _guard_budget(n, b, budget)


def test_chained_adversarial_blocks_keep_half_ratio():
    # Two blocks of the deceptive pattern, shifted apart; greedy keeps one
    # color per block, the optimum keeps both.
    triples = []
    for t in range(2):
        base = 8 * t
        triples.append((base, base + 2, 2 * t + 1))
        triples.append((base + 1, base + 4, 2 * t + 2))
        triples.append((base + 5, base + 6, 2 * t + 1))
    inst = build_instance(4, triples)
    assert greedy_mcis(inst).distinct_colors == 2
    assert oracle_mcis(inst).distinct_colors == 4
