from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings

from balint import (
    ColoredIntervalInstance,
    GenSpec,
    GuardError,
    enumerate_swap_candidates,
    generate,
    minimum_vertex_cover,
    oracle_fbis,
    oracle_maximal_is,
    solve_fbis_dp,
    solve_fbis_vc,
    verify_solution,
)
from helpers import build_instance, independent_pairs_ok, instances, random_instance


def test_cover_empty_for_disjoint_intervals():
    inst = build_instance(1, [(0, 1, 1), (2, 3, 1)])
    decomp = minimum_vertex_cover(inst)
    assert decomp.cover == frozenset()
    assert decomp.tau == 0
    assert decomp.independent == frozenset({0, 1})


def test_cover_single_edge():
    inst = build_instance(2, [(0, 2, 1), (1, 3, 2)])
    assert minimum_vertex_cover(inst).tau == 1


def test_cover_triangle():
    inst = build_instance(1, [(0, 4, 1), (1, 5, 1), (2, 6, 1)])
    assert minimum_vertex_cover(inst).tau == 2


def _max_is_size(inst: ColoredIntervalInstance) -> int:
    sets = oracle_maximal_is(inst)
    return max((len(s) for s in sets), default=0)


@settings(max_examples=120, deadline=None)
@given(inst=instances(max_n=12, max_k=2))
def test_cover_complements_a_maximum_independent_set(
    inst: ColoredIntervalInstance,
):
    decomp = minimum_vertex_cover(inst)
    assert decomp.independent | decomp.cover == frozenset(range(inst.n))
    assert decomp.independent & decomp.cover == frozenset()
    assert independent_pairs_ok(inst, decomp.independent)
    assert len(decomp.independent) == _max_is_size(inst)


def test_swap_candidates_empty_cover_yields_vind_once():
    inst = build_instance(1, [(0, 1, 1), (2, 3, 1)])
    decomp = minimum_vertex_cover(inst)
    assert list(enumerate_swap_candidates(inst, decomp)) == [frozenset({0, 1})]


def test_swap_candidates_single_edge():
    inst = build_instance(2, [(0, 2, 1), (1, 3, 2)])
    decomp = minimum_vertex_cover(inst)
    got = list(enumerate_swap_candidates(inst, decomp))
    assert got[0] == decomp.independent
    assert set(got) == {frozenset({0}), frozenset({1})}


def test_swap_candidates_triangle_covers_all_maximal_sets():
    inst = build_instance(1, [(0, 4, 1), (1, 5, 1), (2, 6, 1)])
    decomp = minimum_vertex_cover(inst)
    got = set(enumerate_swap_candidates(inst, decomp))
    assert {frozenset({0}), frozenset({1}), frozenset({2})} <= got


@settings(max_examples=120, deadline=None)
@given(inst=instances(max_n=12, max_k=2))
def test_swap_candidates_independent_and_cover_maximal_sets(
    inst: ColoredIntervalInstance,
):
    decomp = minimum_vertex_cover(inst)
    seen = set()
    yielded = 0
    for cand in enumerate_swap_candidates(inst, decomp):
        assert independent_pairs_ok(inst, cand)
        seen.add(cand)
        yielded += 1
    assert yielded <= 2**decomp.tau
    for maximal in oracle_maximal_is(inst):
        assert maximal in seen


def test_vc_worked_examples():
    ok = build_instance(2, [(0, 1, 1), (2, 3, 2)])
    sol = solve_fbis_vc(ok, 1)
    assert sol is not None and sol.ids == frozenset({0, 1})
    bad = build_instance(2, [(0, 2, 1), (1, 3, 2)])
    assert solve_fbis_vc(bad, 1) is None


def test_vc_rejects_nonpositive_f():
    inst = build_instance(1, [(0, 1, 1)])
    with pytest.raises(ValueError):
        solve_fbis_vc(inst, 0)


def test_vc_candidate_budget_stat_respects_tau_bound():
    rng = Random(2)
    inst = random_instance(rng, 16, 3)
    stats = {}
    solve_fbis_vc(inst, 2, stats)
    assert stats["candidates_examined"] <= 2 ** stats["tau"]


def test_vc_tau_guard_precedes_enumeration():
    # 40 pairwise-intersecting intervals force tau = 39 > the guard.
    inst = build_instance(1, [(0, 100 + i, 1) for i in range(40)])
    with pytest.raises(GuardError):
        solve_fbis_vc(inst, 1)


def test_vc_color_deficiency_screened_before_guard():
    # Same oversized clique, but a missing color decides infeasibility first.
    inst = build_instance(2, [(0, 100 + i, 1) for i in range(40)])
    assert solve_fbis_vc(inst, 1) is None


@settings(max_examples=150, deadline=None)
@given(inst=instances(max_n=14, max_k=3))
def test_vc_matches_dp_and_oracle(inst: ColoredIntervalInstance):
    for f in (1, 2):
        got = solve_fbis_vc(inst, f)
        assert (got is None) == (solve_fbis_dp(inst, f) is None)
        assert (got is None) == (oracle_fbis(inst, f) is None)
        if got is not None:
            assert verify_solution(inst, got, f).valid


def _unpruned_witness(inst: ColoredIntervalInstance, f: int) -> frozenset[int] | None:
    """The f lowest ids per color of the first swap candidate, in the full
    unpruned scan, with at least f intervals of every color."""
    for cand in enumerate_swap_candidates(inst, minimum_vertex_cover(inst)):
        by_color = [sorted(i for i in cand if inst.colors[i] == c) for c in range(1, inst.k + 1)]
        if all(len(ids) >= f for ids in by_color):
            return frozenset(i for ids in by_color for i in ids[:f])
    return None


def _assert_matches_unpruned_scan(inst: ColoredIntervalInstance, f: int) -> dict:
    stats: dict = {}
    got = solve_fbis_vc(inst, f, stats)
    assert (None if got is None else got.ids) == _unpruned_witness(inst, f)
    assert stats["candidates_examined"] <= 2 ** stats["tau"]
    assert stats["nodes"] <= 2 ** (stats["tau"] + 1) - 1
    return stats


@settings(max_examples=150, deadline=None)
@given(inst=instances(max_n=16, max_k=3))
def test_pruned_walk_matches_unpruned_scan(inst: ColoredIntervalInstance):
    for f in (1, 2, 3):
        _assert_matches_unpruned_scan(inst, f)


def test_pruned_walk_matches_unpruned_scan_seeded():
    # proper-unit n = 48, k = 4, f = alpha // 4 is the bis-vc benchmark shape
    for seed in range(30):
        inst = generate(GenSpec(n=48, k=4, seed=seed, model="proper-unit"))
        alpha = len(minimum_vertex_cover(inst).independent)
        _assert_matches_unpruned_scan(inst, alpha // 4)
    rng = Random(7)
    for seed in range(60):
        spec = GenSpec(n=rng.randint(12, 20), k=rng.randint(2, 4), seed=seed)
        inst = generate(spec)
        for f in (1, 2, 3):
            _assert_matches_unpruned_scan(inst, f)


def test_pruned_walk_visits_far_fewer_nodes_than_unpruned_candidates():
    inst = generate(GenSpec(n=48, k=4, seed=32, model="proper-unit"))
    decomp = minimum_vertex_cover(inst)
    f = len(decomp.independent) // 4
    stats: dict = {}
    assert solve_fbis_vc(inst, f, stats) is None
    unpruned = sum(1 for _ in enumerate_swap_candidates(inst, decomp))
    assert stats["tau"] == decomp.tau == 16
    assert 1 < stats["nodes"] and 100 * stats["nodes"] < unpruned
