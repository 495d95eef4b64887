from __future__ import annotations

import hashlib
from random import Random
from time import perf_counter

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
    random_three_bounded,
    reduce_indset,
    solve_fbis_dp,
    solve_fbis_vc,
    verify_solution,
)
from helpers import (
    build_instance,
    independent_pairs_ok,
    instances,
    random_instance,
    random_triples,
)


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


# sha256 over (seed, f, tau, nodes, candidates_examined, sorted witness ids
# or None) of the rows below, taken before the walk's cut moved to packed
# lanes; any change to the walk's order, counters or witnesses shows here
PINNED_WALK_DIGEST = "b00d76c0d18da383064b82cfa01ddbedb047745ab812aa4c7de410deb334545c"


def _walk_rows():
    for seed in range(200):
        inst = generate(GenSpec(n=48, k=4, seed=seed, model="proper-unit"))
        yield seed, inst, len(minimum_vertex_cover(inst).independent) // 4
    for seed in range(200):
        rng = Random(seed)
        inst = generate(GenSpec(n=rng.randint(12, 20), k=rng.randint(1, 4), seed=seed))
        for f in (1, 2, 3):
            yield seed, inst, f


def test_walk_counters_and_witnesses_match_pinned_digest():
    digest = hashlib.sha256()
    for seed, inst, f in _walk_rows():
        stats: dict = {}
        sol = solve_fbis_vc(inst, f, stats)
        row = (seed, f, stats["tau"], stats["nodes"], stats["candidates_examined"],
               None if sol is None else sorted(sol.ids))
        digest.update(repr(row).encode())
    assert digest.hexdigest() == PINNED_WALK_DIGEST


def _assert_matches_scan_and_dp(inst: ColoredIntervalInstance, f: int) -> dict:
    stats = _assert_matches_unpruned_scan(inst, f)
    assert stats["feasible"] == (solve_fbis_dp(inst, f) is not None)
    return stats


def test_lanes_hold_slack_down_to_minus_f():
    # f > n: every color's slack starts below zero and the root is cut
    inst = build_instance(2, [(0, 1, 1), (2, 3, 2), (1, 2, 1)])
    for f in (4, 7, 20):
        stats = _assert_matches_scan_and_dp(inst, f)
        assert stats["feasible"] is False and stats["nodes"] == 1


def test_lanes_single_color():
    rng = Random(11)
    for seed in range(20):
        inst = random_instance(rng, 16, 1)
        for f in (1, 2, 3, 8):
            _assert_matches_scan_and_dp(inst, f)


def test_lanes_wide_int_for_many_colors():
    # k = 45: disjoint unit intervals, one per color, and every fifth pair
    # bridged by a longer interval; the DP refuses (f+1)^k here, so the
    # construction and the unpruned scan are the references
    k = 45
    rows = [(3 * i, 3 * i + 1, i + 1) for i in range(k)]
    rows += [(3 * i + 1, 3 * i + 3, (7 * i) % k + 1) for i in range(0, k - 1, 5)]
    inst = build_instance(k, rows)
    assert minimum_vertex_cover(inst).tau == 9
    assert _assert_matches_unpruned_scan(inst, 1)["feasible"] is True
    for f in (2, 3):
        assert _assert_matches_unpruned_scan(inst, f)["feasible"] is False
    # no bridge has color k - 1 or k, so stretching color k's one interval
    # onto color k - 1's leaves no feasible set
    crowded = build_instance(k, [*rows[: k - 1], (3 * k - 5, 3 * k - 2, k), *rows[k:]])
    stats = _assert_matches_unpruned_scan(crowded, 1)
    assert stats["feasible"] is False and stats["nodes"] > 1


def test_lanes_with_empty_cover():
    inst = build_instance(3, [(0, 1, 1), (2, 3, 2), (4, 5, 3), (6, 7, 1)])
    assert minimum_vertex_cover(inst).tau == 0
    for f, feasible in ((1, True), (2, False)):
        stats = _assert_matches_scan_and_dp(inst, f)
        assert stats["feasible"] is feasible and stats["nodes"] == 1


def test_lanes_color_without_cover_vertex():
    # color 3 only labels an isolated interval, so its lane moves only when
    # nothing clears it
    inst = build_instance(3, [(0, 4, 1), (1, 5, 2), (2, 6, 1), (3, 7, 2), (9, 10, 3)])
    decomp = minimum_vertex_cover(inst)
    assert all(inst.colors[id] != 3 for id in decomp.cover)
    for f in (1, 2):
        _assert_matches_scan_and_dp(inst, f)
    rng = Random(5)
    for seed in range(20):
        base = random_instance(rng, 12, 2)
        rows = [(iv.left, iv.right, iv.color) for iv in base.intervals]
        rows.append((1000, 1001, 3))
        inst = build_instance(3, rows)
        for f in (1, 2):
            _assert_matches_scan_and_dp(inst, f)


def _independent_cover_subsets(inst: ColoredIntervalInstance, decomp) -> set[frozenset[int]]:
    cover = sorted(decomp.cover)
    out = set()
    for bits in range(1 << len(cover)):
        chosen = [id for j, id in enumerate(cover) if bits >> j & 1]
        if independent_pairs_ok(inst, chosen):
            cleared = {j for id in chosen for j in range(inst.n) if inst.masks[id] >> j & 1}
            out.add(frozenset(decomp.independent - cleared) | frozenset(chosen))
    return out


def test_swap_candidates_at_f_zero_cut_nothing():
    rng = Random(3)
    for seed in range(40):
        inst = random_instance(rng, rng.randint(6, 12), rng.randint(1, 3))
        decomp = minimum_vertex_cover(inst)
        got = list(enumerate_swap_candidates(inst, decomp))
        expected = _independent_cover_subsets(inst, decomp)
        assert len(got) == len(set(got)) == len(expected)
        assert set(got) == expected


def test_tau_refusal_names_only_tau_and_guard():
    # the reduction of a 200-variable formula: the DP refuses (f+1)^k = 2^99
    # as well, so the message must not point at it
    inst, _ = reduce_indset(random_three_bounded(200, Random(0)))
    assert (inst.n, inst.k, minimum_vertex_cover(inst).tau) == (248, 99, 41)
    with pytest.raises(GuardError) as refused:
        solve_fbis_vc(inst, 1)
    assert str(refused.value) == "tau = 41 exceeds 30; 2^tau enumeration refused"
    with pytest.raises(GuardError):
        solve_fbis_dp(inst, 1)


def test_position_rule_on_tied_and_nested_endpoints():
    # endpoints from 0..4 at most: rights coincide, intervals nest or repeat,
    # and prev entries tie, where the walk's cleared range and its one later
    # member are easiest to get wrong
    rng = Random(23)
    for seed in range(400):
        n, k = rng.randint(1, 12), rng.randint(1, 3)
        inst = build_instance(k, random_triples(rng, n, k, span=rng.randint(1, 4)))
        decomp = minimum_vertex_cover(inst)
        got = list(enumerate_swap_candidates(inst, decomp))
        assert len(got) == len(set(got))
        assert set(got) == _independent_cover_subsets(inst, decomp)
        for f in (1, 2, 3):
            _assert_matches_scan_and_dp(inst, f)


def test_vc_builds_no_neighborhood_masks():
    feasible = build_instance(2, [(0, 1, 1), (2, 3, 2), (1, 2, 1)])
    infeasible = build_instance(2, [(0, 2, 1), (1, 3, 2)])
    for inst, f in ((feasible, 1), (infeasible, 1), (feasible, 2)):
        stats: dict = {}
        sol = solve_fbis_vc(inst, f, stats)
        assert (sol is not None) == stats["feasible"] == (inst is feasible and f == 1)
        assert "masks" not in vars(inst)


def _bridged_units(units: int, bridges: int) -> ColoredIntervalInstance:
    """Disjoint unit intervals of alternating colors 1, 2, and bridges of
    alternating colors, each meeting two neighboring units.  The units are
    the greedy independent set, so tau = bridges; a bridge costs one unit of
    each color and adds one of its own, so f = units // 2 is the largest
    feasible f and its only witness is the units."""
    rows = [(3 * i, 3 * i + 1, i % 2 + 1) for i in range(units)]
    step = units // bridges
    rows += [(3 * i + 1, 3 * i + 3, j % 2 + 1) for j, i in enumerate(range(0, units - 1, step))]
    return build_instance(2, rows)


def test_vc_scales_in_n_at_small_tau():
    inst = _bridged_units(20000, 10)
    f = 10000
    start = perf_counter()
    stats: dict = {}
    sol = solve_fbis_vc(inst, f, stats)
    assert stats["tau"] == 10
    assert sol is not None and sol.ids == frozenset(range(20000))
    stats = {}
    assert solve_fbis_vc(inst, f + 1, stats) is None
    assert stats["nodes"] > 1
    assert perf_counter() - start < 1
    assert "masks" not in vars(inst)
