from __future__ import annotations

import hashlib

import pytest
from hypothesis import example, given, settings

from balint import (
    ColoredIntervalInstance,
    GenSpec,
    GuardError,
    build_sorted_view,
    generate,
    max_colors,
    max_f_with_witness,
    oracle_fbis,
    oracle_mcis,
    solve_fbis_dp,
    verify_solution,
)
from balint.fbis_dp import _reconstruct, _run_dp
from helpers import build_instance, independent_pairs_ok, instances


def reference_levels(inst: ColoredIntervalInstance, f: int):
    """Set-of-vectors DP straight from the recurrence, no merge bookkeeping."""
    view = build_sorted_view(inst)
    zero = (0,) * inst.k
    levels = [{zero}]
    for pos in range(1, inst.n + 1):
        c = inst.interval(view.order[pos - 1]).color - 1
        step = {
            u[:c] + (u[c] + 1,) + u[c + 1 :]
            for u in levels[view.prev[pos - 1]]
            if u[c] < f
        }
        levels.append(levels[pos - 1] | step)
    return levels


def test_dp_worked_example():
    inst = build_instance(2, [(0, 2, 1), (1, 3, 2), (4, 5, 2)])
    sol = solve_fbis_dp(inst, 1)
    assert sol is not None
    assert sol.ids == frozenset({0, 2})
    assert sol.per_color_counts == (1, 1)
    assert solve_fbis_dp(inst, 2) is None


def test_dp_rejects_nonpositive_f():
    inst = build_instance(1, [(0, 1, 1)])
    with pytest.raises(ValueError):
        solve_fbis_dp(inst, 0)


def test_dp_color_deficient_short_circuit():
    inst = build_instance(3, [(0, 1, 1), (3, 4, 2)])
    stats = {}
    assert solve_fbis_dp(inst, 1, stats) is None
    assert not stats["feasible"]


def test_dp_empty_instance_zero_colors():
    inst = build_instance(1, [])
    assert solve_fbis_dp(inst, 1) is None


def test_dp_vector_guard():
    inst = build_instance(4, [(3 * c, 3 * c + 1, c + 1) for c in range(4)])
    with pytest.raises(GuardError):
        solve_fbis_dp(inst, 100)


def test_dp_stats_report_peak_and_feasibility():
    inst = build_instance(2, [(0, 2, 1), (1, 3, 2), (4, 5, 2)])
    stats = {}
    solve_fbis_dp(inst, 1, stats)
    assert stats["feasible"]
    assert 1 <= stats["peak_states"] <= 4


def unpack(level: int, k: int, f: int) -> set[tuple[int, ...]]:
    """The cardinality vectors whose bits are set in a packed level."""
    vectors = set()
    for bit in range(level.bit_length()):
        if level >> bit & 1:
            digits = []
            for _ in range(k):
                bit, digit = divmod(bit, f + 1)
                digits.append(digit)
            vectors.add(tuple(reversed(digits)))
    return vectors


@settings(max_examples=150, deadline=None)
@given(inst=instances(max_n=14, max_k=3))
def test_dp_levels_match_reference_recurrence(inst: ColoredIntervalInstance):
    for f in (1, 2):
        levels = _run_dp(build_sorted_view(inst), inst.k, f)
        ref = reference_levels(inst, f)
        assert [unpack(level, inst.k, f) for level in levels] == ref
        assert levels[-1] < 1 << (f + 1) ** inst.k
        for lo, hi in zip(levels, levels[1:]):
            # levels only grow, and a level that does not grow is the same int
            assert lo & hi == lo
            assert lo != hi or lo is hi


@settings(max_examples=150, deadline=None)
@given(inst=instances(max_n=12, max_k=3))
def test_dp_reconstruction_realizes_every_final_vector(
    inst: ColoredIntervalInstance,
):
    f = 2
    view = build_sorted_view(inst)
    levels = _run_dp(view, inst.k, f)
    for vector in range(levels[-1].bit_length()):
        if not levels[-1] >> vector & 1:
            continue
        ids = _reconstruct(view, levels, inst.k, f, vector)
        assert len(ids) == len(set(ids))
        counts = [0] * inst.k
        for i in ids:
            counts[inst.interval(i).color - 1] += 1
        assert {tuple(counts)} == unpack(1 << vector, inst.k, f)
        assert independent_pairs_ok(inst, ids)


@pytest.mark.parametrize(
    "spec, f, ids",
    [
        (
            GenSpec(n=40, k=3, seed=11, model="uniform-random", f_target=2),
            2,
            [3, 7, 21, 24, 26, 28],
        ),
        (GenSpec(n=200, k=4, seed=7), 2, [20, 32, 42, 49, 68, 70, 104, 143]),
        (
            GenSpec(n=16384, k=4, seed=1),
            2,
            [7, 7582, 9750, 10992, 12513, 15067, 15839, 15915],
        ),
    ],
)
def test_dp_witness_ids_are_pinned(spec: GenSpec, f: int, ids: list[int]):
    # the ids returned by the tuple-vector DP with its birth table; the
    # first-appearance walk over packed levels must give the same witness
    sol = solve_fbis_dp(generate(spec), f)
    assert sol is not None and sorted(sol.ids) == ids


def full_run_answer(inst: ColoredIntervalInstance, f: int):
    """(sorted ids or None, feasible, peak_states) read from every level of
    the DP over build_sorted_view, as if the solver never stopped early."""
    if inst.is_color_deficient():
        return None, False, 0
    view = build_sorted_view(inst)
    target = (f + 1) ** inst.k - 1
    levels = _run_dp(view, inst.k, f)
    feasible = bool(levels[-1] >> target & 1)
    ids = sorted(_reconstruct(view, levels, inst.k, f, target)) if feasible else None
    return ids, feasible, levels[-1].bit_count()


@settings(max_examples=200, deadline=None)
@given(inst=instances(max_n=14, max_k=3, span=6, lo=-6))
@example(inst=build_instance(0, []))
@example(inst=build_instance(2, [(-3, 4, 2), (-3, 4, 1), (-1, 2, 2), (-1, 2, 1), (-5, -3, 1)]))
def test_dp_stopping_early_answers_as_the_full_run(inst: ColoredIntervalInstance):
    for f in (1, 2, 3):
        for warm in (False, True):
            copy = ColoredIntervalInstance.from_columns(
                inst.k, inst.lefts, inst.rights, inst.colors
            )
            if warm:
                copy.view  # the walk then reads the built view
            stats = {}
            sol = solve_fbis_dp(copy, f, stats)
            got = None if sol is None else sorted(sol.ids), stats["feasible"], stats["peak_states"]
            assert got == full_run_answer(inst, f), (f, warm)


def test_dp_sorts_only_the_prefix_it_reads():
    # (2,2,2,2) is reachable within the first hundred of 16384 positions
    inst = generate(GenSpec(n=16384, k=4, seed=1))
    assert solve_fbis_dp(inst, 2) is not None
    assert "view" not in vars(inst)
    # the largest feasible f is 36: a "no" walks every position and keeps the view
    inst = generate(GenSpec(n=16384, k=4, seed=1))
    assert solve_fbis_dp(inst, 37) is None
    assert vars(inst)["view"] == build_sorted_view(inst)


@settings(max_examples=200, deadline=None)
@given(inst=instances(max_n=12, max_k=3))
def test_dp_matches_oracle(inst: ColoredIntervalInstance):
    for f in (1, 2):
        got = solve_fbis_dp(inst, f)
        want = oracle_fbis(inst, f)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_solution(inst, got, f).valid


def test_dp_deterministic_witness():
    spec = GenSpec(n=40, k=3, seed=11, model="uniform-random", f_target=2)
    inst = generate(spec)
    first = solve_fbis_dp(inst, 2)
    second = solve_fbis_dp(inst, 2)
    assert first is not None and first.ids == second.ids


def test_max_f_worked_example():
    inst = build_instance(2, [(0, 2, 1), (1, 3, 2), (4, 5, 2)])
    assert max_f_with_witness(inst)[0] == 1


def test_max_f_zero_for_deficient_or_empty():
    assert max_f_with_witness(build_instance(2, [(0, 1, 1)]))[0] == 0
    assert max_f_with_witness(build_instance(1, []))[0] == 0


def test_max_f_witness_verifies_at_reported_f():
    for seed in range(20):
        spec = GenSpec(n=24, k=3, seed=seed, model="uniform-random", f_target=3)
        inst = generate(spec)
        best, witness = max_f_with_witness(inst)
        if best == 0:
            assert witness is None
            continue
        assert witness is not None
        assert verify_solution(inst, witness, best).valid
        assert solve_fbis_dp(inst, best + 1) is None


def test_max_f_caps_vectors_at_alpha_over_k():
    # capped by the smallest class (54) alone, the DP would need 55^5 vectors,
    # past VECTOR_GUARD; alpha // k is far smaller
    inst = generate(GenSpec(n=300, k=5, seed=1, model="uniform-random"))
    best, witness = max_f_with_witness(inst)
    assert best >= 1
    assert verify_solution(inst, witness, best).valid
    assert solve_fbis_dp(inst, best) is not None
    assert solve_fbis_dp(inst, best + 1) is None


@settings(max_examples=100, deadline=None)
@given(inst=instances(max_n=10, max_k=2))
def test_max_f_matches_oracle_sweep(inst: ColoredIntervalInstance):
    best = max_f_with_witness(inst)[0]
    if best > 0:
        assert oracle_fbis(inst, best) is not None
    assert oracle_fbis(inst, best + 1) is None


def test_max_f_packed_pass_on_large_instance():
    # one pass at the floor(alpha / k) cap decides f = 13 among 14^4 vectors
    inst = generate(GenSpec(n=2000, k=4, seed=1, model="uniform-random"))
    best, witness = max_f_with_witness(inst)
    assert best == 13
    assert verify_solution(inst, witness, best).valid
    assert solve_fbis_dp(inst, 14) is None


@pytest.mark.parametrize(
    "model, sizes, seeds",
    [
        ("uniform-random", [(n, k) for n in (1, 6, 12, 16) for k in (1, 2, 4, 6)], 8),
        ("proper-unit", [(n, k) for n in (1, 6, 12, 16) for k in (1, 3, 5)], 8),
        ("greedy-adversarial", [(n, 1) for n in (3, 9, 15, 24)], 1),  # seed is unused
    ],
)
def test_max_colors_matches_oracle_mcis(model, sizes, seeds):
    for n, k in sizes:
        for seed in range(seeds):
            inst = generate(GenSpec(n=n, k=k, seed=seed, model=model))
            assert max_colors(inst) == oracle_mcis(inst).distinct_colors, (n, k, seed)


@settings(max_examples=200, deadline=None)
@given(inst=instances(max_n=14, max_k=6))
def test_max_colors_matches_oracle_on_drawn_instances(inst: ColoredIntervalInstance):
    assert max_colors(inst) == oracle_mcis(inst).distinct_colors


def test_max_colors_edge_cases():
    assert max_colors(build_instance(0, [])) == 0
    assert max_colors(build_instance(1, [(0, 4, 1), (1, 2, 1)])) == 1
    # colors 2 and 4 have no interval; 1 and 3 overlap, so only two are reachable
    deficient = build_instance(5, [(0, 3, 1), (2, 5, 3), (7, 8, 5)])
    assert deficient.is_color_deficient()
    assert max_colors(deficient) == oracle_mcis(deficient).distinct_colors == 2
    # greedy keeps one color per block, the optimum two
    adversarial = generate(GenSpec(n=30, k=1, seed=0, model="greedy-adversarial"))
    assert max_colors(adversarial) == adversarial.k == 20


def test_max_colors_vector_guard():
    assert max_colors(build_instance(20, [(3 * c, 3 * c + 1, c + 1) for c in range(20)])) == 20
    with pytest.raises(GuardError):
        max_colors(build_instance(27, [(3 * c, 3 * c + 1, c + 1) for c in range(27)]))


def max_f_digest() -> str:
    """sha256 over (best, sorted witness ids) of max_f_with_witness on 560
    seeded instances, 376 of them with a positive answer."""
    digest = hashlib.sha256()
    for model in ("uniform-random", "proper-unit"):
        for n in (0, 1, 6, 14, 30, 60, 120):
            for k in (1, 2, 3, 4):
                for seed in range(10):
                    best, sol = max_f_with_witness(generate(GenSpec(n, k, seed, model)))
                    digest.update(repr((best, None if sol is None else sorted(sol.ids))).encode())
    return digest.hexdigest()


def test_max_f_answers_are_pinned():
    assert max_f_digest() == "ae60b206fdb0adaacf2773406a1033954e84072080d97bea24eed7f595422bf5"
