"""The interval index an instance keeps: its sorted view and neighborhood masks."""

from __future__ import annotations

import pytest
from hypothesis import given

from balint import (
    GenSpec,
    GuardError,
    LocalSearchConfig,
    build_sorted_view,
    generate,
    greedy_mcis,
    local_search_mcis,
    parse_instance,
    serialize_instance,
    solve_fbds_brute,
    solve_fbis_dp,
    solve_fbis_vc,
)
from balint.bench import _timed
from balint.model import neighborhood_masks
from helpers import instances

SOLVERS = (
    ("greedy_mcis", greedy_mcis),
    ("local_search_mcis", lambda inst: local_search_mcis(inst, LocalSearchConfig(b=2))),
    ("solve_fbds_brute", lambda inst: solve_fbds_brute(inst, 1)),
    ("solve_fbis_dp", lambda inst: solve_fbis_dp(inst, 1)),
    ("solve_fbis_vc", lambda inst: solve_fbis_vc(inst, 1)),
)


@given(inst=instances())
def test_instance_keeps_the_index_it_builds(inst):
    fresh = parse_instance(serialize_instance(inst))
    view = build_sorted_view(inst)
    assert inst.view == view
    assert inst.masks == neighborhood_masks(inst, view)
    assert inst.view is inst.view
    assert inst.masks is inst.masks
    assert inst == fresh
    assert hash(inst) == hash(fresh)
    assert repr(inst) == repr(fresh)
    fields = ("k", "lefts", "rights", "colors", "proper_flag")
    assert inst._fields == fresh._fields == fields


def _ids(solve, inst):
    """The solver's ids, None for no solution, or the refusal's message."""
    try:
        sol = solve(inst)
    except GuardError as exc:
        return f"refused: {exc}"
    return None if sol is None else sorted(sol.ids)


# solve_fbis_vc refuses every uniform instance here (tau is about 108), so
# the proper-unit family, whose tau stays under the guard, makes its walk
# read the masks.
@pytest.mark.parametrize(
    "model, count, n, k", [("uniform-random", 200, 120, 5), ("proper-unit", 100, 48, 4)]
)
def test_solvers_in_sequence_answer_as_on_a_fresh_parse(model, count, n, k):
    # the later solvers read the view and masks the earlier ones left behind
    for seed in range(count):
        inst = generate(GenSpec(n=n, k=k, seed=seed, model=model))
        text = serialize_instance(inst)
        for name, solve in SOLVERS:
            assert _ids(solve, inst) == _ids(solve, parse_instance(text)), (seed, name)


def test_bench_times_every_rep_on_a_copy_without_an_index():
    inst = generate(GenSpec(n=40, k=3, seed=1))
    inst.masks  # a warm index on the original must not reach the timed calls
    copies = []
    _timed(lambda copy: copies.append((copy, "view" in vars(copy))), inst, 3)
    assert len({id(copy) for copy, _ in copies}) == 3
    assert all(copy == inst and not warm for copy, warm in copies)
