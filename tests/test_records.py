"""The public records' contract: repr text, equality and hash, constructor
keywords and defaults, Interval ordering, construction-time ValueErrors, and
no assignment after construction."""

from __future__ import annotations

import inspect

import pytest

from balint import (
    CnfFormula,
    ColoredIntervalInstance,
    DominationIndex,
    GadgetMetadata,
    GenSpec,
    Interval,
    LocalSearchConfig,
    OracleBudget,
    SolutionSet,
    SortedView,
    Verdict,
    VertexCoverDecomposition,
    build_sorted_view,
)
from balint.bench import BenchRow
from balint.reductions import ClauseRole, HubRole, OccurrenceRole, VariableGadget

NO_DEFAULT = "<required>"


def _instance(proper_flag=False):
    return ColoredIntervalInstance(
        2, [Interval(0, 0, 2, 1), Interval(1, 4, 5, 2)], proper_flag=proper_flag
    )


def _gadget(t1=0):
    return VariableGadget(t1, 2, 3, 5, 1, 4, 12, 14, 16, 18, (1, 2), (3, 4))


# name -> (build, build_other, repr of build(), [(keyword, default)])
RECORDS = {
    "Interval": (
        lambda: Interval(id=0, left=1, right=3, color=2),
        lambda: Interval(id=0, left=1, right=4, color=2),
        "Interval(id=0, left=1, right=3, color=2)",
        [("id", NO_DEFAULT), ("left", NO_DEFAULT), ("right", NO_DEFAULT), ("color", NO_DEFAULT)],
    ),
    "ColoredIntervalInstance": (
        _instance,
        lambda: _instance(proper_flag=True),
        "ColoredIntervalInstance(k=2, lefts=(0, 4), rights=(2, 5), colors=(1, 2), "
        "proper_flag=False)",
        [("k", NO_DEFAULT), ("intervals", NO_DEFAULT), ("proper_flag", False)],
    ),
    "SortedView": (
        lambda: SortedView(order=(1, 0), prev=(0, 1), colors=(1, 0)),
        lambda: SortedView(order=(1, 0), prev=(0, 0), colors=(1, 0)),
        "SortedView(order=(1, 0), prev=(0, 1), colors=(1, 0))",
        [("order", NO_DEFAULT), ("prev", NO_DEFAULT), ("colors", NO_DEFAULT)],
    ),
    "SolutionSet": (
        lambda: SolutionSet(kind="BIS", ids=frozenset({0, 2}), per_color_counts=(1, 1)),
        lambda: SolutionSet(kind="BDS", ids=frozenset({0, 2}), per_color_counts=(1, 1)),
        "SolutionSet(kind='BIS', ids=frozenset({0, 2}), per_color_counts=(1, 1))",
        [("kind", NO_DEFAULT), ("ids", NO_DEFAULT), ("per_color_counts", NO_DEFAULT)],
    ),
    "Verdict": (
        lambda: Verdict(True, distinct_colors=3),
        lambda: Verdict(True),
        "Verdict(valid=True, reason=None, distinct_colors=3)",
        [("valid", NO_DEFAULT), ("reason", None), ("distinct_colors", None)],
    ),
    "CnfFormula": (
        lambda: CnfFormula.build(2, [(1, -2), (2, 1)]),
        lambda: CnfFormula.build(2, [(1, -2), (-2, 1)]),
        "CnfFormula(num_vars=2, clauses=((1, -2), (2, 1)), flavor='three_bounded')",
        [("num_vars", NO_DEFAULT), ("clauses", NO_DEFAULT), ("occurrence_lists", NO_DEFAULT)],
    ),
    "GadgetMetadata": (
        lambda: GadgetMetadata(kind="indset", num_vars=2, clauses=((1, -2), (2, 1))),
        lambda: GadgetMetadata(kind="domset", num_vars=2, clauses=((1, -2), (2, 1))),
        "GadgetMetadata(kind='indset', num_vars=2, clauses=((1, -2), (2, 1)))",
        [("kind", NO_DEFAULT), ("num_vars", NO_DEFAULT), ("clauses", NO_DEFAULT)],
    ),
    "OccurrenceRole": (
        lambda: OccurrenceRole(variable=2, clause=1, positive=True),
        lambda: OccurrenceRole(variable=2, clause=1, positive=False),
        "OccurrenceRole(variable=2, clause=1, positive=True)",
        [("variable", NO_DEFAULT), ("clause", NO_DEFAULT), ("positive", NO_DEFAULT)],
    ),
    "HubRole": (
        lambda: HubRole(variable=1, name="h_t"),
        lambda: HubRole(variable=1, name="h_f"),
        "HubRole(variable=1, name='h_t')",
        [("variable", NO_DEFAULT), ("name", NO_DEFAULT)],
    ),
    "ClauseRole": (
        lambda: ClauseRole(clause=3, variable=1, positive=False, slot=2),
        lambda: ClauseRole(clause=3, variable=1, positive=False, slot=1),
        "ClauseRole(clause=3, variable=1, positive=False, slot=2)",
        [("clause", NO_DEFAULT), ("variable", NO_DEFAULT), ("positive", NO_DEFAULT),
         ("slot", NO_DEFAULT)],
    ),
    "VariableGadget": (
        _gadget,
        lambda: _gadget(t1=6),
        "VariableGadget(t1=0, t2=2, f1=3, f2=5, h_t=1, h_f=4, c_t1=12, c_t2=14, c_f1=16, "
        "c_f2=18, pos_clauses=(1, 2), neg_clauses=(3, 4))",
        [(name, NO_DEFAULT) for name in (
            "t1", "t2", "f1", "f2", "h_t", "h_f", "c_t1", "c_t2", "c_f1", "c_f2",
            "pos_clauses", "neg_clauses",
        )],
    ),
    "GenSpec": (
        lambda: GenSpec(n=10, k=3, seed=7),
        lambda: GenSpec(n=10, k=3, seed=7, f_target=2),
        "GenSpec(n=10, k=3, seed=7, model='uniform-random', f_target=None)",
        [("n", NO_DEFAULT), ("k", NO_DEFAULT), ("seed", NO_DEFAULT),
         ("model", "uniform-random"), ("f_target", None)],
    ),
    "LocalSearchConfig": (
        lambda: LocalSearchConfig(),
        lambda: LocalSearchConfig(b=1),
        "LocalSearchConfig(b=2, neighbor_budget=1000000000)",
        [("b", 2), ("neighbor_budget", 10**9)],
    ),
    "DominationIndex": (
        lambda: DominationIndex(closed_masks=(3, 3), full_mask=3),
        lambda: DominationIndex(closed_masks=(1, 2), full_mask=3),
        "DominationIndex(closed_masks=(3, 3), full_mask=3)",
        [("closed_masks", NO_DEFAULT), ("full_mask", NO_DEFAULT)],
    ),
    "VertexCoverDecomposition": (
        lambda: VertexCoverDecomposition(independent=frozenset({0}), cover=frozenset({1})),
        lambda: VertexCoverDecomposition(independent=frozenset({1}), cover=frozenset({0})),
        "VertexCoverDecomposition(independent=frozenset({0}), cover=frozenset({1}))",
        [("independent", NO_DEFAULT), ("cover", NO_DEFAULT)],
    ),
    "OracleBudget": (
        lambda: OracleBudget(),
        lambda: OracleBudget(max_assignments=8),
        "OracleBudget(max_subsets=16777216, max_assignments=1048576)",
        [("max_subsets", 1 << 24), ("max_assignments", 1 << 20)],
    ),
    "BenchRow": (
        lambda: BenchRow("u-1", 12, 3, "f=1", "dp", "True"),
        lambda: BenchRow("u-1", 12, 3, "f=1", "dp", "False"),
        "BenchRow(instance='u-1', n=12, k=3, param='f=1', method='dp', result='True', "
        "optimum='', ratio='', wall_time_s=0.0, peak_state='')",
        [("instance", NO_DEFAULT), ("n", NO_DEFAULT), ("k", NO_DEFAULT), ("param", NO_DEFAULT),
         ("method", NO_DEFAULT), ("result", NO_DEFAULT), ("optimum", ""), ("ratio", ""),
         ("wall_time_s", 0.0), ("peak_state", "")],
    ),
}

RECORD_TYPES = {
    "Interval": Interval,
    "ColoredIntervalInstance": ColoredIntervalInstance,
    "SortedView": SortedView,
    "SolutionSet": SolutionSet,
    "Verdict": Verdict,
    "CnfFormula": CnfFormula,
    "GadgetMetadata": GadgetMetadata,
    "OccurrenceRole": OccurrenceRole,
    "HubRole": HubRole,
    "ClauseRole": ClauseRole,
    "VariableGadget": VariableGadget,
    "GenSpec": GenSpec,
    "LocalSearchConfig": LocalSearchConfig,
    "DominationIndex": DominationIndex,
    "VertexCoverDecomposition": VertexCoverDecomposition,
    "OracleBudget": OracleBudget,
    "BenchRow": BenchRow,
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_equality_and_hash(name):
    build, build_other, text, _ = RECORDS[name]
    a, b, other = build(), build(), build_other()
    assert type(a) is RECORD_TYPES[name]
    assert repr(a) == text
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other
    assert hash(a) == hash(build())  # stable across constructions


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_constructor_keywords_and_defaults(name):
    *_, params = RECORDS[name]
    signature = inspect.signature(RECORD_TYPES[name])
    assert [
        (p.name, NO_DEFAULT if p.default is inspect.Parameter.empty else p.default)
        for p in signature.parameters.values()
    ] == params


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]()
    field = RECORDS[name][2].split("(", 1)[1].split("=", 1)[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(record) == before


def test_instance_equality_ignores_its_cached_index():
    inst = _instance()
    before = (repr(inst), hash(inst))
    assert inst.view == build_sorted_view(inst)
    assert inst.masks == (1, 2)
    assert (repr(inst), hash(inst)) == before
    assert inst == _instance()


def test_formula_equality_ignores_occurrence_lists():
    phi = CnfFormula.build(2, [(1, -2)])
    same = CnfFormula(num_vars=2, clauses=((1, -2),), occurrence_lists=((), ((1,), ()), ((), (1,))))
    assert same.flavor == phi.flavor == "three_bounded"
    lists = ((), ((1, 2, 3, 4), ()), ((), (1,)))
    other = CnfFormula(num_vars=2, clauses=((1, -2),), occurrence_lists=lists)
    assert other.flavor == "general"  # classified from the lists it is given
    assert phi == same and hash(phi) == hash(same) and phi != other


def test_interval_ordering_is_by_id_left_right_color():
    ivs = [Interval(1, 0, 2, 1), Interval(0, 5, 6, 1), Interval(0, 5, 6, 2), Interval(0, 3, 9, 4)]
    assert sorted(ivs) == [ivs[3], ivs[1], ivs[2], ivs[0]]
    assert Interval(0, 5, 6, 1) < Interval(0, 5, 7, 0)
    assert Interval(0, 5, 6, 1) <= Interval(0, 5, 6, 1)
    assert not Interval(2, 0, 0, 1) < Interval(1, 9, 9, 9)
    assert max(ivs) == Interval(1, 0, 2, 1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"model": "zigzag"}, "model must be one of ('uniform-random', 'proper-unit', "
                              "'greedy-adversarial', 'sat-derived'), got 'zigzag'"),
        ({"n": -1}, "need n >= 0 and k >= 1"),
        ({"k": 0}, "need n >= 0 and k >= 1"),
        ({"model": "proper-unit", "f_target": 1},
         "f_target applies only to uniform-random, not proper-unit"),
        ({"f_target": -1}, "need f_target >= 0"),
    ],
)
def test_genspec_refuses_at_construction(kwargs, message):
    with pytest.raises(ValueError) as err:
        GenSpec(**{"n": 4, "k": 2, "seed": 0, **kwargs})
    assert str(err.value) == message


def test_solution_set_refuses_an_unknown_kind_at_construction():
    with pytest.raises(ValueError) as err:
        SolutionSet("MIS", frozenset(), ())
    assert str(err.value) == "kind must be one of ('BIS', 'MCIS', 'BDS'), got 'MIS'"
