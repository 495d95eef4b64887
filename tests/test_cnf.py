from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from balint import (
    CnfFormula,
    FormatError,
    is_three_bounded,
    is_tptn,
    parse_dimacs,
    serialize_dimacs,
)
from balint.cnf import evaluate


def test_build_rejects_empty_clause():
    with pytest.raises(ValueError):
        CnfFormula.build(1, [()])


def test_build_rejects_out_of_range_literal():
    with pytest.raises(ValueError):
        CnfFormula.build(1, [(2,)])
    with pytest.raises(ValueError):
        CnfFormula.build(1, [(0,)])


def test_build_rejects_repeated_variable_in_clause():
    with pytest.raises(ValueError):
        CnfFormula.build(2, [(1, -1)])


def test_flavor_detection_prefers_tptn():
    phi = CnfFormula.build(2, [(1, 2), (-1, -2), (1, -2), (-1, 2)])
    assert phi.flavor == "tptn"
    assert is_tptn(phi)
    # Four occurrences per variable, so tptn does not imply three_bounded.
    assert not is_three_bounded(phi)


def test_flavor_three_bounded():
    phi = CnfFormula.build(2, [(1, 2), (-1, 2)])
    assert phi.flavor == "three_bounded"
    assert is_three_bounded(phi)
    assert not is_tptn(phi)


def test_flavor_general_for_unit_clause():
    # Size-1 clauses are allowed for tptn but not for the 3-bounded flavor.
    assert CnfFormula.build(1, [(1,)]).flavor == "general"


def test_unit_clauses_can_still_be_tptn():
    phi = CnfFormula.build(1, [(1,), (1,), (-1,), (-1,)])
    assert is_tptn(phi)


def test_empty_formula_is_vacuously_tptn():
    assert CnfFormula.build(0, []).flavor == "tptn"


def test_four_occurrences_break_three_bounded():
    phi = CnfFormula.build(2, [(1, 2), (1, -2), (1, 2), (-1, -2)])
    assert not is_three_bounded(phi)


def test_occurrences_lists_one_based_clause_indices_by_polarity():
    phi = CnfFormula.build(2, [(1, 2), (-1, 2), (-1, -2)])
    assert phi.occurrence_lists[1] == ((1,), (2, 3))


def test_parse_dimacs_multiline_clause_and_comments():
    phi = parse_dimacs("c header\np cnf 2 2\n1 2 0\n-1\n2 0\n")
    assert phi.num_vars == 2
    assert phi.clauses == ((1, 2), (-1, 2))


def test_parse_dimacs_percent_terminator():
    phi = parse_dimacs("p cnf 1 1\n1 0\n%\n0\n")
    assert phi.clauses == ((1,),)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("p cnf 2 2\n1 2 0\n", "declares 2 clauses but found 1"),
        ("p cnf 1 1\n1 1 0\n", "appears twice"),
        ("1 2 0\n", "problem line"),
        ("p cnf 1 1\n2 0\n", "out of range"),
    ],
)
def test_parse_dimacs_errors(text: str, fragment: str):
    with pytest.raises(FormatError) as err:
        parse_dimacs(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("p cnf 1 1\np cnf 1 1\n1 0\n", 2, "duplicate problem line"),
        ("p cnf 1\n", 1, "problem line must be 'p cnf <vars> <clauses>'"),
        ("p dnf 1 1\n", 1, "problem line must be 'p cnf <vars> <clauses>'"),
        ("c counts\np cnf a 1\n", 2, "problem line counts must be integers"),
        ("p cnf 2 1\n1 x 0\n", 2, "bad literal 'x'"),
        ("p cnf 1 2\n1 0\n0\n", 3, "empty clause"),
        ("c no problem line\n", None, "missing problem line"),
        ("p cnf 1 1\n1\n", None, "unterminated clause at end of input"),
    ],
)
def test_parse_dimacs_error_messages_and_lines(text: str, line: int | None, message: str):
    with pytest.raises(FormatError) as err:
        parse_dimacs(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_serialize_dimacs_round_trip():
    phi = CnfFormula.build(2, [(1, 2), (-1, 2)])
    assert serialize_dimacs(phi) == "p cnf 2 2\n1 2 0\n-1 2 0\n"
    assert parse_dimacs(serialize_dimacs(phi)) == phi


@st.composite
def formulas(draw):
    num_vars = draw(st.integers(1, 5))
    m = draw(st.integers(0, 6))
    clauses = []
    for _ in range(m):
        size = draw(st.integers(1, min(3, num_vars)))
        vars = draw(
            st.lists(
                st.integers(1, num_vars), min_size=size, max_size=size, unique=True
            )
        )
        clause = tuple(v if draw(st.booleans()) else -v for v in vars)
        clauses.append(clause)
    return CnfFormula.build(num_vars, clauses)


@settings(max_examples=150)
@given(phi=formulas())
def test_dimacs_round_trip_random(phi: CnfFormula):
    assert parse_dimacs(serialize_dimacs(phi)) == phi


@settings(max_examples=100)
@given(phi=formulas(), data=st.data())
def test_evaluate_matches_literal_semantics(phi: CnfFormula, data):
    assignment = {
        v: data.draw(st.booleans()) for v in range(1, phi.num_vars + 1)
    }
    want = all(
        any(assignment[abs(l)] == (l > 0) for l in clause) for clause in phi.clauses
    )
    assert evaluate(phi, assignment) == want


def test_evaluate_treats_unassigned_as_false():
    phi = CnfFormula.build(2, [(1, 2)])
    assert not evaluate(phi, {1: False})
    assert evaluate(phi, {1: True})
