from __future__ import annotations

import subprocess
import sys
from itertools import islice
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from balint import (
    ColoredIntervalInstance,
    FormatError,
    GenSpec,
    Interval,
    SolutionSet,
    Verdict,
    build_sorted_view,
    generate,
    intersects,
    parse_assignment,
    parse_instance,
    parse_solution,
    serialize_assignment,
    serialize_instance,
    serialize_solution,
    solution_from_ids,
    verify_solution,
)
from balint.model import edge_count, walk_sorted_view
from helpers import (
    brute_intersects,
    build_instance,
    instances,
    random_instance,
    reference_parse_instance,
)

interval_st = st.builds(
    lambda i, a, b, c: Interval(id=i, left=min(a, b), right=max(a, b), color=c),
    st.integers(0, 99),
    st.integers(0, 30),
    st.integers(0, 30),
    st.integers(1, 4),
)


def test_intersects_shared_endpoint_counts():
    a = Interval(0, 0, 2, 1)
    b = Interval(1, 2, 5, 1)
    assert intersects(a, b)
    assert intersects(b, a)


def test_intersects_gap_of_one():
    a = Interval(0, 0, 2, 1)
    b = Interval(1, 3, 5, 1)
    assert not intersects(a, b)


@given(a=interval_st, b=interval_st)
def test_intersects_matches_point_enumeration(a: Interval, b: Interval):
    assert intersects(a, b) == brute_intersects(a, b)
    assert intersects(a, b) == intersects(b, a)
    assert intersects(a, a)


def test_instance_validation_rejects_bad_color():
    with pytest.raises(ValueError):
        build_instance(1, [(0, 2, 2)])


def test_instance_validation_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        ColoredIntervalInstance(
            k=1, intervals=(Interval(0, 5, 2, 1),), proper_flag=False
        )
    with pytest.raises(ValueError, match="interval 0: left 5 > right 2"):
        ColoredIntervalInstance.from_columns(1, [5], [2], [1])


def test_instance_rejects_duplicate_ids():
    ivs = (Interval(0, 0, 1, 1), Interval(0, 2, 3, 1))
    with pytest.raises(ValueError):
        ColoredIntervalInstance(k=1, intervals=ivs, proper_flag=False)


def test_instance_normalizes_interval_order_by_id():
    ivs = (Interval(1, 4, 5, 1), Interval(0, 0, 2, 1))
    inst = ColoredIntervalInstance(k=1, intervals=ivs, proper_flag=False)
    assert [iv.id for iv in inst.intervals] == [0, 1]
    assert inst.interval(1).left == 4


def test_proper_flag_rejects_strict_containment():
    with pytest.raises(ValueError):
        build_instance(2, [(0, 4, 1), (1, 3, 2)], proper=True)


def test_proper_flag_rejects_nested_with_shared_endpoint():
    # [0,3] is a proper subset of [0,4] even though they share an endpoint.
    with pytest.raises(ValueError):
        build_instance(2, [(0, 4, 1), (0, 3, 2)], proper=True)


def test_proper_flag_allows_identical_intervals():
    inst = build_instance(2, [(0, 4, 1), (0, 4, 2)], proper=True)
    assert inst.n == 2


def test_color_classes_and_deficiency():
    inst = build_instance(3, [(0, 1, 1), (2, 3, 1), (5, 6, 3)])
    assert inst.color_class_ids() == [[0, 1], [], [2]]
    assert [c for c, ids in enumerate(inst.color_class_ids(), 1) if not ids] == [2]
    assert inst.is_color_deficient()
    assert not build_instance(1, [(0, 1, 1)]).is_color_deficient()


def test_sorted_view_worked_example():
    inst = build_instance(2, [(0, 2, 1), (1, 3, 2), (4, 5, 2)])
    view = build_sorted_view(inst)
    assert view.order == (0, 1, 2)
    assert view.prev == (0, 0, 2)


def test_sorted_view_strict_predecessor_only():
    gap = build_sorted_view(build_instance(1, [(0, 1, 1), (2, 3, 1)]))
    assert gap.order == (0, 1)
    assert gap.prev == (0, 1)
    touch = build_sorted_view(build_instance(1, [(0, 2, 1), (2, 3, 1)]))
    assert touch.prev == (0, 0)


def test_sorted_view_tie_break_on_left_then_id():
    inst = build_instance(1, [(3, 5, 1), (0, 5, 1), (3, 5, 1)])
    view = build_sorted_view(inst)
    assert view.order == (1, 0, 2)


@st.composite
def crowded_instances(draw):
    """Instances on a narrow grid around zero: negative endpoints, shared
    lefts and rights, nested and touching intervals, and the empty k = 0 case."""
    k = draw(st.integers(0, 4))
    n = draw(st.integers(0, 16)) if k else 0
    triples = []
    for _ in range(n):
        a = draw(st.integers(-6, 6))
        b = draw(st.integers(-6, 6))
        triples.append((min(a, b), max(a, b), draw(st.integers(1, k))))
    return build_instance(k, triples)


@settings(max_examples=300)
@given(inst=crowded_instances())
@example(inst=build_instance(0, []))
@example(inst=build_instance(2, [(-3, 4, 2), (-3, 4, 1), (-1, 2, 2), (4, 6, 1), (-5, -3, 1)]))
def test_sorted_view_matches_tuple_sort(inst: ColoredIntervalInstance):
    view = build_sorted_view(inst)
    ranked = sorted(inst.intervals, key=lambda iv: (iv.right, iv.left, iv.id))
    assert view.order == tuple(iv.id for iv in ranked)
    assert view.prev == tuple(sum(1 for r in ranked if r.right < iv.left) for iv in ranked)
    assert view.colors == tuple(inst.interval(id).color - 1 for id in view.order)


@settings(max_examples=300)
@given(inst=crowded_instances(), part=st.integers(0, 16))
@example(inst=build_instance(0, []), part=0)
def test_walk_is_the_sorted_view_read_in_order(inst: ColoredIntervalInstance, part: int):
    want = build_sorted_view(inst)
    steps = list(zip(want.colors, want.prev))
    # read in part: the lists hold that prefix and no view is kept
    part = min(part, inst.n)
    copy = ColoredIntervalInstance.from_columns(inst.k, inst.lefts, inst.rights, inst.colors)
    view, positions = walk_sorted_view(copy)
    assert list(islice(positions, part)) == steps[:part]
    assert view == tuple(list(column[:part]) for column in want)
    assert "view" not in vars(copy)
    # read to the end: the walk keeps its view, which a second walk reads
    view, positions = walk_sorted_view(inst)
    assert list(positions) == steps
    assert vars(inst)["view"] == want
    again, positions = walk_sorted_view(inst)
    assert again is inst.view and list(positions) == steps


def _quadratic_prev(inst: ColoredIntervalInstance, order):
    rights = [inst.interval(i).right for i in order]
    prev = []
    for p, id in enumerate(order):
        left = inst.interval(id).left
        prev.append(sum(1 for r in rights if r < left))
    return tuple(prev)


@given(inst=instances(max_n=40))
def test_prev_matches_quadratic_scan(inst: ColoredIntervalInstance):
    view = build_sorted_view(inst)
    assert view.prev == _quadratic_prev(inst, view.order)


@given(inst=instances(max_n=24))
def test_prev_splits_predecessors_by_intersection(inst: ColoredIntervalInstance):
    view = build_sorted_view(inst)
    for p in range(inst.n):
        cur = inst.interval(view.order[p])
        for q in range(p):
            other = inst.interval(view.order[q])
            assert intersects(cur, other) == (q >= view.prev[p])


@pytest.mark.parametrize("seed", range(6))
def test_prev_matches_quadratic_scan_large(seed: int):
    rng = Random(seed)
    inst = random_instance(rng, 200, 4)
    view = build_sorted_view(inst)
    assert view.prev == _quadratic_prev(inst, view.order)


@settings(max_examples=200, deadline=None)
@given(inst=instances(max_n=24))
@example(inst=build_instance(1, [(0, 2, 1), (2, 4, 1), (4, 4, 1), (5, 9, 1), (6, 7, 1), (6, 9, 1)]))
def test_edge_count_matches_pairwise_checks(inst: ColoredIntervalInstance):
    pairs = sum(
        1
        for a in inst.intervals
        for b in inst.intervals
        if a.id < b.id and brute_intersects(a, b)
    )
    assert edge_count(inst, build_sorted_view(inst)) == pairs


def test_verified_solution_raises_under_optimize():
    script = (
        "from balint import ColoredIntervalInstance, Interval, VerificationError\n"
        "from balint.model import verified_solution\n"
        "assert False, 'asserts must be off'\n"
        "inst = ColoredIntervalInstance(k=1, intervals=(Interval(0, 0, 2, 1), Interval(1, 2, 3, 1)))\n"
        "try:\n"
        "    verified_solution(inst, 'BIS', [0, 1], 2)\n"
        "except VerificationError as exc:\n"
        "    print('raised:', exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised:")
    assert "intervals 0 and 1 intersect" in proc.stdout


def test_parse_instance_worked_example():
    inst = parse_instance("n=3 k=2\n0 0 2 1\n1 1 3 2\n2 4 5 2\n")
    assert inst.n == 3
    assert inst.k == 2
    assert inst.interval(1) == Interval(1, 1, 3, 2)
    assert not inst.proper_flag
    # json refuses the leading zeros, so these canonical-looking rows are read line by line
    assert parse_instance("n=3 k=2\n0 00 2 1\n1 01 3 2\n2 4 5 2\n") == inst


def test_parse_instance_comments_and_proper():
    text = "# generated\nn=1 k=1 proper\n# body\n0 0 2 1\n"
    inst = parse_instance(text)
    assert inst.proper_flag
    assert inst.n == 1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("nonsense\n", "header"),
        ("n=2 k=1\n0 0 2 1\n", "found 1 interval lines"),
        ("n=1 k=1\n0 0 zzz 1\n", "line 2"),
        ("n=1 k=1\n0 5 2 1\n", "left 5 > right 2"),
        ("n=1 k=2\n0 0 2 3\n", "color 3 not in 1..2"),
        ("n=2 k=1\n0 0 2 1\n0 3 4 1\n", "duplicate interval id"),
        ("n=2 k=1\n1 0 2 1\n2 3 4 1\n", "ids must form 0..1"),
        ("n=2 k=2 proper\n0 0 4 1\n1 1 3 2\n", "strictly contains"),
        ("n=1 k=1\n0 1-2 3 1\n", "line 2"),  # canonical-looking rows that json refuses
        ("n=1 k=1\n0 - 2 1\n", "line 2"),
        ("n=1 k=0\n0 0 2 1\n", "k=0 is only allowed for an empty instance"),
    ],
)
def test_parse_instance_errors(text: str, fragment: str):
    with pytest.raises(FormatError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


# str.splitlines breaks lines at each of these, and str.split treats each as a blank.
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", "\u2029")
ODD_TOKENS = (
    "1_0", "+3", "-1", "0", "7", "x", "1.5", "\u0663", "0x1", "_1", "#", "proper", "n=1",
    "01", "-0", "--1", "-", "1-2", "9" * 5000,
)


@st.composite
def mutated_instance_texts(draw) -> str:
    """A small instance text with up to five edits: odd tokens, dropped or
    extra fields, permuted or repeated ids, swapped endpoints, blank and
    comment lines, a changed header, and either the canonical spelling (single
    spaces, "\n" after every line) or any mix of separators and line breaks."""
    n = draw(st.integers(0, 5))
    k = draw(st.integers(1, 3))
    lines = [[f"n={n}", f"k={k}"] + (["proper"] if draw(st.booleans()) else [])]
    for id in range(n):
        a, b = draw(st.integers(0, 9)), draw(st.integers(0, 9))
        lines.append([str(id), str(min(a, b)), str(max(a, b)), str(draw(st.integers(1, k)))])
    for _ in range(draw(st.integers(0, 5))):
        r = draw(st.integers(0, len(lines) - 1))
        row = lines[r]
        edit = draw(st.sampled_from(
            ("token", "drop", "extra", "swap_ids", "repeat_id", "swap_ends",
             "blank", "comment", "trailing_comment", "header")
        ))
        if edit == "token" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_TOKENS))
        elif edit == "drop" and row:
            del row[draw(st.integers(0, len(row) - 1))]
        elif edit == "extra":
            row.append(draw(st.sampled_from(ODD_TOKENS)))
        elif edit in ("swap_ids", "repeat_id") and n >= 2:
            i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
            if lines[i] and lines[j]:
                if edit == "swap_ids":
                    lines[i][0], lines[j][0] = lines[j][0], lines[i][0]
                else:
                    lines[j][0] = lines[i][0]
        elif edit == "swap_ends" and len(row) == 4 and r:
            row[1], row[2] = row[2], row[1]
        elif edit == "blank":
            lines.insert(r, draw(st.sampled_from(([], [""], ["\t"]))))
        elif edit == "comment":
            lines.insert(r, ["# note"])
        elif edit == "trailing_comment":
            row.append("#tail")
        elif edit == "header":
            lines[0] = [
                draw(st.sampled_from((f"n={n}", f"n={n + 1}", f"n={n - 1}", "n=x", "k=1"))),
                draw(st.sampled_from((f"k={k}", "k=0", "k=-1", "k=1_0"))),
            ]
    if draw(st.booleans()):
        seps, breaks = [" "], ["\n"] * len(lines)
    else:
        seps = draw(st.lists(st.sampled_from((" ", "\t", "  ", "\xa0")), min_size=1, max_size=3))
        breaks = draw(st.lists(st.sampled_from(LINE_BREAKS), min_size=len(lines), max_size=len(lines)))
    return "".join(
        seps[r % len(seps)].join(row) + brk for r, (row, brk) in enumerate(zip(lines, breaks))
    )


@settings(max_examples=500, deadline=None)
@given(text=mutated_instance_texts())
@example(text="n=2 k=1\n0 0 1\n1 x 2 1\n")  # three fields before a bad int
@example(text="n=2 k=1\n0 x 1 1\n1 2 1\n")  # a bad int before three fields
@example(text="n=1 k=1\n0 x 1\n")  # three fields, one of them not an int
@example(text="n=2 k=2 proper\r\n1 1_0 +12 2\x0c0 3 5 1\u2028")
@example(text="# c\n\nn=1 k=1 # header\n 0  0 \t 2 1 # tail\n")
@example(text="n=3 k=1\n2 0 1 1\n0 5 6 1\n2 0 9 1\n")
@example(text="n=2 k=3\n0 1 2\n1 1 1 2 3\n")  # canonical rows that realign into four columns
@example(text="n=2 k=1\n0 0 1 1\n1 2 3 1")  # no final newline
@example(text="n=2 k=1\n0 0 1 1\n1 2 3 1 \n")  # a trailing space
@example(text="n=2 k=1\r\n0 0 1 1\r\n1 2 3 1\r\n")
@example(text="n=2 k=1\n0 0 1 1\n1 2 3 1\n77")  # digits after the last newline
def test_parse_instance_matches_reference_parser(text: str):
    """parse_instance, on its canonical path and on its line-by-line path,
    returns the reference parser's instance, or raises its FormatError with
    the same message and line."""
    try:
        k, intervals, proper = reference_parse_instance(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as err:
            parse_instance(text)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return
    inst = parse_instance(text)
    assert (inst.k, inst.proper_flag) == (k, proper)
    assert inst.intervals == intervals
    assert tuple(inst.interval(id) for id in range(inst.n)) == intervals
    built = ColoredIntervalInstance(k=k, intervals=intervals[::-1], proper_flag=proper)
    assert inst == built and hash(inst) == hash(built)


@pytest.mark.parametrize("model", ["uniform-random", "proper-unit", "greedy-adversarial"])
def test_generated_and_parsed_instances_compare_equal(model: str):
    inst = generate(GenSpec(n=30, k=3, seed=2, model=model))
    parsed = parse_instance(serialize_instance(inst))
    assert parsed == inst and hash(parsed) == hash(inst)
    assert parsed.intervals == inst.intervals


@given(inst=instances())
def test_instance_round_trip(inst: ColoredIntervalInstance):
    assert parse_instance(serialize_instance(inst)) == inst


def test_solution_round_trip():
    inst = build_instance(2, [(0, 2, 1), (4, 5, 2)])
    sol = solution_from_ids(inst, "BIS", [1, 0])
    text = serialize_solution(sol, 1)
    assert text == "kind=BIS f=1\n0\n1\n"
    kind, f, ids = parse_solution(text)
    assert (kind, f, ids) == ("BIS", 1, frozenset({0, 1}))


def test_parse_solution_rejects_unknown_kind():
    with pytest.raises(FormatError):
        parse_solution("kind=FOO f=1\n0\n")


def test_solution_from_ids_rejects_unknown_id():
    inst = build_instance(1, [(0, 1, 1)])
    with pytest.raises(ValueError):
        solution_from_ids(inst, "BIS", [3])


def _assert_format_error(parse, text: str, line: int | None, message: str):
    with pytest.raises(FormatError) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("# only a comment\n", None, "missing solution header"),
        ("kind=BIS\n0\n", 1, "header must be 'kind=<BIS|MCIS|BDS> f=<f>'"),
        ("kind=FOO f=1\n", 1, "kind must be one of ('BIS', 'MCIS', 'BDS')"),
        ("kind=BIS f=x\n", 1, "f must be an integer"),
        ("kind=BIS f=1\n0\nfoo\n", 3, "expected one interval id per line"),
        ("kind=BIS f=1\n0\n0\n", None, "duplicate id 0 in solution"),
    ],
)
def test_parse_solution_error_messages_and_lines(text: str, line: int | None, message: str):
    _assert_format_error(parse_solution, text, line, message)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("y1=0\n", 1, "expected 'x<i>=0|1'"),
        ("x1=1\nx2\n", 2, "expected 'x<i>=0|1'"),
        ("xa=1\n", 1, "variable index must be an integer"),
        ("x1=1\nx0=1\n", 2, "variable index must be >= 1"),
        ("x-1=0\n", 1, "variable index must be >= 1"),
        ("x1=2\n", 1, "assignment value must be 0 or 1"),
        ("x1=1\n# again\nx1=0\n", 3, "variable x1 assigned twice"),
    ],
)
def test_parse_assignment_error_messages_and_lines(text: str, line: int | None, message: str):
    _assert_format_error(parse_assignment, text, line, message)


def test_interval_rejects_out_of_range_id():
    inst = build_instance(1, [(0, 1, 1)])
    assert inst.interval(0).right == 1
    for id in (1, -1):
        with pytest.raises(ValueError, match=f"unknown interval id {id}"):
            inst.interval(id)


def test_verify_rejects_counts_that_do_not_match_the_ids():
    inst = build_instance(2, [(0, 2, 1), (4, 5, 2)])
    sol = SolutionSet("BIS", frozenset({0}), (0, 1))
    assert verify_solution(inst, sol, 1) == Verdict(False, "per_color_counts does not match the ids")


def test_records_are_tuples_and_replace_checks_like_the_constructor():
    assert Interval(0, 1, 3, 2) == (0, 1, 3, 2)
    assert build_instance(1, [(0, 1, 1)]).view == ((0,), (0,), (0,))
    sol = SolutionSet("BIS", frozenset({0}), (1,))
    assert sol._replace(kind="BDS") == SolutionSet("BDS", frozenset({0}), (1,))
    with pytest.raises(ValueError, match="kind must be one of"):
        sol._replace(kind="MIS")


def test_assignment_round_trip():
    text = serialize_assignment({2: True, 1: False})
    assert text == "x1=0\nx2=1\n"
    assert parse_assignment(text) == {1: False, 2: True}


def test_verify_bis_accepts_balanced_independent_ids():
    inst = build_instance(2, [(0, 2, 1), (1, 3, 2), (4, 5, 2)])
    sol = solution_from_ids(inst, "BIS", [0, 2])
    assert verify_solution(inst, sol, 1).valid


def test_verify_bis_rejects_intersecting_pair():
    inst = build_instance(2, [(0, 2, 1), (1, 3, 2)])
    sol = solution_from_ids(inst, "BIS", [0, 1])
    verdict = verify_solution(inst, sol, 1)
    assert not verdict.valid
    assert "intersect" in verdict.reason


def test_verify_bis_rejects_unbalanced_counts():
    inst = build_instance(2, [(0, 2, 1), (4, 5, 2), (7, 8, 2)])
    sol = solution_from_ids(inst, "BIS", [0, 1, 2])
    assert not verify_solution(inst, sol, 1).valid


def test_verify_mcis_allows_missing_colors_but_not_repeats():
    inst = build_instance(3, [(0, 2, 1), (4, 5, 1), (7, 8, 2)])
    one_per_color = solution_from_ids(inst, "MCIS", [0, 2])
    verdict = verify_solution(inst, one_per_color, 1)
    assert verdict.valid
    assert verdict.distinct_colors == 2
    repeated = solution_from_ids(inst, "MCIS", [0, 1])
    assert not verify_solution(inst, repeated, 1).valid


def test_verify_bds_endpoint_touch_dominates():
    inst = build_instance(1, [(0, 2, 1), (2, 5, 1)])
    sol = solution_from_ids(inst, "BDS", [0])
    assert verify_solution(inst, sol, 1).valid


def test_verify_bds_rejects_undominated_vertex():
    inst = build_instance(1, [(0, 2, 1), (4, 5, 1)])
    sol = solution_from_ids(inst, "BDS", [0])
    verdict = verify_solution(inst, sol, 1)
    assert not verdict.valid
    assert "dominate" in verdict.reason


def _brute_bis_verdict(inst: ColoredIntervalInstance, ids, f: int) -> bool:
    members = [inst.interval(i) for i in ids]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if intersects(members[i], members[j]):
                return False
    counts = {c: 0 for c in range(1, inst.k + 1)}
    for iv in members:
        counts[iv.color] += 1
    return all(v == f for v in counts.values())


@settings(max_examples=200)
@given(inst=instances(max_n=12, max_k=3), data=st.data())
def test_verify_bis_matches_brute_force(inst: ColoredIntervalInstance, data):
    ids = data.draw(
        st.frozensets(st.sampled_from(range(inst.n)), max_size=inst.n)
        if inst.n
        else st.just(frozenset())
    )
    f = data.draw(st.integers(0, 3))
    sol = solution_from_ids(inst, "BIS", ids)
    assert verify_solution(inst, sol, f).valid == _brute_bis_verdict(inst, ids, f)


def _brute_bds_verdict(inst: ColoredIntervalInstance, ids, f: int) -> bool:
    counts = {c: 0 for c in range(1, inst.k + 1)}
    for i in ids:
        counts[inst.interval(i).color] += 1
    if any(v != f for v in counts.values()):
        return False
    chosen = [inst.interval(i) for i in ids]
    return all(
        any(intersects(iv, d) for d in chosen) for iv in inst.intervals
    )


@settings(max_examples=200)
@given(inst=instances(max_n=12, max_k=3), data=st.data())
def test_verify_bds_matches_brute_force(inst: ColoredIntervalInstance, data):
    ids = data.draw(
        st.frozensets(st.sampled_from(range(inst.n)), max_size=inst.n)
        if inst.n
        else st.just(frozenset())
    )
    f = data.draw(st.integers(0, 2))
    sol = solution_from_ids(inst, "BDS", ids)
    assert verify_solution(inst, sol, f).valid == _brute_bds_verdict(inst, ids, f)
