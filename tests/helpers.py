"""Shared builders for the test suite."""

from __future__ import annotations

from random import Random

from hypothesis import strategies as st

from balint import ColoredIntervalInstance, FormatError, Interval

# A metadata file as versions before the three-key format wrote it (one line):
# every role and variable gadget listed next to the formula.
EARLIER_DOMSET_METADATA = (
    '{"kind": "domset", "num_vars": 2, "clauses": [[1, 2], [1, -2], [-1, 2], [-1, -2]], "roles": {'
    '"0": {"type": "var", "variable": 1, "name": "t1"}, '
    '"1": {"type": "var", "variable": 1, "name": "h_t"}, '
    '"2": {"type": "var", "variable": 1, "name": "t2"}, '
    '"3": {"type": "var", "variable": 1, "name": "f1"}, '
    '"4": {"type": "var", "variable": 1, "name": "h_f"}, '
    '"5": {"type": "var", "variable": 1, "name": "f2"}, '
    '"6": {"type": "var", "variable": 2, "name": "t1"}, '
    '"7": {"type": "var", "variable": 2, "name": "h_t"}, '
    '"8": {"type": "var", "variable": 2, "name": "t2"}, '
    '"9": {"type": "var", "variable": 2, "name": "f1"}, '
    '"10": {"type": "var", "variable": 2, "name": "h_f"}, '
    '"11": {"type": "var", "variable": 2, "name": "f2"}, '
    '"12": {"type": "clause", "clause": 1, "variable": 1, "positive": true, "slot": 1}, '
    '"13": {"type": "clause", "clause": 1, "variable": 2, "positive": true, "slot": 1}, '
    '"14": {"type": "clause", "clause": 2, "variable": 1, "positive": true, "slot": 2}, '
    '"15": {"type": "clause", "clause": 2, "variable": 2, "positive": false, "slot": 1}, '
    '"16": {"type": "clause", "clause": 3, "variable": 1, "positive": false, "slot": 1}, '
    '"17": {"type": "clause", "clause": 3, "variable": 2, "positive": true, "slot": 2}, '
    '"18": {"type": "clause", "clause": 4, "variable": 1, "positive": false, "slot": 2}, '
    '"19": {"type": "clause", "clause": 4, "variable": 2, "positive": false, "slot": 2}}, '
    '"variable_gadgets": {'
    '"1": {"t1": 0, "t2": 2, "f1": 3, "f2": 5, "h_t": 1, "h_f": 4, "c_t1": 12, "c_t2": 14, '
    '"c_f1": 16, "c_f2": 18, "pos_clauses": [1, 2], "neg_clauses": [3, 4]}, '
    '"2": {"t1": 6, "t2": 8, "f1": 9, "f2": 11, "h_t": 7, "h_f": 10, "c_t1": 13, "c_t2": 17, '
    '"c_f1": 15, "c_f2": 19, "pos_clauses": [1, 3], "neg_clauses": [2, 4]}}}'
)


def build_instance(
    k: int, triples: list[tuple[int, int, int]], proper: bool = False
) -> ColoredIntervalInstance:
    """Instance from (left, right, color) triples; ids follow list order."""
    intervals = tuple(
        Interval(id=i, left=a, right=b, color=c) for i, (a, b, c) in enumerate(triples)
    )
    return ColoredIntervalInstance(k=k, intervals=intervals, proper_flag=proper)


def random_triples(rng: Random, n: int, k: int, span: int | None = None):
    span = 4 * n + 1 if span is None else span
    out = []
    for _ in range(n):
        a = rng.randint(0, span)
        b = rng.randint(0, span)
        out.append((min(a, b), max(a, b), rng.randint(1, k)))
    return out


def random_instance(rng: Random, n: int, k: int) -> ColoredIntervalInstance:
    return build_instance(k, random_triples(rng, n, k))


@st.composite
def instances(draw, max_n: int = 24, max_k: int = 4, span: int = 50, lo: int = 0):
    """Instances of up to max_n intervals and 1..max_k colors with endpoints
    in lo..span; a narrow range draws ties, nesting and repeats."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=max_k))
    triples = []
    for _ in range(n):
        a = draw(st.integers(min_value=lo, max_value=span))
        b = draw(st.integers(min_value=lo, max_value=span))
        c = draw(st.integers(min_value=1, max_value=k))
        triples.append((min(a, b), max(a, b), c))
    return build_instance(k, triples)


def brute_intersects(a: Interval, b: Interval) -> bool:
    """Reference overlap test by point enumeration over the integer grid."""
    return bool(set(range(a.left, a.right + 1)) & set(range(b.left, b.right + 1)))


def independent_pairs_ok(inst: ColoredIntervalInstance, ids) -> bool:
    from balint import intersects

    members = [inst.interval(i) for i in ids]
    return all(
        not intersects(members[i], members[j])
        for i in range(len(members))
        for j in range(i + 1, len(members))
    )


# --- reference instance parser ---------------------------------------------
# The line-by-line parser and Interval-object validation that parse_instance
# replaced, kept verbatim in behavior: the parity test requires the columnar
# parser to return the same instance or raise the same FormatError.


def _reference_content_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _reference_strict_containment(intervals):
    order = sorted(intervals, key=lambda iv: (iv.left, -iv.right))
    best = None
    for iv in order:
        if best is not None:
            if best.right > iv.right:
                return best, iv
            if best.right == iv.right and best.left < iv.left:
                return best, iv
        if best is None or iv.right > best.right:
            best = iv
    return None


def _reference_validate(k: int, intervals: tuple, proper_flag: bool) -> tuple:
    """The id-ordered intervals, or ValueError with the message the Interval
    object validation gave."""
    if k < 0:
        raise ValueError(f"color count must be >= 0, got {k}")
    if k == 0 and intervals:
        raise ValueError("k=0 is only allowed for an empty instance")
    seen_ids = set()
    for iv in intervals:
        if iv.id in seen_ids:
            raise ValueError(f"duplicate interval id {iv.id}")
        seen_ids.add(iv.id)
        if iv.left > iv.right:
            raise ValueError(f"interval {iv.id}: left {iv.left} > right {iv.right}")
        if not 1 <= iv.color <= k:
            raise ValueError(f"interval {iv.id}: color {iv.color} not in 1..{k}")
    n = len(intervals)
    if seen_ids and (min(seen_ids) != 0 or max(seen_ids) != n - 1):
        raise ValueError(f"interval ids must form 0..{n - 1}")
    intervals = tuple(sorted(intervals, key=lambda iv: iv.id))
    if proper_flag:
        pair = _reference_strict_containment(intervals)
        if pair is not None:
            outer, inner = pair
            raise ValueError(
                f"proper claimed but interval {outer.id} strictly contains {inner.id}"
            )
    return intervals


def reference_parse_instance(text: str) -> tuple[int, tuple[Interval, ...], bool]:
    """(k, id-ordered Interval objects, proper flag) of an instance text, or
    the FormatError the line-by-line parser raised."""
    lines = list(_reference_content_lines(text))
    if not lines:
        raise FormatError("missing header line")
    no, header = lines[0]
    tokens = header.split()
    proper = False
    if tokens and tokens[-1] == "proper":
        proper = True
        tokens = tokens[:-1]
    if len(tokens) != 2 or not tokens[0].startswith("n=") or not tokens[1].startswith("k="):
        raise FormatError("header must be 'n=<n> k=<k>[ proper]'", no)
    try:
        n = int(tokens[0][2:])
        k = int(tokens[1][2:])
    except ValueError:
        raise FormatError("header counts must be integers", no) from None
    if n < 0 or k < 0:
        raise FormatError("header counts must be non-negative", no)
    body = lines[1:]
    if len(body) != n:
        raise FormatError(f"header says n={n} but found {len(body)} interval lines", no)
    intervals = []
    for no, line in body:
        parts = line.split()
        if len(parts) != 4:
            raise FormatError("expected '<id> <left> <right> <color>'", no)
        try:
            id, left, right, color = (int(p) for p in parts)
        except ValueError:
            raise FormatError("interval fields must be integers", no) from None
        intervals.append(Interval(id=id, left=left, right=right, color=color))
    try:
        return k, _reference_validate(k, tuple(intervals), proper), proper
    except ValueError as exc:
        raise FormatError(str(exc)) from None
