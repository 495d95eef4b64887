"""Vertex-colored interval instances: core types, geometry, verification, file I/O.

Intervals are closed integer intervals; two intervals that share an endpoint
intersect.  Instance files are plain text: a header line ``n=<n> k=<k>`` with
an optional ``proper`` token, followed by one ``<id> <left> <right> <color>``
line per interval.  ``#`` starts a comment.  Solution files carry a
``kind=<BIS|MCIS|BDS> f=<f>`` header followed by one interval id per line.

An instance is three columns, ``lefts``, ``rights`` and ``colors``: interval
i is (lefts[i], rights[i], colors[i]) and its id is its position.  Parsing
fills them (canonical text in one json pass, other text line by line) and
every index reads them; Interval objects are only views.

Records are NamedTuples (equal to plain tuples of their fields; _replace
makes a changed copy), or, when they keep derived state like the instance,
_Records.  So `import balint` loads neither dataclasses nor inspect.

Every solver reads ``inst.view``, the sorted view with its prev table; the
b-swap and BDS searches also read ``inst.masks``, the closed-neighborhood
bitmasks.  Each is built on first use and kept as long as the instance lives.
The vector DP alone reads the view through walk_sorted_view: unless
``inst.view`` is built, it sorts only the prefix of the order it reads and
keeps the view only once it has read every position.
The masks come from the prev table, so an instance is sorted once; they take
about n^2/8 bytes (32 MB at n = 16384).  Guards share guard_power's rule.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import suppress
from functools import cached_property
from itertools import accumulate, repeat
from operator import eq, le, or_
from typing import Iterator, NamedTuple

SOLUTION_KINDS = ("BIS", "MCIS", "BDS")


class FormatError(ValueError):
    """Malformed instance, solution, or assignment text."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GuardError(RuntimeError):
    """A solver or oracle refused to run: parameters exceed its search budget."""


def quantity_text(base: int, exponent: int, short: str) -> str:
    """base^exponent in full when exponent (bits(base)-1), a floor of its bit
    count, is <= 2^14 and the int-to-str digit limit allows; else short."""
    if exponent * (base.bit_length() - 1) <= 1 << 14:
        with suppress(ValueError):  # past the digit limit
            return str(base**exponent)
    return short


def guard_power(base: int, exponent: int, budget: int, message: str) -> None:
    """Raise GuardError(message.format(q)) iff q = base^exponent > budget.  As
    q >= 2^log2, q is over, and is not built, once log2 reaches bits(budget)."""
    log2 = exponent * (base.bit_length() - 1)
    if (base < 2 or log2 < budget.bit_length()) and base**exponent <= budget:
        return
    raise GuardError(message.format(quantity_text(base, exponent, f"{base}^{exponent}")))


class VerificationError(RuntimeError):
    """A solver's answer failed verify_solution: a solver bug, never bad input."""


class _Record:
    """A record that keeps derived state in its __dict__: ==, hash and repr
    read only the fields in _fields, and nothing is assigned once it is built."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Interval(NamedTuple):
    """A closed integer interval carrying an id and a color; ordered as the
    tuple (id, left, right, color)."""

    id: int
    left: int
    right: int
    color: int


def intersects(a: Interval, b: Interval) -> bool:
    """True iff the closed intervals share at least one point."""
    return max(a.left, b.left) <= min(a.right, b.right)


class ColoredIntervalInstance(_Record):
    """An immutable instance: k colors and n intervals as id-indexed columns.
    interval(id) builds one Interval view; intervals builds them all once."""

    _fields = ("k", "lefts", "rights", "colors", "proper_flag")
    k: int
    lefts: tuple[int, ...]
    rights: tuple[int, ...]
    colors: tuple[int, ...]
    proper_flag: bool = False

    def __init__(self, k: int, intervals, proper_flag: bool = False):
        ivs = tuple(intervals)
        columns = ([getattr(iv, name) for iv in ivs] for name in ("id", "left", "right", "color"))
        _store_columns(self, k, *columns, proper_flag)

    @classmethod
    def from_columns(
        cls, k: int, lefts, rights, colors, proper_flag: bool = False
    ) -> "ColoredIntervalInstance":
        """The instance whose interval i is (lefts[i], rights[i], colors[i])."""
        inst = cls.__new__(cls)
        _store_columns(inst, k, None, lefts, rights, colors, proper_flag)
        return inst

    @property
    def n(self) -> int:
        return len(self.lefts)

    @cached_property
    def intervals(self) -> tuple[Interval, ...]:
        """Every interval as an Interval object, in id order."""
        return tuple(map(Interval, range(self.n), self.lefts, self.rights, self.colors))

    @cached_property
    def view(self) -> SortedView:
        """The sorted view and prev table, built on first use."""
        return build_sorted_view(self)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """Closed-neighborhood bitmasks by id, built on first use."""
        return neighborhood_masks(self, self.view)

    def interval(self, id: int) -> Interval:
        if not 0 <= id < self.n:
            raise ValueError(f"unknown interval id {id}")
        return Interval(id, self.lefts[id], self.rights[id], self.colors[id])

    def color_class_ids(self) -> list[list[int]]:
        """Ids grouped by color, ascending: entry c-1 holds the ids of color c."""
        classes: list[list[int]] = [[] for _ in range(self.k)]
        for id, color in enumerate(self.colors):
            classes[color - 1].append(id)
        return classes

    def is_color_deficient(self) -> bool:
        """True iff some color in 1..k labels no interval, in O(n) whatever k.
        Legal input; every f >= 1 balanced problem on it is infeasible."""
        return len(set(self.colors)) < self.k


def _store_columns(inst, k, ids, lefts, rights, colors, proper_flag) -> None:
    """Validate rows given as columns, row r being interval ids[r] (ids None:
    interval r), and store the columns in id order on inst.  Only when a
    column check fails does the row loop run, to name the first bad row."""
    n = len(lefts)
    if k < 0:
        raise ValueError(f"color count must be >= 0, got {k}")
    if k == 0 and n:
        raise ValueError("k=0 is only allowed for an empty instance")
    ids_in_order = ids is None or all(map(eq, ids, range(n)))
    if not (
        ids_in_order
        and all(map(le, lefts, rights))
        and (not n or 1 <= min(colors) and max(colors) <= k)
    ):
        if ids is None:
            ids = range(n)
        seen_ids = set()
        for id, left, right, color in zip(ids, lefts, rights, colors):
            if id in seen_ids:
                raise ValueError(f"duplicate interval id {id}")
            seen_ids.add(id)
            if left > right:
                raise ValueError(f"interval {id}: left {left} > right {right}")
            if not 1 <= color <= k:
                raise ValueError(f"interval {id}: color {color} not in 1..{k}")
        if seen_ids and (min(seen_ids) != 0 or max(seen_ids) != n - 1):
            raise ValueError(f"interval ids must form 0..{n - 1}")
        if not ids_in_order:
            rows = sorted(range(n), key=ids.__getitem__)
            lefts, rights, colors = (
                [column[r] for r in rows] for column in (lefts, rights, colors)
            )
    lefts, rights, colors = tuple(lefts), tuple(rights), tuple(colors)
    if proper_flag:
        pair = _find_strict_containment(lefts, rights)
        if pair is not None:
            raise ValueError(
                f"proper claimed but interval {pair[0]} strictly contains {pair[1]}"
            )
    vars(inst).update(k=k, lefts=lefts, rights=rights, colors=colors, proper_flag=proper_flag)


def _find_strict_containment(lefts, rights) -> tuple[int, int] | None:
    """Return ids (outer, inner) with outer strictly containing inner, or None.

    Sorted by (left asc, right desc), containment can only run earlier-to-later;
    a single scan tracking the max right (and the min left achieving it) finds
    any violating pair.
    """
    order = sorted(range(len(lefts)), key=lambda id: (lefts[id], -rights[id]))
    # first holder of the running max right also has the min left among holders
    best = None
    for id in order:
        if best is not None:
            if rights[best] > rights[id]:
                return best, id
            if rights[best] == rights[id] and lefts[best] < lefts[id]:
                return best, id
        if best is None or rights[id] > rights[best]:
            best = id
    return None


class SortedView(NamedTuple):
    """Instance intervals in (right asc, left asc, id asc) order plus the prev table.

    ``order[p-1]`` is the interval id at 1-based sorted position p and
    ``colors[p-1]`` its color minus one.  ``prev[p-1]`` is the 1-based position
    of the rightmost interval whose right endpoint lies strictly left of
    position p's left endpoint, or 0 if none exists.  Every interval at a
    position in prev[p-1]+1 .. p-1 intersects the interval at p.
    """

    order: tuple[int, ...]
    prev: tuple[int, ...]
    colors: tuple[int, ...]


def _packed_keys(inst: ColoredIntervalInstance) -> tuple[list[int], int, int]:
    """(keys, w, nk): interval i as the key (((right-lo) w + left-lo) n + i) k + color-1,
    lo being the least left endpoint, w the endpoint span and nk = n k.  Sorted
    keys are in (right, left, id) order and decode to every column by
    arithmetic; position p's prev entry counts the keys below (left-lo) w n k."""
    lo = min(inst.lefts, default=0)
    w = max(inst.rights, default=0) - lo + 1
    k = inst.k
    nk = inst.n * k
    keys = [
        ((right - lo) * w + left - lo) * nk + id * k + color - 1
        for id, (left, right, color) in enumerate(zip(inst.lefts, inst.rights, inst.colors))
    ]
    return keys, w, nk


def build_sorted_view(inst: ColoredIntervalInstance) -> SortedView:
    """Sort the packed keys and compute the prev table by binary search, O(n log n)."""
    keys, w, nk = _packed_keys(inst)
    keys.sort()
    k, scale = inst.k, w * nk
    return SortedView(
        order=tuple([key % nk // k for key in keys]),
        prev=tuple(map(bisect_left, repeat(keys), (key // nk % w * scale for key in keys))),
        colors=tuple([key % k for key in keys]),
    )


def walk_sorted_view(
    inst: ColoredIntervalInstance,
) -> tuple[SortedView, Iterator[tuple[int, int]]]:
    """A view and an iterator of its (colors[p-1], prev[p-1]) for p = 1, 2, ...

    With inst.view built, they are inst.view and its columns.  Otherwise the
    view's lists start empty and each step appends one position: it pops the
    least packed key from a heap, O(n) to build, and takes the prev entry as
    the query's insertion point among the keys popped so far, which include
    every key below the query.  Read to the end, the walk stores its view as
    inst.view (build_sorted_view's one C sort is the faster way there).
    """
    if "view" in vars(inst):
        view = inst.view
        return view, zip(view.colors, view.prev)
    walked = SortedView([], [], [])
    return walked, _pop_positions(inst, walked)


def _pop_positions(inst: ColoredIntervalInstance, walked: SortedView) -> Iterator[tuple[int, int]]:
    from heapq import heapify, heappop  # here: at module level it adds to every `import balint`

    keys, w, nk = _packed_keys(inst)
    heapify(keys)
    k, scale = inst.k, w * nk
    popped: list[int] = []
    order, prev, colors = walked
    while keys:
        key = heappop(keys)
        popped.append(key)
        color, before = key % k, bisect_left(popped, key // nk % w * scale)
        order.append(key % nk // k)
        prev.append(before)
        colors.append(color)
        yield color, before
    vars(inst)["view"] = SortedView(*map(tuple, walked))


def greedy_independent(view: SortedView) -> list[int]:
    """1-based view positions of the right-endpoint greedy independent set, ascending.

    On an interval graph it is a maximum independent set.  Position p joins
    when the last chosen position q satisfies q <= prev[p-1], i.e. q ends
    strictly left of p's left endpoint.
    """
    chosen: list[int] = []
    last = 0
    for pos, prev in enumerate(view.prev, start=1):
        if prev >= last:
            chosen.append(pos)
            last = pos
    return chosen


def neighborhood_masks(inst: ColoredIntervalInstance, view: SortedView) -> tuple[int, ...]:
    """Closed-neighborhood bitmasks by id: bit b of masks[a] is set iff a == b
    or intervals a and b intersect.

    With prev_q the prev entry at 1-based sorted position q, positions p and q
    intersect iff prev_q < p and prev_p < q.  So N(p) is {q : prev_q < p}, the
    OR of the prev buckets 0..p-1, less positions 1..prev_p, a prefix of
    view.order inside that set: the XOR of two prefix-ORs, with no new sort.
    """
    buckets = [0] * inst.n
    for id, prev in zip(view.order, view.prev):
        buckets[prev] |= 1 << id
    starts = list(accumulate(buckets, or_))
    del buckets  # about as large as a prefix array: free it before the next
    ends = list(accumulate((1 << id for id in view.order), or_, initial=0))
    masks = [0] * inst.n
    for id, start, prev in zip(view.order, starts, view.prev):
        masks[id] = start ^ ends[prev]
    return tuple(masks)


def edge_count(inst: ColoredIntervalInstance, view: SortedView) -> int:
    """Number of intersecting pairs, (n^2 - n - 2 sum(prev)) / 2, in O(n): by
    neighborhood_masks, position p has #{q : prev_q < p} - prev_p - 1 neighbors,
    and over all p the first term sums to the sum over q of n - prev_q."""
    return (inst.n * (inst.n - 1) - 2 * sum(view.prev)) // 2


class _SolutionFields(NamedTuple):
    kind: str
    ids: frozenset[int]
    per_color_counts: tuple[int, ...]


class SolutionSet(_SolutionFields):
    """A candidate solution: kind, member ids, and the per-color histogram of the members."""

    __slots__ = ()

    def __new__(cls, kind, ids, per_color_counts):
        if kind not in SOLUTION_KINDS:
            raise ValueError(f"kind must be one of {SOLUTION_KINDS}, got {kind!r}")
        return super().__new__(cls, kind, ids, per_color_counts)

    @classmethod
    def _make(cls, iterable) -> "SolutionSet":
        return cls(*iterable)  # so that _replace checks the kind too

    @property
    def distinct_colors(self) -> int:
        return sum(1 for c in self.per_color_counts if c > 0)


def solution_from_ids(
    inst: ColoredIntervalInstance, kind: str, ids
) -> SolutionSet:
    """Build a SolutionSet whose count vector is the actual color histogram of ids."""
    ids = frozenset(ids)
    return SolutionSet(kind=kind, ids=ids, per_color_counts=_color_counts(inst, ids))


def _color_counts(inst: ColoredIntervalInstance, ids) -> tuple[int, ...]:
    """Per-color histogram of ids; an id outside 0..n-1 raises ValueError."""
    n, colors = inst.n, inst.colors
    counts = [0] * inst.k
    for id in ids:
        if not 0 <= id < n:
            raise ValueError(f"unknown interval id {id}")
        counts[colors[id] - 1] += 1
    return tuple(counts)


def verified_solution(
    inst: ColoredIntervalInstance, kind: str, ids, f: int
) -> SolutionSet:
    """The SolutionSet of ids, checked by verify_solution.  Every solver returns
    through here; a failed check raises VerificationError, also under python -O."""
    sol = solution_from_ids(inst, kind, ids)
    verdict = verify_solution(inst, sol, f)
    if not verdict.valid:
        raise VerificationError(f"{kind} solution with f={f} fails verification: {verdict.reason}")
    return sol


class Verdict(NamedTuple):
    """Outcome of verify_solution.  distinct_colors is set for MCIS verdicts."""

    valid: bool
    reason: str | None = None
    distinct_colors: int | None = None


def _find_intersecting_pair(
    inst: ColoredIntervalInstance, ids
) -> tuple[int, int] | None:
    """Return the ids of an intersecting pair among ids, or None if independent."""
    lefts, rights = inst.lefts, inst.rights
    order = sorted(ids, key=lambda id: (lefts[id], rights[id]))
    for a, b in zip(order, order[1:]):
        # consecutive check suffices: lefts ascend, so a disjoint chain never
        # lets a later interval reach back past its predecessor
        if lefts[b] <= rights[a]:
            return a, b
    return None


def _find_undominated(inst: ColoredIntervalInstance, ids: frozenset[int]) -> int | None:
    """Return an undominated vertex id outside ids, or None.  Sweep: sort the
    chosen intervals by left and keep prefix maxima of their rights."""
    lefts, rights = inst.lefts, inst.rights
    chosen = sorted(ids, key=lefts.__getitem__)
    chosen_lefts = [lefts[id] for id in chosen]
    prefix_max_right = list(accumulate(map(rights.__getitem__, chosen), max))
    for id, (left, right) in enumerate(zip(lefts, rights)):
        if id in ids:
            continue
        hi = bisect_right(chosen_lefts, right)
        if hi == 0 or prefix_max_right[hi - 1] < left:
            return id
    return None


def verify_solution(
    inst: ColoredIntervalInstance, sol: SolutionSet, f: int
) -> Verdict:
    """Check a solution against the instance.

    BIS: members pairwise non-intersecting and color histogram exactly (f,...,f).
    MCIS: members pairwise non-intersecting, at most one per color; the verdict
    reports the distinct-color count.  BDS: histogram exactly (f,...,f) and every
    non-member intersects some member.  Unknown ids raise ValueError.
    """
    counts = _color_counts(inst, sol.ids)
    if counts != sol.per_color_counts:
        return Verdict(False, "per_color_counts does not match the ids")
    if sol.kind not in SOLUTION_KINDS:
        raise ValueError(f"unknown solution kind {sol.kind!r}")
    if sol.kind != "BDS":
        clash = _find_intersecting_pair(inst, sol.ids)
        if clash is not None:
            return Verdict(False, f"intervals {clash[0]} and {clash[1]} intersect")
    if sol.kind == "MCIS":
        if any(c > 1 for c in counts):
            return Verdict(False, "more than one interval of a color")
        return Verdict(True, distinct_colors=sum(counts))
    if counts != (f,) * inst.k:
        return Verdict(False, f"color counts {counts} != ({f},)*{inst.k}")
    bad = _find_undominated(inst, sol.ids) if sol.kind == "BDS" else None
    if bad is not None:
        return Verdict(False, f"interval {bad} is not dominated")
    return Verdict(True)


# --- text formats ---------------------------------------------------------


def _content_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def parse_instance(text: str) -> ColoredIntervalInstance:
    """Parse the instance format; raises FormatError with a line number.
    Canonical text (serialize_instance's) goes through one json pass: after a
    header on line 1, n rows of four integers joined by single spaces, each
    ending in "\n", so deleting digits and signs leaves "   \n" per row.  json
    refuses "01", "-", "1-2" and empty fields, and its integers are a subset
    of int()'s.  Other text, and what json refuses, is read line by line."""
    head, _, body = text.partition("\n")
    values = None
    # a printable line holds none of str.splitlines' breaks
    if head.isprintable() and "#" not in head and head.strip():
        n, k, proper = _parse_header(head, 1)
        # the newline count bounds n by len(body) before b"   \n" * n is built
        ascii_rows = body.endswith("\n") and body.count("\n") == n and body.isascii()
        if ascii_rows and body.encode().translate(None, b"0123456789-") == b"   \n" * n:
            import json  # here: at module level it would cost every `import balint` 2-6 ms
            try:
                values = json.loads("[" + body[:-1].replace(" ", ",").replace("\n", ",") + "]")
            except ValueError:
                pass
    if values is None:
        k, proper, values = _parse_lines(text)
    inst = ColoredIntervalInstance.__new__(ColoredIntervalInstance)
    try:
        _store_columns(inst, k, values[0::4], values[1::4], values[2::4], values[3::4], proper)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return inst


def _parse_header(line: str, no: int) -> tuple[int, int, bool]:
    """(n, k, proper) of a non-blank header line numbered no."""
    tokens = line.split()
    proper = tokens[-1] == "proper"
    if proper:
        tokens = tokens[:-1]
    if len(tokens) != 2 or not tokens[0].startswith("n=") or not tokens[1].startswith("k="):
        raise FormatError("header must be 'n=<n> k=<k>[ proper]'", no)
    try:
        n, k = int(tokens[0][2:]), int(tokens[1][2:])
    except ValueError:
        raise FormatError("header counts must be integers", no) from None
    if n < 0 or k < 0:
        raise FormatError("header counts must be non-negative", no)
    return n, k, proper


def _parse_lines(text: str) -> tuple[int, bool, list[int]]:
    """(k, proper, fields row after row) of any text, line by line."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("missing header line")
    no, header = lines[0]
    n, k, proper = _parse_header(header, no)
    if len(lines) - 1 != n:
        raise FormatError(f"header says n={n} but found {len(lines) - 1} interval lines", no)
    values: list[int] = []
    for no, line in lines[1:]:
        fields = line.split()
        if len(fields) != 4:
            raise FormatError("expected '<id> <left> <right> <color>'", no)
        try:
            values += map(int, fields)
        except ValueError:
            raise FormatError("interval fields must be integers", no) from None
    return k, proper, values


def serialize_instance(inst: ColoredIntervalInstance) -> str:
    header = f"n={inst.n} k={inst.k}"
    if inst.proper_flag:
        header += " proper"
    rows = map("{} {} {} {}".format, range(inst.n), inst.lefts, inst.rights, inst.colors)
    return "\n".join([header, *rows]) + "\n"


def parse_solution(text: str) -> tuple[str, int, frozenset[int]]:
    """Parse a solution file into (kind, f, ids)."""
    lines = list(_content_lines(text))
    if not lines:
        raise FormatError("missing solution header")
    no, header = lines[0]
    tokens = header.split()
    if len(tokens) != 2 or not tokens[0].startswith("kind=") or not tokens[1].startswith("f="):
        raise FormatError("header must be 'kind=<BIS|MCIS|BDS> f=<f>'", no)
    kind = tokens[0][5:]
    if kind not in SOLUTION_KINDS:
        raise FormatError(f"kind must be one of {SOLUTION_KINDS}", no)
    try:
        f = int(tokens[1][2:])
    except ValueError:
        raise FormatError("f must be an integer", no) from None
    ids = []
    for no, line in lines[1:]:
        try:
            ids.append(int(line))
        except ValueError:
            raise FormatError("expected one interval id per line", no) from None
    seen = set()
    for id in ids:
        if id in seen:
            raise FormatError(f"duplicate id {id} in solution")
        seen.add(id)
    return kind, f, frozenset(ids)


def serialize_solution(sol: SolutionSet, f: int) -> str:
    rows = [f"kind={sol.kind} f={f}"]
    rows.extend(str(i) for i in sorted(sol.ids))
    return "\n".join(rows) + "\n"


def parse_assignment(text: str) -> dict[int, bool]:
    """Parse 'x<i>=0|1' lines, i >= 1, into a variable index -> bool map."""
    out: dict[int, bool] = {}
    for no, line in _content_lines(text):
        if "=" not in line or not line.startswith("x"):
            raise FormatError("expected 'x<i>=0|1'", no)
        name, _, value = line.partition("=")
        try:
            var = int(name[1:])
        except ValueError:
            raise FormatError("variable index must be an integer", no) from None
        if var < 1:
            raise FormatError("variable index must be >= 1", no)
        if value not in ("0", "1"):
            raise FormatError("assignment value must be 0 or 1", no)
        if var in out:
            raise FormatError(f"variable x{var} assigned twice", no)
        out[var] = value == "1"
    return out


def serialize_assignment(assignment: dict[int, bool]) -> str:
    rows = [f"x{var}={int(val)}" for var, val in sorted(assignment.items())]
    return "\n".join(rows) + "\n" if rows else ""
