"""Vertex-colored interval instances: core types, geometry, verification, file I/O.

Intervals are closed integer intervals; two intervals that share an endpoint
intersect.  Instance files are plain text: a header line ``n=<n> k=<k>`` with
an optional ``proper`` token, followed by one ``<id> <left> <right> <color>``
line per interval.  ``#`` starts a comment.  Solution files carry a
``kind=<BIS|MCIS|BDS> f=<f>`` header followed by one interval id per line.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import attrgetter, or_

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


class VerificationError(RuntimeError):
    """A solver's answer failed verify_solution: a solver bug, never bad input."""


@dataclass(frozen=True, order=True)
class Interval:
    """A closed integer interval carrying an id and a color."""

    id: int
    left: int
    right: int
    color: int


def intersects(a: Interval, b: Interval) -> bool:
    """True iff the closed intervals share at least one point."""
    return max(a.left, b.left) <= min(a.right, b.right)


@dataclass(frozen=True)
class ColoredIntervalInstance:
    """An immutable instance: k colors and intervals stored in id order (ids are 0..n-1)."""

    k: int
    intervals: tuple[Interval, ...]
    proper_flag: bool = False

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"color count must be >= 0, got {self.k}")
        if self.k == 0 and self.intervals:
            raise ValueError("k=0 is only allowed for an empty instance")
        seen_ids = set()
        for iv in self.intervals:
            if iv.id in seen_ids:
                raise ValueError(f"duplicate interval id {iv.id}")
            seen_ids.add(iv.id)
            if iv.left > iv.right:
                raise ValueError(f"interval {iv.id}: left {iv.left} > right {iv.right}")
            if not 1 <= iv.color <= self.k:
                raise ValueError(f"interval {iv.id}: color {iv.color} not in 1..{self.k}")
        n = len(self.intervals)
        if seen_ids and (min(seen_ids) != 0 or max(seen_ids) != n - 1):
            raise ValueError(f"interval ids must form 0..{n - 1}")
        if [iv.id for iv in self.intervals] != list(range(n)):
            object.__setattr__(
                self, "intervals", tuple(sorted(self.intervals, key=lambda iv: iv.id))
            )
        if self.proper_flag:
            pair = _find_strict_containment(self.intervals)
            if pair is not None:
                outer, inner = pair
                raise ValueError(
                    f"proper claimed but interval {outer.id} strictly contains {inner.id}"
                )

    @property
    def n(self) -> int:
        return len(self.intervals)

    def interval(self, id: int) -> Interval:
        if not 0 <= id < self.n:
            raise ValueError(f"unknown interval id {id}")
        return self.intervals[id]

    def color_classes(self) -> dict[int, list[Interval]]:
        """Intervals grouped by color; every color 1..k is a key (possibly empty)."""
        classes: dict[int, list[Interval]] = {c: [] for c in range(1, self.k + 1)}
        for iv in self.intervals:
            classes[iv.color].append(iv)
        return classes

    def missing_colors(self) -> tuple[int, ...]:
        present = {iv.color for iv in self.intervals}
        return tuple(c for c in range(1, self.k + 1) if c not in present)

    def is_color_deficient(self) -> bool:
        """True iff some color in 1..k labels no interval.  Legal input; every
        f >= 1 balanced problem on such an instance is infeasible."""
        return bool(self.missing_colors())


def _find_strict_containment(
    intervals: tuple[Interval, ...],
) -> tuple[Interval, Interval] | None:
    """Return (outer, inner) with outer strictly containing inner, or None.

    Sorted by (left asc, right desc), containment can only run earlier-to-later;
    a single scan tracking the max right (and the min left achieving it) finds
    any violating pair.
    """
    order = sorted(intervals, key=lambda iv: (iv.left, -iv.right))
    # first holder of the running max right also has the min left among holders
    best: Interval | None = None
    for iv in order:
        if best is not None:
            if best.right > iv.right:
                return best, iv
            if best.right == iv.right and best.left < iv.left:
                return best, iv
        if best is None or iv.right > best.right:
            best = iv
    return None


@dataclass(frozen=True)
class SortedView:
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


def build_sorted_view(inst: ColoredIntervalInstance) -> SortedView:
    """Sort intervals and compute the prev table by binary search, O(n log n).

    Each interval is one integer key (((right-lo) w + left-lo) n + id) k + color-1,
    lo being the least left endpoint and w the endpoint span: the sorted keys
    are in (right, left, id) order and decode to every column by arithmetic,
    without going back to the Interval objects.  A position's prev entry is
    the insertion point of the key (left-lo) w n k.
    """
    ivs = inst.intervals
    lo = min(map(attrgetter("left"), ivs), default=0)
    w = max(map(attrgetter("right"), ivs), default=0) - lo + 1
    k = inst.k
    nk = inst.n * k
    keys = sorted(
        [((iv.right - lo) * w + iv.left - lo) * nk + iv.id * k + iv.color - 1 for iv in ivs]
    )
    low = [key % nk for key in keys]
    scale = w * nk
    cuts = [key // nk % w * scale for key in keys]
    return SortedView(
        order=tuple([x // k for x in low]),
        prev=tuple(map(bisect_left, repeat(keys), cuts)),
        colors=tuple([x % k for x in low]),
    )


def greedy_independent(view: SortedView) -> list[int]:
    """Ids of the earliest-right-endpoint greedy independent set, in view order.

    On an interval graph it is a maximum independent set.  Position p joins
    when the last chosen position q satisfies q <= prev[p-1], i.e. q ends
    strictly left of p's left endpoint.
    """
    chosen: list[int] = []
    last = 0
    for pos, (id, prev) in enumerate(zip(view.order, view.prev), start=1):
        if prev >= last:
            chosen.append(id)
            last = pos
    return chosen


def _left_cuts(inst: ColoredIntervalInstance, view: SortedView) -> tuple[list[int], list[int]]:
    """Ids in left-endpoint order, and for each position of view.order the
    number of intervals whose left endpoint is at most that interval's right."""
    by_left = sorted(inst.intervals, key=lambda iv: iv.left)
    lefts = [iv.left for iv in by_left]
    cuts = [bisect_right(lefts, inst.intervals[id].right) for id in view.order]
    return [iv.id for iv in by_left], cuts


def neighborhood_masks(inst: ColoredIntervalInstance, view: SortedView) -> list[int]:
    """Closed-neighborhood bitmasks by id: bit b of masks[a] is set iff a == b
    or intervals a and b intersect.

    N[a] = {b : left_b <= right_a} minus {b : right_b < left_a}.  The first set
    is a prefix of the left-endpoint order; the second is the prefix of
    view.order that the prev table cuts off, and lies inside the first
    (right_b < left_a <= right_a).  So N[a] is the XOR of two prefix-ORs.
    """
    by_left, cuts = _left_cuts(inst, view)
    starts = list(accumulate((1 << id for id in by_left), or_, initial=0))
    ends = list(accumulate((1 << id for id in view.order), or_, initial=0))
    masks = [0] * inst.n
    for id, cut, prev in zip(view.order, cuts, view.prev):
        masks[id] = starts[cut] ^ ends[prev]
    return masks


def edge_count(inst: ColoredIntervalInstance, view: SortedView) -> int:
    """Number of intersecting pairs: the closed-neighborhood sizes of
    neighborhood_masks, less one each, halved.  O(n log n)."""
    _, cuts = _left_cuts(inst, view)
    return (sum(cuts) - sum(view.prev) - inst.n) // 2


@dataclass(frozen=True)
class SolutionSet:
    """A candidate solution: kind, member ids, and the per-color histogram of the members."""

    kind: str
    ids: frozenset[int]
    per_color_counts: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in SOLUTION_KINDS:
            raise ValueError(f"kind must be one of {SOLUTION_KINDS}, got {self.kind!r}")

    @property
    def distinct_colors(self) -> int:
        return sum(1 for c in self.per_color_counts if c > 0)


def solution_from_ids(
    inst: ColoredIntervalInstance, kind: str, ids
) -> SolutionSet:
    """Build a SolutionSet whose count vector is the actual color histogram of ids."""
    ids = frozenset(ids)
    counts = [0] * inst.k
    for id in ids:
        counts[inst.interval(id).color - 1] += 1
    return SolutionSet(kind=kind, ids=ids, per_color_counts=tuple(counts))


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


@dataclass(frozen=True)
class Verdict:
    """Outcome of verify_solution.  distinct_colors is set for MCIS verdicts."""

    valid: bool
    reason: str | None = None
    distinct_colors: int | None = None


def _find_intersecting_pair(members: list[Interval]) -> tuple[Interval, Interval] | None:
    """Return an intersecting pair among members, or None if independent."""
    order = sorted(members, key=lambda iv: (iv.left, iv.right))
    for a, b in zip(order, order[1:]):
        # consecutive check suffices: lefts ascend, so a disjoint chain never
        # lets a later interval reach back past its predecessor
        if intersects(a, b):
            return a, b
    return None


def _find_undominated(inst: ColoredIntervalInstance, ids: frozenset[int]) -> int | None:
    """Return an undominated vertex id outside ids, or None.  Sweep: sort the
    chosen intervals by left and keep prefix maxima of their rights."""
    chosen = sorted((inst.interval(i) for i in ids), key=lambda iv: iv.left)
    lefts = [iv.left for iv in chosen]
    prefix_max_right: list[int] = []
    best = None
    for iv in chosen:
        best = iv.right if best is None else max(best, iv.right)
        prefix_max_right.append(best)
    for iv in inst.intervals:
        if iv.id in ids:
            continue
        hi = bisect_right(lefts, iv.right)
        if hi == 0 or prefix_max_right[hi - 1] < iv.left:
            return iv.id
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
    members = [inst.interval(i) for i in sol.ids]
    counts = [0] * inst.k
    for iv in members:
        counts[iv.color - 1] += 1
    if tuple(counts) != sol.per_color_counts:
        return Verdict(False, "per_color_counts does not match the ids")
    if sol.kind in ("BIS", "MCIS"):
        clash = _find_intersecting_pair(members)
        if clash is not None:
            return Verdict(False, f"intervals {clash[0].id} and {clash[1].id} intersect")
    if sol.kind == "BIS":
        if tuple(counts) != (f,) * inst.k:
            return Verdict(False, f"color counts {tuple(counts)} != ({f},)*{inst.k}")
        return Verdict(True)
    if sol.kind == "MCIS":
        if any(c > 1 for c in counts):
            return Verdict(False, "more than one interval of a color")
        return Verdict(True, distinct_colors=sum(counts))
    if sol.kind == "BDS":
        if tuple(counts) != (f,) * inst.k:
            return Verdict(False, f"color counts {tuple(counts)} != ({f},)*{inst.k}")
        bad = _find_undominated(inst, sol.ids)
        if bad is not None:
            return Verdict(False, f"interval {bad} is not dominated")
        return Verdict(True)
    raise ValueError(f"unknown solution kind {sol.kind!r}")


# --- text formats ---------------------------------------------------------


def _content_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def parse_instance(text: str) -> ColoredIntervalInstance:
    """Parse the instance format; raises FormatError with a line number."""
    lines = list(_content_lines(text))
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
        return ColoredIntervalInstance(k=k, intervals=tuple(intervals), proper_flag=proper)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_instance(inst: ColoredIntervalInstance) -> str:
    header = f"n={inst.n} k={inst.k}"
    if inst.proper_flag:
        header += " proper"
    rows = [f"{iv.id} {iv.left} {iv.right} {iv.color}" for iv in inst.intervals]
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
    """Parse 'x<i>=0|1' lines into a variable index -> bool map."""
    out: dict[int, bool] = {}
    for no, line in _content_lines(text):
        if "=" not in line or not line.startswith("x"):
            raise FormatError("expected 'x<i>=0|1'", no)
        name, _, value = line.partition("=")
        try:
            var = int(name[1:])
        except ValueError:
            raise FormatError("variable index must be an integer", no) from None
        if value not in ("0", "1"):
            raise FormatError("assignment value must be 0 or 1", no)
        if var in out:
            raise FormatError(f"variable x{var} assigned twice", no)
        out[var] = value == "1"
    return out


def serialize_assignment(assignment: dict[int, bool]) -> str:
    rows = [f"x{var}={int(val)}" for var, val in sorted(assignment.items())]
    return "\n".join(rows) + "\n" if rows else ""
