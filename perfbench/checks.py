"""Correctness checks and exact references that share no code with balint.

Every check takes plain text (instance, solution or assignment text, as the
operations print it) and returns a list of error strings; an empty list means
the output passed.  The exact references are small and slow on purpose:

- ``reachable_vectors``: the f-BIS vector DP with each level packed into one
  Python int (bit index = mixed-radix count vector, radix f+1); it decides
  f-BIS and, with f = 1, gives the exact 1-MCIS optimum as the largest color
  set among the reachable bits.
- ``bds_feasible``: f-BDS decided by a sweep over left endpoints that keeps,
  per count vector, the largest right endpoint chosen so far.
- ``alpha``: the earliest-right-endpoint maximum independent set size.
- ``cover_independent_subsets``: the number of independent subsets of the
  greedy minimum vertex cover, which is the number of candidates the
  vertex-cover algorithm scans on an infeasible instance.
- ``edge_count``: intersecting pairs, counted by a sweep over left endpoints.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

INFEASIBLE = "infeasible\n"


@dataclass(frozen=True)
class Intervals:
    """An instance as columns indexed by interval id."""

    k: int
    lefts: tuple[int, ...]
    rights: tuple[int, ...]
    colors: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.lefts)


def parse_intervals(text: str) -> Intervals:
    lines = text.split("\n")
    head = lines[0].split()
    n, k = int(head[0][2:]), int(head[1][2:])
    rows = sorted(tuple(map(int, line.split())) for line in lines[1 : n + 1])
    if [row[0] for row in rows] != list(range(n)):
        raise ValueError("interval ids are not 0..n-1")
    return Intervals(
        k=k,
        lefts=tuple(row[1] for row in rows),
        rights=tuple(row[2] for row in rows),
        colors=tuple(row[3] for row in rows),
    )


def parse_selection(text: str) -> tuple[str, int, list[int]]:
    """(kind, f, ids) of a solution text."""
    lines = text.split()
    kind, f = lines[0].split("=")[1], int(lines[1].split("=")[1])
    return kind, f, [int(x) for x in lines[2:]]


def parse_truth(text: str) -> dict[int, bool]:
    out = {}
    for line in text.split():
        name, value = line.split("=")
        out[int(name[1:])] = value == "1"
    return out


# --- exact references ------------------------------------------------------


def _right_order(iv: Intervals) -> list[int]:
    return sorted(range(iv.n), key=lambda i: (iv.rights[i], iv.lefts[i], i))


def greedy_independent(iv: Intervals) -> list[int]:
    chosen: list[int] = []
    frontier = None
    for i in _right_order(iv):
        if frontier is None or iv.lefts[i] > frontier:
            chosen.append(i)
            frontier = iv.rights[i]
    return chosen


def alpha(iv: Intervals) -> int:
    return len(greedy_independent(iv))


def cover_independent_subsets(iv: Intervals) -> int:
    independent = set(greedy_independent(iv))
    cover = [i for i in _right_order(iv) if i not in independent]
    rights = [iv.rights[i] for i in cover]
    totals = [1]  # totals[p]: independent subsets of the first p cover intervals
    for i in cover:
        totals.append(totals[-1] + totals[bisect_left(rights, iv.lefts[i])])
    return totals[-1]


def reachable_vectors(iv: Intervals, f: int) -> int:
    """Bit sum(u_c (f+1)^c) is set iff some independent set holds exactly
    u_c intervals of color c + 1, for every count vector u <= (f, ..., f)."""
    radix = f + 1
    size = radix**iv.k
    strides = [radix**c for c in range(iv.k)]
    not_full = []
    for stride in strides:
        period = radix * stride
        block = (1 << (f * stride)) - 1
        not_full.append(block * (((1 << size) - 1) // ((1 << period) - 1)))
    order = _right_order(iv)
    rights = [iv.rights[i] for i in order]
    levels = [1]
    for i in order:
        c = iv.colors[i] - 1
        prev = levels[bisect_left(rights, iv.lefts[i])]
        levels.append(levels[-1] | ((prev & not_full[c]) << strides[c]))
    return levels[-1]


def bis_feasible(iv: Intervals, f: int) -> bool:
    target = sum(f * (f + 1) ** c for c in range(iv.k))
    return bool(reachable_vectors(iv, f) >> target & 1)


def mcis_optimum(iv: Intervals) -> int:
    final = reachable_vectors(iv, 1)
    return max(bin(mask).count("1") for mask in range(final.bit_length()) if final >> mask & 1)


def bds_feasible(iv: Intervals, f: int) -> bool:
    """Exact f-BDS decision by a sweep over left endpoints.

    Interval v is dominated iff a chosen u has u.left <= v.right and
    u.right >= v.left.  When the sweep passes v.right, every chosen interval
    has left <= v.right, so v is dominated iff the largest chosen right
    endpoint R reaches v.left.  A larger R is never worse, so each count
    vector (bit index as in reachable_vectors) keeps only its largest R.
    """
    radix = f + 1
    states = {0: float("-inf")}
    deadlines = sorted(range(iv.n), key=lambda i: iv.rights[i])
    passed = 0

    def pass_deadlines(before: float) -> None:
        nonlocal states, passed
        while passed < iv.n and iv.rights[deadlines[passed]] < before:
            left = iv.lefts[deadlines[passed]]
            states = {u: reach for u, reach in states.items() if reach >= left}
            passed += 1

    for i in sorted(range(iv.n), key=lambda i: iv.lefts[i]):
        pass_deadlines(iv.lefts[i])
        stride = radix ** (iv.colors[i] - 1)
        grown = dict(states)
        for u, reach in states.items():
            if u // stride % radix < f:
                reach = max(reach, iv.rights[i])
                if grown.get(u + stride, float("-inf")) < reach:
                    grown[u + stride] = reach
        states = grown
    pass_deadlines(float("inf"))
    return sum(f * radix**c for c in range(iv.k)) in states


def edge_count(iv: Intervals) -> int:
    seen_rights: list[int] = []
    edges = 0
    for i in sorted(range(iv.n), key=lambda i: iv.lefts[i]):
        edges += len(seen_rights) - bisect_left(seen_rights, iv.lefts[i])
        insort(seen_rights, iv.rights[i])
    return edges


def satisfies(clauses, truth: dict[int, bool]) -> bool:
    return all(any(truth.get(abs(lit), False) == (lit > 0) for lit in c) for c in clauses)


# --- output checks ---------------------------------------------------------


def _known_ids(iv: Intervals, ids: list[int]) -> list[str]:
    if len(set(ids)) != len(ids):
        return ["repeated id"]
    if any(not 0 <= i < iv.n for i in ids):
        return ["unknown id"]
    return []


def _independence(iv: Intervals, ids: list[int]) -> list[str]:
    order = sorted(ids, key=lambda i: iv.lefts[i])
    for a, b in zip(order, order[1:]):
        if iv.rights[a] >= iv.lefts[b]:
            return [f"intervals {a} and {b} intersect"]
    return []


def _color_counts(iv: Intervals, ids: list[int]) -> list[int]:
    counts = [0] * iv.k
    for i in ids:
        counts[iv.colors[i] - 1] += 1
    return counts


def _header(kind: str, f: int, want_kind: str, want_f: int) -> list[str]:
    if (kind, f) != (want_kind, want_f):
        return [f"header kind={kind} f={f}, expected kind={want_kind} f={want_f}"]
    return []


def check_bis(iv: Intervals, f: int, text: str) -> list[str]:
    """A balanced independent set: exactly f per color, pairwise disjoint.
    An infeasible verdict must match the exact reference."""
    if text == INFEASIBLE:
        return ["infeasible, but a balanced independent set exists"] if bis_feasible(iv, f) else []
    kind, got_f, ids = parse_selection(text)
    errors = _header(kind, got_f, "BIS", f) + _known_ids(iv, ids)
    if errors:
        return errors
    if _color_counts(iv, ids) != [f] * iv.k:
        errors.append(f"color counts {_color_counts(iv, ids)} are not all {f}")
    return errors + _independence(iv, ids)


def check_bds(iv: Intervals, f: int, text: str) -> list[str]:
    """A balanced dominating set: exactly f per color, every interval meets a
    member.  An infeasible verdict must match the exact reference."""
    if text == INFEASIBLE:
        return ["infeasible, but a balanced dominating set exists"] if bds_feasible(iv, f) else []
    kind, got_f, ids = parse_selection(text)
    errors = _header(kind, got_f, "BDS", f) + _known_ids(iv, ids)
    if errors:
        return errors
    if _color_counts(iv, ids) != [f] * iv.k:
        errors.append(f"color counts {_color_counts(iv, ids)} are not all {f}")
    members = sorted(ids, key=lambda i: iv.lefts[i])
    lefts = [iv.lefts[i] for i in members]
    reach = []
    for i in members:
        reach.append(max(reach[-1], iv.rights[i]) if reach else iv.rights[i])
    for v in range(iv.n):
        hi = bisect_left(lefts, iv.rights[v] + 1)
        if hi == 0 or reach[hi - 1] < iv.lefts[v]:
            errors.append(f"interval {v} is not dominated")
            break
    return errors


def check_mcis(iv: Intervals, text: str) -> tuple[list[str], int]:
    """At most one interval per color, pairwise disjoint.  Returns the color count."""
    kind, f, ids = parse_selection(text)
    errors = _header(kind, f, "MCIS", 1) + _known_ids(iv, ids)
    if errors:
        return errors, 0
    if max(_color_counts(iv, ids), default=0) > 1:
        errors.append("two intervals of one color")
    return errors + _independence(iv, ids), len(ids)


def check_mcis_pair(iv: Intervals, greedy_text: str, local_text: str) -> list[str]:
    """Greedy within half of the exact optimum; local search no worse than greedy."""
    g_errors, g_colors = check_mcis(iv, greedy_text)
    l_errors, l_colors = check_mcis(iv, local_text)
    errors = [f"greedy: {e}" for e in g_errors] + [f"local: {e}" for e in l_errors]
    if errors:
        return errors
    best = mcis_optimum(iv)
    if 2 * g_colors < best:
        errors.append(f"greedy {g_colors} colors is below half of the optimum {best}")
    if l_colors < g_colors:
        errors.append(f"local search {l_colors} colors is below greedy {g_colors}")
    if l_colors > best:
        errors.append(f"local search {l_colors} colors exceeds the optimum {best}")
    return errors


def check_indset_reduction(clauses, instance_text: str) -> list[str]:
    iv = parse_intervals(instance_text)
    want = (sum(len(c) for c in clauses), len(clauses))
    if (iv.n, iv.k) != want:
        return [f"indset reduction has n={iv.n} k={iv.k}, expected n={want[0]} k={want[1]}"]
    return []


def check_domset_reduction(num_vars: int, clauses, instance_text: str) -> list[str]:
    iv = parse_intervals(instance_text)
    want_n = 6 * num_vars + sum(len(c) for c in clauses)
    want_edges = 4 * num_vars + sum(len(c) * (len(c) - 1) // 2 for c in clauses)
    errors = []
    if iv.n != want_n:
        errors.append(f"domset reduction has {iv.n} vertices, expected {want_n}")
    edges = edge_count(iv)
    if edges != want_edges:
        errors.append(f"domset reduction has {edges} edges, expected {want_edges}")
    return errors


def check_assignment(num_vars: int, clauses, text: str) -> list[str]:
    truth = parse_truth(text)
    if sorted(truth) != list(range(1, num_vars + 1)):
        return ["assignment does not name every variable once"]
    if not satisfies(clauses, truth):
        return ["decoded assignment does not satisfy the formula"]
    return []
