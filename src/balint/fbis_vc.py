"""f-balanced independent set via minimum vertex cover enumeration.

On an interval graph the earliest-right-endpoint greedy builds a maximum
independent set, so its complement is a minimum vertex cover (size tau).
Every maximal independent set has the form (V_ind u S) \\ N(S) for some
independent S inside the cover, so scanning those at most 2^tau candidates
and keeping one with at least f intervals of every color decides the problem.
The scan is a branch-and-bound walk: below a node it can only add the cover
vertices not yet decided and only clear V_ind bits, so a node is cut once some
color's count plus its undecided cover vertices falls below f.  Each color's
margin over f sits in a lane of one packed int, so the cut is a single AND.
A candidate is a bitmask over sorted-view positions, and the prev table gives
the members a cover vertex clears, so no n^2 masks are built.  O(2^tau n) is
the worst case.  Preferable to the vector DP when tau is small; refuses when
tau > TAU_GUARD.
"""

from __future__ import annotations

from itertools import pairwise
from typing import Iterator, NamedTuple

from .model import (
    ColoredIntervalInstance,
    GuardError,
    SolutionSet,
    greedy_independent,
    verified_solution,
)

TAU_GUARD = 30


class VertexCoverDecomposition(NamedTuple):
    independent: frozenset[int]
    cover: frozenset[int]

    @property
    def tau(self) -> int:
        return len(self.cover)


def minimum_vertex_cover(inst: ColoredIntervalInstance) -> VertexCoverDecomposition:
    """Greedy maximum independent set by right endpoint; cover = complement."""
    independent = frozenset(inst.view.order[pos - 1] for pos in greedy_independent(inst.view))
    return VertexCoverDecomposition(independent, frozenset(range(inst.n)) - independent)


def enumerate_swap_candidates(
    inst: ColoredIntervalInstance, decomp: VertexCoverDecomposition
) -> Iterator[frozenset[int]]:
    """Yield (V_ind u S) \\ N(S) for every independent S inside the cover.

    The cover is scanned in right-endpoint order, so a branch may include its
    next vertex only when it clears the frontier of the chosen ones; that
    prunes exactly the non-independent S.  The empty S comes first: V_ind,
    every id outside decomp.cover.  Every maximal independent set is yielded.
    """
    cover = [pos for pos, id in enumerate(inst.view.order, start=1) if id in decomp.cover]
    yield from _walk(inst, cover, 0, [0, 0])


def _walk(
    inst: ColoredIntervalInstance, cover: list[int], f: int, counts: list[int]
) -> Iterator[frozenset[int]]:
    """Candidates with at least f intervals of every color, as id sets, in
    enumerate_swap_candidates order ("exclude" before "include").  A candidate
    is a bitmask over view positions (bit p-1 for position p); cover holds the
    cover's positions ascending, and the root V_ind every other position.

    Choosing cover position p clears its neighbors in the candidate.  Position
    q meets p iff prev_q < p and prev_p < q.  A candidate is independent, so
    a member q after another member q' has prev_q >= q'.  So p clears every
    member at prev_p+1 .. p, and after p at most the first member, iff its
    prev is < p; the chosen cover positions lie at or below prev_p.

    lanes holds, per color in a width-bit lane, its count in the candidate
    plus its undecided cover vertices, minus f, plus bias: that slack stays in
    [-f, n], so no lane borrows.  A node is cut unless lanes has every top bit
    in guard; at a leaf that is the feasibility test, and at f = 0 nothing is
    cut.  Excluding p takes one unit from its color's lane, including it one
    per bit it clears.  counts holds [nodes, leaves] visited, cut ones included.
    """
    n, (order, prev, colors), tau = inst.n, inst.view, len(cover)
    width = (n + f).bit_length() + 1
    bias = 1 << (width - 1)
    unit = [1 << width * color for color in colors]
    guard = sum(bias << width * c for c in range(inst.k))
    lanes = sum(unit) + sum((bias - f) << width * c for c in range(inst.k))
    nodes = leaves = 0
    stack = [(0, (1 << n) - 1 - sum(1 << pos - 1 for pos in cover), 0, lanes)]
    while stack:
        idx, candidate, last, lanes = stack.pop()
        nodes += 1
        if idx == tau:
            leaves += 1
        if lanes & guard != guard:
            continue
        if idx == tau:
            counts[:] = nodes, leaves
            yield frozenset(order[i] for i, bit in enumerate(bin(candidate)[:1:-1]) if bit == "1")
            continue
        pos = cover[idx]
        start = prev[pos - 1]
        if start >= last:
            cleared = candidate & (1 << pos) - (1 << start)
            later = candidate >> pos
            first = pos + (later & -later).bit_length()
            if later and prev[first - 1] < pos:
                cleared |= 1 << first - 1
            kept, rest = lanes, cleared
            while rest:
                low = rest & -rest
                kept -= unit[low.bit_length() - 1]
                rest ^= low
            stack.append((idx + 1, candidate ^ cleared | 1 << pos - 1, pos, kept))
        stack.append((idx + 1, candidate, last, lanes - unit[pos - 1]))
    counts[:] = nodes, leaves


def solve_fbis_vc(
    inst: ColoredIntervalInstance, f: int, stats: dict | None = None
) -> SolutionSet | None:
    """Return an independent set with exactly f intervals per color, or None.

    Takes the f lowest ids per color from the first leaf that survives the
    walk's cut; the cut drops only subtrees without a feasible leaf, so that
    is the first feasible candidate of the full scan.  O(2^tau n) in the worst
    case; raises GuardError when tau > TAU_GUARD.  stats gains tau,
    candidates_examined (leaves reached), feasible and nodes.
    """
    stats = {} if stats is None else stats
    if f < 1:
        raise ValueError("f must be >= 1")
    independent = greedy_independent(inst.view)
    cover = [pos for a, b in pairwise([0, *independent, inst.n + 1]) for pos in range(a + 1, b)]
    tau = len(cover)
    stats.update(tau=tau, candidates_examined=0)
    if inst.is_color_deficient():
        stats.update(feasible=False, nodes=0, reason="color-deficient")
        return None
    if tau > TAU_GUARD:
        raise GuardError(f"tau = {tau} exceeds {TAU_GUARD}; 2^tau enumeration refused")
    counts = [0, 0]
    members = next(_walk(inst, cover, f, counts), None)
    stats.update(feasible=members is not None, candidates_examined=counts[1], nodes=counts[0])
    if members is None:
        return None
    picked = []
    for ids in inst.color_class_ids():
        picked += [id for id in ids if id in members][:f]
    return verified_solution(inst, "BIS", picked, f)
