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
O(2^tau n) is the worst case.  Preferable to the vector DP when tau is small;
refuses when tau > TAU_GUARD.
"""

from __future__ import annotations

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
    independent = frozenset(greedy_independent(inst.view))
    return VertexCoverDecomposition(
        independent=independent, cover=frozenset(range(inst.n)) - independent
    )


def _bits(mask: int) -> list[int]:
    """Set bit positions of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def enumerate_swap_candidates(
    inst: ColoredIntervalInstance, decomp: VertexCoverDecomposition
) -> Iterator[frozenset[int]]:
    """Yield (V_ind u S) \\ N(S) for every independent S inside the cover.

    The cover is scanned in right-endpoint order, so a branch may include its
    next vertex only when it clears the frontier of the chosen ones; that
    prunes exactly the non-independent S.  The empty S (candidate V_ind) comes
    first.  Every maximal independent set of the instance is yielded.
    """
    for candidate in _walk(inst, decomp, 0, [0, 0]):
        yield frozenset(_bits(candidate))


def _walk(
    inst: ColoredIntervalInstance,
    decomp: VertexCoverDecomposition,
    f: int,
    counts: list[int],
) -> Iterator[int]:
    """Candidates with at least f intervals of every color, as bitmasks, in
    enumerate_swap_candidates order ("exclude" before "include").  Choosing
    cover vertex s clears its closed neighborhood and sets its own bit; the
    chosen vertices are pairwise disjoint, so none clears another.

    lanes holds, per color in a width-bit lane, its count in the candidate
    plus its undecided cover vertices, minus f, plus bias: that slack stays in
    [-f, n], so no lane borrows.  A node is cut unless lanes has every top bit
    in guard; at a leaf that is the feasibility test, and at f = 0 nothing is
    cut.  Excluding s takes one unit from its color's lane, including it one
    per bit it clears.  counts holds [nodes, leaves] visited, cut ones included.
    """
    cover_ids = decomp.cover
    cover = [(pos, id) for pos, id in enumerate(inst.view.order, start=1) if id in cover_ids]
    tau = len(cover)
    width = (inst.n + f).bit_length() + 1
    bias = 1 << (width - 1)
    unit = [1 << width * (color - 1) for color in inst.colors]
    guard = sum(bias << width * c for c in range(inst.k))
    lanes = sum((bias + inst.colors.count(c + 1) - f) << width * c for c in range(inst.k))
    masks, prev = inst.masks, inst.view.prev
    nodes = leaves = 0
    stack = [(0, sum(1 << id for id in decomp.independent), 0, lanes)]
    while stack:
        idx, candidate, last, lanes = stack.pop()
        nodes += 1
        if idx == tau:
            leaves += 1
        if lanes & guard != guard:
            continue
        if idx == tau:
            counts[:] = nodes, leaves
            yield candidate
            continue
        pos, id = cover[idx]
        if prev[pos - 1] >= last:
            cleared, kept = candidate & masks[id], lanes
            while cleared:
                low = cleared & -cleared
                kept -= unit[low.bit_length() - 1]
                cleared ^= low
            stack.append((idx + 1, (candidate & ~masks[id]) | (1 << id), pos, kept))
        stack.append((idx + 1, candidate, last, lanes - unit[id]))
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
    decomp = minimum_vertex_cover(inst)
    stats.update(tau=decomp.tau, candidates_examined=0)
    if inst.is_color_deficient():
        stats.update(feasible=False, nodes=0, reason="color-deficient")
        return None
    if decomp.tau > TAU_GUARD:
        raise GuardError(f"tau = {decomp.tau} exceeds {TAU_GUARD}; 2^tau enumeration refused")
    counts = [0, 0]
    candidate = next(_walk(inst, decomp, f, counts), None)
    nodes, examined = counts
    if candidate is None:
        stats.update(feasible=False, candidates_examined=examined, nodes=nodes)
        return None
    picked = []
    for ids in inst.color_class_ids():
        picked += [id for id in ids if candidate >> id & 1][:f]
    sol = verified_solution(inst, "BIS", picked, f)
    stats.update(feasible=True, candidates_examined=examined, nodes=nodes)
    return sol
