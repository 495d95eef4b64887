"""f-balanced independent set via minimum vertex cover enumeration.

On an interval graph the earliest-right-endpoint greedy builds a maximum
independent set, so its complement is a minimum vertex cover (size tau).
Every maximal independent set has the form (V_ind u S) \\ N(S) for some
independent S inside the cover, so scanning those at most 2^tau candidates
and keeping one with at least f intervals of every color decides the problem.
The scan is a branch-and-bound walk: below a node it can only add the cover
vertices not yet decided and only clear V_ind bits, so a node is cut once some
color's count plus its undecided cover vertices falls below f.  O(2^tau n) is
the worst case.  Preferable to the vector DP when tau is small; refuses when
tau > TAU_GUARD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .model import (
    ColoredIntervalInstance,
    GuardError,
    SolutionSet,
    greedy_independent,
    verified_solution,
)

TAU_GUARD = 30


@dataclass(frozen=True)
class VertexCoverDecomposition:
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

    A node at walk index i is cut when some color's count plus remaining[i],
    its cover vertices at index >= i, is below f: at a leaf that is the
    feasibility test, and at f = 0 nothing is cut.  counts is kept at [nodes
    visited, leaves reached], cut ones included.
    """
    cover = [(pos, id) for pos, id in enumerate(inst.view.order, start=1) if id in decomp.cover]
    tau = len(cover)
    color_masks = [sum(1 << id for id in ids) for ids in inst.color_class_ids()]
    remaining = [[0] * inst.k]
    for _, id in reversed(cover):
        row = remaining[-1][:]
        row[inst.colors[id] - 1] += 1
        remaining.append(row)
    remaining.reverse()
    masks, prev = inst.masks, inst.view.prev
    nodes = leaves = 0
    stack = [(0, sum(1 << id for id in decomp.independent), 0)]
    while stack:
        idx, candidate, last = stack.pop()
        nodes += 1
        if idx == tau:
            leaves += 1
        if f and any(
            (candidate & m).bit_count() + r < f
            for m, r in zip(color_masks, remaining[idx])
        ):
            continue
        if idx == tau:
            counts[:] = nodes, leaves
            yield candidate
            continue
        pos, id = cover[idx]
        if prev[pos - 1] >= last:
            stack.append((idx + 1, (candidate & ~masks[id]) | (1 << id), pos))
        stack.append((idx + 1, candidate, last))
    counts[:] = nodes, leaves


def solve_fbis_vc(
    inst: ColoredIntervalInstance, f: int, stats: dict | None = None
) -> SolutionSet | None:
    """Return an independent set with exactly f intervals per color, or None.

    Takes the f lowest ids per color from the first leaf that survives the
    walk's cut; the cut drops only subtrees without a feasible leaf, so that
    is the first feasible candidate of the full scan.  O(2^tau n) in the worst
    case; raises GuardError when tau > TAU_GUARD (use the DP instead).  stats
    gains tau, candidates_examined (leaves reached), feasible and nodes.
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
        raise GuardError(
            f"tau = {decomp.tau} exceeds {TAU_GUARD}; 2^tau enumeration refused "
            "(the vector DP handles this instance)"
        )
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
