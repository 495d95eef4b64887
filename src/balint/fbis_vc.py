"""f-balanced independent set via minimum vertex cover enumeration.

On an interval graph the earliest-right-endpoint greedy builds a maximum
independent set, so its complement is a minimum vertex cover (size tau).
Every maximal independent set has the form (V_ind u S) \\ N(S) for some
independent S inside the cover, so scanning those at most 2^tau candidates
and keeping one with at least f intervals of every color decides the problem.
Preferable to the vector DP when tau is small; refuses when tau > TAU_GUARD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .model import (
    ColoredIntervalInstance,
    GuardError,
    SolutionSet,
    SortedView,
    build_sorted_view,
    greedy_independent,
    neighborhood_masks,
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
    return _decompose(inst, build_sorted_view(inst))


def _decompose(inst: ColoredIntervalInstance, view: SortedView) -> VertexCoverDecomposition:
    independent = frozenset(greedy_independent(view))
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
    view = build_sorted_view(inst)
    for candidate in _candidate_masks(view, neighborhood_masks(inst, view), decomp):
        yield frozenset(_bits(candidate))


def _candidate_masks(
    view: SortedView, masks: list[int], decomp: VertexCoverDecomposition
) -> Iterator[int]:
    """enumerate_swap_candidates as bitmasks.  Choosing cover vertex s clears
    its closed neighborhood and sets its own bit; the chosen vertices are
    pairwise disjoint, so none clears another."""
    cover = [
        (pos, id)
        for pos, id in enumerate(view.order, start=1)
        if id in decomp.cover
    ]

    def walk(idx: int, candidate: int, last: int):
        if idx == len(cover):
            yield candidate
            return
        yield from walk(idx + 1, candidate, last)
        pos, id = cover[idx]
        if view.prev[pos - 1] >= last:
            yield from walk(idx + 1, (candidate & ~masks[id]) | (1 << id), pos)

    yield from walk(0, sum(1 << id for id in decomp.independent), 0)


def solve_fbis_vc(
    inst: ColoredIntervalInstance, f: int, stats: dict | None = None
) -> SolutionSet | None:
    """Return an independent set with exactly f intervals per color, or None.

    Streams the swap candidates and extracts, from the first candidate with at
    least f intervals of every color, the f lowest ids per color.  Runs in
    O(2^tau n); raises GuardError when tau > TAU_GUARD (use the DP instead).
    """
    stats = {} if stats is None else stats
    if f < 1:
        raise ValueError("f must be >= 1")
    view = build_sorted_view(inst)
    decomp = _decompose(inst, view)
    stats.update(tau=decomp.tau, candidates_examined=0)
    if inst.is_color_deficient():
        stats.update(feasible=False, reason="color-deficient")
        return None
    if decomp.tau > TAU_GUARD:
        raise GuardError(
            f"tau = {decomp.tau} exceeds {TAU_GUARD}; 2^tau enumeration refused "
            "(the vector DP handles this instance)"
        )
    color_masks = [sum(1 << id for id in ids) for ids in inst.color_class_ids()]
    examined = 0
    for candidate in _candidate_masks(view, neighborhood_masks(inst, view), decomp):
        examined += 1
        if all((candidate & m).bit_count() >= f for m in color_masks):
            picked = [id for m in color_masks for id in _bits(candidate & m)[:f]]
            sol = verified_solution(inst, "BIS", picked, f)
            stats.update(feasible=True, candidates_examined=examined)
            return sol
    assert examined <= 2 ** decomp.tau
    stats.update(feasible=False, candidates_examined=examined)
    return None
