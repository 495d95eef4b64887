"""Exact f-balanced dominating set solver.

solve_fbds_brute enumerates, class by class and depth first on an explicit
stack (so no recursion limit applies), every way of picking exactly f
intervals per color, and returns the first selection whose closed
neighborhoods cover every vertex.  Classes are visited smallest first and a
partial selection is abandoned once even the union of all remaining classes'
neighborhoods cannot cover the rest (a sound prune).  The guard refuses when
the combination count exceeds COMBINATION_GUARD (printed as 2^m+ when long).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import NamedTuple

from .model import (
    ColoredIntervalInstance,
    GuardError,
    SolutionSet,
    quantity_text,
    verified_solution,
)

COMBINATION_GUARD = 10**8


class DominationIndex(NamedTuple):
    """Closed-neighborhood bitmasks: bit v of closed_masks[u] is set iff u = v
    or intervals u and v intersect.  A selection dominates the instance iff the
    OR of its members' masks is full_mask."""

    closed_masks: tuple[int, ...]
    full_mask: int

    @staticmethod
    def from_instance(inst: ColoredIntervalInstance) -> "DominationIndex":
        return DominationIndex(closed_masks=inst.masks, full_mask=(1 << inst.n) - 1)


def solve_fbds_brute(
    inst: ColoredIntervalInstance, f: int, stats: dict | None = None
) -> SolutionSet | None:
    """Return a dominating set with exactly f intervals of every color, or None.

    Raises GuardError when the product of per-class C(size, f) combination
    counts exceeds COMBINATION_GUARD.  stats gets combinations_tried, the
    combinations drawn at every class level, and combinations_bound, the most
    it can reach: the sum over levels t of prod_{s<=t} C(|class_s|, f).
    """
    stats = {} if stats is None else stats
    if f < 1:
        raise ValueError("f must be >= 1")
    classes = [[]] if inst.k > inst.n else sorted(  # k > n leaves a class empty: C(0, f) = 0
        inst.color_class_ids(), key=lambda ids: (len(ids), ids)
    )
    total, bound = 1, 0
    for ids in classes:
        total *= comb(len(ids), f)
        if total > COMBINATION_GUARD:
            raise GuardError(
                f"{quantity_text(total, 1, f'2^{total.bit_length() - 1}')}+ balanced "
                f"combinations exceeds {COMBINATION_GUARD}; instance too large for exact BDS"
            )
        bound += total
    stats.update(combinations_bound=bound, combinations_tried=0, feasible=False)
    if total == 0:
        return None
    masks, full = inst.masks, (1 << inst.n) - 1
    suffix_reach = [0] * (len(classes) + 1)
    for t in range(len(classes) - 1, -1, -1):
        reach = suffix_reach[t + 1]
        for id in classes[t]:
            reach |= masks[id]
        suffix_reach[t] = reach
    tried = 0
    picks: list[tuple[int, ...]] = []
    found = None if classes else []
    frames = [(combinations(classes[0], f), 0)] if classes else []
    while frames:
        t = len(frames) - 1
        combos, covered = frames[t]
        reach = suffix_reach[t + 1]
        for combo in combos:
            tried += 1
            mask = covered
            for id in combo:
                mask |= masks[id]
            if mask | reach == full:
                break
        else:
            frames.pop()
            continue
        picks[t:] = [combo]
        if t + 1 == len(classes):
            found = [id for pick in picks for id in pick]
            break
        frames.append((combinations(classes[t + 1], f), mask))
    stats.update(combinations_tried=tried, feasible=found is not None)
    if found is None:
        return None
    return verified_solution(inst, "BDS", found, f)

