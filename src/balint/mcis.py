"""Approximate solvers for picking one interval per color, maximizing colors hit.

greedy_mcis scans by right endpoint and keeps an interval when its color slot
is still free and it clears the frontier of the last kept interval; it always
reaches at least half the optimum color count.  local_search_mcis refines the
greedy set with first-improvement b-swaps; oracle.is_b_locally_optimal is the
naive re-check used by the tests.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import combinations
from typing import NamedTuple

from .model import (
    ColoredIntervalInstance,
    GuardError,
    SolutionSet,
    SortedView,
    verified_solution,
)

NEIGHBOR_BUDGET = 10**9
# A refused n^(2b) of at most about this many bits is printed in full (it has
# under twice as many); larger ones print as n^2b.
_EXACT_WORK_BITS = 1 << 14


class LocalSearchConfig(NamedTuple):
    b: int = 2
    neighbor_budget: int = NEIGHBOR_BUDGET


def greedy_mcis(inst: ColoredIntervalInstance, stats: dict | None = None) -> SolutionSet:
    stats = {} if stats is None else stats
    sol = verified_solution(inst, "MCIS", _greedy_ids(inst.view), 1)
    stats["colors"] = sol.distinct_colors
    return sol


def _greedy_ids(view: SortedView) -> list[int]:
    """Walk the right-endpoint order; keep a position whose color slot is free
    and whose prev cut lies at or past the last kept position."""
    slots: dict[int, int] = {}
    last = 0
    for pos, (id, prev, color) in enumerate(zip(view.order, view.prev, view.colors), start=1):
        if color not in slots and prev >= last:
            slots[color] = id
            last = pos
    return list(slots.values())


def _guard_budget(n: int, b: int, budget: int) -> None:
    if b < 1:
        raise ValueError("b must be >= 1")
    exponent = 2 * b
    # n >= 2^(bits(n)-1), so n^(2b) > budget once 2b(bits(n)-1) reaches the
    # budget's bit length; short of that, n^(2b) has under twice its bits.
    provably_over = n > 1 and exponent * (n.bit_length() - 1) >= budget.bit_length()
    if not provably_over and n ** exponent <= budget:
        return
    work = f"{n}^{exponent}"
    if exponent * (n.bit_length() - 1) <= _EXACT_WORK_BITS:
        with suppress(ValueError):  # past the interpreter's int-to-str digit limit
            work = str(n ** exponent)
    raise GuardError(f"n^(2b) = {work} neighbor evaluations exceeds budget {budget}")


def _improving_neighbor(
    inst: ColoredIntervalInstance,
    current: frozenset[int],
    b: int,
    counter: list[int],
) -> frozenset[int] | None:
    """First b-swap neighbor with more colors, or None.

    Removal sets are tried smallest first; for each, additions of exactly
    |removals|+1 outside intervals are grown in id order, rejecting any that
    intersects a retained interval or repeats a retained color before
    recursing.  An improving neighbor exists iff one of this shape does.
    An outside interval's own bit is never in the chosen mask, so its closed
    neighborhood masks[id] & mask tests intersection only.
    """
    colors, masks = inst.colors, inst.masks
    members = sorted(current)
    outside = [id for id in range(inst.n) if id not in current]
    for removals in range(min(b, len(members)) + 1):
        need = removals + 1
        if need > b:
            break
        for removed in combinations(members, removals):
            base = [id for id in members if id not in removed]
            base_mask = 0
            for id in base:
                base_mask |= 1 << id
            base_colors = {colors[id] for id in base}

            def grow(start: int, picked: list[int], mask: int, taken: set[int]):
                counter[0] += 1
                if len(picked) == need:
                    return frozenset(base) | frozenset(picked)
                for pos in range(start, len(outside)):
                    id = outside[pos]
                    if colors[id] in taken or masks[id] & mask:
                        continue
                    found = grow(
                        pos + 1, picked + [id], mask | (1 << id), taken | {colors[id]}
                    )
                    if found is not None:
                        return found
                return None

            found = grow(0, [], base_mask, set(base_colors))
            if found is not None:
                return found
    return None


def local_search_mcis(
    inst: ColoredIntervalInstance,
    cfg: LocalSearchConfig = LocalSearchConfig(),
    stats: dict | None = None,
) -> SolutionSet:
    """Greedy seed plus first-improvement b-swaps until no neighbor helps.

    Candidates stay independent with at most one interval per color, so the
    color count rises by at least one per round and the loop runs at most k
    rounds.  Raises GuardError when n^(2b) exceeds cfg.neighbor_budget.
    """
    stats = {} if stats is None else stats
    _guard_budget(inst.n, cfg.b, cfg.neighbor_budget)
    current = frozenset(_greedy_ids(inst.view))
    rounds = 0
    counter = [0]
    while len(current) < inst.k:
        nxt = _improving_neighbor(inst, current, cfg.b, counter)
        if nxt is None:
            break
        current = nxt
        rounds += 1
        assert rounds <= inst.k
    sol = verified_solution(inst, "MCIS", current, 1)
    stats.update(colors=sol.distinct_colors, rounds=rounds, neighbors_evaluated=counter[0])
    return sol
