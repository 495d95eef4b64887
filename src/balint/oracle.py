"""Exhaustive reference oracles for testing the solvers.

Everything here is deliberately naive: plain enumeration with no shared DP,
greedy, or swap machinery.  Budgets turn oversized enumerations into a
distinct BudgetError instead of a wrong or slow answer.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import NamedTuple

from .cnf import CnfFormula, evaluate
from .model import (
    ColoredIntervalInstance,
    GuardError,
    SolutionSet,
    intersects,
    solution_from_ids,
)


class BudgetError(GuardError):
    """The oracle's enumeration budget would be exceeded."""


class OracleBudget(NamedTuple):
    max_subsets: int = 1 << 24
    max_assignments: int = 1 << 20


DEFAULT_BUDGET = OracleBudget()


def _conflict_masks(inst: ColoredIntervalInstance) -> list[int]:
    masks = [0] * inst.n
    for a in inst.intervals:
        for b in inst.intervals:
            if a.id < b.id and intersects(a, b):
                masks[a.id] |= 1 << b.id
                masks[b.id] |= 1 << a.id
    return masks


def oracle_fbis(
    inst: ColoredIntervalInstance, f: int, budget: OracleBudget = DEFAULT_BUDGET
) -> SolutionSet | None:
    """Search every way of picking exactly f ids per color for an independent one.

    Classes are filled in color order, ids ascending, so the witness is
    deterministic.  Returns None when no balanced independent set exists.
    """
    if f < 1:
        raise ValueError("f must be >= 1")
    classes = inst.color_class_ids()
    total = 1
    for ids in classes:
        total *= comb(len(ids), f)
        if total > budget.max_subsets:
            raise BudgetError(
                f"oracle_fbis: {total}+ combinations exceeds budget {budget.max_subsets}"
            )
    if total == 0:
        return None
    masks = _conflict_masks(inst)

    def extend(class_idx: int, chosen: list[int], used_mask: int):
        if class_idx == len(classes):
            return list(chosen)
        ids = classes[class_idx]

        def pick(start: int, need: int, mask: int, acc: list[int]):
            if need == 0:
                return extend(class_idx + 1, chosen + acc, mask)
            for pos in range(start, len(ids) - need + 1):
                id = ids[pos]
                if masks[id] & mask:
                    continue
                found = pick(pos + 1, need - 1, mask | (1 << id), acc + [id])
                if found is not None:
                    return found
            return None

        return pick(0, f, used_mask, [])

    found = extend(0, [], 0)
    if found is None:
        return None
    return solution_from_ids(inst, "BIS", found)


def oracle_mcis(
    inst: ColoredIntervalInstance, budget: OracleBudget = DEFAULT_BUDGET
) -> SolutionSet:
    """Maximize the number of distinct colors over independent, color-distinct sets.

    Tries every per-class choice of one id or none.  Ties are broken toward the
    lexicographically smallest sorted id tuple among the optima.
    """
    classes = inst.color_class_ids()
    total = 1
    for ids in classes:
        total *= len(ids) + 1
        if total > budget.max_subsets:
            raise BudgetError(
                f"oracle_mcis: {total}+ combinations exceeds budget {budget.max_subsets}"
            )
    masks = _conflict_masks(inst)
    best: tuple[int, tuple[int, ...]] = (0, ())

    def walk(class_idx: int, chosen: tuple[int, ...], used_mask: int):
        nonlocal best
        if class_idx == len(classes):
            key = (-len(chosen), tuple(sorted(chosen)))
            if key < (-best[0], best[1]):
                best = (len(chosen), tuple(sorted(chosen)))
            return
        for id in classes[class_idx]:
            if not masks[id] & used_mask:
                walk(class_idx + 1, chosen + (id,), used_mask | (1 << id))
        walk(class_idx + 1, chosen, used_mask)

    walk(0, (), 0)
    return solution_from_ids(inst, "MCIS", best[1])


def oracle_fbds(
    inst: ColoredIntervalInstance,
    f: int,
    budget: OracleBudget = DEFAULT_BUDGET,
    find_all: bool = False,
):
    """Scan all 2^n id subsets for balanced dominating sets, in mask order.

    Returns the first hit (or None); with find_all, the list of every hit.
    Self-contained: balance and domination are checked directly from the
    interval pairs, not via the solver's index or the core verifier.
    """
    if f < 1:
        raise ValueError("f must be >= 1")
    n = inst.n
    if (1 << n) > budget.max_subsets:
        raise BudgetError(
            f"oracle_fbds: 2^{n} subsets exceeds budget {budget.max_subsets}"
        )
    target = (f,) * inst.k
    hits = []
    for mask in range(1 << n):
        counts = [0] * inst.k
        members = []
        for id in range(n):
            if mask >> id & 1:
                counts[inst.intervals[id].color - 1] += 1
                members.append(inst.intervals[id])
        if tuple(counts) != target:
            continue
        dominated = True
        for iv in inst.intervals:
            if mask >> iv.id & 1:
                continue
            if not any(intersects(iv, d) for d in members):
                dominated = False
                break
        if dominated:
            sol = solution_from_ids(inst, "BDS", [iv.id for iv in members])
            if not find_all:
                return sol
            hits.append(sol)
    return hits if find_all else None


def oracle_sat(
    phi: CnfFormula, budget: OracleBudget = DEFAULT_BUDGET
) -> dict[int, bool] | None:
    """Truth-table scan; returns the first satisfying assignment or None."""
    if (1 << phi.num_vars) > budget.max_assignments:
        raise BudgetError(
            f"oracle_sat: 2^{phi.num_vars} assignments exceeds budget {budget.max_assignments}"
        )
    for values in product((False, True), repeat=phi.num_vars):
        assignment = {v + 1: values[v] for v in range(phi.num_vars)}
        if evaluate(phi, assignment):
            return assignment
    return None


def oracle_maximal_is(
    inst: ColoredIntervalInstance, budget: OracleBudget = DEFAULT_BUDGET
) -> list[frozenset[int]]:
    """List every maximal independent set, as a lexicographically sorted list.

    Enumerates all independent subsets by include/exclude recursion over ids,
    then keeps the ones no outside vertex can extend.
    """
    masks = _conflict_masks(inst)
    n = inst.n
    out: list[frozenset[int]] = []
    visited = 0

    def walk(id: int, chosen: tuple[int, ...], used_mask: int):
        nonlocal visited
        if id == n:
            visited += 1
            if visited > budget.max_subsets:
                raise BudgetError(
                    f"oracle_maximal_is: more than {budget.max_subsets} independent subsets"
                )
            for v in range(n):
                if not used_mask >> v & 1 and not masks[v] & used_mask:
                    return
            out.append(frozenset(chosen))
            return
        if not masks[id] & used_mask:
            walk(id + 1, chosen + (id,), used_mask | (1 << id))
        walk(id + 1, chosen, used_mask)

    walk(0, (), 0)
    return sorted(out, key=lambda s: tuple(sorted(s)))


def is_b_locally_optimal(
    inst: ColoredIntervalInstance, sol: SolutionSet, b: int, budget: int = 10**9
) -> bool:
    """Naive check that no neighbor within b removals and b additions has more colors.

    Enumerates every removal subset and every outside addition subset up to
    size b and tests independence pairwise.  Raises BudgetError when
    n^(2b) exceeds budget.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    if inst.n ** (2 * b) > budget:
        raise BudgetError(
            f"is_b_locally_optimal: {inst.n}^{2 * b} neighbor evaluations exceeds budget {budget}"
        )
    members = sorted(sol.ids)
    outside = [id for id in range(inst.n) if id not in sol.ids]
    base_colors = len({inst.interval(id).color for id in members})
    for removals in range(min(b, len(members)) + 1):
        for removed in combinations(members, removals):
            base = [id for id in members if id not in removed]
            for additions in range(1, b + 1):
                for added in combinations(outside, additions):
                    candidate = base + list(added)
                    colors = {inst.interval(id).color for id in candidate}
                    if len(colors) <= base_colors:
                        continue
                    ivs = [inst.interval(id) for id in candidate]
                    if any(intersects(a, c) for a, c in combinations(ivs, 2)):
                        continue
                    return False
    return True
