"""Exact f-balanced independent set solver.

Dynamic program over the right-endpoint order: one level per interval, each
level holding the set of achievable per-color cardinality vectors (every
component capped at f).  Level i merges level i-1 with the vectors of level
prev(i) bumped in the color of interval i; both inputs are kept in
lexicographic order so the merge is linear and deduplicates on the fly.
Feasible iff (f,...,f) reaches the last level.  A global birth table (first
level and predecessor vector of every vector) yields a witness set.

State space is bounded by (f+1)^k vectors; the solver refuses to start when
that exceeds VECTOR_GUARD.
"""

from __future__ import annotations

from .model import (
    ColoredIntervalInstance,
    GuardError,
    SolutionSet,
    SortedView,
    build_sorted_view,
    greedy_independent,
    verified_solution,
)

VECTOR_GUARD = 1 << 26


def _run_dp(inst: ColoredIntervalInstance, view: SortedView, f: int):
    """Forward pass over view.  Returns (final level, birth table, peak level size).

    births maps each vector other than the origin to (1-based sorted position
    where it first appeared, predecessor vector at that position's prev level).
    """
    k = inst.k
    zero = (0,) * k
    colors = [inst.interval(id).color - 1 for id in view.order]
    levels: list[list[tuple[int, ...]]] = [[zero]]
    births: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    peak = 1
    bound = (f + 1) ** k
    for pos in range(1, inst.n + 1):
        c = colors[pos - 1]
        current = levels[pos - 1]
        reachable = levels[view.prev[pos - 1]]
        bumped = [
            (u[:c] + (u[c] + 1,) + u[c + 1 :], u) for u in reachable if u[c] < f
        ]
        if not bumped:
            levels.append(current)
            continue
        merged: list[tuple[int, ...]] = []
        i = j = 0
        grew = False
        while i < len(current) and j < len(bumped):
            a = current[i]
            b = bumped[j][0]
            if a == b:
                merged.append(a)
                i += 1
                j += 1
            elif a < b:
                merged.append(a)
                i += 1
            else:
                merged.append(b)
                births[b] = (pos, bumped[j][1])
                grew = True
                j += 1
        if i < len(current):
            merged.extend(current[i:])
        while j < len(bumped):
            b, pred = bumped[j]
            merged.append(b)
            births[b] = (pos, pred)
            grew = True
            j += 1
        if not grew:
            levels.append(current)
            continue
        assert len(merged) <= bound
        levels.append(merged)
        if len(merged) > peak:
            peak = len(merged)
    return levels[inst.n], births, peak


def _reconstruct(
    view: SortedView,
    births: dict[tuple[int, ...], tuple[int, tuple[int, ...]]],
    vector: tuple[int, ...],
) -> list[int]:
    """Walk birth links back to the origin, collecting one interval id per step."""
    ids = []
    zero = (0,) * len(vector)
    while vector != zero:
        pos, vector = births[vector]
        ids.append(view.order[pos - 1])
    return ids


def _check_params(inst: ColoredIntervalInstance, f: int) -> None:
    if (f + 1) ** inst.k > VECTOR_GUARD:
        raise GuardError(
            f"(f+1)^k = {(f + 1) ** inst.k} vectors exceeds {VECTOR_GUARD}; "
            "parameter too large for the vector DP"
        )


def solve_fbis_dp(
    inst: ColoredIntervalInstance, f: int, stats: dict | None = None
) -> SolutionSet | None:
    """Return an independent set with exactly f intervals of every color, or None.

    Runs in O(n log n + k (f+1)^k n).  Color-deficient instances are refused
    without running the DP.  Raises GuardError when (f+1)^k > VECTOR_GUARD.
    """
    if f < 1:
        raise ValueError("f must be >= 1")
    _check_params(inst, f)
    if inst.is_color_deficient():
        if stats is not None:
            stats.update(feasible=False, peak_states=0, reason="color-deficient")
        return None
    target = (f,) * inst.k
    view = build_sorted_view(inst)
    _, births, peak = _run_dp(inst, view, f)
    if stats is not None:
        stats["peak_states"] = peak
    feasible = target in births or inst.k == 0
    if stats is not None:
        stats["feasible"] = feasible
    if not feasible:
        return None
    return verified_solution(inst, "BIS", _reconstruct(view, births, target), f)


def max_f(inst: ColoredIntervalInstance, stats: dict | None = None) -> int:
    """Largest f >= 0 admitting an f-balanced independent set.

    One DP run with every component capped at min(smallest color class,
    floor(alpha / k)), alpha being the greedy maximum independent set size
    (k f <= alpha for any f-balanced independent set); the answer is the best
    minimum component over the final level (a balanced sub-selection of any
    witness set stays independent).
    """
    value, _ = max_f_with_witness(inst, stats)
    return value


def max_f_with_witness(
    inst: ColoredIntervalInstance, stats: dict | None = None
) -> tuple[int, SolutionSet | None]:
    """max_f plus a witness trimmed to exactly that many intervals per color."""
    if inst.k == 0:
        return 0, None
    view = build_sorted_view(inst)
    cap = min(
        min(len(ivs) for ivs in inst.color_classes().values()),
        len(greedy_independent(view)) // inst.k,
    )
    if cap == 0:
        if stats is not None:
            stats.update(peak_states=0, max_f=0)
        return 0, None
    _check_params(inst, cap)
    final, births, peak = _run_dp(inst, view, cap)
    best = 0
    best_vector = None
    for u in final:
        low = min(u)
        if low > best:
            best = low
            best_vector = u
    if stats is not None:
        stats.update(peak_states=peak, max_f=best)
    if best == 0:
        return 0, None
    ids = _reconstruct(view, births, best_vector)
    trimmed: list[int] = []
    quota = {c: best for c in range(1, inst.k + 1)}
    for id in sorted(ids):
        color = inst.interval(id).color
        if quota[color] > 0:
            quota[color] -= 1
            trimmed.append(id)
    return best, verified_solution(inst, "BIS", trimmed, best)
