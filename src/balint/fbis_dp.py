"""Exact f-balanced independent set solver.

Dynamic program over the right-endpoint order: one level per interval, each
the set of achievable per-color cardinality vectors (components capped at f)
packed into one int.  Vector u is bit sum_c u_c (f+1)^(k-1-c), so ascending
bits are lexicographic order.  Level p is level p-1 OR the prev(p) level's
vectors not yet full in p's color, shifted up one in that digit.  Feasible
iff bit (f+1)^k - 1, the vector (f,...,f), reaches the last level; levels
only grow, so solve_fbis_dp stops at the first level P that holds it and
reads the order through model.walk_sorted_view, which sorts no further than
P.  The witness walk takes the interval of the first level holding the
vector, removes its digit and searches again at or below its prev position,
so it reads no level past P.  The solver refuses (f+1)^k > VECTOR_GUARD
vectors.

Every set bit is the histogram of an independent set, and dropping an
interval keeps a set independent, so the reachable vectors are closed under
lowering one component.  Hence some vector with every component >= g is
reachable iff the diagonal vector (g,...,g), bit g ((f+1)^k - 1) / f, is:
the feasibility test and the largest feasible f each read one diagonal bit.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable

from .model import (
    ColoredIntervalInstance,
    GuardError,
    SolutionSet,
    SortedView,
    greedy_independent,
    verified_solution,
    walk_sorted_view,
)

VECTOR_GUARD = 1 << 26


def _digit_band(k: int, f: int, c: int) -> int:
    """The packed vectors whose component c lies in 0..f-1: one block of
    bits per value of the more significant components, tiled by doubling."""
    stride = (f + 1) ** (k - 1 - c)
    block = (1 << stride * f) - 1
    band, width, times = 0, stride * (f + 1), (f + 1) ** c
    while times:
        if times & 1:
            band = band << width | block
        block |= block << width
        width *= 2
        times >>= 1
    return band


def _run_dp(view: SortedView, k: int, f: int) -> list[int]:
    """Packed levels 0..n over view: bit u of levels[p] is set iff vector u
    is the histogram of an independent set among the first p positions."""
    return _levels(zip(view.colors, view.prev), k, f)


def _levels(
    positions: Iterable[tuple[int, int]], k: int, f: int, stop: int | None = None
) -> list[int]:
    """The packed levels over positions (color - 1, prev) in view order, up to
    the first level holding bit stop when stop is given."""
    shifts = [(_digit_band(k, f, c), (f + 1) ** (k - 1 - c)) for c in range(k)]
    levels = [1]
    current = 1
    for c, prev in positions:
        not_full, stride = shifts[c]
        grown = current | (levels[prev] & not_full) << stride
        if grown != current:
            current = grown
            if stop is not None and current >> stop & 1:
                levels.append(current)
                break
        levels.append(current)
    return levels


def _reconstruct(
    view: SortedView, levels: list[int], k: int, f: int, vector: int
) -> list[int]:
    """Ids of an independent set with histogram `vector`, which must be set in
    levels[-1]: repeatedly take the interval of the first level holding the
    vector, remove its color and continue at or below its prev position."""
    order, prev, colors = view.order, view.prev, view.colors
    ids = []
    hi = len(levels)
    while vector:
        pos = bisect_left(levels, 1, 0, hi, key=lambda level: level >> vector & 1)
        ids.append(order[pos - 1])
        vector -= (f + 1) ** (k - 1 - colors[pos - 1])
        hi = prev[pos - 1] + 1
    return ids


def _check_params(k: int, f: int) -> None:
    if (f + 1) ** k > VECTOR_GUARD:
        raise GuardError(
            f"(f+1)^k = {(f + 1) ** k} vectors exceeds {VECTOR_GUARD}; "
            "parameter too large for the vector DP"
        )


def solve_fbis_dp(
    inst: ColoredIntervalInstance, f: int, stats: dict | None = None
) -> SolutionSet | None:
    """Return an independent set with exactly f intervals of every color, or None.

    Runs in O(n + P log n + P (f+1)^k / w) for word size w, P being the
    first position whose level holds (f,...,f), or n when none does (then
    O(n log n + n (f+1)^k / w)).  Below n, the instance keeps no view; the
    levels up to P and their last popcount are those of a run over all n.
    Color-deficient instances are refused without running the DP.  Raises
    GuardError when (f+1)^k > VECTOR_GUARD.
    """
    stats = {} if stats is None else stats
    if f < 1:
        raise ValueError("f must be >= 1")
    _check_params(inst.k, f)
    if inst.is_color_deficient():
        stats.update(feasible=False, peak_states=0, reason="color-deficient")
        return None
    k = inst.k
    target = (f + 1) ** k - 1
    view, positions = walk_sorted_view(inst)
    levels = _levels(positions, k, f, target)
    feasible = bool(levels[-1] >> target & 1)
    stats.update(peak_states=levels[-1].bit_count(), feasible=feasible)
    if not feasible:
        return None
    return verified_solution(inst, "BIS", _reconstruct(view, levels, k, f, target), f)


def max_colors(inst: ColoredIntervalInstance) -> int:
    """The exact 1-MCIS optimum: the largest popcount of a set bit of the last
    f = 1 level, whose components are binary digits.  The m-digit vectors with
    at least j ones are those with at least j in the lower m - 1 digits, plus
    those with the top digit set and at least j - 1 below it; each band is
    built from the previous one by doubling.  Raises GuardError when 2^k >
    VECTOR_GUARD."""
    k = inst.k
    _check_params(k, 1)
    final = _run_dp(inst.view, k, 1)[-1]
    at_least = [(1 << (1 << m)) - 1 for m in range(k + 1)]  # j = 0, for m = 0..k
    best = 0
    while best < k:
        bands = [0]
        for m in range(k):
            bands.append(bands[m] | at_least[m] << (1 << m))
        if not final & bands[k]:
            break
        best, at_least = best + 1, bands
    return best


def max_f_with_witness(
    inst: ColoredIntervalInstance, stats: dict | None = None
) -> tuple[int, SolutionSet | None]:
    """Largest f >= 0 admitting an f-balanced independent set, with a witness
    (None when f = 0).

    One DP run with every component capped at min(smallest color class,
    floor(alpha / k)), alpha being the greedy maximum independent set size
    (k f <= alpha for any f-balanced independent set).  Since the reachable
    vectors are closed under lowering a component, the answer is the largest
    g <= cap whose diagonal vector (g,...,g) reaches the last level, and the
    witness is reconstructed from that vector.
    """
    stats = {} if stats is None else stats
    if inst.k == 0:
        return 0, None
    k = inst.k
    cap = min(min(map(len, inst.color_class_ids())), len(greedy_independent(inst.view)) // k)
    if cap == 0:
        stats.update(peak_states=0, max_f=0)
        return 0, None
    _check_params(k, cap)
    levels = _run_dp(inst.view, k, cap)
    final = levels[-1]
    unit = ((cap + 1) ** k - 1) // cap
    best = next(g for g in range(cap, -1, -1) if final >> g * unit & 1)
    stats.update(peak_states=final.bit_count(), max_f=best)
    if best == 0:
        return 0, None
    ids = _reconstruct(inst.view, levels, k, cap, best * unit)
    return best, verified_solution(inst, "BIS", ids, best)
