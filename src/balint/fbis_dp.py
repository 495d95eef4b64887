"""Exact f-balanced independent set solver.

Dynamic program over the right-endpoint order: one level per interval, each
the set of achievable per-color cardinality vectors (components capped at f)
packed into one int.  Vector u is bit sum_c u_c (f+1)^(k-1-c), so ascending
bits are lexicographic order.  Level p is level p-1 OR the prev(p) level's
vectors not yet full in p's color, shifted up one in that digit.  Feasible
iff bit (f+1)^k - 1, the vector (f,...,f), reaches the last level.  The
witness walk takes the interval of the first level holding the vector,
removes its digit and searches again at or below its prev position.  The
solver refuses (f+1)^k > VECTOR_GUARD vectors.
"""

from __future__ import annotations

from bisect import bisect_left

from .model import (
    ColoredIntervalInstance,
    GuardError,
    SolutionSet,
    SortedView,
    greedy_independent,
    verified_solution,
)

VECTOR_GUARD = 1 << 26


def _digit_band(k: int, f: int, c: int, lo: int, hi: int) -> int:
    """The packed vectors whose component c lies in lo..hi-1: one block of
    bits per value of the more significant components, tiled by doubling."""
    stride = (f + 1) ** (k - 1 - c)
    block = ((1 << stride * (hi - lo)) - 1) << stride * lo
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
    steps = [(_digit_band(k, f, c, 0, f), (f + 1) ** (k - 1 - c)) for c in range(k)]
    levels = [1]
    current = 1
    for c, prev in zip(view.colors, view.prev):
        not_full, stride = steps[c]
        grown = current | (levels[prev] & not_full) << stride
        if grown != current:
            current = grown
        levels.append(current)
    return levels


def _reconstruct(
    view: SortedView, levels: list[int], k: int, f: int, vector: int
) -> list[int]:
    """Ids of an independent set with histogram `vector`, which must be set in
    levels[-1]: repeatedly take the interval of the first level holding the
    vector, remove its color and continue at or below its prev position."""
    ids = []
    hi = len(levels)
    while vector:
        pos = bisect_left(levels, 1, 0, hi, key=lambda level: level >> vector & 1)
        ids.append(view.order[pos - 1])
        vector -= (f + 1) ** (k - 1 - view.colors[pos - 1])
        hi = view.prev[pos - 1] + 1
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

    Runs in O(n log n + n (f+1)^k / w) for word size w.  Color-deficient
    instances are refused without running the DP.  Raises GuardError when
    (f+1)^k > VECTOR_GUARD.
    """
    stats = {} if stats is None else stats
    if f < 1:
        raise ValueError("f must be >= 1")
    _check_params(inst, f)
    if inst.is_color_deficient():
        stats.update(feasible=False, peak_states=0, reason="color-deficient")
        return None
    k = inst.k
    target = (f + 1) ** k - 1
    levels = _run_dp(inst.view, k, f)
    feasible = bool(levels[-1] >> target & 1)
    stats.update(peak_states=levels[-1].bit_count(), feasible=feasible)
    if not feasible:
        return None
    return verified_solution(inst, "BIS", _reconstruct(inst.view, levels, k, f, target), f)


def max_colors(inst: ColoredIntervalInstance) -> int:
    """The exact 1-MCIS optimum: the largest popcount of a set bit of the last
    f = 1 level, whose components are binary digits.  The m-digit vectors with
    at least j ones are those with at least j in the lower m - 1 digits, plus
    those with the top digit set and at least j - 1 below it; each band is
    built from the previous one by doubling.  Raises GuardError when 2^k >
    VECTOR_GUARD."""
    _check_params(inst, 1)
    k = inst.k
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


def max_f(inst: ColoredIntervalInstance, stats: dict | None = None) -> int:
    """Largest f >= 0 admitting an f-balanced independent set.

    One DP run with every component capped at min(smallest color class,
    floor(alpha / k)), alpha being the greedy maximum independent set size
    (k f <= alpha for any f-balanced independent set); the answer is the
    largest g such that some final vector has every component >= g (a
    balanced sub-selection of any witness set stays independent).
    """
    value, _ = max_f_with_witness(inst, stats)
    return value


def max_f_with_witness(
    inst: ColoredIntervalInstance, stats: dict | None = None
) -> tuple[int, SolutionSet | None]:
    """max_f plus a witness trimmed to exactly that many intervals per color,
    from the lowest final vector (in lexicographic order) with that minimum."""
    stats = {} if stats is None else stats
    if inst.k == 0:
        return 0, None
    k = inst.k
    cap = min(min(map(len, inst.color_class_ids())), len(greedy_independent(inst.view)) // k)
    if cap == 0:
        stats.update(peak_states=0, max_f=0)
        return 0, None
    _check_params(inst, cap)
    levels = _run_dp(inst.view, k, cap)
    final = levels[-1]
    best, hits = 0, final
    while best < cap:
        above = final
        for c in range(k):
            above &= _digit_band(k, cap, c, best + 1, cap + 1)
        if not above:
            break
        best, hits = best + 1, above
    stats.update(peak_states=final.bit_count(), max_f=best)
    if best == 0:
        return 0, None
    ids = sorted(_reconstruct(inst.view, levels, k, cap, (hits & -hits).bit_length() - 1))
    classes = [[i for i in ids if inst.colors[i] == c] for c in range(1, k + 1)]
    trimmed = [id for members in classes for id in members[:best]]
    return best, verified_solution(inst, "BIS", trimmed, best)
