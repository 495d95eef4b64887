"""Seeded instance and formula generators.

All randomness comes from random.Random(seed) (Mersenne Twister), so a
GenSpec pins the output exactly.  The interval models draw each endpoint and
color with Random.getrandbits and randint's rejection rule (draw the range's
bit length, redraw while out of range), so they consume the same words as
randint did and give the same instances as earlier versions, without
depending on how randint is implemented.  Models:

- uniform-random: endpoints drawn uniformly from [0, 4n], colors uniform in
  1..k.  With f_target, the first k * f_target intervals take round-robin
  colors so every class is at least f_target large (when n allows).
- proper-unit: unit-length intervals, left endpoints uniform in [0, 4n].
- greedy-adversarial: blocks of three intervals arranged so the greedy color
  picker keeps one color per block while the optimum keeps two.
- sat-derived: a random 3-bounded formula pushed through reduce_indset.

f_target must be >= 0 and is taken only by uniform-random; GenSpec refuses it
elsewhere."""

from __future__ import annotations

from bisect import bisect_left
from random import Random
from typing import NamedTuple

from .cnf import CnfFormula
from .model import ColoredIntervalInstance
from .reductions import reduce_indset

MODELS = ("uniform-random", "proper-unit", "greedy-adversarial", "sat-derived")


class _GenSpecFields(NamedTuple):
    n: int
    k: int
    seed: int
    model: str = "uniform-random"
    f_target: int | None = None


class GenSpec(_GenSpecFields):
    __slots__ = ()

    def __new__(cls, n, k, seed, model="uniform-random", f_target=None):
        if model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {model!r}")
        if n < 0 or k < 1:
            raise ValueError("need n >= 0 and k >= 1")
        if f_target is not None:
            if model != "uniform-random":
                raise ValueError(f"f_target applies only to uniform-random, not {model}")
            if f_target < 0:
                raise ValueError("need f_target >= 0")
        return super().__new__(cls, n, k, seed, model, f_target)

    @classmethod
    def _make(cls, iterable) -> "GenSpec":
        return cls(*iterable)  # so that _replace checks the fields too


def generate(spec: GenSpec) -> ColoredIntervalInstance:
    rng = Random(spec.seed)
    if spec.model == "uniform-random":
        return _uniform_random(spec.n, spec.k, rng, spec.f_target)
    if spec.model == "proper-unit":
        return _proper_unit(spec.n, spec.k, rng)
    if spec.model == "greedy-adversarial":
        return _greedy_adversarial(spec.n)
    return reduce_indset(random_three_bounded(max(2, spec.n // 2), rng))[0]


def _uniform_random(
    n: int, k: int, rng: Random, f_target: int | None = None
) -> ColoredIntervalInstance:
    # each draw is randint(0, span) or randint(1, k) spelled out: getrandbits
    # of the range's bit length, redrawn while out of range
    span = 4 * n
    bits, color_bits = (span + 1).bit_length(), k.bit_length()
    getrandbits = rng.getrandbits
    round_robin = 0 if f_target is None else k * f_target
    lefts, rights, colors = [], [], []
    for id in range(n):
        a = getrandbits(bits)
        while a > span:
            a = getrandbits(bits)
        b = getrandbits(bits)
        while b > span:
            b = getrandbits(bits)
        if a > b:
            a, b = b, a
        lefts.append(a)
        rights.append(b)
        if id < round_robin:
            colors.append(id % k + 1)
        else:
            c = getrandbits(color_bits)
            while c >= k:
                c = getrandbits(color_bits)
            colors.append(c + 1)
    return ColoredIntervalInstance.from_columns(k, lefts, rights, colors)


def _proper_unit(n: int, k: int, rng: Random) -> ColoredIntervalInstance:
    # the draws of _uniform_random: one left endpoint and one color each
    span = 4 * n
    bits, color_bits = (span + 1).bit_length(), k.bit_length()
    getrandbits = rng.getrandbits
    lefts, colors = [], []
    for _ in range(n):
        a = getrandbits(bits)
        while a > span:
            a = getrandbits(bits)
        lefts.append(a)
        c = getrandbits(color_bits)
        while c >= k:
            c = getrandbits(color_bits)
        colors.append(c + 1)
    rights = [left + 1 for left in lefts]
    return ColoredIntervalInstance.from_columns(k, lefts, rights, colors, proper_flag=True)


def _greedy_adversarial(n: int) -> ColoredIntervalInstance:
    """Deterministic worst case for the greedy color picker.

    Block t (stride 8) holds A = [8t, 8t+2] and C = [8t+5, 8t+6] of one color
    and B = [8t+1, 8t+4] of another, both colors private to the block.  Greedy
    takes A (earliest right endpoint), which blocks B, and C repeats A's color:
    one color per block.  The optimum takes the disjoint pair B, C: two per
    block.  The requested n is rounded down to a whole number of blocks; the
    instance ends up with 2t colors for t blocks.
    """
    blocks = max(1, n // 3)
    lefts, rights, colors = [], [], []
    for t in range(blocks):
        base = 8 * t
        c_a, c_b = 2 * t + 1, 2 * t + 2
        lefts += [base, base + 1, base + 5]
        rights += [base + 2, base + 4, base + 6]
        colors += [c_a, c_b, c_a]
    return ColoredIntervalInstance.from_columns(2 * blocks, lefts, rights, colors)


def random_three_bounded(
    num_vars: int, rng: Random, max_clauses: int | None = None
) -> CnfFormula:
    """Random formula with 2-3 literals per clause and at most three occurrences
    per variable.  Clause count is as drawn unless the occurrence budget runs dry."""
    if num_vars < 2:
        raise ValueError("need at least 2 variables to form a 2-literal clause")
    if max_clauses is None:
        max_clauses = max(1, num_vars)
    budget = [3] * (num_vars + 1)
    available = list(range(1, num_vars + 1))  # variables with budget left, ascending
    clauses = []
    target = rng.randint(1, max_clauses)
    while len(clauses) < target and len(available) >= 2:
        size = rng.choice((2, 3))
        size = min(size, len(available))
        chosen = rng.sample(available, size)
        clause = tuple(v if rng.random() < 0.5 else -v for v in sorted(chosen))
        for v in chosen:
            budget[v] -= 1
            if not budget[v]:
                del available[bisect_left(available, v)]
        clauses.append(clause)
    return CnfFormula.build(num_vars, clauses)


def random_tptn_uniform3(num_vars: int, rng: Random) -> CnfFormula:
    """Random formula over 3-literal clauses where every variable occurs exactly
    twice positively and twice negatively; num_vars must be a multiple of 3.

    Shuffles the 4n signed occurrence slots into clauses of three until every
    clause touches three distinct variables.
    """
    if num_vars <= 0 or num_vars % 3 != 0:
        raise ValueError("num_vars must be a positive multiple of 3")
    slots = []
    for v in range(1, num_vars + 1):
        slots.extend([v, v, -v, -v])
    while True:
        rng.shuffle(slots)
        groups = [slots[i : i + 3] for i in range(0, len(slots), 3)]
        if all(len({abs(l) for l in g}) == 3 for g in groups):
            clauses = [tuple(sorted(g, key=abs)) for g in groups]
            return CnfFormula.build(num_vars, clauses)
