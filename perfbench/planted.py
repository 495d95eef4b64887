"""Seeded satisfiable formulas with a known (planted) assignment.

Both makers fix the clause count and the clause sizes, so the cost of an
operation does not swing with the draw.  Each clause keeps one "anchor"
literal that is true under the planted assignment; the other literals are
dealt at random and then swapped between clauses until no clause names a
variable twice.  Swaps never move an anchor, so every clause stays satisfied.
"""

from __future__ import annotations

from random import Random

MAX_SWAP_TRIES = 1_000_000


def _variable_clash(clause: list[int]) -> int | None:
    """Position (never 0, the anchor) of a literal whose variable appears earlier."""
    seen = {abs(clause[0])}
    for pos in range(1, len(clause)):
        var = abs(clause[pos])
        if var in seen:
            return pos
        seen.add(var)
    return None


def _separate_variables(clauses: list[list[int]], rng: Random) -> None:
    tries = 0
    for j, clause in enumerate(clauses):
        while (pos := _variable_clash(clause)) is not None:
            tries += 1
            if tries > MAX_SWAP_TRIES:
                raise RuntimeError("could not separate repeated variables")
            other = clauses[rng.randrange(len(clauses))]
            if other is clause:
                continue
            q = rng.randrange(1, len(other))
            mine, theirs = clause[pos], other[q]
            if any(abs(x) == abs(theirs) for p, x in enumerate(clause) if p != pos):
                continue
            if any(abs(x) == abs(mine) for p, x in enumerate(other) if p != q):
                continue
            clause[pos], other[q] = theirs, mine


def _truth(num_vars: int, rng: Random) -> dict[int, bool]:
    return {v: rng.random() < 0.5 for v in range(1, num_vars + 1)}


def planted_tptn(num_vars: int, rng: Random):
    """A 2P2N formula: every variable twice positive and twice negative, in
    4 * num_vars / 3 clauses of three literals.  Returns (clauses, truth)."""
    if num_vars <= 0 or num_vars % 3:
        raise ValueError("num_vars must be a positive multiple of 3")
    truth = _truth(num_vars, rng)
    true_lits, false_lits = [], []
    for v in range(1, num_vars + 1):
        lit = v if truth[v] else -v
        true_lits += [lit, lit]
        false_lits += [-lit, -lit]
    rng.shuffle(true_lits)
    m = 4 * num_vars // 3
    rest = true_lits[m:] + false_lits
    rng.shuffle(rest)
    clauses = [[true_lits[j], rest[2 * j], rest[2 * j + 1]] for j in range(m)]
    _separate_variables(clauses, rng)
    return [tuple(c) for c in clauses], truth


def planted_three_bounded(num_vars: int, pairs: int, triples: int, rng: Random):
    """A 3-bounded formula over num_vars variables with `pairs` 2-literal and
    `triples` 3-literal clauses.  Every variable occurs at least once; of the
    slots beyond one per variable, about two thirds are second occurrences and
    one third are pairs of second and third occurrences, each on its own
    variable.  Returns (clauses, truth)."""
    slots = 2 * pairs + 3 * triples
    extra = slots - num_vars
    thrice = extra // 6
    twice = extra - 2 * thrice
    if extra < 0 or twice + thrice > num_vars:
        raise ValueError("clause sizes do not fit three occurrences per variable")
    truth = _truth(num_vars, rng)
    variables = list(range(1, num_vars + 1))
    repeated = rng.sample(variables, twice + thrice)
    occurrences = variables + repeated + repeated[twice:]
    rng.shuffle(occurrences)
    sizes = [2] * pairs + [3] * triples
    rng.shuffle(sizes)
    clauses, start = [], 0
    for size in sizes:
        clauses.append(occurrences[start : start + size])
        start += size
    _separate_variables(clauses, rng)
    signed = []
    for clause in clauses:
        anchor = clause[0] if truth[clause[0]] else -clause[0]
        signed.append(
            (anchor, *(v if rng.random() < 0.5 else -v for v in clause[1:]))
        )
    return signed, truth


def dimacs(num_vars: int, clauses) -> str:
    rows = [f"p cnf {num_vars} {len(clauses)}"]
    rows += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(rows) + "\n"


def assignment_text(truth: dict[int, bool]) -> str:
    return "".join(f"x{v}={int(truth[v])}\n" for v in sorted(truth))
