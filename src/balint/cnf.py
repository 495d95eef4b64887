"""CNF formulas, DIMACS parsing, and the occurrence-restricted flavors.

A literal is a signed nonzero int; a clause is a tuple of literals over
distinct variables.  Flavors: ``three_bounded`` (every variable occurs in at
most three clauses, every clause has two or three literals), ``tptn`` (every
variable occurs exactly twice positively and twice negatively, clauses have
one to three literals), else ``general``.
"""

from __future__ import annotations

from .model import FormatError, _Record


class CnfFormula(_Record):
    """A validated formula.  occurrence_lists[var] is (positive clause
    indices, negative clause indices), 1-based and ascending (entry 0 is
    unused), computed once by build; the flavor is classified from them when
    the formula is constructed.  ==, hash and repr leave occurrence_lists out."""

    _fields = ("num_vars", "clauses", "flavor")
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    flavor: str
    occurrence_lists: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __init__(self, num_vars: int, clauses, occurrence_lists):
        vars(self).update(num_vars=num_vars, clauses=clauses, occurrence_lists=occurrence_lists)
        vars(self)["flavor"] = (
            "tptn" if is_tptn(self) else "three_bounded" if is_three_bounded(self) else "general"
        )

    @staticmethod
    def build(num_vars: int, clauses) -> "CnfFormula":
        """Validate and classify.  Rejects empty clauses, out-of-range literals,
        and clauses mentioning a variable twice (gadgets need one vertex per
        variable occurrence per clause)."""
        if num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        normalized = []
        for idx, clause in enumerate(clauses, start=1):
            lits = tuple(int(l) for l in clause)
            if not lits:
                raise ValueError(f"clause {idx} is empty")
            seen_vars = set()
            for lit in lits:
                var = abs(lit)
                if lit == 0 or var > num_vars:
                    raise ValueError(f"clause {idx}: literal {lit} out of range")
                if var in seen_vars:
                    raise ValueError(f"clause {idx}: variable x{var} appears twice")
                seen_vars.add(var)
            normalized.append(lits)
        table: list[tuple[list[int], list[int]]] = [([], []) for _ in range(num_vars + 1)]
        for j, clause in enumerate(normalized, start=1):
            for lit in clause:
                table[abs(lit)][lit < 0].append(j)
        return CnfFormula(
            num_vars=num_vars,
            clauses=tuple(normalized),
            occurrence_lists=tuple((tuple(pos), tuple(neg)) for pos, neg in table),
        )


def is_three_bounded(phi: CnfFormula) -> bool:
    """Acceptable input for the independent-set reduction (includes the empty formula)."""
    return all(len(clause) in (2, 3) for clause in phi.clauses) and all(
        len(pos) + len(neg) <= 3 for pos, neg in phi.occurrence_lists[1:]
    )


def is_tptn(phi: CnfFormula) -> bool:
    """Acceptable input for the dominating-set reduction (includes the empty formula)."""
    return all(1 <= len(clause) <= 3 for clause in phi.clauses) and all(
        len(pos) == 2 and len(neg) == 2 for pos, neg in phi.occurrence_lists[1:]
    )


def evaluate(phi: CnfFormula, assignment: dict[int, bool]) -> bool:
    """True iff every clause has a true literal; unassigned variables are false."""
    for clause in phi.clauses:
        if not any(
            assignment.get(abs(lit), False) == (lit > 0) for lit in clause
        ):
            return False
    return True


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF.  Clauses may span lines; 0 terminates a clause."""
    num_vars = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise FormatError("duplicate problem line", no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FormatError("problem line must be 'p cnf <vars> <clauses>'", no)
            try:
                num_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError("problem line counts must be integers", no) from None
            continue
        if num_vars is None:
            raise FormatError("clause before problem line", no)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise FormatError(f"bad literal {token!r}", no) from None
            if lit == 0:
                if not pending:
                    # SATLIB files end with "%" and a lone "0"; tolerate that
                    # tail once every declared clause has been read.
                    if declared_clauses is not None and len(clauses) >= declared_clauses:
                        continue
                    raise FormatError("empty clause", no)
                clauses.append(tuple(pending))
                pending.clear()
            else:
                pending.append(lit)
    if num_vars is None:
        raise FormatError("missing problem line")
    if pending:
        raise FormatError("unterminated clause at end of input")
    if declared_clauses is not None and len(clauses) != declared_clauses:
        raise FormatError(
            f"problem line declares {declared_clauses} clauses but found {len(clauses)}"
        )
    try:
        return CnfFormula.build(num_vars, clauses)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def serialize_dimacs(phi: CnfFormula) -> str:
    rows = [f"p cnf {phi.num_vars} {len(phi.clauses)}"]
    rows.extend(" ".join(str(l) for l in clause) + " 0" for clause in phi.clauses)
    return "\n".join(rows) + "\n"
