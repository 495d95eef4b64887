"""CNF reductions to balanced interval problems, plus decode/encode bridges.

reduce_indset maps a 3-bounded formula to a proper interval instance with one
vertex per literal occurrence and one color per clause: the instance has a
1-balanced independent set iff the formula is satisfiable.  Per variable the
positive and negative occurrences form a complete bipartite gadget, which
under the occurrence bound is an isolated vertex, an edge, or a 3-vertex path
with the minority polarity in the middle.

reduce_domset maps a formula whose every variable occurs exactly twice
positively and twice negatively to a proper interval instance with five
colors per variable: a 6-vertex variable gadget (two leaf-hub-leaf paths) plus
a clique of up to three vertices per clause.  The instance has a 1-balanced
dominating set iff the formula is satisfiable.

Both reductions list their connected components in id order, each as a
template and its colors, and _layout places component c at offset
c * COMPONENT_STRIDE.  Every template is proper and components never meet, so
the result is proper; building the instance still checks that.

Each reduction is a plan, formula -> (components, roles, gadgets), and
_layout.  A GadgetMetadata file stores only the reduction's kind and its
source formula (num_vars and clauses).  The role of every interval and each
variable's gadget of interval ids are derived from that formula by the same
plan, once per metadata object, so solutions can be decoded to assignments
and assignments encoded back to solutions.  Files of earlier versions, which
also listed roles and gadgets, are refused and have to be regenerated with
`balint reduce`.  Every bridge first checks that the metadata is of its kind
and that the interval and color counts of its formula match the instance, so
mismatched files fail with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cnf import CnfFormula
from .model import (
    ColoredIntervalInstance,
    FormatError,
    SolutionSet,
    edge_count,
    verified_solution,
    verify_solution,
)

COMPONENT_STRIDE = 100

# Component templates as (lefts, rights) columns relative to the offset.
EDGE_COORDS = ((0, 2), (4, 6))
PATH_COORDS = ((0, 2, 5), (4, 6, 9))  # middle vertex is the [2, 6] one
TRIANGLE_COORDS = ((0, 1, 2), (4, 5, 6))
SINGLETON_COORDS = ((0,), (4,))


@dataclass(frozen=True)
class OccurrenceRole:
    """Independent-set reduction: the interval stands for one literal occurrence."""

    variable: int
    clause: int
    positive: bool


@dataclass(frozen=True)
class HubRole:
    """Dominating-set reduction: a variable-gadget vertex (t1, t2, f1, f2, h_t, h_f)."""

    variable: int
    name: str


@dataclass(frozen=True)
class ClauseRole:
    """Dominating-set reduction: a clause-clique vertex; slot says whether this
    is the variable's first or second occurrence of that polarity."""

    clause: int
    variable: int
    positive: bool
    slot: int


@dataclass(frozen=True)
class VariableGadget:
    """Ids of the ten intervals tied to one variable in the domset reduction."""

    t1: int
    t2: int
    f1: int
    f2: int
    h_t: int
    h_f: int
    c_t1: int
    c_t2: int
    c_f1: int
    c_f2: int
    pos_clauses: tuple[int, int]
    neg_clauses: tuple[int, int]


@dataclass(frozen=True)
class GadgetMetadata:
    """The kind and source formula of a reduction.  roles (interval id ->
    role) and variable_gadgets (variable -> VariableGadget) are derived from
    the formula by the reduction's plan on first use."""

    kind: str  # "indset" | "domset"
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    @cached_property
    def _formula(self) -> CnfFormula:
        return CnfFormula.build(self.num_vars, self.clauses)

    @cached_property
    def _derived(self) -> tuple[dict[int, object], dict[int, VariableGadget]]:
        """(roles, variable_gadgets) from the reduction's plan; raises
        ValueError when the formula is not one the reduction takes."""
        plan = _indset_plan if self.kind == "indset" else _domset_plan
        _, roles, gadgets = plan(self._formula)
        return dict(enumerate(roles)), gadgets

    @property
    def roles(self) -> dict[int, object]:
        return self._derived[0]

    @property
    def variable_gadgets(self) -> dict[int, VariableGadget]:
        return self._derived[1]

    @cached_property
    def _occurrence_ids(self) -> dict[tuple[int, int], int]:
        return {
            (role.variable, role.clause): id
            for id, role in self.roles.items()
            if isinstance(role, OccurrenceRole)
        }

    def formula(self) -> CnfFormula:
        return self._formula

    def occurrence_id(self, variable: int, clause: int) -> int:
        try:
            return self._occurrence_ids[variable, clause]
        except KeyError:
            raise KeyError(f"no occurrence of x{variable} in clause {clause}") from None

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "num_vars": self.num_vars,
            "clauses": [list(c) for c in self.clauses],
        }

    @staticmethod
    def from_json_dict(data) -> "GadgetMetadata":
        """Inverse of to_json_dict; raises FormatError on a malformed shape or
        a key outside the three it writes."""
        if not isinstance(data, dict):
            raise FormatError("metadata must be a JSON object")
        if data.get("kind") not in ("indset", "domset"):
            raise FormatError("metadata: kind must be 'indset' or 'domset'")
        num_vars, clauses = data.get("num_vars"), data.get("clauses")
        if type(num_vars) is not int or num_vars < 0:
            raise FormatError("metadata: num_vars must be an integer >= 0")
        if not isinstance(clauses, list) or not all(
            isinstance(c, list) and all(type(lit) is int for lit in c) for c in clauses
        ):
            raise FormatError("metadata: clauses must be lists of integers")
        unknown = [key for key in data if key not in ("kind", "num_vars", "clauses")]
        if unknown:
            raise FormatError(f"metadata: unknown key {unknown[0]!r}; re-run `balint reduce`")
        return GadgetMetadata(data["kind"], num_vars, tuple(tuple(c) for c in clauses))


def _check_metadata(inst: ColoredIntervalInstance, meta: GadgetMetadata, kind: str) -> None:
    """Raise ValueError unless meta describes a `kind` reduction of inst: the
    interval and color counts its clauses imply are the instance's, and its
    formula is one the reduction takes."""
    if meta.kind != kind:
        article = "an independent" if kind == "indset" else "a dominating"
        raise ValueError(f"metadata does not describe {article}-set reduction")
    occurrences = sum(map(len, meta.clauses))
    if kind == "indset":
        counts = (occurrences, len(meta.clauses))
    else:
        counts = (6 * meta.num_vars + occurrences, 5 * meta.num_vars)
    mismatch = ValueError(f"metadata roles do not match the {inst.n} intervals of the instance")
    if (inst.n, inst.k) != counts:
        raise mismatch
    try:
        meta.roles  # builds the formula and runs the plan, which checks its flavor
    except ValueError:
        raise mismatch from None


def _layout(k: int, components) -> ColoredIntervalInstance:
    """The instance of components listed in id order as (template, colors)
    pairs, component c shifted by c * COMPONENT_STRIDE."""
    lefts, rights, colors = [], [], []
    for c, ((template_lefts, template_rights), component_colors) in enumerate(components):
        base = c * COMPONENT_STRIDE
        lefts += map(base.__add__, template_lefts)
        rights += map(base.__add__, template_rights)
        colors += component_colors
    return ColoredIntervalInstance.from_columns(k, lefts, rights, colors, proper_flag=True)


def _indset_plan(phi: CnfFormula) -> tuple[list, list, dict]:
    """Components and roles, in id order, of the independent-set reduction of
    a 3-bounded formula; it has no variable gadgets."""
    # a formula without clauses is 3-bounded, though build flavors it tptn
    # when it also has no variables
    if phi.clauses and phi.flavor != "three_bounded":
        raise ValueError("formula is not 3-bounded (clauses of 2-3 literals, "
                         "each variable in at most 3 clauses)")
    components, roles = [], []
    for var, (pos, neg) in enumerate(phi.occurrence_lists[1:], start=1):
        if pos and neg:
            if len(pos) + len(neg) == 2:
                occurrences = ((pos[0], True), (neg[0], False))
            elif len(pos) == 2:
                occurrences = ((pos[0], True), (neg[0], False), (pos[1], True))
            else:
                occurrences = ((neg[0], False), (pos[0], True), (neg[1], False))
            template = EDGE_COORDS if len(occurrences) == 2 else PATH_COORDS
            components.append((template, [j for j, _ in occurrences]))
            roles += [OccurrenceRole(var, j, positive) for j, positive in occurrences]
        else:
            positive = bool(pos)
            for j in pos or neg:
                components.append((SINGLETON_COORDS, (j,)))
                roles.append(OccurrenceRole(var, j, positive))
    return components, roles, {}


def _domset_plan(phi: CnfFormula) -> tuple[list, list, dict[int, VariableGadget]]:
    """Components, roles and variable gadgets, in id order, of the
    dominating-set reduction of a 2P2N formula."""
    if phi.flavor != "tptn":
        raise ValueError("formula is not 2P2N (every variable exactly twice "
                         "positive and twice negative, clauses of 1-3 literals)")
    # Variable v's colors z_t1, z_t2, z_f1, z_f2, z_h are 5(v-1) + 1..5.
    components, roles, hub_ids = [], [], [()]
    for var in range(1, phi.num_vars + 1):
        z = 5 * (var - 1)
        components += (PATH_COORDS, (z + 1, z + 5, z + 2)), (PATH_COORDS, (z + 3, z + 5, z + 4))
        hub_ids.append(range(len(roles), len(roles) + 6))
        roles += [HubRole(var, name) for name in ("t1", "h_t", "t2", "f1", "h_f", "f2")]
    # clause_ids[v] holds v's c_t1, c_t2, c_f1, c_f2: part 1..4 of a clause
    # vertex names both its slot in that list and its leaf color
    clause_ids = [[0] * 4 for _ in range(phi.num_vars + 1)]
    for j, clause in enumerate(phi.clauses, start=1):
        colors = []
        for lit in clause:
            var, positive = abs(lit), lit > 0
            slot = 1 if phi.occurrence_lists[var][lit < 0][0] == j else 2
            part = (0 if positive else 2) + slot
            colors.append(5 * (var - 1) + part)
            clause_ids[var][part - 1] = len(roles)
            roles.append(ClauseRole(j, var, positive, slot))
        template = (SINGLETON_COORDS, EDGE_COORDS, TRIANGLE_COORDS)[len(clause) - 1]
        components.append((template, colors))
    gadgets = {}
    for var, (pos, neg) in enumerate(phi.occurrence_lists[1:], start=1):
        t1, h_t, t2, f1, h_f, f2 = hub_ids[var]
        c_t1, c_t2, c_f1, c_f2 = clause_ids[var]
        gadgets[var] = VariableGadget(
            t1=t1, t2=t2, f1=f1, f2=f2, h_t=h_t, h_f=h_f,
            c_t1=c_t1, c_t2=c_t2, c_f1=c_f1, c_f2=c_f2, pos_clauses=pos, neg_clauses=neg,
        )
    return components, roles, gadgets


def reduce_indset(phi: CnfFormula) -> tuple[ColoredIntervalInstance, GadgetMetadata]:
    """Build the independent-set instance and its metadata from a 3-bounded formula.

    Vertex count equals the total number of literal occurrences; color count
    equals the clause count.  The implied intersection graph consists of one
    complete bipartite gadget (positive vs negative occurrences) per variable.
    """
    inst = _layout(len(phi.clauses), _indset_plan(phi)[0])
    assert inst.n == sum(len(c) for c in phi.clauses)
    return inst, GadgetMetadata("indset", phi.num_vars, phi.clauses)


def reduce_domset(phi: CnfFormula) -> tuple[ColoredIntervalInstance, GadgetMetadata]:
    """Build the dominating-set instance and its metadata from a 2P2N formula.

    Per variable: colors (z_t1, z_t2, z_f1, z_f2, z_h), a leaf-hub-leaf path
    t1 - h_t - t2 and another f1 - h_f - f2, with gamma(h_t) = gamma(h_f) = z_h.
    Per clause: a clique of one vertex per literal, each sharing the color of
    the matching variable leaf (z_t for positive occurrences, z_f for negative).
    For 3-literal clauses throughout, the instance has 6n + 3m vertices and
    4n + 3m edges; shorter clauses contribute proportionally fewer.
    """
    inst = _layout(5 * phi.num_vars, _domset_plan(phi)[0])
    assert inst.n == 6 * phi.num_vars + sum(len(c) for c in phi.clauses)
    assert edge_count(inst, inst.view) == 4 * phi.num_vars + sum(
        len(c) * (len(c) - 1) // 2 for c in phi.clauses
    )
    return inst, GadgetMetadata("domset", phi.num_vars, phi.clauses)


def decode_indset(
    inst: ColoredIntervalInstance, meta: GadgetMetadata, sol: SolutionSet
) -> dict[int, bool]:
    """Read an assignment off a valid 1-balanced independent set: a variable is
    true iff one of its positive-occurrence intervals was selected."""
    _check_metadata(inst, meta, "indset")
    verdict = verify_solution(inst, sol, 1)
    if not verdict.valid:
        raise ValueError(f"solution is not a valid 1-balanced independent set: {verdict.reason}")
    assignment = {var: False for var in range(1, meta.num_vars + 1)}
    for id in sol.ids:
        role = meta.roles[id]
        if role.positive:
            assignment[role.variable] = True
    return assignment


def encode_indset_solution(
    inst: ColoredIntervalInstance, meta: GadgetMetadata, assignment: dict[int, bool]
) -> SolutionSet:
    """Pick, per clause, the interval of its first true literal.  Raises
    ValueError when the assignment leaves a clause unsatisfied."""
    _check_metadata(inst, meta, "indset")
    ids = []
    for j, clause in enumerate(meta.clauses, start=1):
        chosen = None
        for lit in clause:
            if assignment.get(abs(lit), False) == (lit > 0):
                chosen = meta.occurrence_id(abs(lit), j)
                break
        if chosen is None:
            raise ValueError(f"assignment does not satisfy clause {j}")
        ids.append(chosen)
    return verified_solution(inst, "BIS", ids, 1)


def decode_domset(
    inst: ColoredIntervalInstance, meta: GadgetMetadata, sol: SolutionSet
) -> dict[int, bool]:
    """Canonicalize a valid 1-balanced dominating set, then read the assignment
    off the hubs: a variable is true iff its true-side hub is selected."""
    canonical = canonicalize_bds(inst, meta, sol)
    return {
        var: meta.variable_gadgets[var].h_t in canonical.ids
        for var in range(1, meta.num_vars + 1)
    }


def encode_domset_solution(
    inst: ColoredIntervalInstance, meta: GadgetMetadata, assignment: dict[int, bool]
) -> SolutionSet:
    """Canonical dominating set of a satisfying assignment: per true variable
    {h_t, f1, f2, c_t1, c_t2}, per false variable {h_f, t1, t2, c_f1, c_f2}."""
    _check_metadata(inst, meta, "domset")
    for j, clause in enumerate(meta.clauses, start=1):
        if not any(assignment.get(abs(lit), False) == (lit > 0) for lit in clause):
            raise ValueError(f"assignment does not satisfy clause {j}")
    ids = []
    for var in range(1, meta.num_vars + 1):
        g = meta.variable_gadgets[var]
        if assignment.get(var, False):
            ids.extend([g.h_t, g.f1, g.f2, g.c_t1, g.c_t2])
        else:
            ids.extend([g.h_f, g.t1, g.t2, g.c_f1, g.c_f2])
    return verified_solution(inst, "BDS", ids, 1)


def canonicalize_bds(
    inst: ColoredIntervalInstance, meta: GadgetMetadata, sol: SolutionSet
) -> SolutionSet:
    """Rewrite a valid 1-balanced dominating set of a reduced instance into the
    canonical per-variable form.

    For each variable, a valid balanced solution contains exactly one of the
    two hub vertices.  With the true hub in, both false-side leaves are forced
    in and the true-side leaves can be traded for that variable's positive
    clause vertices without breaking balance or domination; symmetrically for
    the false hub.  Variables are processed in index order; the result is
    unchanged by a second pass.
    """
    _check_metadata(inst, meta, "domset")
    verdict = verify_solution(inst, sol, 1)
    if not verdict.valid:
        raise ValueError(f"solution is not a valid 1-balanced dominating set: {verdict.reason}")
    ids = set(sol.ids)
    for var in sorted(meta.variable_gadgets):
        g = meta.variable_gadgets[var]
        if g.h_t in ids:
            ids.difference_update((g.t1, g.t2))
            ids.update((g.c_t1, g.c_t2))
        elif g.h_f in ids:
            ids.difference_update((g.f1, g.f2))
            ids.update((g.c_f1, g.c_f2))
        else:
            raise ValueError(
                f"metadata inconsistent with solution: variable x{var} has no hub vertex"
            )
    return verified_solution(inst, "BDS", ids, 1)
