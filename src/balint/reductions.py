"""CNF reductions to balanced interval problems, plus decode/encode bridges.

reduce_indset maps a 3-bounded formula to a proper interval instance with one
vertex per literal occurrence and one color per clause: the instance has a
1-balanced independent set iff the formula is satisfiable.  Per variable the
positive and negative occurrences form a complete bipartite gadget, which
under the occurrence bound is an isolated vertex, an edge, or a 3-vertex path
with the minority polarity in the middle; each connected component is laid
out from a template at its own offset.

reduce_domset maps a formula whose every variable occurs exactly twice
positively and twice negatively to a proper interval instance with five
colors per variable: a 6-vertex variable gadget (two leaf-hub-leaf paths) plus
a clique of up to three vertices per clause.  The instance has a 1-balanced
dominating set iff the formula is satisfiable.

A GadgetMetadata sidecar records the role of every interval, the per-variable
vertex ids and clause incidences, and the source formula, so solutions can be
decoded to assignments and assignments encoded back to solutions.  Every
bridge first checks that the metadata is of its kind and matches the
instance, so mismatched files fail with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .cnf import CnfFormula, is_three_bounded, is_tptn
from .model import (
    ColoredIntervalInstance,
    FormatError,
    Interval,
    SolutionSet,
    build_sorted_view,
    edge_count,
    verified_solution,
    verify_solution,
)

COMPONENT_STRIDE = 100

EDGE_COORDS = ((0, 4), (2, 6))
PATH_COORDS = ((0, 4), (2, 6), (5, 9))  # middle vertex is the (2, 6) one
TRIANGLE_COORDS = ((0, 4), (1, 5), (2, 6))
SINGLETON_COORDS = ((0, 4),)


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


ROLE_TYPES = {"occurrence": OccurrenceRole, "var": HubRole, "clause": ClauseRole}
ROLE_TAGS = {cls: tag for tag, cls in ROLE_TYPES.items()}

# The JSON type read for each record field annotation; tuple means a tuple of
# ints.  A field of any other type fails here, at import, with a KeyError.
_JSON_TYPES = {"int": int, "bool": bool, "str": str, "tuple[int, int]": tuple}
# (name, JSON type) of each record's constructor fields
_JSON_FIELDS = {
    cls: tuple((f.name, _JSON_TYPES[f.type]) for f in fields(cls) if f.init)
    for cls in (*ROLE_TYPES.values(), VariableGadget)
}


def _to_json(obj) -> dict:
    """A dataclass's constructor fields as a JSON object; tuples become lists."""

    def value(v):
        return [value(x) for x in v] if isinstance(v, tuple) else v

    return {f.name: value(getattr(obj, f.name)) for f in fields(obj) if f.init}


def _from_json(cls, data):
    """Inverse of _to_json: read cls's constructor fields, lists become tuples.
    Raises FormatError on a missing field or a value of the wrong JSON type."""
    if not isinstance(data, dict):
        raise FormatError(f"metadata: {cls.__name__} entry must be an object")
    values = {}
    for name, kind in _JSON_FIELDS[cls]:
        value = data.get(name)
        if kind is tuple and isinstance(value, list) and all(type(x) is int for x in value):
            value = tuple(value)
        if type(value) is not kind:
            raise FormatError(f"metadata: {cls.__name__}.{name} must be {kind.__name__}")
        values[name] = value
    return cls(**values)


def _entries(data: dict, key: str) -> dict[int, object]:
    """The object under data[key] with its keys read as integers."""
    entries = data.get(key, {})
    if not isinstance(entries, dict):
        raise FormatError(f"metadata: {key} must be an object")
    try:
        return {int(id): entry for id, entry in entries.items()}
    except ValueError:
        raise FormatError(f"metadata: {key} keys must be integers") from None


def _role(entry):
    tag = entry.get("type") if isinstance(entry, dict) else None
    if not isinstance(tag, str) or tag not in ROLE_TYPES:
        raise FormatError(f"metadata: role type must be one of {', '.join(ROLE_TYPES)}")
    return _from_json(ROLE_TYPES[tag], entry)


@dataclass(frozen=True)
class GadgetMetadata:
    kind: str  # "indset" | "domset"
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    roles: dict[int, object] = field(default_factory=dict)
    variable_gadgets: dict[int, VariableGadget] = field(default_factory=dict)
    _occurrence_ids: dict[tuple[int, int], int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(self, "_occurrence_ids", {
            (role.variable, role.clause): id
            for id, role in self.roles.items()
            if isinstance(role, OccurrenceRole)
        })

    def formula(self) -> CnfFormula:
        return CnfFormula.build(self.num_vars, self.clauses)

    def occurrence_id(self, variable: int, clause: int) -> int:
        try:
            return self._occurrence_ids[variable, clause]
        except KeyError:
            raise KeyError(f"no occurrence of x{variable} in clause {clause}") from None

    def to_json_dict(self) -> dict:
        data = _to_json(self)
        data["roles"] = {
            str(id): {"type": ROLE_TAGS[type(role)], **_to_json(role)}
            for id, role in self.roles.items()
        }
        data["variable_gadgets"] = {
            str(var): _to_json(g) for var, g in self.variable_gadgets.items()
        }
        return data

    @staticmethod
    def from_json_dict(data) -> "GadgetMetadata":
        """Inverse of to_json_dict; raises FormatError on a malformed shape."""
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
        return GadgetMetadata(
            kind=data["kind"],
            num_vars=num_vars,
            clauses=tuple(tuple(c) for c in clauses),
            roles={id: _role(entry) for id, entry in _entries(data, "roles").items()},
            variable_gadgets={
                var: _from_json(VariableGadget, g)
                for var, g in _entries(data, "variable_gadgets").items()
            },
        )


def _check_metadata(inst: ColoredIntervalInstance, meta: GadgetMetadata, kind: str) -> None:
    """Raise ValueError unless meta describes a `kind` reduction of inst: one
    role of that reduction per interval id, each naming a variable in
    x1..x<num_vars>, and (domset) one gadget of interval ids per variable."""
    if meta.kind != kind:
        article = "an independent" if kind == "indset" else "a dominating"
        raise ValueError(f"metadata does not describe {article}-set reduction")
    roles = meta.roles.values()
    types = {OccurrenceRole} if kind == "indset" else {HubRole, ClauseRole}
    if (
        meta.roles.keys() != set(range(inst.n))
        or not {type(role) for role in roles} <= types
        or not all(1 <= var <= meta.num_vars for var in {role.variable for role in roles})
    ):
        raise ValueError(f"metadata roles do not match the {inst.n} intervals of the instance")
    gadgets = meta.variable_gadgets
    if kind == "domset" and (
        len(gadgets) != meta.num_vars
        or gadgets.keys() != set(range(1, meta.num_vars + 1))
        or not all(
            0 <= id < inst.n
            for g in gadgets.values()
            for id in (g.t1, g.t2, g.f1, g.f2, g.h_t, g.h_f, g.c_t1, g.c_t2, g.c_f1, g.c_f2)
        )
    ):
        raise ValueError("metadata variable gadgets do not match the instance")

class _Builder:
    """Accumulates intervals component by component, spacing components apart."""

    def __init__(self):
        self.intervals: list[Interval] = []
        self.components = 0

    def add_component(self, coords, colors) -> list[int]:
        base = self.components * COMPONENT_STRIDE
        self.components += 1
        ids = []
        for (left, right), color in zip(coords, colors):
            id = len(self.intervals)
            self.intervals.append(
                Interval(id=id, left=base + left, right=base + right, color=color)
            )
            ids.append(id)
        return ids


def reduce_indset(phi: CnfFormula) -> tuple[ColoredIntervalInstance, GadgetMetadata]:
    """Build the independent-set instance and its metadata from a 3-bounded formula.

    Vertex count equals the total number of literal occurrences; color count
    equals the clause count.  The implied intersection graph consists of one
    complete bipartite gadget (positive vs negative occurrences) per variable.
    """
    if not is_three_bounded(phi):
        raise ValueError("formula is not 3-bounded (clauses of 2-3 literals, "
                         "each variable in at most 3 clauses)")
    builder = _Builder()
    roles: dict[int, object] = {}

    def emit(coords, occurrences):
        ids = builder.add_component(coords, [j for j, _ in occurrences])
        for id, (j, positive) in zip(ids, occurrences):
            roles[id] = OccurrenceRole(variable=var, clause=j, positive=positive)

    for var, (pos, neg) in enumerate(phi.occurrence_lists()[1:], start=1):
        if pos and neg:
            if len(pos) + len(neg) == 2:
                emit(EDGE_COORDS, [(pos[0], True), (neg[0], False)])
            elif len(pos) == 2:
                emit(PATH_COORDS, [(pos[0], True), (neg[0], False), (pos[1], True)])
            else:
                emit(PATH_COORDS, [(neg[0], False), (pos[0], True), (neg[1], False)])
        else:
            for j in pos:
                emit(SINGLETON_COORDS, [(j, True)])
            for j in neg:
                emit(SINGLETON_COORDS, [(j, False)])
    inst = ColoredIntervalInstance(
        k=len(phi.clauses), intervals=tuple(builder.intervals), proper_flag=True
    )
    assert inst.n == sum(len(c) for c in phi.clauses)
    meta = GadgetMetadata(
        kind="indset", num_vars=phi.num_vars, clauses=phi.clauses, roles=roles
    )
    return inst, meta


def reduce_domset(phi: CnfFormula) -> tuple[ColoredIntervalInstance, GadgetMetadata]:
    """Build the dominating-set instance and its metadata from a 2P2N formula.

    Per variable: colors (z_t1, z_t2, z_f1, z_f2, z_h), a leaf-hub-leaf path
    t1 - h_t - t2 and another f1 - h_f - f2, with gamma(h_t) = gamma(h_f) = z_h.
    Per clause: a clique of one vertex per literal, each sharing the color of
    the matching variable leaf (z_t for positive occurrences, z_f for negative).
    For 3-literal clauses throughout, the instance has 6n + 3m vertices and
    4n + 3m edges; shorter clauses contribute proportionally fewer.
    """
    if not is_tptn(phi):
        raise ValueError("formula is not 2P2N (every variable exactly twice "
                         "positive and twice negative, clauses of 1-3 literals)")
    builder = _Builder()
    roles: dict[int, object] = {}
    gadget_parts: dict[int, dict] = {}

    def z(var: int, part: int) -> int:
        # parts: 1 = z_t1, 2 = z_t2, 3 = z_f1, 4 = z_f2, 5 = z_h
        return 5 * (var - 1) + part

    for var, (pos, neg) in enumerate(phi.occurrence_lists()[1:], start=1):
        t1, h_t, t2 = builder.add_component(
            PATH_COORDS, [z(var, 1), z(var, 5), z(var, 2)]
        )
        f1, h_f, f2 = builder.add_component(
            PATH_COORDS, [z(var, 3), z(var, 5), z(var, 4)]
        )
        for id, name in ((t1, "t1"), (h_t, "h_t"), (t2, "t2"), (f1, "f1"), (h_f, "h_f"), (f2, "f2")):
            roles[id] = HubRole(variable=var, name=name)
        gadget_parts[var] = {
            "t1": t1, "t2": t2, "f1": f1, "f2": f2, "h_t": h_t, "h_f": h_f,
            "pos_clauses": tuple(pos), "neg_clauses": tuple(neg),
        }
    for j, clause in enumerate(phi.clauses, start=1):
        coords = {3: TRIANGLE_COORDS, 2: EDGE_COORDS, 1: SINGLETON_COORDS}[len(clause)]
        colors = []
        slots = []
        for lit in clause:
            var, positive = abs(lit), lit > 0
            occurrences = gadget_parts[var]["pos_clauses" if positive else "neg_clauses"]
            slot = 1 if occurrences[0] == j else 2
            colors.append(z(var, (1 if positive else 3) + slot - 1))
            slots.append((var, positive, slot))
        ids = builder.add_component(coords, colors)
        for id, (var, positive, slot) in zip(ids, slots):
            roles[id] = ClauseRole(clause=j, variable=var, positive=positive, slot=slot)
            key = ("c_t" if positive else "c_f") + str(slot)
            gadget_parts[var][key] = id
    gadgets = {
        var: VariableGadget(**parts) for var, parts in gadget_parts.items()
    }
    inst = ColoredIntervalInstance(
        k=5 * phi.num_vars, intervals=tuple(builder.intervals), proper_flag=True
    )
    assert inst.n == 6 * phi.num_vars + sum(len(c) for c in phi.clauses)
    assert edge_count(inst, build_sorted_view(inst)) == 4 * phi.num_vars + sum(
        len(c) * (len(c) - 1) // 2 for c in phi.clauses
    )
    meta = GadgetMetadata(
        kind="domset",
        num_vars=phi.num_vars,
        clauses=phi.clauses,
        roles=roles,
        variable_gadgets=gadgets,
    )
    return inst, meta


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
                try:
                    chosen = meta.occurrence_id(abs(lit), j)
                except KeyError as exc:
                    raise ValueError(f"metadata has {exc.args[0]}") from None
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
            ids.discard(g.t1)
            ids.discard(g.t2)
            ids.add(g.c_t1)
            ids.add(g.c_t2)
        elif g.h_f in ids:
            ids.discard(g.f1)
            ids.discard(g.f2)
            ids.add(g.c_f1)
            ids.add(g.c_f2)
        else:
            raise ValueError(
                f"metadata inconsistent with solution: variable x{var} has no hub vertex"
            )
    return verified_solution(inst, "BDS", ids, 1)
