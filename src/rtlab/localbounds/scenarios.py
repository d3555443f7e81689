"""Declarative bound checking on small colored-digraph configurations.

A *scenario* is a finite constraint-satisfaction instance on at most six
labeled vertices.  Every (color, ordered pair) edge slot is declared
``present``, ``absent``, or ``free``; structural rules restrict which
completions of the free slots are admissible; the objective counts how many
free slots with a color in a chosen set and endpoints split between two
chosen vertex sets can be made present simultaneously.  ``enumerate_max``
computes that maximum exactly, with a witness configuration — it is the
machine-checkable form of a case statement "between these two matched pairs
at most B edges fit".

Vertices can be grouped into typed pairs that carry a built-in edge fixture:

    X(i, j)  two vertices joined by double edges in colors i and j; every
             remaining color is left free but may carry at most one edge,
    Y(i)     a double edge in color i plus exactly one single edge in each
             other color (only the orientations of the singles are free),
    Z(i)     a double edge in color i plus exactly one edge in exactly one
             different color,
    R        a lone vertex with no fixture.

Constraint vocabulary (rules see the *total* configuration, fixture and
premise edges included):

    no_rainbow(pattern)       no rainbow directed / transitive triangle
    oriented                  no color carries both directions of any pair
    pair_edge_cap(value)      at most ``value`` edges between any two vertices
    slot_sum(slots, op, v)    sum of the listed slots' presence  op  v
    x_maximality              a pair with no X vertex has double edges in at
                              most one color
    y_maximality              a pair with no X or Y vertex has at most 3 edges
    z_maximality              a pair of R vertices has at most 2 edges in any
                              two colors
    x_trimmed                 a vertex outside X is joined by double edges in
                              two colors to at most one endpoint per X pair
    y_trimmed                 a vertex outside X and Y is joined by >= 4 edges
                              to at most one endpoint per Y pair
    z_trimmed                 an R vertex is joined by a double edge plus an
                              edge in another color to at most one endpoint
                              per Z pair
    no_double_double          no pair at all has double edges in two colors
    no_thick_path             no ordered triple (a, b, c) has >= 3 edges a->b
                              and >= 3 edges b->c
    no_shared_color_link(x, (u, v), colors)
                              no listed color has edges both on the pair
                              {x, u} and on the pair {x, v}

Each JSON record is described once, by a table of its keys in output order
with the field kind of each value (``_RECORDS``, and ``_CONSTRAINTS`` with one
table per constraint kind).  A field kind is a name: of a scalar (text, int,
label or color; ``_SCALARS``), of an array (``_ARRAYS``: a slot [color, from,
to], the objective's two ``sides``, or a list of labels, colors, slots,
groups, fixed_edges or constraints) or of a record.  The JSON reader checks
each value's type by its kind and rejects unknown and missing keys, the writer
emits the keys in table order, ``validate_scenario`` checks that each label is
a vertex and each color lies in 1..c, and ``canonical_key`` maps labels to
positions and colors to permuted colors and sorts every array but a slot, as
the engine reads each as a set; after each top-level part of the form, in
order, ``canonical_key`` keeps only the maps that give that part its least
value, which leaves the lexicographic minimum unchanged.  Every ``Scenario``
runs ``validate_scenario`` once, as it is built, so ``canonical_key`` and
``enumerate_max`` trust it.

Free slots not reachable by the objective or by an ``==`` / ``>=`` slot sum
stay absent by default: every rule above is preserved under edge deletion, so
the maximum over such reduced configurations equals the maximum over all of
them.  ``enumerate_max`` applies the same argument to the free slots an X
fixture or an explicit ``free`` fixed edge leaves outside the objective and
every ``==`` / ``>=`` sum (``_NOT_CLOSED_UNDER_DELETION``): it fixes them
absent, and ``free_slot_count`` still counts them.  Each option keeps its gain
when they are cleared and its cleared form comes first among the options of
that gain, so the first best leaf, the witness, has them absent anyway
(dominance pruning, as in Chu and Stuckey, CP 2012).  The enumerator is one
branch-and-bound over the *undecided* pairs, the unordered vertex pairs that
hold the remaining free slots.  Every rule, fixtures included, becomes tests
of the live color masks, one per vertex pair or triple it applies to, and each
test is sorted by how many undecided pairs it reads.  A test that reads none
is checked once before the search, and the scenario is infeasible if it fails.
A test that reads one filters that pair's options, the completions of its free
slots.  A test that reads more fires when the last of its pairs is decided, as
a bitmask of the options of that pair that pass it, memoised for the call on
the masks of its other undecided pairs (packed into one int, 8 bits per
direction as c <= 8) and built on a miss.  A test reads only the masks of the
pairs it declares and the pairs without free slots never change during the
call, so a memoised bitmask is exactly what the tests would give.  The build
tests each option once, unless the test is separable: an AND of clauses that
each read one direction of any pair and pass when a slot they read is empty
(the rainbow, thick-path and shared-color-link rules).  Then test(f, b) ==
test(f, 0) and test(0, b) for the masks (f, b) of the pair, so the build tests
each distinct forward mask of the pair's options with the backward one
cleared, and each distinct backward mask likewise, and ANDs the two sets of
options holding a passing mask: for k free slots each way, at most 2^(k+1)
tests where there were up to 4^k.  Pairs with no objective slot come first.
Options are tried highest objective gain first, and a pair's loop stops once
its gain plus the top gains of the later pairs cannot beat the best value
found; it visits only the options that pass every rule, and ``nodes`` counts
the options it sets.  The bound never cuts off a leaf that beats the best, so
the witness is the first best leaf in search order.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from ..graphs import GraphInputError
from ..triangles import TrianglePattern, rainbow_free_check

__all__ = [
    "MAX_FREE_SLOTS",
    "MAX_KEY_RELABELLINGS",
    "MAX_SCENARIO_COLORS",
    "MAX_VERTICES",
    "SLOT_STATES",
    "CONSTRAINT_KINDS",
    "Group",
    "Constraint",
    "Objective",
    "Scenario",
    "EnumerationResult",
    "slots_between",
    "pair_sum",
    "validate_scenario",
    "fixture_constraints",
    "scenario_slot_states",
    "objective_slots",
    "canonical_key",
    "enumerate_max",
    "scenario_to_dict",
    "scenario_from_dict",
    "dumps_scenarios",
    "loads_scenarios",
    "save_scenarios",
    "load_scenarios",
]

MAX_VERTICES = 6
MAX_SCENARIO_COLORS = 8
MAX_FREE_SLOTS = 36
SLOT_STATES = ("present", "absent", "free")
GROUP_KINDS = ("X", "Y", "Z", "R")

Slot = tuple[int, str, str]  # (color, from label, to label)


@dataclass(frozen=True)
class Group:
    """A typed vertex group: X/Y/Z pairs carry an edge fixture, R is free."""

    kind: str
    colors: tuple[int, ...]
    members: tuple[str, ...]


@dataclass(frozen=True)
class Constraint:
    """One structural rule; only the fields its kind needs are set."""

    kind: str
    pattern: str = ""
    op: str = ""
    value: int = 0
    slots: tuple[Slot, ...] = ()
    vertex: str = ""
    pair: tuple[str, ...] = ()
    colors: tuple[int, ...] = ()


@dataclass(frozen=True)
class Objective:
    """Count present free slots with a color in ``colors`` whose endpoints
    are split between ``side_a`` and ``side_b`` (both directions)."""

    colors: tuple[int, ...]
    side_a: tuple[str, ...]
    side_b: tuple[str, ...]


@dataclass(frozen=True)
class Scenario:
    id: str
    source: str
    colors: int
    vertices: tuple[str, ...]
    objective: Objective
    bound: Fraction
    groups: tuple[Group, ...] = ()
    fixed_edges: tuple[tuple[int, str, str, str], ...] = ()  # (color, from, to, state)
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        validate_scenario(self)


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of ``enumerate_max``: infeasibility is reported distinctly
    from a feasible scenario whose best objective value is 0.
    ``free_slot_count`` is the scenario's count of free slots, those the
    engine fixes absent included.  ``nodes`` counts the pair options the
    search sets.  ``rule_tests`` counts the calls of rule tests: the checks
    of the rules on no undecided pair, the one-pair filters, and the memo
    builds.  It is a work counter, in no report."""

    feasible: bool
    maximum: int | None
    witness: tuple[Slot, ...] | None
    nodes: int
    free_slot_count: int
    rule_tests: int


def slots_between(colors, side_a, side_b) -> tuple[Slot, ...]:
    """All ordered slots in the given colors running between the two sides."""
    ends = [end for a in side_a for b in side_b for end in ((a, b), (b, a))]
    return tuple(sorted({(color, *end) for color in colors for end in ends}))


def pair_sum(colors, a: str, b: str, op: str, value: int) -> Constraint:
    """A slot_sum over both directions of one vertex pair in given colors."""
    return Constraint(
        kind="slot_sum",
        op=op,
        value=value,
        slots=slots_between(colors, (a,), (b,)),
    )


# ---------------------------------------------------------------------------
# Record tables


@dataclass(frozen=True)
class _Record:
    """A record's table: its name in messages, its keys in output order with
    the field kind of each, and the conversions from its Python value to the
    field values in key order (``fields``) and back (``build``).
    ``optional`` holds the keys a file may leave out, with the JSON value
    they then take, and ``unread`` the keys no rule reads."""

    name: str
    keys: dict[str, str]
    fields: Callable
    build: Callable
    optional: dict = field(default_factory=dict)
    unread: tuple[str, ...] = ()


def _dataclass_record(name: str, cls: type, keys: dict[str, str], **options) -> _Record:
    """The table of a dataclass whose fields are named as its JSON keys."""
    return _Record(
        name, keys, lambda obj: tuple([getattr(obj, key) for key in keys]),
        lambda values: cls(**dict(zip(keys, values))), **options,
    )


def _bound(fields: tuple[int, int]) -> Fraction:
    """The bound num/den; a zero den is an input error, not a crash."""
    num, den = fields
    if den == 0:
        raise GraphInputError(f"bound den must be nonzero, got {den}")
    return Fraction(num, den)


# the JSON type of each scalar field kind
_SCALARS = {"text": str, "int": int, "label": str, "color": int}
# each array field kind as the kinds of its entries: one kind for an array
# of any length, a tuple of kinds for an array of one entry of each
_ARRAYS = {
    "labels": "label", "colors": "color", "slots": "slot", "slot": ("color", "label", "label"),
    "sides": ("labels", "labels"), "groups": "group", "fixed_edges": "fixed_edge",
    "constraints": "constraint",
}
# every other field kind names a record table, and "constraint" the table of
# the constraint's kind
_RECORDS = {
    "scenario": _dataclass_record(
        "scenario", Scenario,
        {"id": "text", "source": "text", "colors": "int", "vertices": "labels",
         "groups": "groups", "fixed_edges": "fixed_edges", "constraints": "constraints",
         "objective": "objective", "bound": "bound"},
        optional={"source": "", "groups": [], "fixed_edges": [], "constraints": []},
        unread=("id", "source", "bound"),
    ),
    "group": _dataclass_record(
        "group", Group, {"kind": "text", "colors": "colors", "members": "labels"}
    ),
    "fixed_edge": _Record(  # the tuple (color, from, to, state)
        "fixed edge", {"color": "color", "from": "label", "to": "label", "state": "text"},
        tuple, tuple,
    ),
    "objective": _Record(
        "objective", {"colors": "colors", "between": "sides"},
        lambda obj: (obj.colors, (obj.side_a, obj.side_b)),
        lambda fields: Objective(fields[0], *fields[1]),
    ),
    "bound": _Record(
        "bound", {"num": "int", "den": "int"},
        lambda bound: (bound.numerator, bound.denominator),
        _bound,
    ),
}
_CONSTRAINTS = {
    kind: _dataclass_record(f"{kind} constraint", Constraint, {"kind": "text", **fields})
    for kind, fields in {
        "no_rainbow": {"pattern": "text"},
        "pair_edge_cap": {"value": "int"},
        "slot_sum": {"op": "text", "value": "int", "slots": "slots"},
        "no_shared_color_link": {"vertex": "label", "pair": "labels", "colors": "colors"},
        **{kind: {} for kind in (
            "oriented x_maximality y_maximality z_maximality x_trimmed y_trimmed z_trimmed"
            " no_double_double no_thick_path"
        ).split()},
    }.items()
}
CONSTRAINT_KINDS = frozenset(_CONSTRAINTS)


def _constraint_table(kind: str) -> _Record:
    if kind not in _CONSTRAINTS:
        raise GraphInputError(f"unknown constraint kind {kind!r}")
    return _CONSTRAINTS[kind]


def _table(kind: str, value) -> _Record:
    """The table of ``value``, a Python value of record kind ``kind``."""
    return _constraint_table(value.kind) if kind == "constraint" else _RECORDS[kind]


def _entries(value, kind: str, what: str = "array"):
    """(entry, its kind) for each entry of ``value``, of array kind ``kind``."""
    entry_kinds = _ARRAYS[kind]
    if isinstance(entry_kinds, str):
        return zip(value, itertools.repeat(entry_kinds))
    if len(value) != len(entry_kinds):
        raise GraphInputError(f"{what} must have {len(entry_kinds)} entries, got {value!r}")
    return zip(value, entry_kinds)


def _check_ranges(value, kind: str, colors: int, labels: set[str], what: str) -> None:
    """Raise GraphInputError unless every label in ``value``, of field kind
    ``kind``, is in ``labels`` and every color lies in 1..colors."""
    if kind == "label":
        if value not in labels:
            raise GraphInputError(f"{what}: {value!r} is not a vertex")
    elif kind == "color":
        if not 1 <= value <= colors:
            raise GraphInputError(f"{what}: color {value} out of range 1..{colors}")
    elif kind in _ARRAYS:
        for entry, entry_kind in _entries(value, kind, what):
            _check_ranges(entry, entry_kind, colors, labels, what)
    elif kind not in _SCALARS:
        table = _table(kind, value)
        for (key, field_kind), val in zip(table.keys.items(), table.fields(value)):
            _check_ranges(val, field_kind, colors, labels, f"{table.name} {key}")


def validate_scenario(scenario: Scenario) -> None:
    """Raise GraphInputError when the scenario is malformed: the range
    checks of the record tables fail, or a record breaks a rule of its own
    or of the scenario as a whole."""
    s = scenario
    if not s.id:
        raise GraphInputError("scenario id must be nonempty")
    if not 1 <= s.colors <= MAX_SCENARIO_COLORS:
        raise GraphInputError(
            f"color count must be in 1..{MAX_SCENARIO_COLORS} (MAX_SCENARIO_COLORS), "
            f"got {s.colors}"
        )
    if not 1 <= len(s.vertices) <= MAX_VERTICES:
        raise GraphInputError(
            f"scenario needs 1..{MAX_VERTICES} vertices (MAX_VERTICES), got {len(s.vertices)}"
        )
    if len(set(s.vertices)) != len(s.vertices):
        raise GraphInputError("vertex labels must be distinct")
    _check_ranges(s, "scenario", s.colors, set(s.vertices), "scenario")

    grouped: set[str] = set()
    for g in s.groups:
        if g.kind not in GROUP_KINDS:
            raise GraphInputError(f"unknown group kind {g.kind!r}")
        want = 1 if g.kind == "R" else 2
        if len(g.members) != want or len(set(g.members)) != want:
            raise GraphInputError(f"{g.kind} group needs {want} distinct member(s)")
        if grouped & set(g.members):
            raise GraphInputError("groups must not share vertices")
        grouped.update(g.members)
        ncol = {"X": 2, "Y": 1, "Z": 1, "R": 0}[g.kind]
        if len(g.colors) != ncol or len(set(g.colors)) != ncol:
            raise GraphInputError(f"{g.kind} group needs {ncol} distinct color(s)")

    fixture_pairs = {
        frozenset(g.members) for g in s.groups if g.kind in ("X", "Y", "Z")
    }
    seen_fixed: set[Slot] = set()
    for color, src, dst, state in s.fixed_edges:
        if src == dst:
            raise GraphInputError(f"bad fixed edge endpoints ({src}, {dst})")
        if state not in SLOT_STATES:
            raise GraphInputError(f"bad slot state {state!r}")
        if (color, src, dst) in seen_fixed:
            raise GraphInputError(f"duplicate fixed edge {(color, src, dst)}")
        seen_fixed.add((color, src, dst))
        if frozenset((src, dst)) in fixture_pairs:
            raise GraphInputError("fixed_edges may not touch a slot inside a typed group pair")

    for con in s.constraints:
        _validate_constraint(con)

    obj = s.objective
    if not obj.colors or len(set(obj.colors)) != len(obj.colors):
        raise GraphInputError("objective colors must be nonempty and distinct")
    if not obj.side_a or not obj.side_b:
        raise GraphInputError("objective sides must be nonempty")
    if set(obj.side_a) & set(obj.side_b):
        raise GraphInputError("objective sides must be disjoint")

    states = scenario_slot_states(s)
    for slot in objective_slots(s):
        if states[slot] != "free":
            raise GraphInputError(f"objective slot {slot} must stay free")
    free = sum(1 for st in states.values() if st == "free")
    if free > MAX_FREE_SLOTS:
        raise GraphInputError(
            f"{free} free slots exceed the ceiling of {MAX_FREE_SLOTS} (MAX_FREE_SLOTS)"
        )


def _validate_constraint(con: Constraint) -> None:
    """The checks of one constraint beyond the range checks."""
    if con.kind == "no_rainbow":
        if con.pattern not in ("directed", "transitive"):
            raise GraphInputError(f"bad triangle pattern {con.pattern!r}")
    elif con.kind == "pair_edge_cap":
        if con.value < 0:
            raise GraphInputError("pair_edge_cap value must be >= 0")
    elif con.kind == "slot_sum":
        if con.op not in _OPS:
            raise GraphInputError(f"bad slot_sum op {con.op!r}")
        if con.value < 0 or not con.slots:
            raise GraphInputError("slot_sum needs slots and value >= 0")
        if len(set(con.slots)) != len(con.slots):
            raise GraphInputError("slot_sum slots must be distinct")
        if any(src == dst for _, src, dst in con.slots):
            raise GraphInputError("slot endpoints must differ")
    elif con.kind == "no_shared_color_link":
        if len(con.pair) != 2:
            raise GraphInputError(f"bad pair {con.pair}")
        if con.vertex in con.pair or con.pair[0] == con.pair[1]:
            raise GraphInputError("link vertex and pair must be three vertices")
        if not con.colors:
            raise GraphInputError("no_shared_color_link needs colors")


def fixture_constraints(scenario: Scenario) -> tuple[Constraint, ...]:
    """The slot sums implied by the typed groups: X third-color slots carry
    at most one edge; Y singles are exactly one per other color; a Z pair
    has exactly one edge outside its double color."""
    out = []
    for g in scenario.groups:
        if g.kind == "R":
            continue
        a, b = g.members
        others = [col for col in range(1, scenario.colors + 1) if col not in g.colors]
        if g.kind in ("X", "Y"):
            op = "<=" if g.kind == "X" else "=="
            out += [pair_sum((col,), a, b, op, 1) for col in others]
        elif g.kind == "Z":
            out.append(pair_sum(others, a, b, "==", 1))
    return tuple(out)


def scenario_slot_states(scenario: Scenario) -> dict[Slot, str]:
    """Resolve every (color, from, to) slot to present / absent / free.

    Group fixtures claim their intra-pair slots first, explicit fixed_edges
    come next, then objective slots and the slots of ==/>= slot sums default
    to free, and every remaining slot is absent.
    """
    states: dict[Slot, str] = {}
    for g in scenario.groups:
        if g.kind == "R":
            continue
        a, b = g.members
        for col in range(1, scenario.colors + 1):
            state = "present" if col in g.colors else "free"
            states[(col, a, b)] = states[(col, b, a)] = state
    for color, src, dst, state in scenario.fixed_edges:
        states[(color, src, dst)] = state
    for slot in objective_slots(scenario):
        states.setdefault(slot, "free")
    for con in scenario.constraints:
        if (con.kind, con.op) in _NOT_CLOSED_UNDER_DELETION:
            for slot in con.slots:
                states.setdefault(slot, "free")
    for color in range(1, scenario.colors + 1):
        for src in scenario.vertices:
            for dst in scenario.vertices:
                if src != dst:
                    states.setdefault((color, src, dst), "absent")
    return states


def objective_slots(scenario: Scenario) -> tuple[Slot, ...]:
    obj = scenario.objective
    return slots_between(obj.colors, obj.side_a, obj.side_b)


# ---------------------------------------------------------------------------
# Canonical key

# canonical_key tries every (color permutation, vertex relabelling) pair
# while c! * n! stays at or below this; larger scenarios get the identity
# normal form
MAX_KEY_RELABELLINGS = 5040


def canonical_key(scenario: Scenario) -> tuple:
    """An exact isomorphism key: scenarios with equal keys have the same
    maximum and feasibility under ``enumerate_max``.

    The key is the lexicographically least *normal form* of the scenario
    over every color permutation sigma of 1..c and every vertex relabelling
    pi of 0..n-1.  Every rule, fixture and the objective is unchanged when
    colors are permuted or vertices relabelled, so two scenarios with one
    normal form in common are the same instance up to names.  The normal
    form walks the record tables and writes each field by its kind:

    * a ``label`` as its position under pi, a ``color`` as its image under
      sigma, ``text`` and ``int`` fields as they are;
    * every array but a ``slot`` sorted, because the engine reads each as a
      set: a group's members and colors, a ``slot_sum``'s slots,
      ``no_shared_color_link``'s pair and colors, the objective's colors and
      its two sides (it counts both directions between them), and the
      lists of groups, fixed edges and constraints (every rule must hold);
    * a slot's color and ends, and a record's fields, in order.

    Duplicates are kept.  The form leaves out the keys of a table's
    ``unread`` (``id``, ``source`` and ``bound``) and the label strings,
    which no rule reads.  The least form is found part by part: each
    top-level part is evaluated only under the maps that minimise the parts
    before it, and the key is the tuple of those least parts.

    When c! * n! exceeds ``MAX_KEY_RELABELLINGS`` (up to 8! * 6!, about 29M,
    passes validation) the key is the identity normal form: it merges fewer
    scenarios but is still exact.
    """
    n, c = len(scenario.vertices), scenario.colors
    if math.factorial(c) * math.factorial(n) > MAX_KEY_RELABELLINGS:
        sigmas, positions = [range(1, c + 1)], [range(n)]
    else:
        sigmas = itertools.permutations(range(1, c + 1))
        positions = itertools.permutations(range(n))
    colors = [dict(zip(range(1, c + 1), sigma)) for sigma in sigmas]
    labels = [dict(zip(scenario.vertices, pi)) for pi in positions]
    maps = [sigma | pi for sigma in colors for pi in labels]
    key = []
    for part in _parts(scenario, "scenario"):  # the least form, part by part
        if callable(part):
            forms = [part(m) for m in maps]
            part = min(forms)
            maps = [m for m, form in zip(maps, forms) if form == part]
        key.append(part)
    return tuple(key)


def _parts(value, kind: str) -> list:
    """The normal forms of the entries of ``value``, of array or record kind
    ``kind``: of a record, those of its fields outside ``unread``."""
    if kind in _ARRAYS:
        return [_normal_form(entry, entry_kind) for entry, entry_kind in _entries(value, kind)]
    table = _table(kind, value)
    return [
        _normal_form(val, field_kind)
        for (key, field_kind), val in zip(table.keys.items(), table.fields(value))
        if key not in table.unread
    ]


def _normal_form(value, kind: str):
    """The normal form of ``value``, of field kind ``kind``: a function of
    the map ``m`` that sends each label to its position and each color to
    its permuted color, or the form itself when it names no label or color."""
    if kind in ("label", "color"):
        return operator.itemgetter(value)
    if kind in _SCALARS:
        return value
    read_as_set = kind in _ARRAYS and kind != "slot"
    parts = _parts(value, kind)
    if not any(map(callable, parts)):
        return tuple(sorted(parts) if read_as_set else parts)
    if read_as_set:  # the fixed parts once, and the others under each map
        fixed, calls = [p for p in parts if not callable(p)], [p for p in parts if callable(p)]
        return lambda m: tuple(sorted(fixed + [part(m) for part in calls]))
    parts = [part if callable(part) else lambda m, part=part: part for part in parts]
    return lambda m: tuple([part(m) for part in parts])


# ---------------------------------------------------------------------------
# JSON round trip

def _typed(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (a bool is not an int here), else raise
    GraphInputError: a looser type would be truncated, split into
    characters or left unhashable further on."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise GraphInputError(f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


def _read(value, kind: str, what: str):
    """The Python value of the JSON ``value`` of field kind ``kind``."""
    if kind in _SCALARS:
        return _typed(value, _SCALARS[kind], what)
    if kind in _ARRAYS:
        entries = _entries(_typed(value, list, what), kind, what)
        return tuple([_read(entry, entry_kind, what) for entry, entry_kind in entries])
    table, fields = _read_record(value, kind, what)
    return table.build(fields)


def _read_record(value, kind: str, what: str) -> tuple[_Record, tuple]:
    """The table of the JSON record ``value``, of record kind ``kind``, and
    its field values in key order.  A key outside the table, a misspelled one
    say, would silently change what the record checks, and so would a default
    for a missing one, such as cap 0: both raise GraphInputError, bar the
    table's optional keys."""
    _typed(value, dict, what)
    if kind == "constraint":
        table = _constraint_table(_typed(value.get("kind"), str, "constraint kind"))
    else:
        table = _RECORDS[kind]
    unknown = sorted(value.keys() - table.keys.keys())
    if unknown:
        raise GraphInputError(f"{table.name} has unknown key {', '.join(map(repr, unknown))}")
    missing = [key for key in table.keys if key not in value and key not in table.optional]
    if missing:
        raise GraphInputError(f"{table.name} needs key {', '.join(map(repr, missing))}")
    return table, tuple([
        _read(value.get(key, table.optional.get(key)), field_kind, f"{table.name} {key}")
        for key, field_kind in table.keys.items()
    ])


def _write(value, kind: str):
    """The JSON form of ``value``, of field kind ``kind``; a record's keys
    come in table order."""
    if kind in _SCALARS:
        return value
    if kind in _ARRAYS:
        return [_write(entry, entry_kind) for entry, entry_kind in _entries(value, kind)]
    table = _table(kind, value)
    return {
        key: _write(val, field_kind)
        for (key, field_kind), val in zip(table.keys.items(), table.fields(value))
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    return _write(scenario, "scenario")


def scenario_from_dict(d: dict) -> Scenario:
    """Parse one JSON scenario record.  A value that is not of its field
    kind's JSON type, a key its record does not read and a missing key
    raise GraphInputError as a malformed record; nothing is converted.  The
    checks the built ``Scenario`` runs keep their own messages."""
    try:
        table, fields = _read_record(d, "scenario", "scenario")
    except (TypeError, ValueError) as exc:
        raise GraphInputError(f"malformed scenario record: {exc}") from exc
    return table.build(fields)


def dumps_scenarios(scenarios) -> str:
    return json.dumps([scenario_to_dict(s) for s in scenarios], indent=2) + "\n"


def loads_scenarios(text: str) -> list[Scenario]:
    data = json.loads(text)
    if not isinstance(data, list):
        raise GraphInputError("scenario file must hold a JSON list")
    return [scenario_from_dict(d) for d in data]


def save_scenarios(path, scenarios) -> None:
    Path(path).write_text(dumps_scenarios(scenarios), encoding="utf-8")


def load_scenarios(path) -> list[Scenario]:
    return loads_scenarios(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Enumeration engine


_OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}
# The rules that an edge deletion can break, as (kind, op): a slot sum held
# at or above its value.  Every other constraint kind holds again after any
# deletion, so enumerate_max keeps absent each free slot that neither the
# objective nor one of these reads.
_NOT_CLOSED_UNDER_DELETION = frozenset({("slot_sum", "=="), ("slot_sum", ">=")})


def _double_and_more(f: int, b: int) -> bool:
    """A color in both directions and an edge in another color: more than 2
    edges in some two colors, as a color carries at most 2."""
    return f & b != 0 and (f | b).bit_count() >= 2


# The group rules, as tests on the masks (f, b) of the two directions of one
# vertex pair.  Each rule names a group kind K and leaves alone every vertex
# in a group of kind K or of an earlier kind (``exempt`` in ``_rules``).
# <K>_maximality: every pair of two other vertices passes the test.
_MAXIMALITY = {
    "x_maximality": ("X", lambda f, b: (f & b).bit_count() <= 1),
    "y_maximality": ("Y", lambda f, b: f.bit_count() + b.bit_count() <= 3),
    "z_maximality": ("Z", lambda f, b: not _double_and_more(f, b)),
}
# <K>_trimmed: another vertex has a heavy link (the test) to at most one
# member of each K group.
_TRIMMED = {
    "x_trimmed": ("X", lambda f, b: (f & b).bit_count() >= 2),
    "y_trimmed": ("Y", lambda f, b: f.bit_count() + b.bit_count() >= 4),
    "z_trimmed": ("Z", _double_and_more),
}
# The other rules that hold pair by pair, on every vertex pair.
_PAIR_TESTS = {
    "oriented": lambda f, b: not f & b,
    "no_double_double": lambda f, b: (f & b).bit_count() <= 1,
}


# The rules whose tests are separable (``_rules``): a rainbow copy or a thick
# path reads one slot of each pair it spans, and a shared color link clears
# a color on a pair exactly when it clears it in both directions.
_SEPARABLE = frozenset({"no_rainbow", "no_thick_path", "no_shared_color_link"})


def _rules(
    scenario: Scenario,
    constraints: tuple[Constraint, ...],
    index: dict[str, int],
    m: list[list[int]],
):
    """Yield every rule in ``constraints``, the scenario's own and its group
    fixtures', as (the vertex pairs it reads, a test of the live masks ``m``,
    whether the test is separable).

    ``m[u][v]`` is the color mask of the edges u -> v; a test reads ``m``
    on every call, so the caller mutates ``m[u][v]`` in place between calls
    and never rebinds a row.  A test reads only ``m[a][b]`` and ``m[b][a]``
    for the pairs (a, b) it yields, which ``enumerate_max``'s memos rely on.
    A rule that holds pair by pair yields one test per vertex pair it
    applies to.  A separable test (module docstring) has test(f, b) ==
    test(f, 0) and test(0, b) for the masks (f, b) of each pair it reads.
    """
    n = len(scenario.vertices)
    exempt, seen = {}, set()  # exempt[K]: the vertices the rules of group kind K leave alone
    for group_kind in ("X", "Y", "Z"):
        seen |= {index[v] for g in scenario.groups if g.kind == group_kind for v in g.members}
        exempt[group_kind] = set(seen)
    for con in constraints:
        kind = con.kind
        separable = kind in _SEPARABLE
        if kind == "no_rainbow":
            pattern = TrianglePattern(con.pattern)
            for a, b, c in itertools.combinations(range(n), 3):
                test = rainbow_free_check(m, pattern, a, b, c)
                yield [(a, b), (b, c), (a, c)], test, separable
        elif kind == "no_thick_path":
            for a, b, c in itertools.permutations(range(n), 3):
                def test(a=a, b=b, c=c):
                    return m[a][b].bit_count() < 3 or m[b][c].bit_count() < 3
                yield [(a, b), (b, c)], test, separable
        elif kind in _TRIMMED:
            group_kind, heavy = _TRIMMED[kind]
            ends = [[index[x] for x in g.members] for g in scenario.groups if g.kind == group_kind]
            outside = [w for w in range(n) if w not in exempt[group_kind]]
            for (ga, gb), w in itertools.product(ends, outside):
                def test(w=w, ga=ga, gb=gb, heavy=heavy):
                    return not (heavy(m[w][ga], m[ga][w]) and heavy(m[w][gb], m[gb][w]))
                yield [(w, ga), (w, gb)], test, separable
        elif kind == "no_shared_color_link":
            x = index[con.vertex]
            u, v = (index[p] for p in con.pair)
            mask = sum(1 << (color - 1) for color in set(con.colors))
            def test(x=x, u=u, v=v, mask=mask):
                return not (m[x][u] | m[u][x]) & (m[x][v] | m[v][x]) & mask
            yield [(x, u), (x, v)], test, separable
        elif kind == "slot_sum":
            masks: dict[tuple[int, int], int] = {}
            for color, src, dst in con.slots:
                key = (index[src], index[dst])
                masks[key] = masks.get(key, 0) | 1 << (color - 1)
            terms = tuple((a, b, mask) for (a, b), mask in masks.items())
            def test(terms=terms, op=_OPS[con.op], value=con.value):
                return op(sum((m[a][b] & mask).bit_count() for a, b, mask in terms), value)
            yield list(masks), test, separable
        else:  # a rule on the masks (f, b) of each vertex pair on its own
            skip: set[int] = set()
            if kind in _MAXIMALITY:
                group_kind, pair_test = _MAXIMALITY[kind]
                skip = exempt[group_kind]
            elif kind == "pair_edge_cap":
                def pair_test(f, b, cap=con.value):
                    return f.bit_count() + b.bit_count() <= cap
            else:
                pair_test = _PAIR_TESTS[kind]
            for u, v in itertools.combinations(range(n), 2):
                if u not in skip and v not in skip:
                    yield [(u, v)], lambda u=u, v=v, t=pair_test: t(m[u][v], m[v][u]), separable


def enumerate_max(scenario: Scenario) -> EnumerationResult:
    """Exact maximum of the scenario objective over all admissible
    completions of the free slots, with a witness configuration; scenarios
    with no admissible completion are reported as infeasible.  The scenario
    was validated as it was built, and is not checked again."""
    labels = scenario.vertices
    n = len(labels)
    index = {v: i for i, v in enumerate(labels)}
    m = [[0] * n for _ in range(n)]  # live masks, from the fixed-present edges
    obj = [[0] * n for _ in range(n)]  # objective masks
    targets = objective_slots(scenario)
    constraints = scenario.constraints + fixture_constraints(scenario)
    # only the free slots in `kept` are enumerated, the others stay absent
    # (module docstring); a pair left with none is decided
    kept = set(targets).union(*(
        con.slots for con in constraints if (con.kind, con.op) in _NOT_CLOSED_UNDER_DELETION
    ))
    free: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    free_count = 0
    for (color, src, dst), state in scenario_slot_states(scenario).items():
        u, v = index[src], index[dst]
        if state == "present":
            m[u][v] |= 1 << (color - 1)
        elif state == "free":
            free_count += 1
            if (color, src, dst) in kept:
                free.setdefault((min(u, v), max(u, v)), []).append((color, u < v))
    for color, src, dst in targets:
        obj[index[src]][index[dst]] |= 1 << (color - 1)
    # the rule tests run so far: an infeasible result reports them too
    rule_tests = 0
    infeasible = functools.partial(EnumerationResult, False, None, None, 0, free_count)

    # sort each rule by the undecided pairs (those with free slots) it reads
    filters: dict[tuple[int, int], list] = {key: [] for key in free}
    multi = []
    for pairs, test, separable in _rules(scenario, constraints, index, m):
        scope = {(min(a, b), max(a, b)) for a, b in pairs} & free.keys()
        if not scope:
            rule_tests += 1
            if not test():
                return infeasible(rule_tests)
        elif len(scope) == 1:
            filters[scope.pop()].append(test)
        else:
            multi.append((scope, test, separable))

    # a pair's options: the completions of its free slots that pass its
    # filters, highest objective gain first
    options = {}
    for (u, v), slots in sorted(free.items()):
        # each free slot as its bit of f << 8 | b, in (color, forward) order
        bits = [1 << (color - 1) << 8 * is_fwd for color, is_fwd in sorted(slots)]
        base = m[u][v], m[v][u]
        opts = []
        for subset in range(1 << len(bits)):
            fb = sum(bit for k, bit in enumerate(bits) if subset >> k & 1)
            m[u][v], m[v][u] = f, b = base[0] | fb >> 8, base[1] | fb & 255
            for test in filters[u, v]:
                rule_tests += 1
                if not test():
                    break
            else:
                gain = (f & obj[u][v]).bit_count() + (b & obj[v][u]).bit_count()
                opts.append((f, b, gain))
        m[u][v], m[v][u] = base
        if not opts:
            return infeasible(rule_tests)
        opts.sort(key=lambda t: -t[2])
        options[u, v] = opts

    # pairs with no objective slot first, so the bound below prunes only
    # among the objective pairs; a rule on several pairs fires at the last
    order = sorted(options, key=lambda k: bool(obj[k[0]][k[1]] | obj[k[1]][k[0]]))
    pos = {key: idx for idx, key in enumerate(order)}
    # per pair of `order`: the rows a memo build tests, each a list of
    # settings of the pair's masks with the options each stands for: for a
    # rule that is not separable one row of the options, for a separable one
    # a row of the distinct forward masks and a row of the distinct backward
    # masks, each with the other direction cleared (module docstring)
    rows = []
    for key in order:
        opts = options[key]
        fwd, bwd = {}, {}
        for j, (f, b, _) in enumerate(opts):
            fwd[f] = fwd.get(f, 0) | 1 << j
            bwd[b] = bwd.get(b, 0) | 1 << j
        rows.append({
            False: [[(f, b, 1 << j) for j, (f, b, _) in enumerate(opts)]],
            True: [[(f, 0, bits) for f, bits in fwd.items()],
                   [(0, b, bits) for b, bits in bwd.items()]],
        })
    # fire[idx]: (the rule's other undecided pairs, its test, a memo of
    # their masks -> the options of order[idx] that pass, its build rows)
    # per rule whose last pair is order[idx]
    fire: list[list] = [[] for _ in order]
    for scope, test, separable in multi:
        last = max(pos[key] for key in scope)
        fire[last].append((tuple(sorted(scope - {order[last]})), test, {}, rows[last][separable]))
    # reach[idx]: what the pairs from idx on can add to the objective at
    # most, each at its top gain
    reach = [0] * (len(order) + 1)
    for idx in range(len(order) - 1, -1, -1):
        reach[idx] = reach[idx + 1] + options[order[idx]][0][2]
    nodes, best, witness = 0, -1, None  # best stays -1 until a leaf is reached

    def allowed_options(idx: int) -> int:
        """The bitmask of the options of order[idx] that pass every rule
        firing there with the other pairs as set: bit j for option j."""
        nonlocal rule_tests
        allowed = (1 << len(options[order[idx]])) - 1
        for others, test, memo, build in fire[idx]:
            masks = 0
            for x, y in others:
                masks = masks << 16 | m[x][y] << 8 | m[y][x]
            passing = memo.get(masks)
            if passing is None:
                u, v = order[idx]
                saved = m[u][v], m[v][u]
                passing = -1
                for row in build:
                    got = 0
                    for f, b, bits in row:
                        m[u][v], m[v][u] = f, b
                        if test():
                            got |= bits
                    rule_tests += len(row)
                    passing &= got
                    if not passing:
                        break
                m[u][v], m[v][u] = saved
                memo[masks] = passing
            allowed &= passing
            if not allowed:
                break
        return allowed

    def rec(idx: int, current: int) -> None:
        nonlocal nodes, best, witness
        if idx == len(order):
            # the bound lets a leaf through only when it beats the best
            best = current
            witness = tuple(sorted(
                (color, labels[u], labels[v]) for color in range(1, scenario.colors + 1)
                for u in range(n) for v in range(n) if m[u][v] >> (color - 1) & 1
            ))
            return
        if current + reach[idx] <= best:
            return
        u, v = key = order[idx]
        opts, rest = options[key], reach[idx + 1]
        base = m[u][v], m[v][u]
        allowed = allowed_options(idx)
        while allowed:  # the allowed options, highest gain first
            f, b, gain = opts[(allowed & -allowed).bit_length() - 1]
            if current + gain + rest <= best:
                break
            allowed &= allowed - 1
            nodes += 1
            m[u][v], m[v][u] = f, b
            rec(idx + 1, current + gain)
        m[u][v], m[v][u] = base

    rec(0, 0)
    feasible = best >= 0
    return EnumerationResult(
        feasible, best if feasible else None, witness, nodes, free_count, rule_tests
    )
