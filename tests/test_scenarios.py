"""Tests for the scenario data model and the exact enumeration engine.

The engine is cross-checked against ``naive_scenario_max``, which tries every
completion of the free slots with straight-line rule checks.
"""

import itertools
import json
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from naive import naive_scenario_max, naive_scenario_rules_hold
from rtlab.graphs import GraphInputError
from rtlab.localbounds import (
    CATALOGUE_IDS,
    CONSTRAINT_KINDS,
    SLOT_STATES,
    Constraint,
    Group,
    Objective,
    Scenario,
    canonical_key,
    dumps_scenarios,
    enumerate_max,
    load_catalogue,
    loads_scenarios,
    objective_slots,
    scenario_from_dict,
    scenario_slot_states,
    scenario_to_dict,
    slots_between,
)
from rtlab.localbounds.catalogues import CLASS_NAMES, TABLE_BOUNDS
from rtlab.localbounds.scenarios import _ARRAYS, _CONSTRAINTS, _RECORDS, _SCALARS, _entries


def make(vertices=("u", "v", "w"), colors=3, obj_colors=(1, 2),
         side_a=("w",), side_b=("u", "v"), bound=Fraction(99), **kw):
    return Scenario(
        id=kw.pop("id", "t"),
        source="test",
        colors=colors,
        vertices=vertices,
        objective=Objective(colors=obj_colors, side_a=side_a, side_b=side_b),
        bound=bound,
        **kw,
    )


def rainbow(pattern="directed"):
    return Constraint("no_rainbow", pattern=pattern)


# ---------------------------------------------------------------------------
# hand-checkable anchors


def test_lone_pair_two_colors_no_rules():
    s = make(vertices=("u", "v"), obj_colors=(1, 2), side_a=("u",), side_b=("v",))
    r = enumerate_max(s)
    assert r.feasible and r.maximum == 4  # two colors, both directions
    assert r.free_slot_count == 4


def test_r_pair_top_two_color_rule():
    groups = (Group("R", (), ("r1",)), Group("R", (), ("r2",)))
    s = make(vertices=("r1", "r2"), obj_colors=(1, 2, 3), side_a=("r1",),
             side_b=("r2",), groups=groups,
             constraints=(Constraint("z_maximality"),))
    assert enumerate_max(s).maximum == 3  # one edge per color
    s2 = replace(s, objective=Objective((1, 2), ("r1",), ("r2",)))
    assert enumerate_max(s2).maximum == 2


def test_two_double_double_pairs_in_two_colors():
    # with only two colors in play no triangle can collect three colors,
    # so every cross slot can be filled
    groups = (Group("X", (1, 2), ("a1", "a2")), Group("X", (1, 2), ("b1", "b2")))
    s = make(vertices=("a1", "a2", "b1", "b2"), obj_colors=(1, 2),
             side_a=("a1", "a2"), side_b=("b1", "b2"), groups=groups,
             constraints=(rainbow(),))
    assert enumerate_max(s).maximum == 16


def test_double_edge_blocks_other_color_completions():
    fixed = ((3, "u", "v", "present"), (3, "v", "u", "present"))
    s = make(fixed_edges=fixed, constraints=(rainbow(),))
    assert enumerate_max(s).maximum == 4


def test_single_edge_blocks_fewer_completions():
    s = make(fixed_edges=((3, "u", "v", "present"),), constraints=(rainbow(),))
    assert enumerate_max(s).maximum == 6


def test_saturated_pair_two_color_count():
    fixed = tuple(
        (c, a, b, "present") for c in (1, 2, 3) for a, b in (("u", "v"), ("v", "u"))
    )
    s = make(fixed_edges=fixed, constraints=(rainbow(),))
    assert enumerate_max(s).maximum == 4


def test_infeasible_is_not_zero():
    # a required sum that can never be met
    con = Constraint("slot_sum", op="==", value=2, slots=((2, "u", "v"),))
    s = make(vertices=("u", "v"), obj_colors=(1,), side_a=("u",),
             side_b=("v",), constraints=(con,))
    r = enumerate_max(s)
    assert not r.feasible and r.maximum is None and r.witness is None

    # a forced-to-zero objective is feasible with maximum 0
    con0 = Constraint(
        "slot_sum", op="==", value=0, slots=slots_between((1,), ("u",), ("v",))
    )
    s0 = make(vertices=("u", "v"), obj_colors=(1,), side_a=("u",),
              side_b=("v",), constraints=(con0,))
    r0 = enumerate_max(s0)
    assert r0.feasible and r0.maximum == 0


def test_oriented_rule_halves_a_pair():
    s = make(vertices=("u", "v"), obj_colors=(1, 2, 3), side_a=("u",),
             side_b=("v",), constraints=(Constraint("oriented"),))
    assert enumerate_max(s).maximum == 3


def test_pair_edge_cap():
    s = make(vertices=("u", "v"), obj_colors=(1, 2, 3), side_a=("u",),
             side_b=("v",), constraints=(Constraint("pair_edge_cap", value=5),))
    assert enumerate_max(s).maximum == 5


def test_rule_on_one_undecided_pair_filters_its_options():
    # u -> v and v -> w are fixed, so the triangle rule reads one undecided
    # pair, {u, w}: the options with w -> u in color 3 close a rainbow cycle
    # and are dropped before the search rather than tried in it
    fixed = ((1, "u", "v", "present"), (2, "v", "w", "present"))
    s = make(obj_colors=(3,), side_a=("u",), side_b=("w",), fixed_edges=fixed,
             constraints=(rainbow(),))
    r = enumerate_max(s)
    assert (r.feasible, r.maximum, r.nodes) == (True, 1, 1)
    assert r.witness == ((1, "u", "v"), (2, "v", "w"), (3, "u", "w"))


# ---------------------------------------------------------------------------
# engine vs naive enumeration


def _small_catalogue_scenarios(limit=12):
    for s in load_catalogue("claims_local"):
        states = scenario_slot_states(s)
        if sum(1 for st in states.values() if st == "free") <= limit:
            yield s


def test_engine_agrees_with_naive_on_shipped_claims():
    checked = 0
    for s in _small_catalogue_scenarios():
        feasible, best = naive_scenario_max(s)
        r = enumerate_max(s)
        assert r.feasible == feasible, s.id
        assert r.maximum == best, s.id
        checked += 1
    assert checked >= 5


RANDOM_FREE_SLOTS = 16  # the naive oracle makes one pass per completion
GROUP_RULES = ("x_maximality", "y_maximality", "z_maximality",
               "x_trimmed", "y_trimmed", "z_trimmed")


def _draw_scenario(rng: random.Random, tag: int) -> Scenario:
    colors = 3
    n = rng.choice((3, 4, 4))
    vertices = tuple("pqrs"[:n])
    k = rng.randrange(1, n)
    side_a, side_b = vertices[:k], vertices[k:]
    # on three vertices the objective joins the third vertex to both members
    # of a typed pair, heavily enough to test the trimming rules
    width = rng.choice((2, 2, 3) if n == 3 else (1, 1, 2))
    obj_colors = tuple(sorted(rng.sample((1, 2, 3), width)))
    goal = set(slots_between(obj_colors, side_a, side_b))

    # typed pairs sit inside one side, so no objective slot is a fixture slot
    groups, grouped = [], set()
    for side in (side_a, side_b):
        if len(side) >= 2 and rng.random() < 0.6:
            kind = rng.choice("XYZ")
            ncol = 2 if kind == "X" else 1
            groups.append(Group(kind, tuple(rng.sample((1, 2, 3), ncol)), side[:2]))
            grouped.update(side[:2])
    groups += [Group("R", (), (v,)) for v in vertices
               if v not in grouped and rng.random() < 0.3]
    group_pairs = {frozenset(g.members) for g in groups if g.kind != "R"}

    # untouched slots are absent; some are set present, a few left free
    all_slots = [(col, a, b) for col in range(1, colors + 1)
                 for a, b in itertools.permutations(vertices, 2)]
    fixed = []
    for color, a, b in all_slots:
        if (color, a, b) in goal or frozenset((a, b)) in group_pairs:
            continue
        roll = rng.random()
        if roll < 0.12:
            fixed.append((color, a, b, "present"))
        elif roll < 0.16:
            fixed.append((color, a, b, "free"))

    x, u, v = rng.sample(vertices, 3)
    sum_slots = tuple(rng.sample(all_slots, rng.choice((2, 3))))
    # typed pairs carry double edges, which "oriented" always forbids and
    # "no_double_double" forbids for X, so those rules skip such scenarios
    pool = [
        rainbow("directed"),
        rainbow("transitive"),
        Constraint("pair_edge_cap", value=rng.choice((3, 4, 5))),
        Constraint("no_thick_path"),
        Constraint("slot_sum", op=rng.choice(("<=", ">=", "==")),
                   value=rng.randrange(len(sum_slots) + 1), slots=sum_slots),
        Constraint("no_shared_color_link", vertex=x, pair=(u, v),
                   colors=tuple(rng.sample((1, 2, 3), rng.choice((1, 2))))),
    ] + [Constraint(kind) for kind in GROUP_RULES]
    if not group_pairs:
        pool.append(Constraint("oriented"))
    if not any(g.kind == "X" for g in groups):
        pool.append(Constraint("no_double_double"))
    rules = tuple(con for con in pool if rng.random() < 0.4)
    return Scenario(
        id=f"rand{tag}",
        source="test",
        colors=colors,
        vertices=vertices,
        objective=Objective(obj_colors, side_a, side_b),
        bound=Fraction(99),
        groups=tuple(groups),
        fixed_edges=tuple(fixed),
        constraints=rules,
    )


def _random_scenario(rng: random.Random, tag: int) -> Scenario:
    """A random scenario over the whole rule and group vocabulary with at
    most ``RANDOM_FREE_SLOTS`` free slots."""
    while True:
        s = _draw_scenario(rng, tag)
        states = scenario_slot_states(s).values()
        if sum(st == "free" for st in states) <= RANDOM_FREE_SLOTS:
            return s


def _check_witness(s: Scenario, r) -> None:
    """The witness keeps every fixed slot, passes every rule and scores the
    maximum."""
    edges = set(r.witness)
    for slot, state in scenario_slot_states(s).items():
        if state != "free":
            assert (slot in edges) == (state == "present"), (s.id, slot)
    assert naive_scenario_rules_hold(s, edges), s.id
    assert len(edges & set(objective_slots(s))) == r.maximum, s.id


def test_engine_agrees_with_naive_on_random_scenarios():
    rng = random.Random(20260817)
    seen = set()
    for tag in range(25):
        s = _random_scenario(rng, tag)
        feasible, best = naive_scenario_max(s)
        r = enumerate_max(s)
        assert (r.feasible, r.maximum) == (feasible, best), s.id
        if r.feasible:
            _check_witness(s, r)
        seen.update(g.kind for g in s.groups)
        seen.update(c.kind for c in s.constraints)
    assert seen >= {"X", "Y", "Z", "slot_sum", "no_shared_color_link", *GROUP_RULES}


def test_witnesses_satisfy_all_rules():
    for s in load_catalogue("claims_local"):
        r = enumerate_max(s)
        assert r.feasible, s.id
        _check_witness(s, r)


# ---------------------------------------------------------------------------
# structural invariants


def _relabel(s: Scenario, sigma: dict[int, int], pi: dict | None = None) -> Scenario:
    """Apply the color permutation ``sigma`` and the vertex relabelling
    ``pi`` to every field that names a color or a vertex; the vertex tuple
    keeps its order, so ``pi`` moves vertices to other positions."""
    pi = pi or {v: v for v in s.vertices}

    def cons(c: Constraint) -> Constraint:
        return replace(
            c,
            slots=tuple((sigma[col], pi[a], pi[b]) for col, a, b in c.slots),
            vertex=pi[c.vertex] if c.vertex else "",
            pair=tuple(pi[v] for v in c.pair),
            colors=tuple(sigma[col] for col in c.colors),
        )

    return replace(
        s,
        groups=tuple(
            Group(
                g.kind,
                tuple(sigma[col] for col in g.colors),
                tuple(pi[v] for v in g.members),
            )
            for g in s.groups
        ),
        fixed_edges=tuple(
            (sigma[col], pi[a], pi[b], st) for col, a, b, st in s.fixed_edges
        ),
        constraints=tuple(cons(c) for c in s.constraints),
        objective=Objective(
            tuple(sigma[col] for col in s.objective.colors),
            tuple(pi[v] for v in s.objective.side_a),
            tuple(pi[v] for v in s.objective.side_b),
        ),
    )


def test_color_swap_leaves_maximum_unchanged():
    scenarios = list(_small_catalogue_scenarios())[:6]
    table = load_catalogue("table10x10")
    scenarios += [s for s in table if s.id in ("table:X12-Y1", "table:Z1-R")]
    for s in scenarios:
        base = enumerate_max(s).maximum
        for perm in ({1: 2, 2: 1, 3: 3}, {1: 1, 2: 3, 3: 2}):
            full = {c: perm.get(c, c) for c in range(1, s.colors + 1)}
            swapped = _relabel(s, full)
            assert enumerate_max(swapped).maximum == base, (s.id, perm)


def test_objective_split_is_subadditive():
    rng = random.Random(4258)
    cases = [s for s in (_random_scenario(rng, t) for t in range(30))
             if len(s.objective.colors) >= 2][:12]
    for s in cases:
        r = enumerate_max(s)
        if not r.feasible:
            continue
        head = s.objective.colors[:1]
        tail = s.objective.colors[1:]
        parts = 0
        for sub in (head, tail):
            obj = Objective(sub, s.objective.side_a, s.objective.side_b)
            rs = enumerate_max(replace(s, objective=obj))
            assert rs.feasible
            parts += rs.maximum
        assert r.maximum <= parts, s.id


# ---------------------------------------------------------------------------
# canonical key


def _shuffled_copy(s: Scenario, rng: random.Random) -> Scenario:
    """A random isomorphic copy: colors permuted, vertices relabelled, every
    unordered collection reordered, and id, source and bound changed."""
    colors = list(range(1, s.colors + 1))
    sigma = dict(zip(colors, rng.sample(colors, len(colors))))
    pi = dict(zip(s.vertices, rng.sample(s.vertices, len(s.vertices))))
    out = _relabel(s, sigma, pi)

    def shuffled(items):
        items = list(items)
        return tuple(rng.sample(items, len(items)))

    sides = shuffled((out.objective.side_a, out.objective.side_b))
    return replace(
        out,
        id="copy",
        source="elsewhere",
        bound=s.bound + 1,
        objective=Objective(
            shuffled(out.objective.colors), shuffled(sides[0]), shuffled(sides[1])
        ),
        groups=shuffled(
            replace(g, colors=shuffled(g.colors), members=shuffled(g.members))
            for g in out.groups
        ),
        fixed_edges=shuffled(out.fixed_edges),
        constraints=shuffled(
            replace(
                c, slots=shuffled(c.slots), pair=shuffled(c.pair), colors=shuffled(c.colors)
            )
            for c in out.constraints
        ),
    )


def test_canonical_key_is_invariant_under_relabelling():
    rng = random.Random(20261018)
    scenarios = [s for which in CATALOGUE_IDS for s in load_catalogue(which)]
    assert len(scenarios) == 135
    for s in scenarios:
        copy = _shuffled_copy(s, rng)
        assert canonical_key(copy) == canonical_key(s), s.id


# One scenario with a record of every table: an X, a Y and a free vertex,
# fixed edges, one constraint of every kind and an objective.
SINK = Scenario(
    id="sink",
    source="test",
    colors=3,
    vertices=("v1", "v2", "v3", "v4", "v5"),
    objective=Objective((1, 2), ("v5",), ("v1", "v3")),
    bound=Fraction(99),
    groups=(Group("X", (1, 2), ("v1", "v2")), Group("Y", (1,), ("v3", "v4"))),
    fixed_edges=((3, "v5", "v2", "present"), (1, "v2", "v4", "absent")),
    constraints=(
        rainbow(),
        Constraint("pair_edge_cap", value=5),
        Constraint("slot_sum", op=">=", value=1, slots=((2, "v2", "v4"), (3, "v4", "v5"))),
        Constraint("no_shared_color_link", vertex="v5", pair=("v2", "v4"), colors=(1, 3)),
        *(Constraint(kind) for kind in sorted(CONSTRAINT_KINDS) if len(_CONSTRAINTS[kind].keys) == 1),
    ),
)
# every text a field holds somewhere, to swap one for another
TEXTS = (*SLOT_STATES, *"XYZR", "directed", "transitive", "==", "<=", ">=",
         *sorted(CONSTRAINT_KINDS))


def _containers(value, kind, path=()):
    """(path, kind, table, {key: field kind}) for every record and every
    array (table None) in the JSON ``value`` of field kind ``kind``."""
    if kind in _SCALARS:
        return
    if kind in _ARRAYS:
        table, fields = None, {i: k for i, (_, k) in enumerate(_entries(value, kind))}
    else:
        table = _CONSTRAINTS[value["kind"]] if kind == "constraint" else _RECORDS[kind]
        fields = table.keys
    yield path, kind, table, fields
    for key, field_kind in fields.items():
        yield from _containers(value[key], field_kind, path + (key,))


def _alternatives(value, kind, labels, colors):
    """JSON values of kind ``kind`` to put in place of ``value``: each differs
    from it in one entry, or by one entry more or less."""
    if kind == "text":
        return [t for t in (*TEXTS, value + "+") if t != value]
    if kind == "int":
        return [value + 1, value - 1]
    if kind in ("label", "color"):
        return [v for v in (labels + ["new"] if kind == "label" else colors) if v != value]
    if kind not in _ARRAYS:
        return []  # a record: its own keys are edited
    out = [
        value[:i] + [alt] + value[i + 1:]
        for i, (entry, entry_kind) in enumerate(_entries(value, kind))
        for alt in _alternatives(entry, entry_kind, labels, colors)
    ]
    if isinstance(_ARRAYS[kind], str):  # an array of any length
        out += [value[:i] + value[i + 1:] for i in range(len(value))]
        out += [value + [alt] for alt in _alternatives(value[0], _ARRAYS[kind], labels, colors)]
    return out


def _at(record, path):
    for step in path:
        record = record[step]
    return record


def _edited(record, path, values):
    """A copy of the JSON ``record`` with ``_at(record, path)`` updated by
    the dict ``values``."""
    out = json.loads(json.dumps(record))
    for key, value in values.items():
        _at(out, path)[key] = value
    return out


def _key_or_none(record):
    try:
        return canonical_key(scenario_from_dict(record))
    except GraphInputError:
        return None  # not a valid scenario


def _rename(value, names):
    if isinstance(value, list):
        return [_rename(v, names) for v in value]
    if isinstance(value, dict):
        return {k: _rename(v, names) for k, v in value.items()}
    return names.get(value, value)


def test_canonical_key_sees_every_field():
    # an edit to any one key of any record changes the key, except for the
    # keys no rule reads (id, source and the bound), which leave it alone
    record = scenario_to_dict(SINK)
    labels, colors = record["vertices"], list(range(1, SINK.colors + 1))
    base = canonical_key(SINK)
    covered = set()
    for path, _, table, fields in _containers(record, "scenario"):
        for key, kind in fields.items() if table else ():
            unread = (path + (key,))[0] in _RECORDS["scenario"].unread
            for alt in _alternatives(_at(record, path)[key], kind, labels, colors):
                after = _key_or_none(_edited(record, path, {key: alt}))
                if after is not None:
                    assert (after != base) != unread, (path, key, alt)
                    covered.add((table.name, key))
    # a constraint kind that reads fields cannot change alone: the reader
    # rejects the fields the new kind does not read
    expected = {
        (table.name, key)
        for table in (*_RECORDS.values(), *_CONSTRAINTS.values())
        for key, kind in table.keys.items()
        if kind not in _RECORDS
        and not (key == "kind" and table in _CONSTRAINTS.values() and len(table.keys) > 1)
    }
    assert expected - covered == set()
    # swapping the two ends of an edge, in a slot or a fixed edge, changes
    # the key; swapping the two labels of a set of labels does not
    changed = {}
    for path, kind, _, fields in _containers(record, "scenario"):
        ends = [key for key, field_kind in fields.items() if field_kind == "label"]
        if len(ends) == 2:
            a, b = (_at(record, path)[end] for end in ends)
            after = _key_or_none(_edited(record, path, {ends[0]: b, ends[1]: a}))
            assert after is not None, path
            changed.setdefault(kind, set()).add(after != base)
    assert changed == {"fixed_edge": {True}, "slot": {True}, "labels": {False}}
    # nor do the label strings matter
    renamed = _rename(record, {v: v.upper() + "'" for v in labels})
    assert canonical_key(scenario_from_dict(renamed)) == base


def test_table_cells_fall_into_sixteen_orbits_of_equal_bound():
    orbits = {}
    for s in load_catalogue("table10x10"):
        row, col = s.id.removeprefix("table:").split("-")
        bound = TABLE_BOUNDS[row][CLASS_NAMES.index(col)]
        orbits.setdefault(canonical_key(s), set()).add(bound)
    assert len(orbits) == 16
    assert all(len(bounds) == 1 for bounds in orbits.values())


def test_canonical_key_of_largest_scenario_is_fast():
    # c = 8 and n = 6 allow 8! * 6! relabellings; the key falls back to the
    # identity normal form, which still sorts the unordered fields
    s = make(
        vertices=tuple("abcdef"),
        colors=8,
        obj_colors=(4, 5, 6),
        side_a=("e",),
        side_b=("f",),
        groups=(Group("X", (1, 2), ("a", "b")), Group("Y", (3,), ("c", "d"))),
        constraints=(rainbow(), Constraint("pair_edge_cap", value=5),
                     Constraint("x_trimmed")),
    )
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        key = canonical_key(s)
        best = min(best, time.perf_counter() - started)
    assert best <= 0.05
    reordered = replace(s, constraints=s.constraints[::-1], groups=s.groups[::-1])
    assert canonical_key(reordered) == key


# ---------------------------------------------------------------------------
# slot-state resolution, serialization, validation


def test_slot_state_resolution_defaults():
    groups = (Group("Y", (1,), ("a1", "a2")),)
    s = make(vertices=("a1", "a2", "w"), obj_colors=(1,), side_a=("w",),
             side_b=("a1",), groups=groups)
    states = scenario_slot_states(s)
    assert states[(1, "a1", "a2")] == "present"
    assert states[(1, "a2", "a1")] == "present"
    assert states[(2, "a1", "a2")] == "free"   # single with free orientation
    assert states[(3, "a2", "a1")] == "free"
    assert states[(1, "w", "a1")] == "free"    # objective slot
    assert states[(2, "w", "a1")] == "absent"  # untouched default


def test_required_sum_slots_default_to_free():
    con = Constraint(
        "slot_sum", op=">=", value=1, slots=slots_between((3,), ("u",), ("v",))
    )
    s = make(constraints=(con,))
    states = scenario_slot_states(s)
    assert states[(3, "u", "v")] == "free"
    assert states[(3, "v", "u")] == "free"


def test_json_round_trip():
    for which in CATALOGUE_IDS:
        scenarios = load_catalogue(which)
        again = loads_scenarios(dumps_scenarios(scenarios))
        assert again == scenarios


def test_scenario_file_round_trip(tmp_path):
    from rtlab.localbounds import load_scenarios, save_scenarios

    scenarios = load_catalogue("eq3_bullets")
    path = tmp_path / "cat.json"
    save_scenarios(path, scenarios)
    assert load_scenarios(path) == scenarios


def test_malformed_records_are_rejected():
    with pytest.raises(GraphInputError):
        loads_scenarios('{"not": "a list"}')
    with pytest.raises(GraphInputError):
        loads_scenarios('[{"id": "x"}]')
    # a misspelled key is an input error, not a record without that field
    records = json.loads(dumps_scenarios(load_catalogue("claims_local")))
    records[0]["constraint"] = records[0].pop("constraints")
    with pytest.raises(GraphInputError, match="unknown key 'constraint'"):
        loads_scenarios(json.dumps(records))


@pytest.mark.parametrize(
    "breakage",
    [
        dict(colors=0),
        dict(vertices=("u", "u", "w")),
        dict(vertices=tuple("abcdefg")),
        dict(groups=(Group("Q", (), ("u",)),)),
        dict(groups=(Group("X", (1,), ("u", "v")),)),
        dict(groups=(Group("X", (1, 2), ("u", "v")), Group("R", (), ("u",)))),
        dict(fixed_edges=((4, "u", "v", "present"),)),
        dict(fixed_edges=((1, "u", "u", "present"),)),
        dict(fixed_edges=((1, "u", "v", "maybe"),)),
        dict(fixed_edges=((1, "u", "v", "present"), (1, "u", "v", "absent"))),
        dict(constraints=(Constraint("bogus"),)),
        dict(constraints=(Constraint("no_rainbow", pattern="odd"),)),
        dict(constraints=(Constraint("slot_sum", op="<", value=1,
                                     slots=((1, "u", "v"),)),)),
        dict(groups=(Group("X", (1, 2), ("u", "u")),)),
    ],
)
def test_validation_rejects_bad_scenarios(breakage):
    with pytest.raises(GraphInputError):
        s = make(**breakage)
        enumerate_max(s)


def test_objective_slots_must_stay_free():
    with pytest.raises(GraphInputError):
        enumerate_max(make(fixed_edges=((1, "w", "u", "present"),)))


def test_group_fixture_slots_cannot_be_overridden():
    groups = (Group("X", (1, 2), ("u", "v")),)
    with pytest.raises(GraphInputError):
        enumerate_max(
            make(groups=groups, fixed_edges=((3, "u", "v", "absent"),))
        )


def test_free_slot_ceiling_is_enforced():
    s = make(
        vertices=("a", "b", "c", "d", "e", "f"),
        obj_colors=(1, 2, 3),
        side_a=("a", "b", "c"),
        side_b=("d", "e", "f"),
    )
    with pytest.raises(GraphInputError):
        enumerate_max(s)
