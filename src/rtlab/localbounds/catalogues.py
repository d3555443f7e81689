"""Bound catalogues verified by exhaustive enumeration.

Four catalogues are built by the code in this module:

    table10x10     all 100 all-colors cells between the ten vertex classes
                   X12, X13, X23, Y1, Y2, Y3, Z1, Z2, Z3, R
    eq1_bullets    twelve two-color bounds between class pairs
    eq3_bullets    ten all-colors bounds between class pairs
    claims_local   thirteen neighborhood bounds with explicit premises: ten
                   count edges between a third vertex and the pair (u, v),
                   three (a heavy fan, two thick paths) have their own shape

Every entry pairs a scenario with the bound it has to satisfy.  Evaluation
recomputes the exact maximum with ``enumerate_max``, one enumeration per
orbit, every entry graded against its own bound: entries graded together
whose scenarios agree up to a color permutation and a vertex relabelling
(equal ``canonical_key``) share one enumeration, even across catalogues.
table10x10's 100 cells take 16; every eq3 bullet is a table cell's orbit,
so ``rtlab verify-all`` runs 41 enumerations for all 135 entries.
Each entry reports one of:

    verified     computed maximum <= bound
    tight        computed maximum == floor(bound)  (still verified)
    violated     computed maximum  > bound
    infeasible   the premises admit no configuration at all

``load_catalogue`` returns a catalogue's scenarios straight from its
builder, the only source of the shipped catalogues; the test suite pins the
SHA-256 of each catalogue's JSON form.  To grade an edited catalogue, save
it with ``save_scenarios``, edit the file and run ``rtlab scenario run
--file`` on it.  Where a catalogue line covers a whole family of class
pairs, the shipped entry is the family member with the largest computed
maximum, so the check is the strongest single-scenario instance of that
line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..graphs import GraphInputError
from .scenarios import (
    Constraint,
    Group,
    Objective,
    Scenario,
    canonical_key,
    enumerate_max,
    pair_sum,
)

__all__ = [
    "CATALOGUE_IDS",
    "BoundEntry",
    "evaluate_scenario",
    "evaluate_scenarios",
    "load_catalogue",
]

CATALOGUE_IDS = ("table10x10", "eq1_bullets", "eq3_bullets", "claims_local")

CLASS_NAMES = ("X12", "X13", "X23", "Y1", "Y2", "Y3", "Z1", "Z2", "Z3", "R")

# all-colors entries of the ten-class bound table, row class then column class
TABLE_BOUNDS: dict[str, tuple[int, ...]] = {
    "X12": (16, 12, 12, 12, 12, 12, 14, 14, 12, 7),
    "X13": (12, 16, 12, 12, 12, 12, 14, 12, 14, 7),
    "X23": (12, 12, 16, 12, 12, 12, 12, 14, 14, 7),
    "Y1": (12, 12, 12, 13, 12, 12, 13, 12, 12, 7),
    "Y2": (12, 12, 12, 12, 13, 12, 12, 13, 12, 7),
    "Y3": (12, 12, 12, 12, 12, 13, 12, 12, 13, 7),
    "Z1": (14, 14, 12, 13, 12, 12, 12, 12, 12, 6),
    "Z2": (14, 12, 14, 12, 13, 12, 12, 12, 12, 6),
    "Z3": (12, 14, 14, 12, 12, 13, 12, 12, 12, 6),
    "R": (7, 7, 7, 7, 7, 7, 6, 6, 6, 3),
}

# which structural rules accompany each kind of class pair (the rainbow rule
# and the five-edge pair cap are always present)
_PAIR_POLICIES: dict[tuple[str, str], tuple[str, ...]] = {
    ("X", "X"): (),
    ("X", "Y"): ("x_trimmed",),
    ("X", "Z"): ("x_trimmed",),
    ("R", "X"): ("x_trimmed",),
    ("Y", "Y"): ("x_maximality",),
    ("Y", "Z"): ("x_maximality",),
    ("R", "Y"): ("x_maximality", "y_trimmed"),
    ("Z", "Z"): ("x_maximality", "y_maximality"),
    ("R", "Z"): ("x_maximality", "y_maximality"),
    ("R", "R"): ("x_maximality", "y_maximality"),
}


@dataclass(frozen=True)
class BoundEntry:
    """One evaluated catalogue line.  ``evaluated_as`` is the id of the entry
    whose enumeration gave ``computed_max`` (its own id when it was
    enumerated itself); ``nodes`` counts that enumeration's work and is 0 for
    an entry that reused another's."""

    scenario_id: str
    source: str
    bound: Fraction
    computed_max: int | None
    status: str
    nodes: int
    evaluated_as: str

    def to_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "source": self.source,
            "bound": {"num": self.bound.numerator, "den": self.bound.denominator},
            "computed_max": self.computed_max,
            "status": self.status,
            "nodes": self.nodes,
            "evaluated_as": self.evaluated_as,
        }


def _grade(
    scenario: Scenario, computed: int | None, nodes: int, evaluated_as: str
) -> BoundEntry:
    """Grade a computed maximum (None: infeasible) against the scenario's
    own bound."""
    if computed is None:
        status = "infeasible"
    elif computed > scenario.bound:
        status = "violated"
    elif computed == scenario.bound.numerator // scenario.bound.denominator:
        status = "tight"
    else:
        status = "verified"
    return BoundEntry(
        scenario_id=scenario.id,
        source=scenario.source,
        bound=scenario.bound,
        computed_max=computed,
        status=status,
        nodes=nodes,
        evaluated_as=evaluated_as,
    )


def evaluate_scenario(scenario: Scenario) -> BoundEntry:
    """Enumerate the scenario and grade its maximum against the bound."""
    result = enumerate_max(scenario)
    computed = result.maximum if result.feasible else None
    return _grade(scenario, computed, result.nodes, scenario.id)


def evaluate_scenarios(scenarios) -> list[BoundEntry]:
    """Evaluate many scenarios, one enumeration per isomorphism class, in
    this process.

    Scenarios are grouped by ``canonical_key``; the first of each group, in
    input order, is enumerated through ``evaluate_scenario``, and every
    scenario is graded against its own bound.  The entries come back in
    input order.
    """
    scenarios = list(scenarios)
    keys = [canonical_key(s) for s in scenarios]
    firsts: dict[tuple, int] = {}
    for i, key in enumerate(keys):
        firsts.setdefault(key, i)
    by_key = {key: evaluate_scenario(scenarios[i]) for key, i in firsts.items()}
    return [
        by_key[key]
        if firsts[key] == i
        else _grade(s, by_key[key].computed_max, 0, by_key[key].scenario_id)
        for i, (key, s) in enumerate(zip(keys, scenarios))
    ]


# ---------------------------------------------------------------------------
# builders


def _class_group(name: str, members: tuple[str, ...]) -> Group:
    if name == "R":
        return Group("R", (), members)
    return Group(name[0], tuple(int(ch) for ch in name[1:]), members)


def _class_policy(row: str, col: str) -> tuple[str, ...]:
    return _PAIR_POLICIES[tuple(sorted((row[0], col[0])))]


def _pair_scenario(
    sid: str,
    source: str,
    row: str,
    col: str,
    obj_colors: tuple[int, ...],
    bound: Fraction,
    extras: tuple[str, ...] | None = None,
) -> Scenario:
    va = ("a1",) if row == "R" else ("a1", "a2")
    vb = ("b1",) if col == "R" else ("b1", "b2")
    rules = [
        Constraint("no_rainbow", pattern="directed"),
        Constraint("pair_edge_cap", value=5),
    ]
    for kind in _class_policy(row, col) if extras is None else extras:
        rules.append(Constraint(kind))
    return Scenario(
        id=sid,
        source=source,
        colors=3,
        vertices=va + vb,
        objective=Objective(colors=obj_colors, side_a=va, side_b=vb),
        bound=bound,
        groups=(_class_group(row, va), _class_group(col, vb)),
        constraints=tuple(rules),
    )


def _build_table10x10() -> list[Scenario]:
    out = []
    for row in CLASS_NAMES:
        for j, col in enumerate(CLASS_NAMES):
            out.append(
                _pair_scenario(
                    f"table:{row}-{col}",
                    f"table10x10 cell ({row}, {col})",
                    row,
                    col,
                    (1, 2, 3),
                    Fraction(TABLE_BOUNDS[row][j]),
                )
            )
    return out


def _bullet_scenarios(which, obj_colors, colors_note, entries) -> list[Scenario]:
    """One class-pair scenario per (id, row, col, extras, bound) bullet."""
    return [
        _pair_scenario(
            sid,
            f"{which} item {k} ({row} vs {col}, {colors_note})",
            row,
            col,
            obj_colors,
            bound,
            extras,
        )
        for k, (sid, row, col, extras, bound) in enumerate(entries, start=1)
    ]


def _build_eq1_bullets() -> list[Scenario]:
    entries = [
        ("eq1:01-xx", "X12", "X12", None, Fraction(16)),
        ("eq1:02-xy", "X12", "Y1", None, Fraction(40, 3)),
        ("eq1:03-xz", "X12", "Z1", None, Fraction(14)),
        ("eq1:04-yy", "Y1", "Y1", None, Fraction(104, 9)),
        ("eq1:05-yz", "Y1", "Z1", None, Fraction(12)),
        ("eq1:06-zz", "Z1", "Z1", None, Fraction(12)),
        ("eq1:07-other", "X12", "X13", None, Fraction(8)),
        ("eq1:08-xr", "X12", "R", None, Fraction(7)),
        ("eq1:09-yr", "Y1", "R", None, Fraction(6)),
        (
            "eq1:10-zr",
            "Z1",
            "R",
            ("x_maximality", "y_maximality", "z_trimmed"),
            Fraction(11, 2),
        ),
        ("eq1:11-other-r", "X13", "R", None, Fraction(4)),
        ("eq1:12-rr", "R", "R", ("z_maximality",), Fraction(2)),
    ]
    return _bullet_scenarios("eq1_bullets", (1, 2), "colors 1,2", entries)


def _build_eq3_bullets() -> list[Scenario]:
    entries = [
        ("eq3:01-xx", "X12", "X12", None, Fraction(16)),
        ("eq3:02-xy", "X12", "Y1", None, Fraction(27, 2)),
        ("eq3:03-xz", "X12", "Z1", None, Fraction(14)),
        ("eq3:04-yy-same", "Y1", "Y1", None, Fraction(105, 8)),
        ("eq3:05-yy-cross", "Y1", "Y2", None, Fraction(201, 16)),
        ("eq3:06-yz-same", "Y1", "Z1", None, Fraction(13)),
        ("eq3:07-yz-cross", "Y1", "Z2", None, Fraction(25, 2)),
        ("eq3:08-other", "X12", "X13", None, Fraction(12)),
        ("eq3:09-zr", "Z1", "R", None, Fraction(6)),
        ("eq3:10-rr", "R", "R", None, Fraction(3)),
    ]
    return _bullet_scenarios("eq3_bullets", (1, 2, 3), "all colors", entries)


def _doubles(*colors: int):
    """Fixed double edges on the pair (u, v), one in each given color."""
    return tuple((k, a, b, "present") for k in colors for a, b in (("u", "v"), ("v", "u")))


def _one_way_sum(colors, a: str, b: str, value: int) -> Constraint:
    """A slot_sum ``>= value`` over the a -> b slots of the given colors."""
    return Constraint("slot_sum", op=">=", value=value, slots=tuple((c, a, b) for c in colors))


# the premises that open a claim's constraints, by the kind its source names
_CLAIM_PREMISES = {
    "": (Constraint("no_rainbow", pattern="directed"),),
    "transitive": (Constraint("no_rainbow", pattern="transitive"),),
    "single-direction": (Constraint("no_rainbow", pattern="transitive"), Constraint("oriented")),
}


def _claim(
    name, what, *, c, bound, vertices, side_a, side_b, colors=None, fixed=(), rules=(), kind=""
) -> Scenario:
    """One claims_local scenario on ``c`` colors, whose id ends ``:c<c>`` and
    whose source ends ``(c=<c>)``, or ``(c=<c>, <kind>)`` for a named kind;
    the objective counts every color unless ``colors`` names some."""
    return Scenario(
        f"{name}:c{c}",
        f"claims_local: {what} (c={c}{', ' + kind if kind else ''})",
        c,
        vertices,
        Objective(colors=colors or tuple(range(1, c + 1)), side_a=side_a, side_b=side_b),
        Fraction(bound),
        fixed_edges=fixed,
        constraints=_CLAIM_PREMISES[kind] + rules,
    )


def _third_vertex_claim(name, what, *, third="x", **shape) -> Scenario:
    """A claim counted between a third vertex and the pair (u, v)."""
    uv = ("u", "v")
    return _claim(name, what, vertices=uv + (third,), side_a=(third,), side_b=uv, **shape)


def _build_claims_local() -> list[Scenario]:
    all4 = (1, 2, 3, 4)
    return [
        # a pair with double edges in two colors caps every adjacent color
        # pair at a third vertex
        _third_vertex_claim(
            "double-double:adjacent-colors",
            "two double colors on a pair, adjacent-color count at a third vertex",
            c=4, bound=4, colors=(1, 2), fixed=_doubles(1, 3),
        ),
        _third_vertex_claim(
            "double-double:adjacent-colors-wrap",
            "two double colors on a pair, wrap-around color pair at a third vertex",
            c=5, bound=4, colors=(5, 1), fixed=_doubles(1, 3),
        ),
        # two heavy pairs out of one vertex force the third pair to stay sparse
        _claim(
            "heavy-fan:third-pair",
            "two heavy pairs from one vertex, edges on the opposite pair",
            c=4, bound=2, vertices=("u", "v", "w"), side_a=("v",), side_b=("w",),
            rules=(
                pair_sum(all4, "u", "v", "==", 5),
                _one_way_sum(all4, "u", "v", 3),
                pair_sum(all4, "u", "w", "==", 5),
                _one_way_sum(all4, "u", "w", 3),
            ),
        ),
        # a fully occupied pair, a double edge or a single edge in the
        # remaining color, seen from a third vertex
        _third_vertex_claim(
            "full-pair:two-colors",
            "all six edges on a pair, two-color count at a third vertex",
            c=3, bound=4, third="w", colors=(1, 2), fixed=_doubles(1, 2, 3),
        ),
        _third_vertex_claim(
            "double-pair:other-colors",
            "double edge in one color, other-color count at a third vertex",
            c=3, bound=4, third="w", colors=(1, 2), fixed=_doubles(3),
        ),
        _third_vertex_claim(
            "single-edge:other-colors",
            "single edge in one color, other-color count at a third vertex",
            c=3, bound=6, third="w", colors=(1, 2), fixed=((3, "u", "v", "present"),),
        ),
        # transitive pattern: a pair with two double colors, a vertex touching
        # both endpoints
        _third_vertex_claim(
            "two-doubles:touched-both",
            "two double colors on a pair, all edges at a vertex touching both endpoints",
            c=4, bound=8, kind="transitive", fixed=_doubles(1, 2),
            rules=(pair_sum(all4, "x", "u", ">=", 1), pair_sum(all4, "x", "v", ">=", 1)),
        ),
        # transitive pattern: one double color, no pair anywhere with two
        # double colors, a color shared by both links or none
        _third_vertex_claim(
            "one-double:shared-link",
            "one double color, a second color on both links",
            c=4, bound=6, kind="transitive", fixed=_doubles(1),
            rules=(
                Constraint("no_double_double"),
                pair_sum((2,), "x", "u", ">=", 1),
                pair_sum((2,), "x", "v", ">=", 1),
            ),
        ),
        _third_vertex_claim(
            "one-double:no-shared-link",
            "one double color, no color on both links",
            c=4, bound=7, kind="transitive", fixed=_doubles(1),
            rules=(
                Constraint("no_double_double"),
                Constraint("no_shared_color_link", vertex="x", pair=("u", "v"), colors=(2, 3, 4)),
            ),
        ),
        # single-direction graphs: a path of two thick arcs seen from a fourth vertex
        *(
            _claim(
                "thick-path:fan",
                "two consecutive thick arcs, all edges at a fourth vertex",
                c=c, bound=2 * c, kind="single-direction",
                vertices=("u", "v", "w", "x"), side_a=("x",), side_b=("u", "v", "w"),
                rules=tuple(_one_way_sum(range(1, c + 1), a, b, 3) for a, b in ("uv", "vw")),
            )
            for c in (3, 4)
        ),
        # single-direction graphs: a thick pair not on any thick path
        *(
            _third_vertex_claim(
                "thick-pair:no-path",
                "three edges on a pair, no two consecutive thick arcs, edges at a third vertex",
                c=c, bound=c + 1, kind="single-direction",
                rules=(Constraint("no_thick_path"), pair_sum(range(1, c + 1), "u", "v", ">=", 3)),
            )
            for c in (3, 4)
        ),
    ]


_BUILDERS = {
    "table10x10": _build_table10x10,
    "eq1_bullets": _build_eq1_bullets,
    "eq3_bullets": _build_eq3_bullets,
    "claims_local": _build_claims_local,
}


def load_catalogue(which: str) -> list[Scenario]:
    """Build the named catalogue's scenarios."""
    try:
        builder = _BUILDERS[which]
    except KeyError:
        raise GraphInputError(
            f"unknown catalogue {which!r}; expected one of {CATALOGUE_IDS}"
        ) from None
    return builder()
