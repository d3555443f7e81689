"""Bound catalogues verified by exhaustive enumeration.

Four catalogues are built by the code in this module:

    table10x10     all 100 all-colors cells between the ten vertex classes
                   X12, X13, X23, Y1, Y2, Y3, Z1, Z2, Z3, R
    eq1_bullets    twelve two-color bounds between class pairs
    eq3_bullets    ten all-colors bounds between class pairs
    claims_local   thirteen neighborhood bounds with explicit premises

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


def _double(color: int, a: str, b: str):
    return ((color, a, b, "present"), (color, b, a, "present"))


def _one_way_sum(colors, a: str, b: str, value: int) -> Constraint:
    """A slot_sum ``>= value`` over the a -> b slots of the given colors."""
    return Constraint("slot_sum", op=">=", value=value, slots=tuple((c, a, b) for c in colors))


def _build_claims_local() -> list[Scenario]:
    rainbow_d = Constraint("no_rainbow", pattern="directed")
    rainbow_t = Constraint("no_rainbow", pattern="transitive")
    oriented = Constraint("oriented")

    out = []

    # a pair with double edges in two colors caps every adjacent color pair
    # at a third vertex
    out.append(
        Scenario(
            "double-double:adjacent-colors:c4",
            "claims_local: two double colors on a pair, adjacent-color count"
            " at a third vertex (c=4)",
            4,
            ("u", "v", "x"),
            Objective(colors=(1, 2), side_a=("x",), side_b=("u", "v")),
            Fraction(4),
            fixed_edges=_double(1, "u", "v") + _double(3, "u", "v"),
            constraints=(rainbow_d,),
        )
    )
    out.append(
        Scenario(
            "double-double:adjacent-colors-wrap:c5",
            "claims_local: two double colors on a pair, wrap-around color"
            " pair at a third vertex (c=5)",
            5,
            ("u", "v", "x"),
            Objective(colors=(5, 1), side_a=("x",), side_b=("u", "v")),
            Fraction(4),
            fixed_edges=_double(1, "u", "v") + _double(3, "u", "v"),
            constraints=(rainbow_d,),
        )
    )

    # two heavy pairs out of one vertex force the third pair to stay sparse
    all4 = (1, 2, 3, 4)
    out.append(
        Scenario(
            "heavy-fan:third-pair:c4",
            "claims_local: two heavy pairs from one vertex, edges on the"
            " opposite pair (c=4)",
            4,
            ("u", "v", "w"),
            Objective(colors=all4, side_a=("v",), side_b=("w",)),
            Fraction(2),
            constraints=(
                rainbow_d,
                pair_sum(all4, "u", "v", "==", 5),
                _one_way_sum(all4, "u", "v", 3),
                pair_sum(all4, "u", "w", "==", 5),
                _one_way_sum(all4, "u", "w", 3),
            ),
        )
    )

    # a fully occupied pair seen from a third vertex in two colors
    out.append(
        Scenario(
            "full-pair:two-colors:c3",
            "claims_local: all six edges on a pair, two-color count at a"
            " third vertex (c=3)",
            3,
            ("u", "v", "w"),
            Objective(colors=(1, 2), side_a=("w",), side_b=("u", "v")),
            Fraction(4),
            fixed_edges=tuple(
                (c, a, b, "present")
                for c in (1, 2, 3)
                for a, b in (("u", "v"), ("v", "u"))
            ),
            constraints=(rainbow_d,),
        )
    )

    # a double edge in the remaining color seen from a third vertex
    out.append(
        Scenario(
            "double-pair:other-colors:c3",
            "claims_local: double edge in one color, other-color count at a"
            " third vertex (c=3)",
            3,
            ("u", "v", "w"),
            Objective(colors=(1, 2), side_a=("w",), side_b=("u", "v")),
            Fraction(4),
            fixed_edges=_double(3, "u", "v"),
            constraints=(rainbow_d,),
        )
    )

    # a single edge in the remaining color seen from a third vertex
    out.append(
        Scenario(
            "single-edge:other-colors:c3",
            "claims_local: single edge in one color, other-color count at a"
            " third vertex (c=3)",
            3,
            ("u", "v", "w"),
            Objective(colors=(1, 2), side_a=("w",), side_b=("u", "v")),
            Fraction(6),
            fixed_edges=((3, "u", "v", "present"),),
            constraints=(rainbow_d,),
        )
    )

    # transitive pattern: a pair with two double colors, a vertex touching
    # both endpoints
    out.append(
        Scenario(
            "two-doubles:touched-both:c4",
            "claims_local: two double colors on a pair, all edges at a vertex"
            " touching both endpoints (c=4, transitive)",
            4,
            ("u", "v", "x"),
            Objective(colors=all4, side_a=("x",), side_b=("u", "v")),
            Fraction(8),
            fixed_edges=_double(1, "u", "v") + _double(2, "u", "v"),
            constraints=(
                rainbow_t,
                pair_sum(all4, "x", "u", ">=", 1),
                pair_sum(all4, "x", "v", ">=", 1),
            ),
        )
    )

    # transitive pattern: one double color, no pair anywhere with two double
    # colors, a color shared by both links
    out.append(
        Scenario(
            "one-double:shared-link:c4",
            "claims_local: one double color, a second color on both links"
            " (c=4, transitive)",
            4,
            ("u", "v", "x"),
            Objective(colors=all4, side_a=("x",), side_b=("u", "v")),
            Fraction(6),
            fixed_edges=_double(1, "u", "v"),
            constraints=(
                rainbow_t,
                Constraint("no_double_double"),
                pair_sum((2,), "x", "u", ">=", 1),
                pair_sum((2,), "x", "v", ">=", 1),
            ),
        )
    )
    out.append(
        Scenario(
            "one-double:no-shared-link:c4",
            "claims_local: one double color, no color on both links"
            " (c=4, transitive)",
            4,
            ("u", "v", "x"),
            Objective(colors=all4, side_a=("x",), side_b=("u", "v")),
            Fraction(7),
            fixed_edges=_double(1, "u", "v"),
            constraints=(
                rainbow_t,
                Constraint("no_double_double"),
                Constraint(
                    "no_shared_color_link",
                    vertex="x",
                    pair=("u", "v"),
                    colors=(2, 3, 4),
                ),
            ),
        )
    )

    # single-direction graphs: a path of two thick arcs seen from a fourth
    # vertex
    for c in (3, 4):
        cols = tuple(range(1, c + 1))
        out.append(
            Scenario(
                f"thick-path:fan:c{c}",
                "claims_local: two consecutive thick arcs, all edges at a"
                f" fourth vertex (c={c}, single-direction)",
                c,
                ("u", "v", "w", "x"),
                Objective(colors=cols, side_a=("x",), side_b=("u", "v", "w")),
                Fraction(2 * c),
                constraints=(
                    rainbow_t,
                    oriented,
                    _one_way_sum(cols, "u", "v", 3),
                    _one_way_sum(cols, "v", "w", 3),
                ),
            )
        )

    # single-direction graphs: a thick pair not on any thick path
    for c in (3, 4):
        cols = tuple(range(1, c + 1))
        out.append(
            Scenario(
                f"thick-pair:no-path:c{c}",
                "claims_local: three edges on a pair, no two consecutive"
                f" thick arcs, edges at a third vertex (c={c},"
                " single-direction)",
                c,
                ("u", "v", "x"),
                Objective(colors=cols, side_a=("x",), side_b=("u", "v")),
                Fraction(c + 1),
                constraints=(
                    rainbow_t,
                    oriented,
                    Constraint("no_thick_path"),
                    pair_sum(cols, "u", "v", ">=", 3),
                ),
            )
        )
    return out


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
