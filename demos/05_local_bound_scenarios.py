"""
Local bound scenarios: exact optima over small constrained patches
==================================================================

"""

from fractions import Fraction

from rtlab.localbounds import (
    Constraint,
    Group,
    Objective,
    Scenario,
    enumerate_max,
    evaluate_scenario,
    evaluate_scenarios,
    load_catalogue,
    pair_sum,
)

# A scenario fixes a handful of labeled vertices, declares which edge
# slots are forced present or absent, imposes structural rules (no
# rainbow triangle, orientedness, per-pair edge caps, class-membership
# side conditions...), and asks: how many edges can a chosen bundle of
# slots carry?  The enumerator answers exactly.

# Simplest case: one pair of vertices, two colors, every slot free,
# no rainbow possible on two vertices -- only the per-pair cap bites.
lone_pair = Scenario(
    id="lone-pair",
    source="demo",
    colors=2,
    vertices=("u", "v"),
    objective=Objective(colors=(1, 2), side_a=("u",), side_b=("v",)),
    bound=Fraction(4),
    constraints=(
        Constraint(kind="no_rainbow", pattern="directed"),
        Constraint(kind="pair_edge_cap", value=5),
    ),
)
result = enumerate_max(lone_pair)
print("lone pair: max", result.maximum, "of", result.free_slot_count, "free slots")
print("witness:", result.witness)

# Moving to three vertices the rainbow rule starts to matter: with a
# two-way pair in color 3 pinned between u and v, how many edges in
# colors 1 and 2 can connect w to that pair?
double_pair = Scenario(
    id="double-then-connect",
    source="demo",
    colors=3,
    vertices=("u", "v", "w"),
    objective=Objective(colors=(1, 2), side_a=("w",), side_b=("u", "v")),
    bound=Fraction(4),
    fixed_edges=(
        (3, "u", "v", "present"),
        (3, "v", "u", "present"),
    ),
    constraints=(
        Constraint(kind="no_rainbow", pattern="directed"),
        Constraint(kind="pair_edge_cap", value=5),
    ),
)
result = enumerate_max(double_pair)
print()
print("double pair + connector: max", result.maximum, "(nodes", f"{result.nodes})")

# Vertex classes enter through groups.  An X(1,2)-pair holds doubles in
# colors 1 and 2; its class membership adds slot constraints for free.
x_pair = Scenario(
    id="x-pair-vs-lone-vertex",
    source="demo",
    colors=3,
    vertices=("a1", "a2", "b"),
    groups=(Group(kind="X", colors=(1, 2), members=("a1", "a2")),),
    objective=Objective(colors=(1, 2, 3), side_a=("a1", "a2"), side_b=("b",)),
    bound=Fraction(7),
    constraints=(
        Constraint(kind="no_rainbow", pattern="directed"),
        Constraint(kind="pair_edge_cap", value=5),
        Constraint(kind="x_trimmed", vertex="b"),
    ),
)
entry = evaluate_scenario(x_pair)
print()
print("X-pair vs lone vertex:", entry.computed_max, "<=", entry.bound, "->", entry.status)

# Sum constraints pin aggregate shapes.  pair_sum builds one over all
# slots between two vertices.
print()
print("a '>= 3 edges between u and v' constraint:", pair_sum((1, 2, 3), "u", "v", ">=", 3))

# Shipped catalogues bundle such scenarios with their claimed bounds.
# The 10x10 class-pair table is the big one; here is one row's worth.
table = evaluate_scenarios(load_catalogue("table10x10"))
entries = [e for e in table if e.scenario_id.startswith("table:R-")]
print()
for e in entries:
    print(f"{e.scenario_id:18s} computed {e.computed_max:2d}  bound {e.bound}  {e.status}")

# The catalogues exist only as code.  To grade an edited one, write it
# with save_scenarios, edit the file, and run `rtlab scenario run --file`.
print()
print("catalogue sizes:", {w: len(load_catalogue(w)) for w in
                           ("table10x10", "eq1_bullets", "eq3_bullets", "claims_local")})
