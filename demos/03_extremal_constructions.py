"""
Extremal constructions: dense colorings with no rainbow triangle
================================================================

"""

import math

from rtlab.constructions import ConstructionId, build_construction, expected_count
from rtlab.graphs import count_color
from rtlab.triangles import TrianglePattern, find_rainbow

# Five generator families, each as dense as possible while avoiding a
# rainbow pattern.  Every family comes with a closed-form per-color
# edge count, so a generated graph can be checked against its formula.

FAMILIES = [
    # id, colors argument, patterns the family avoids
    (ConstructionId.BIPARTITE_DOUBLE, 4, (TrianglePattern.DIRECTED, TrianglePattern.TRANSITIVE)),
    (ConstructionId.DIRECTED3, None, (TrianglePattern.DIRECTED,)),
    (ConstructionId.TRANSITIVE3, None, (TrianglePattern.TRANSITIVE,)),
    (ConstructionId.ORIENTED_CYCLIC, 3, (TrianglePattern.TRANSITIVE,)),
    (ConstructionId.TWO_COLOR_HEAVY, None, (TrianglePattern.DIRECTED,)),
]

n = 12
for cid, c, patterns in FAMILIES:
    g = build_construction(cid, n, c)
    counts = [count_color(g, color) for color in range(1, g.c + 1)]
    formula = [expected_count(cid, n, color) for color in range(1, g.c + 1)]
    free = all(find_rainbow(g, p) is None for p in patterns)
    print(f"{cid.value:18s} n={n} per-color {counts} formula {formula} "
          f"free of {'/'.join(p.value for p in patterns)}: {free}")

# Density: per-color edges divided by n^2, as n grows.  Four of the
# families approach a clean limiting constant.
print()
print("per-color density (edges / n^2) as n grows:")
targets = {
    ConstructionId.BIPARTITE_DOUBLE: 1 / 2,
    ConstructionId.DIRECTED3: 5 / 9,
    ConstructionId.TRANSITIVE3: (52 - 4 * math.sqrt(7)) / 81,
    ConstructionId.ORIENTED_CYCLIC: 1 / 3,
}
for cid, target in targets.items():
    row = []
    for n in (30, 300, 3000):
        g = build_construction(cid, n)
        row.append(count_color(g, 1) / n**2)
    print(f"{cid.value:18s} " + "  ".join(f"{d:.5f}" for d in row) + f"  -> {target:.5f}")

# The two-color-heavy family shows why thresholds on a SINGLE color
# class cannot exist for the directed pattern with three colors: two
# complete double layers plus an empty third layer never make a rainbow.
g = build_construction(ConstructionId.TWO_COLOR_HEAVY, 8)
print()
print("two-color-heavy(8) per-color:", [count_color(g, color) for color in (1, 2, 3)],
      "directed-rainbow-free:", find_rainbow(g, TrianglePattern.DIRECTED) is None)
