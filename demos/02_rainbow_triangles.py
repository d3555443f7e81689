"""
Rainbow triangle detection: directed and transitive patterns
============================================================

"""

from rtlab.constructions import directed3, oriented_cyclic
from rtlab.graphs import ColoredDigraph
from rtlab.triangles import (
    TrianglePattern,
    count_rainbow,
    find_rainbow,
    witness_is_valid,
)

# A rainbow triangle uses three pairwise distinct colors on three
# vertices.  Two shapes matter here:
#
#   directed:    u -> v -> w -> u   (a 3-cycle)
#   transitive:  u -> v -> w and u -> w
#
# The detector returns None when the graph is pattern-free, otherwise a
# witness naming the vertices and one valid color assignment.

cycle = ColoredDigraph.from_edges(3, 3, [(1, 0, 1), (2, 1, 2), (3, 2, 0)])

print("directed witness:", find_rainbow(cycle, TrianglePattern.DIRECTED))
print("transitive witness:", find_rainbow(cycle, TrianglePattern.TRANSITIVE))

# The same edge set can fail one pattern and satisfy the other.  Adding
# the chord 0 -> 2 in a fresh color-role creates the transitive shape.
chordal = ColoredDigraph.from_edges(3, 3, [(1, 0, 1), (2, 1, 2), (3, 0, 2)])
w = find_rainbow(chordal, TrianglePattern.TRANSITIVE)
print("transitive witness now:", w)
print("witness checks out?", witness_is_valid(chordal, w))

# Colors only need to admit SOME system of distinct representatives:
# each edge may carry several colors, and the detector must find three
# distinct ones across the triangle.
shared = ColoredDigraph.from_edges(3, 3, [
    (1, 0, 1), (2, 0, 1),  # two color options on the first arc
    (1, 1, 2), (2, 1, 2),  # and on the second
    (3, 0, 2),
])
print("witness despite shared colors:", find_rainbow(shared, TrianglePattern.TRANSITIVE))

# The balanced three-part construction is directed-rainbow-free by
# design, yet full of transitive rainbow triangles.
g = directed3(12)
print("directed3(12):",
      "directed count:", count_rainbow(g, TrianglePattern.DIRECTED),
      "| transitive count:", count_rainbow(g, TrianglePattern.TRANSITIVE))

# The cyclic oriented construction flips the roles: plenty of directed
# rainbows, no transitive ones.
h = oriented_cyclic(12, 3)
print("oriented_cyclic(12, 3):",
      "directed count:", count_rainbow(h, TrianglePattern.DIRECTED),
      "| transitive count:", count_rainbow(h, TrianglePattern.TRANSITIVE))
