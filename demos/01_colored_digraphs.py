"""
Colored directed graphs: building, querying, and serializing
============================================================

"""

import numpy as np

from rtlab.graphs import (
    ColoredDigraph,
    classify_pair,
    count_between,
    count_color,
    dumps_graph,
    graph_digest,
    is_oriented,
    loads_graph,
)

# A colored digraph is c boolean adjacency layers over one vertex set.
# Colors are 1-based; vertices are 0-based.  from_edges checks a list of
# (color, from, to) entries and freezes them into an immutable graph.

g = ColoredDigraph.from_edges(4, 3, [
    (1, 0, 1),                        # a single edge 0 -> 1 in color 1
    (2, 0, 1), (2, 1, 0),             # edges both ways between 0 and 1 in color 2
    (3, 1, 2), (3, 2, 3), (3, 3, 1),  # a directed 3-cycle in color 3
])

print(g)
print("edges:", g.edges())
print("color totals:", [count_color(g, color) for color in (1, 2, 3)])

# Layers are read-only numpy arrays, so the usual vectorized reductions
# apply directly.
print("out-degrees in color 3:", g.layer(3).sum(axis=1))
print("edges from {0,1} to {2,3} in color 3:", count_between(g, 3, (0, 1), (2, 3)))

# A pair of vertices is summarized by its profile: which colors hold a
# two-way (double) connection and which hold exactly one direction.
profile = classify_pair(g, 0, 1)
print("pair (0,1):", profile)

# A graph is oriented when no color has a two-way pair.
print("oriented?", is_oriented(g))
print("oriented without color 2?",
      is_oriented(ColoredDigraph(4, 2, np.stack([g.layer(1), g.layer(3)]))))

# Serialization is canonical JSON: edges sorted by (color, src, dst).
# Equal graphs always produce byte-identical text, so a SHA-256 of the
# text is a content digest usable for caching and round-trip checks.
text = dumps_graph(g)
print(text)
back = loads_graph(text)
print("round-trip equal?", back == g)
print("digest:", graph_digest(g))
