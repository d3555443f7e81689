"""Extremal colored-digraph generators and their closed-form edge counts.

Each generator produces a graph that avoids one (or both) rainbow triangle
patterns while packing as many edges as possible into every color layer:

``bipartite_double(n, c)``
    Vertices split into two near-halves (larger part last); every cross pair
    carries double edges in every color.  No triangle of any kind exists, and
    each layer has 2*floor(n/2)*ceil(n/2) edges — density 1/2.

``directed3(n)``
    Three near-equal parts A1, A2, A3 (larger parts last); part Ai is a
    complete double-edge digraph in both colors other than i, and every
    forward pair (A1->A2, A1->A3, A2->A3) carries single edges in all three
    colors.  Any directed cycle stays inside one part, where only two colors
    live, so no rainbow directed triangle appears; density 5/9 per color.

``transitive3(n)``
    Three sets: two of size a = round(alpha*n), alpha = (4 - sqrt 7)/9 (in
    exact arithmetic), one of size n - 2a, listed largest-last.  Each set is a
    complete double-edge digraph in its two designated colors — the large set
    misses color 3, the small sets are {2,3} and {3,1} — and all cross pairs
    carry double edges in color 3.  Every pair of vertices spans at most two
    colors, so no rainbow triangle of either shape; per-color density
    (52 - 4*sqrt 7)/81 ~ 0.51133.

``oriented_cyclic(n, c)``
    Three near-equal parts with all edges A1->A2, A2->A3, A3->A1 in every
    color.  Oriented; every triangle is a directed cycle, so the graph has
    no transitive triangle at all; density 1/3 per color.

``two_color_heavy(n)``
    Colors 1 and 2 complete (double edges everywhere), color 3 empty: only
    two colors, hence rainbow-free, with total edge count 2n(n-1) > 3/2 n^2
    for n > 4 — total mass alone cannot force a rainbow triangle with 3
    colors.

``expected_count`` returns the exact per-color edge count each generator
realizes (including remainder effects at small n), computed from the part
sizes rather than from the built graph.

Every part is a contiguous vertex range, so each generator fills whole
blocks of a (c, n, n) bool array by slice assignment and then clears the
diagonal; a build costs O(c * n**2) array writes and no Python loop over
edges, and makes one array, which the graph adopts as its layers.  Sizes
above ``graphs.MAX_CELLS`` are rejected before the array is allocated.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

import numpy as np

from .exactmath import QuadraticRational
from .graphs import ColoredDigraph, GraphInputError, check_size
from .triangles import TrianglePattern

__all__ = [
    "ConstructionId",
    "AVOIDED_PATTERNS",
    "build_construction",
    "expected_count",
    "bipartite_double",
    "directed3",
    "transitive3",
    "oriented_cyclic",
    "two_color_heavy",
    "equal_parts",
    "small_set_size",
]

ALPHA = QuadraticRational(Fraction(4, 9), Fraction(-1, 9))  # (4 - sqrt(7)) / 9, small-set ratio


class ConstructionId(str, Enum):
    BIPARTITE_DOUBLE = "bipartite-double"
    DIRECTED3 = "directed3"
    TRANSITIVE3 = "transitive3"
    ORIENTED_CYCLIC = "oriented-cyclic"
    TWO_COLOR_HEAVY = "two-color-heavy"


def _part_sizes(n: int, k: int) -> list[int]:
    base, rem = divmod(n, k)
    return [base] * (k - rem) + [base + 1] * rem


def equal_parts(n: int, k: int) -> list[list[int]]:
    """Split 0..n-1 into k contiguous near-equal parts, larger parts last."""
    return [list(range(span.start, span.stop)) for span in _spans(_part_sizes(n, k))]


def small_set_size(n: int) -> int:
    """round(alpha * n), exactly; alpha * n is irrational for n > 0, so there is no tie."""
    return (ALPHA * n + Fraction(1, 2)).floor_scaled(1)


def _spans(sizes: list[int]) -> list[slice]:
    """Consecutive parts of the given sizes as slices of the vertex axis."""
    spans, start = [], 0
    for size in sizes:
        spans.append(slice(start, start + size))
        start += size
    return spans


def _blank(n: int, c: int) -> np.ndarray:
    check_size(n, c)
    return np.zeros((c, n, n), dtype=bool)


def _finish(layers: np.ndarray) -> ColoredDigraph:
    """Clear the diagonal of every layer (block fills include loops); the
    graph adopts the array, whose size ``_blank`` checked, with no copy."""
    c, n, _ = layers.shape
    layers[:, np.arange(n), np.arange(n)] = False
    return ColoredDigraph._adopt(n, c, layers)


def bipartite_double(n: int, c: int) -> ColoredDigraph:
    if c < 1:
        raise GraphInputError("bipartite_double needs c >= 1")
    layers = _blank(n, c)
    a, b = _spans(_part_sizes(n, 2))
    layers[:, a, b] = True
    layers[:, b, a] = True
    return _finish(layers)


def directed3(n: int) -> ColoredDigraph:
    layers = _blank(n, 3)
    parts = _spans(_part_sizes(n, 3))
    for i, part in enumerate(parts):  # part Ai+1 is complete in colors != i+1
        for color in range(1, 4):
            if color != i + 1:
                layers[color - 1, part, part] = True
    for i in range(3):  # forward single edges in every color
        for j in range(i + 1, 3):
            layers[:, parts[i], parts[j]] = True
    return _finish(layers)


def transitive3(n: int) -> ColoredDigraph:
    a = small_set_size(n)
    if n - 2 * a < 0:
        raise GraphInputError(f"n={n} too small for the three-set split")
    # largest set last; designated inner colors per set
    layers = _blank(n, 3)
    sets = _spans([a, a, n - 2 * a])
    inner_colors = [(2, 3), (3, 1), (1, 2)]  # large set misses color 3
    for part, colors in zip(sets, inner_colors):
        for color in colors:
            layers[color - 1, part, part] = True
    for i in range(3):  # all cross pairs double in the missing color 3
        for j in range(i + 1, 3):
            layers[2, sets[i], sets[j]] = True
            layers[2, sets[j], sets[i]] = True
    return _finish(layers)


def oriented_cyclic(n: int, c: int) -> ColoredDigraph:
    if c < 1:
        raise GraphInputError("oriented_cyclic needs c >= 1")
    layers = _blank(n, c)
    parts = _spans(_part_sizes(n, 3))
    for i in range(3):
        layers[:, parts[i], parts[(i + 1) % 3]] = True
    return _finish(layers)


def two_color_heavy(n: int) -> ColoredDigraph:
    layers = _blank(n, 3)
    layers[:2] = True
    return _finish(layers)


# one row per family: its generator, its default color count where the family
# takes one (None: c = 3 only) and the rainbow pattern(s) it is built to avoid
_D, _T = TrianglePattern.DIRECTED, TrianglePattern.TRANSITIVE
_FAMILIES = {
    ConstructionId.BIPARTITE_DOUBLE: (bipartite_double, 4, (_D, _T)),
    ConstructionId.DIRECTED3: (directed3, None, (_D,)),
    ConstructionId.TRANSITIVE3: (transitive3, None, (_T,)),
    ConstructionId.ORIENTED_CYCLIC: (oriented_cyclic, 3, (_T,)),
    ConstructionId.TWO_COLOR_HEAVY: (two_color_heavy, None, (_D,)),
}

AVOIDED_PATTERNS = {cid: avoids for cid, (_, _, avoids) in _FAMILIES.items()}


def build_construction(cid: ConstructionId | str, n: int, c: int | None = None) -> ColoredDigraph:
    cid = ConstructionId(cid)
    generator, default_c, _ = _FAMILIES[cid]
    if default_c is not None:
        return generator(n, default_c if c is None else c)
    if c is not None and c != 3:
        raise GraphInputError(f"{cid.value} is defined for c = 3 only")
    return generator(n)


def expected_count(cid: ConstructionId | str, n: int, color: int) -> int:
    """Exact per-color edge count the generator realizes, from part sizes."""
    cid = ConstructionId(cid)
    if cid is ConstructionId.BIPARTITE_DOUBLE:
        return 2 * (n // 2) * ((n + 1) // 2)
    if cid is ConstructionId.DIRECTED3:
        m = _part_sizes(n, 3)
        inner = sum(m[j] * (m[j] - 1) for j in range(3) if j + 1 != color)
        cross = m[0] * m[1] + m[0] * m[2] + m[1] * m[2]
        return inner + cross
    if cid is ConstructionId.TRANSITIVE3:
        a = small_set_size(n)
        b = n - 2 * a
        if color in (1, 2):
            return b * (b - 1) + a * (a - 1)
        return 2 * a * (a - 1) + 4 * a * b + 2 * a * a
    if cid is ConstructionId.ORIENTED_CYCLIC:
        m = _part_sizes(n, 3)
        return m[0] * m[1] + m[1] * m[2] + m[2] * m[0]
    # two_color_heavy
    return n * (n - 1) if color in (1, 2) else 0
