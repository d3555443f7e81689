"""Rainbow triangle detection in colored directed graphs.

Two triangle shapes matter here.  On an ordered vertex triple (u, v, w):

    directed triangle    edges u->v, v->w, w->u   (a 3-cycle)
    transitive triangle  edges u->v, v->w, u->w   (u dominates)

A copy is *rainbow* when its three edges can be drawn from three pairwise
distinct color layers.  Detection iterates ordered vertex triples and, for
each, the available color assignments; the only precomputation is a per-
ordered-pair bitmask of the colors carrying that edge, so a triple check is
three lookups plus a small distinct-representatives search.

Copy identification for counting: a directed triangle is identified up to
rotation of (u, v, w) — the cycle (u, v, w) equals (v, w, u) — while a
transitive triangle is identified by its role-labeled triple (source, middle,
sink).  Color assignments are counted separately in both cases.

The auxiliary digraph built by ``heavy_pair_digraph`` connects u -> v when
the pair carries c+1 edges of which at least 3 leave u; it is the bookkeeping
device used when all color layers are dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np

from .graphs import ColoredDigraph

__all__ = [
    "TrianglePattern",
    "RainbowWitness",
    "pattern_edges",
    "find_rainbow",
    "count_rainbow",
    "sdr_exists",
    "rainbow_free_check",
    "witness_is_valid",
    "heavy_pair_digraph",
]


class TrianglePattern(str, Enum):
    DIRECTED = "directed"
    TRANSITIVE = "transitive"


@dataclass(frozen=True)
class RainbowWitness:
    """A concrete rainbow triangle: vertex triple plus its 3 colored edges."""

    pattern: TrianglePattern
    vertices: tuple[int, int, int]
    edges: tuple[tuple[int, int, int], ...]  # ((color, src, dst), ...) x3

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern.value,
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
        }


def pattern_edges(pattern: TrianglePattern, u: int, v: int, w: int):
    """The three ordered edge slots of the pattern on triple (u, v, w)."""
    if pattern is TrianglePattern.DIRECTED:
        return ((u, v), (v, w), (w, u))
    return ((u, v), (v, w), (u, w))


def _color_masks(g: ColoredDigraph) -> np.ndarray:
    """n x n int array: bit i-1 set when edge (a, b) exists in color i."""
    masks = np.zeros((g.n, g.n), dtype=np.int64)
    for i in range(g.c):
        masks |= g.layers[i].astype(np.int64) << i
    return masks


def sdr_exists(m1: int, m2: int, m3: int) -> bool:
    """Whether three color bitmasks admit pairwise-distinct representatives.

    This is Hall's condition for three sets: each mask nonempty, each union
    of two masks at least 2 colors, the union of all three at least 3.  It
    answers "can these three edge slots be colored rainbow?" without
    enumerating assignments.
    """
    if not (m1 and m2 and m3):
        return False
    if (
        (m1 | m2).bit_count() < 2
        or (m1 | m3).bit_count() < 2
        or (m2 | m3).bit_count() < 2
    ):
        return False
    return (m1 | m2 | m3).bit_count() >= 3


def rainbow_free_check(m, pattern: TrianglePattern, a: int, b: int, c: int):
    """A closure answering "does the triple {a, b, c} hold no rainbow copy
    of the pattern?" against the live mask matrix ``m``.

    ``m[u][v]`` is the bitmask of colors carrying the edge u -> v (bit i-1
    for color i).  The closure reads ``m`` on every call, so callers mutate
    it in place between calls.  It tests every copy of the pattern on the
    triple: both orientations of a directed cycle, or all six role
    assignments of a transitive triangle.
    """
    if pattern is TrianglePattern.DIRECTED:
        orders = ((a, b, c), (a, c, b))
    else:
        orders = tuple(permutations((a, b, c)))
    copies = tuple(pattern_edges(pattern, *order) for order in orders)

    def check() -> bool:
        for (p, q), (r, s), (t, u) in copies:
            if sdr_exists(m[p][q], m[r][s], m[t][u]):
                return False
        return True

    return check


def _lex_least_assignment(m1: int, m2: int, m3: int, c: int):
    """Lexicographically least (c1, c2, c3), pairwise distinct, with bit
    c_k - 1 set in m_k; None if no such assignment exists."""
    for c1 in range(1, c + 1):
        if not m1 >> (c1 - 1) & 1:
            continue
        for c2 in range(1, c + 1):
            if c2 == c1 or not m2 >> (c2 - 1) & 1:
                continue
            rest = m3 & ~(1 << (c1 - 1)) & ~(1 << (c2 - 1))
            if rest:
                c3 = (rest & -rest).bit_length()  # lowest set bit, 1-based
                return (c1, c2, c3)
    return None


def _count_assignments(m1: int, m2: int, m3: int, c: int) -> int:
    total = 0
    for c1 in range(1, c + 1):
        if not m1 >> (c1 - 1) & 1:
            continue
        for c2 in range(1, c + 1):
            if c2 == c1 or not m2 >> (c2 - 1) & 1:
                continue
            rest = m3 & ~(1 << (c1 - 1)) & ~(1 << (c2 - 1))
            total += rest.bit_count()
    return total


def find_rainbow(g: ColoredDigraph, pattern: TrianglePattern) -> RainbowWitness | None:
    """First rainbow copy of the pattern in lexicographic (u, v, w, colors)
    order, or None when the graph is pattern-free."""
    if g.n < 3 or g.c < 3:
        return None
    masks = _color_masks(g)
    for u, v, w in permutations(range(g.n), 3):
        slots = pattern_edges(pattern, u, v, w)
        m = [int(masks[a, b]) for a, b in slots]
        if not (m[0] and m[1] and m[2]):
            continue
        colors = _lex_least_assignment(m[0], m[1], m[2], g.c)
        if colors is not None:
            edges = tuple(
                (colors[k], slots[k][0], slots[k][1]) for k in range(3)
            )
            return RainbowWitness(pattern, (u, v, w), edges)
    return None


def count_rainbow(g: ColoredDigraph, pattern: TrianglePattern) -> int:
    """Number of rainbow copies; directed copies counted up to rotation of
    the triple, transitive copies per role-labeled triple, and distinct
    color assignments counted separately in both cases."""
    if g.n < 3 or g.c < 3:
        return 0
    masks = _color_masks(g)
    total = 0
    for u, v, w in permutations(range(g.n), 3):
        if pattern is TrianglePattern.DIRECTED and u != min(u, v, w):
            continue  # rotation representative: cycle listed from its least vertex
        slots = pattern_edges(pattern, u, v, w)
        m1 = int(masks[slots[0][0], slots[0][1]])
        m2 = int(masks[slots[1][0], slots[1][1]])
        m3 = int(masks[slots[2][0], slots[2][1]])
        if m1 and m2 and m3:
            total += _count_assignments(m1, m2, m3, g.c)
    return total


def witness_is_valid(g: ColoredDigraph, witness: RainbowWitness) -> bool:
    """Re-check a witness against the graph, independently of the finder."""
    u, v, w = witness.vertices
    if len({u, v, w}) != 3:
        return False
    if any(not 0 <= x < g.n for x in (u, v, w)):
        return False
    expected = pattern_edges(witness.pattern, u, v, w)
    if len(witness.edges) != 3:
        return False
    colors = []
    for (color, a, b), slot in zip(witness.edges, expected):
        if (a, b) != slot:
            return False
        if not 1 <= color <= g.c or not g.has_edge(color, a, b):
            return False
        colors.append(color)
    return len(set(colors)) == 3


def heavy_pair_digraph(g: ColoredDigraph) -> np.ndarray:
    """Boolean n x n matrix H with H[u, v] = True iff the pair {u, v} carries
    exactly c+1 edges in total and at least 3 of them go from u to v.

    For c = 4 a pair has 5 edges, so at most one of H[u, v], H[v, u] can
    hold; from c = 5 on both directions are arithmetically possible.
    """
    if g.n == 0:
        return np.zeros((0, 0), dtype=bool)
    fwd = g.layers.sum(axis=0, dtype=np.int64)  # edges u -> v over all colors
    pair_total = fwd + fwd.T
    h = (pair_total == g.c + 1) & (fwd >= 3)
    np.fill_diagonal(h, False)
    return h
