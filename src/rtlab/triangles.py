"""Rainbow triangle detection in colored directed graphs.

Two triangle shapes matter here.  On an ordered vertex triple (u, v, w):

    directed triangle    edges u->v, v->w, w->u   (a 3-cycle)
    transitive triangle  edges u->v, v->w, u->w   (u dominates)

A copy is *rainbow* when its three edges can be drawn from three pairwise
distinct color layers.  Finding and counting share one kernel in the style
of Itai and Rodeh ("Finding a minimum circuit in a graph", 1978).  With A_k
the layers, S their sum and C_k the closing slot (A_k transposed for
directed triangles, A_k for transitive ones), the number of rainbow
(v, colors) completions of the pair (u, w) is

    K = sum_k C_k * ((S - A_k) @ (S - A_k) + A_k @ A_k - sum_i A_i @ A_i)

by inclusion-exclusion: for closing color k, the first two slots take any
colors other than k, less the pairs of equal colors other than k.  That is
2c matrix products and O(c * n**2) memory, never an n**3 tensor.  Counting
sums K.  Finding takes the first row u of K with a nonzero entry, which is
the witness's u, and evaluates the same formula for that row alone, with
outer products in place of matrix products, which gives the
lexicographically first (v, w); only the color assignment of that one
triple is searched in Python.  With more than 3n(n-1) colors, finding
runs the kernel only on the three lowest colors of each ordered pair,
which decide the same triples (see ``_first_three_colors``).

The products run in float64 and the total is summed in int64.  Under
``graphs.MAX_CELLS`` every matrix product entry is at most c**2 * n <= 2**52,
and with fewer than 2**16 colors every entry of K (at most c**3 * n) stays
below 2**53, so all counts are exact; ``count_rainbow`` rejects more colors.

Copy identification for counting: a directed triangle is identified up to
rotation of (u, v, w) — the cycle (u, v, w) equals (v, w, u) — while a
transitive triangle is identified by its role-labeled triple (source, middle,
sink).  Color assignments are counted separately in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import permutations

import numpy as np

from .graphs import ColoredDigraph, GraphInputError

__all__ = [
    "TrianglePattern",
    "RainbowWitness",
    "pattern_edges",
    "find_rainbow",
    "count_rainbow",
    "sdr_exists",
    "rainbow_free_check",
    "witness_is_valid",
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


def _set_bits(m: int):
    """The 1-based positions of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length()
        m ^= low


def _lex_least_assignment(m1: int, m2: int, m3: int):
    """Lexicographically least (c1, c2, c3), pairwise distinct, with bit
    c_k - 1 set in m_k; None if no such assignment exists.

    When an assignment exists, Hall's condition lets at most two choices of
    c1, and then one of c2, fail, so the loops take a handful of steps
    however many colors the masks hold."""
    for c1 in _set_bits(m1):
        for c2 in _set_bits(m2 & ~(1 << (c1 - 1))):
            rest = m3 & ~(1 << (c1 - 1)) & ~(1 << (c2 - 1))
            if rest:
                return (c1, c2, (rest & -rest).bit_length())
    return None


def _rainbow_counts(first, first_others, mid, mid_others, close, mul) -> np.ndarray:
    """Sum over pairwise distinct colors (i, j, k) of
    ``mul(first[i], mid[j]) * close[k]``, by inclusion-exclusion.

    ``first_others[k]`` is the sum of ``first`` over the colors other than
    k, and likewise ``mid_others``.  For a closing color k, the pairs (i, j)
    that avoid k are ``mul(first_others[k], mid_others[k])`` less the pairs
    with i == j != k.  ``mul`` contracts the first slot with the middle one:
    the matrix product over v for the whole graph, or the outer product for
    a single row u, which keeps v as an axis.
    """
    same = mul(first, mid)  # color i on both of the first two slots
    counts = mul(first_others, mid_others)
    counts += same
    counts -= np.add.reduce(same)
    counts *= close
    return np.add.reduce(counts)


def _outer(first, mid):
    return first[..., None] * mid


def _slot_layers(layers: np.ndarray, pattern: TrianglePattern):
    """Float64 layers, the sum of the other layers for each color, and the
    layers of the closing slot."""
    layers = layers.astype(np.float64)
    others = np.add.reduce(layers) - layers
    close = layers.transpose(0, 2, 1) if pattern is TrianglePattern.DIRECTED else layers
    return layers, others, close


def _first_three_colors(layers: np.ndarray) -> np.ndarray:
    """Indices, in increasing order, of the layers that hold one of the three
    lowest colors of some ordered pair.

    Three slots have a rainbow assignment from their color sets exactly when
    they have one from these colors alone: by Hall's condition, a slot with
    three colors left can always take the last free one, and a slot with
    fewer keeps all of them.  So these layers hold a rainbow copy on the same
    triples as the whole graph, in at most 3n(n-1) layers."""
    rest = layers.copy()
    u, v = np.indices(layers.shape[1:])
    kept = []
    for _ in range(3):
        lowest = rest.argmax(axis=0)  # the lowest color left on each pair, or 0
        present = rest[lowest, u, v]
        kept.append(lowest[present])
        rest[lowest, u, v] = False
    return np.unique(np.concatenate(kept))


def find_rainbow(g: ColoredDigraph, pattern: TrianglePattern) -> RainbowWitness | None:
    """First rainbow copy of the pattern in lexicographic (u, v, w, colors)
    order, or None when the graph is pattern-free."""
    if g.n < 3 or g.c < 3:
        return None
    layers = g.layers
    if g.c > 3 * g.n * (g.n - 1):
        layers = layers[_first_three_colors(layers)]
    layers, others, close = _slot_layers(layers, pattern)
    rows, _ = _rainbow_counts(layers, others, layers, others, close, np.matmul).nonzero()
    if not rows.size:
        return None
    u = int(rows[0])
    row = _rainbow_counts(layers[:, u], others[:, u], layers, others, close[:, u, None], _outer)
    vs, ws = row.nonzero()  # in row-major order, so the first is the least (v, w)
    v, w = int(vs[0]), int(ws[0])
    slots = pattern_edges(pattern, u, v, w)
    slot_colors = g.layers[:, [a for a, _ in slots], [b for _, b in slots]]
    packed = np.packbits(slot_colors, axis=0, bitorder="little")  # bit i: color i + 1
    masks = [int.from_bytes(packed[:, k].tobytes(), "little") for k in range(3)]
    colors = _lex_least_assignment(*masks)
    edges = tuple((colors[k], slots[k][0], slots[k][1]) for k in range(3))
    return RainbowWitness(pattern, (u, v, w), edges)


def count_rainbow(g: ColoredDigraph, pattern: TrianglePattern) -> int:
    """Number of rainbow copies; directed copies counted up to rotation of
    the triple, transitive copies per role-labeled triple, and distinct
    color assignments counted separately in both cases."""
    if g.c >= 1 << 16:
        raise GraphInputError(f"count_rainbow is exact only below 2**16 colors, got c={g.c}")
    if g.n < 3 or g.c < 3:
        return 0
    layers, others, close = _slot_layers(g.layers, pattern)
    counts = _rainbow_counts(layers, others, layers, others, close, np.matmul)
    total = int(counts.sum(dtype=np.int64))
    # the kernel sees a directed cycle once from each of its three vertices
    return total // 3 if pattern is TrianglePattern.DIRECTED else total


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

