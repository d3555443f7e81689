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
colors other than k, less the pairs of equal colors other than k.  The
bracket does not depend on the closing slot, so one pass of 2c matrix
products (three float64 (c, n, n) arrays, never an n**3 tensor) serves
both shapes, each then one einsum over k on the bool layers.  Counting
sums K.  Finding takes the first row u of K with a nonzero entry and that
row's nonzero columns, the w of every copy on u.  It walks (v, w) in
row-major order over Python-int color masks of those columns (one packbits,
bit i for color i + 1) to the first whose slots pass Hall's test, the one
``rainbow_free_check`` uses (at most (n - 1)(n - 2) O(1) tests, against 2c
products of size n**3), and ``_lex_least_assignment`` colors it.  With
more than 3n(n-1) colors, finding runs on the graph of the layers that hold
one of the three lowest colors of some ordered pair, which has the same
first copy and the same least coloring (``_first_three_colors``), and
names the colors of the whole graph.

Graphs of at most ``TABLE_MAX_N`` vertices and at most four colors take the
table pass instead, one lookup per ordered triple.  One packbits makes each
ordered pair a byte (bit i for color i + 1); a cached (2, T, 3) array of
flat cell indices gathers the three slot masks of both shapes on every
triple, in lexicographic order; and ``_ASSIGNMENTS``, indexed by the three
4-bit masks, gives the number of pairwise distinct color assignments,
|x||y||z| - |x&y||z| - |x&z||y| - |y&z||x| + 2|x&y&z| by inclusion-exclusion,
nonzero exactly when Hall's condition holds.  The sum of a shape's entries
is its total, and its first nonzero entry is the first copy with its slot
masks, so finding needs no scan.  An entry is at most 4 * 3 * 2, a total at
most 24 * 720, so every sum is exact.  ``TABLE_MAX_N`` is the measured
crossover: in two timeit runs over random c = 3 and c = 4 graphs (2-vCPU
Xeon, numpy 2.4) the table pass took 9-42 us for n = 3..10, against 21-43
us for the kernel pass (within 1 us of it at n = 10), and was slower for
every n from 11 on, as its T = n(n-1)(n-2) lookups grow where the kernel's
cost barely moves at these sizes.

Either pass fills a slot per shape (True for directed, False for
transitive) with the same four fields, ``(u, ws, total, copy)``: ``total``
is the sum of K, the number of rainbow (triple, colors) pairs, each
directed cycle seen from its three vertices; ``copy`` is the first copy as
((u, v, w), slot masks) when the pass has read it (the table pass), else
None; ``u`` and ``ws``, read only when ``copy`` is None, are the first row
of K with a nonzero entry and that row's nonzero columns, (None, ()) when
the total is 0.  The first pass over a graph's own layers fills both slots
and is memoised on the graph (a value object with its own read-only
layers), so finding and counting both patterns run one pass; a many-colors
find memoises on its graph of the kept layers, never on the whole graph.

Every count is exact.  Under ``graphs.MAX_CELLS`` each product entry is at
most c**2 * n <= 2**52.  The bracket counts (v, i, j) and K counts
(v, i, j, k), at most n * c**3 <= 2**13 * c**2.5 < 2**53 for c < 2**16
(``count_rainbow`` rejects more colors); the einsum's terms are
nonnegative, so each of its partial sums is exact too, in any order.  The
sum of K can pass 2**53 (n = 32, c = 2**16 - 1) and is taken in int64.

Copy identification for counting: a directed triangle is identified up to
rotation of (u, v, w) — the cycle (u, v, w) equals (v, w, u) — while a
transitive triangle is identified by its role-labeled triple (source, middle,
sink).  Color assignments are counted separately in both cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import permutations

import numpy as np

from .graphs import ColoredDigraph, GraphInputError

__all__ = [
    "COUNT_COLOR_LIMIT",
    "TrianglePattern",
    "RainbowWitness",
    "pattern_edges",
    "find_rainbow",
    "count_rainbow",
    "rainbow_free_check",
    "witness_is_valid",
]

# count_rainbow's sums are exact in float64 below this many colors (see above)
COUNT_COLOR_LIMIT = 1 << 16


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


def rainbow_free_check(m, pattern: TrianglePattern, a: int, b: int, c: int):
    """A closure answering "does the triple {a, b, c} hold no rainbow copy
    of the pattern?" against the live mask matrix ``m``.

    ``m[u][v]`` is the bitmask of colors carrying the edge u -> v (bit i-1
    for color i).  The closure takes the rows ``m[a]``, ``m[b]`` and
    ``m[c]`` once, when it is built, and reads their entries on every call:
    callers mutate ``m[u][v]`` in place between calls and never rebind a
    row.  It tests every copy of the pattern on the triple: both
    orientations of a directed cycle, or all six role assignments of a
    transitive triangle, over the six slot masks read once.

    A copy is rainbow when its three slot masks x, y, z admit pairwise
    distinct representatives.  By Hall's condition for three sets that is:
    each mask nonempty, each union of two masks at least 2 colors, the union
    of all three at least 3; so no color assignment is enumerated.
    """
    ra, rb, rc = m[a], m[b], m[c]
    if pattern is TrianglePattern.DIRECTED:

        def check() -> bool:  # the cycles a->b->c->a and a->c->b->a
            return not (
                _admits_rainbow(ra[b], rb[c], rc[a]) or _admits_rainbow(ra[c], rc[b], rb[a])
            )

        return check

    def check() -> bool:  # source -> middle, middle -> sink, source -> sink
        ab, ba, ac, ca, bc, cb = ra[b], rb[a], ra[c], rc[a], rb[c], rc[b]
        return not (
            _admits_rainbow(ab, bc, ac) or _admits_rainbow(ac, cb, ab)
            or _admits_rainbow(ba, ac, bc) or _admits_rainbow(bc, ca, ba)
            or _admits_rainbow(ca, ab, cb) or _admits_rainbow(cb, ba, ca)
        )

    return check


def _admits_rainbow(x: int, y: int, z: int) -> bool:
    """Hall's condition: three slots with color masks x, y, z take distinct colors."""
    if x and y and z and (x | y).bit_count() > 1 and (x | z).bit_count() > 1:
        return (y | z).bit_count() > 1 and (x | y | z).bit_count() > 2
    return False


def _lex_least_assignment(m1: int, m2: int, m3: int):
    """Lexicographically least (c1, c2, c3), pairwise distinct, with bit
    c_k - 1 set in m_k; None if no such assignment exists.

    When an assignment exists, Hall's condition lets at most two choices of
    c1, and then one of c2, fail, so the loops take a handful of steps
    however many colors the masks hold."""
    while m1:
        b1 = m1 & -m1  # the lowest color left in m1, as a bit
        rest2 = m2 & ~b1
        while rest2:
            b2 = rest2 & -rest2
            rest3 = m3 & ~b1 & ~b2
            if rest3:
                return b1.bit_length(), b2.bit_length(), (rest3 & -rest3).bit_length()
            rest2 ^= b2
        m1 ^= b1
    return None


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


def _kernel_pass(layers: np.ndarray) -> dict:
    """One kernel pass over ``layers``: for each closing slot (True for
    directed triangles, False for transitive ones), the first row
    u of K with a nonzero entry, the columns w of that row's nonzero entries,
    the sum of K in int64 and no copy; (None, (), 0, None) if K is zero."""
    pairs = layers.astype(np.float64)
    same = pairs @ pairs  # color i on both of the first two slots
    np.subtract(np.add.reduce(pairs), pairs, out=pairs)  # now the layers other than k, summed
    counts = pairs @ pairs
    del pairs  # so the peak stays that of the product above
    counts += same
    counts -= np.add.reduce(same)
    out = {}
    for directed in (True, False):
        # the closing slot is read as bool, so no float (c, n, n) array is made
        k = np.einsum("kuw,kwu->uw" if directed else "kuw,kuw->uw", counts, layers)
        total = int(k.sum(dtype=np.int64))
        if not total:  # K counts completions, so every entry is >= 0
            out[directed] = None, (), 0, None
        else:
            u = int(k.nonzero()[0][0])
            out[directed] = u, k[u].nonzero()[0], total, None
    return out


def _assignment_counts() -> np.ndarray:
    """For three slot masks x, y, z of at most four colors each, the number of
    pairwise distinct color assignments, at index x | y << 4 | z << 8.

    By inclusion-exclusion over the three ways two slots can share a color:
    |x||y||z| - |x&y||z| - |x&z||y| - |y&z||x| + 2|x&y&z|.  An entry is
    nonzero exactly when Hall's condition holds, and is at most 4 * 3 * 2."""
    size = np.array([m.bit_count() for m in range(16)], dtype=np.int16)
    x = np.arange(16)
    y, z = x[:, None], x[:, None, None]  # broadcast to the (z, y, x) grid
    sx, sy, sz = size[x], size[y], size[z]
    counts = sx * sy * sz - size[x & y] * sz - size[x & z] * sy - size[y & z] * sx
    return (counts + 2 * size[x & y & z]).ravel()


_ASSIGNMENTS = _assignment_counts()
_FIELDS = np.array([1, 1 << 4, 1 << 8], dtype=np.int16)  # x, y, z to a table index
# graphs of at most this many vertices (and four colors) take the table pass
TABLE_MAX_N = 10


@cache
def _triple_cells(n: int):
    """The ordered triples of range(n) in lexicographic order, and a (2, T, 3)
    array of the flat cells u * n + v of their three slots: directed copies
    first, transitive ones second."""
    triples = list(permutations(range(n), 3))
    cells = [
        [[a * n + b for a, b in pattern_edges(pattern, *t)] for t in triples]
        for pattern in (TrianglePattern.DIRECTED, TrianglePattern.TRANSITIVE)
    ]
    return triples, np.array(cells, dtype=np.intp)


def _table_pass(layers: np.ndarray) -> dict:
    """Both slots of the memo for at most four layers, from one lookup of
    ``_ASSIGNMENTS`` per ordered triple and shape."""
    triples, slots = _triple_cells(layers.shape[1])
    cells = np.packbits(layers, axis=0, bitorder="little").ravel()  # one byte per pair
    masks = cells.take(slots)
    counts = _ASSIGNMENTS.take(masks @ _FIELDS)
    totals, firsts = counts.sum(axis=1).tolist(), counts.astype(bool).argmax(axis=1).tolist()
    out = {}
    for s, directed in enumerate((True, False)):
        if not totals[s]:
            out[directed] = None, (), 0, None
        else:
            t = triples[firsts[s]]
            out[directed] = t[0], (), totals[s], (t, masks[s, firsts[s]].tolist())
    return out


def _graph_pass(g: ColoredDigraph) -> dict:
    """Both slots of g's memo from one pass, chosen by g.n and g.c alone: the
    table pass when n <= TABLE_MAX_N and c <= 4, the kernel pass otherwise."""
    if g.n <= TABLE_MAX_N and g.c <= 4:
        return _table_pass(g.layers)
    return _kernel_pass(g.layers)


def _memo_slot(g: ColoredDigraph, pattern: TrianglePattern):
    """The pattern's slot of g's memo; the first call fills both slots."""
    memo = g._rainbow_memo
    if not memo:
        memo.update(_graph_pass(g))
    return memo[pattern is TrianglePattern.DIRECTED]


def _masks(cells: np.ndarray) -> list[int]:
    """The Python-int color masks of an (m, bytes) array of packed cells."""
    if cells.shape[1] == 1:
        return cells[:, 0].tolist()
    width, blob = cells.shape[1], cells.tobytes()  # the cells one after another
    return [int.from_bytes(blob[i : i + width], "little") for i in range(0, len(blob), width)]


def _witness(pattern: TrianglePattern, vertices, masks) -> RainbowWitness:
    """The copy of the pattern on ``vertices`` whose slots have color masks
    ``masks``, colored by the lexicographically least assignment."""
    (a1, b1), (a2, b2), (a3, b3) = pattern_edges(pattern, *vertices)
    c1, c2, c3 = _lex_least_assignment(*masks)
    return RainbowWitness(pattern, vertices, ((c1, a1, b1), (c2, a2, b2), (c3, a3, b3)))


def find_rainbow(g: ColoredDigraph, pattern: TrianglePattern) -> RainbowWitness | None:
    """First rainbow copy of the pattern in lexicographic (u, v, w, colors)
    order, or None when the graph is pattern-free."""
    if g.n < 3 or g.c < 3:
        return None
    if g.c > 3 * g.n * (g.n - 1):
        # the graph on the kept layers has the same first copy, and its least
        # assignment names the same colors (each is among its slot's lowest three)
        kept = _first_three_colors(g.layers)
        witness = find_rainbow(ColoredDigraph._adopt(g.n, len(kept), g.layers[kept]), pattern)
        if witness is None:
            return None
        edges = tuple((int(kept[color - 1]) + 1, a, b) for color, a, b in witness.edges)
        return RainbowWitness(pattern, witness.vertices, edges)
    u, ws, _, copy = _memo_slot(g, pattern)
    if copy is not None:  # the table pass has read the first copy already
        return _witness(pattern, *copy)
    if u is None:
        return None
    # cells[a, b]: the colors of the edge a -> b, bit i for color i + 1
    cells = np.packbits(g.layers, axis=0, bitorder="little").transpose(1, 2, 0)
    first = _masks(cells[u])
    close = _masks(cells[:, u]) if pattern is TrianglePattern.DIRECTED else first
    to_ws, ws = cells.take(ws, axis=1), ws.tolist()  # only the columns w of a copy on u are read
    for v, x in enumerate(first):
        if not x:
            continue
        for w, y in zip(ws, _masks(to_ws[v])):
            if _admits_rainbow(x, y, z := close[w]):
                return _witness(pattern, (u, v, w), (x, y, z))
    raise AssertionError(f"row {u} of K is nonzero, yet no (v, w) completes it")


def count_rainbow(g: ColoredDigraph, pattern: TrianglePattern) -> int:
    """Number of rainbow copies; directed copies counted up to rotation of
    the triple, transitive copies per role-labeled triple, and distinct
    color assignments counted separately in both cases."""
    if g.c >= COUNT_COLOR_LIMIT:
        raise GraphInputError(
            f"count_rainbow is exact only below COUNT_COLOR_LIMIT = 2**16 colors, got c={g.c}"
        )
    if g.n < 3 or g.c < 3:
        return 0
    _, _, total, _ = _memo_slot(g, pattern)
    # the pass sees a directed cycle once from each of its three vertices
    return total // 3 if pattern is TrianglePattern.DIRECTED else total


def witness_is_valid(g: ColoredDigraph, witness: RainbowWitness) -> bool:
    """Re-check a witness against the graph, independently of the finder."""
    u, v, w = witness.vertices
    if len({u, v, w}) != 3:
        return False
    n, c, layers = g.n, g.c, g.layers
    if not (0 <= u < n and 0 <= v < n and 0 <= w < n):
        return False
    expected = pattern_edges(witness.pattern, u, v, w)
    if len(witness.edges) != 3:
        return False
    colors = []
    for (color, a, b), slot in zip(witness.edges, expected):
        if (a, b) != slot:
            return False
        # plain ints are read at once (a and b equal range-checked vertices);
        # every other value takes has_edge's checks, which decide or raise
        if type(color) is int and type(a) is int and type(b) is int and 0 < color <= c:
            if not layers[color - 1, a, b]:
                return False
        elif not 1 <= color <= c or not g.has_edge(color, a, b):
            return False
        colors.append(color)
    return len(set(colors)) == 3

