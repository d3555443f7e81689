"""Colored directed graphs on a shared vertex set.

A *colored digraph* is a tuple (G_1, ..., G_c) of simple directed graphs on
the common vertex set {0, ..., n-1}.  We picture layer i as the set of edges
drawn in color i.  Between an unordered pair of vertices {u, v} a single layer
can hold zero, one, or two edges; two edges (u -> v and v -> u in the same
color) form a *double edge* in that color, so a pair carries up to 2c edges in
total.  A colored digraph is *oriented* when no layer contains a double edge.

Counting conventions used throughout:

    e_i(G)      -- number of edges in layer i                  (count_color)
    e_i(U, V)   -- edges of color i with one endpoint in U and
                   the other in V, each present ordered pair
                   counted once even when U and V overlap      (count_between)

Graphs are value objects: build them from an edge list with ``from_edges``
or from a bool layer array, after which the array is frozen.  All query
functions are read-only.  Colors are 1-based (matching the interchange
format); vertices are 0-based.

Interchange format (JSON)::

    {"n": 5, "c": 3, "edges": [[color, from, to], ...]}

with edges deduplicated and sorted lexicographically by (color, from, to),
so serializing the same graph always yields byte-identical output: the
text of ``json.dumps(..., separators=(",", ":"))``.  Dumping writes that
text straight from the edge array, with no Python object per edge: each
edge is three fixed-width byte cells (``[color,``, ``from,`` and ``to],``,
taken from token tables of the vertices and of the colors in use) padded
with zero bytes, which one ``bytes.translate`` of the cell bytes drops.

Loading first reads every run of ASCII digits in the text as a number (n,
c, then three per edge), range-checks the numbers as one array, builds the
graph and dumps it again.  It returns that graph only if the dump equals
the text byte for byte, or the text is the dump and one newline, as
``save_graph`` writes it.  Such text is JSON, and ``json.loads`` would
have read exactly these edges from it.  Any other text goes to
``json.loads``, which checks the object, and its edge list to
``from_edges``, which checks the entries one by one and names the first bad
one; that route is the only source of error messages.  The walk accepts a
list or tuple of three in-range plain ints at once and sends every other
entry (an ``EdgeRef``, a numpy integer, a bool, a bad entry) through the
checks.  It costs about 0.3 us per plain entry: on a 2-vCPU Xeon the 598,800
edges of ``directed3(600)`` take 0.16-0.26 s, and loading that graph from
non-canonical text 0.8-1.1 s.

A graph keeps its ``graph_digest`` once known: the canonical load hashes
the text it has just checked and ``save_graph`` the bytes it writes, so a
load or a save and then the digest render the text once.  Layers are
frozen, so the digest cannot go stale.  ``dumps_graph`` does not hash.

A graph's n, c and layer cells (c * n**2) are each at most ``MAX_CELLS``;
larger sizes are rejected before anything is allocated.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "MAX_CELLS",
    "GraphInputError",
    "check_size",
    "EdgeRef",
    "PairProfile",
    "ColoredDigraph",
    "count_color",
    "count_between",
    "classify_pair",
    "is_oriented",
    "dumps_graph",
    "loads_graph",
    "save_graph",
    "load_graph",
    "graph_digest",
]


# Cap on c * n**2, the cells of a layer array: 2**26 admits n = 3000 at
# c = 4 and bounds a graph at 64 MiB.  It also keeps the rainbow kernel of
# ``triangles`` exact: its float64 matmul entries are at most c**2 * n, which
# is at most 2**52 under the cap.
MAX_CELLS = 1 << 26


class GraphInputError(ValueError):
    """Raised for invalid input: a bad vertex, color, loop, size, scenario or
    parameter.  The command line reports it with exit code 2."""


def check_size(n: int, c: int) -> None:
    """Reject sizes that are not ints or are negative, and sizes where n, c
    or the c * n**2 layer cells exceed MAX_CELLS: with n or c zero there are
    no cells, but the other size alone can still be too large for numpy."""
    if type(n) is not int or type(c) is not int:  # a bool is not a size
        raise GraphInputError(f"n and c must be integers, got n={n!r}, c={c!r}")
    if n < 0 or c < 0:
        raise GraphInputError("n and c must be non-negative")
    if n > MAX_CELLS or c > MAX_CELLS or c * n * n > MAX_CELLS:
        raise GraphInputError(
            f"n={n}, c={c} breaks the limit MAX_CELLS = {MAX_CELLS} "
            "on each of n, c and the c*n^2 layer cells"
        )


class EdgeRef(NamedTuple):
    """One directed edge: color (1-based), source vertex, target vertex."""

    color: int
    src: int
    dst: int


class PairProfile(NamedTuple):
    """Per-color summary of the edges between one unordered vertex pair.

    ``counts[i]`` is the number of edges in color i+1 between u and v (0, 1
    or 2); ``singles[i]`` records the orientation of a lone edge as ``"uv"``
    or ``"vu"``, and is None when the color holds zero or two edges.
    """

    counts: tuple[int, ...]
    singles: tuple[str | None, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


def _check_vertex(n: int, v) -> int:
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
        raise GraphInputError(f"vertex must be an integer, got {v!r}")
    if not 0 <= v < n:
        raise GraphInputError(f"vertex {v} out of range for n={n}")
    return int(v)


def _check_color(c: int, color) -> int:
    if not isinstance(color, (int, np.integer)) or isinstance(color, bool):
        raise GraphInputError(f"color must be an integer, got {color!r}")
    if not 1 <= color <= c:
        raise GraphInputError(f"color {color} out of range for c={c}")
    return int(color)


def _set_edge_rows(layers: np.ndarray, rows: np.ndarray) -> bool:
    """Set the edges of an int64 array of [color, from, to] rows at once;
    False, with nothing set, if any row is out of range or a loop."""
    color, src, dst = rows.T
    c, n, _ = layers.shape
    in_range = (color >= 1) & (color <= c) & (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
    if not (in_range & (src != dst)).all():
        return False
    layers[color - 1, src, dst] = True
    return True


class ColoredDigraph:
    """An immutable c-colored directed graph on n vertices."""

    # _rainbow_memo: per-graph results of the rainbow pass, kept by ``triangles``;
    # _digest: ``graph_digest`` once hashed; the hex digest, not the text, is kept
    __slots__ = ("n", "c", "_layers", "_rainbow_memo", "_digest")

    def __init__(self, n: int, c: int, layers: np.ndarray):
        check_size(n, c)
        if layers.shape != (c, n, n) or layers.dtype != bool:
            raise GraphInputError("layer array must be bool with shape (c, n, n)")
        layers = layers.copy()
        if layers.diagonal(0, 1, 2).any():
            raise GraphInputError("loops are not allowed")
        layers.setflags(write=False)
        self.n = n
        self.c = c
        self._layers = layers
        self._rainbow_memo = {}
        self._digest = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, c: int, edges: Iterable) -> "ColoredDigraph":
        """The graph with the given [color, from, to] lists or tuples as edges,
        each set once; GraphInputError names the first bad entry."""
        check_size(n, c)
        layers = np.zeros((c, n, n), dtype=bool)
        for e in edges:
            # accept a plain [color, from, to] of in-range ints at once; every
            # other entry takes the checks below, which word every error
            if (type(e) is list or type(e) is tuple) and len(e) == 3:
                color, u, v = e
                if (
                    type(color) is int and type(u) is int and type(v) is int
                    and 0 < color <= c and 0 <= u < n and 0 <= v < n and u != v
                ):
                    layers[color - 1, u, v] = True
                    continue
            if not (isinstance(e, (list, tuple)) and len(e) == 3):
                raise GraphInputError(f"edge entry {e!r} must be [color, from, to]")
            color, u, v = _check_color(c, e[0]), _check_vertex(n, e[1]), _check_vertex(n, e[2])
            if u == v:
                raise GraphInputError(f"loop at vertex {u} rejected")
            layers[color - 1, u, v] = True
        return cls._adopt(n, c, layers)

    @classmethod
    def _adopt(cls, n: int, c: int, layers: np.ndarray) -> "ColoredDigraph":
        """The graph on a layer array that the caller has just built for it
        and checked: frozen in place, with no second check or copy."""
        layers.setflags(write=False)
        g = object.__new__(cls)
        g.n, g.c, g._layers, g._rainbow_memo, g._digest = n, c, layers, {}, None
        return g

    # -- queries ------------------------------------------------------

    def layer(self, color: int) -> np.ndarray:
        """Read-only adjacency matrix of one color layer."""
        return self._layers[_check_color(self.c, color) - 1]

    @property
    def layers(self) -> np.ndarray:
        return self._layers

    def has_edge(self, color: int, u: int, v: int) -> bool:
        color = _check_color(self.c, color)
        u = _check_vertex(self.n, u)
        v = _check_vertex(self.n, v)
        return bool(self._layers[color - 1, u, v])

    def edges(self) -> list[EdgeRef]:
        """All edges, sorted lexicographically by (color, src, dst)."""
        rows = np.argwhere(self._layers)
        rows[:, 0] += 1
        return [EdgeRef(color, u, v) for color, u, v in rows.tolist()]

    def total_edges(self) -> int:
        return int(self._layers.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredDigraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.c == other.c
            and bool(np.array_equal(self._layers, other._layers))
        )

    __hash__ = None  # mutable-array value semantics: not hashable

    def __repr__(self) -> str:
        return f"ColoredDigraph(n={self.n}, c={self.c}, edges={self.total_edges()})"


def count_color(g: ColoredDigraph, color: int) -> int:
    """e_i(G): number of edges in one color layer."""
    return int(g.layer(color).sum())


def count_between(g: ColoredDigraph, color: int, U: Iterable[int], V: Iterable[int]) -> int:
    """e_i(U, V): edges of color i running between U and V, in either direction.

    Each present ordered pair (a, b) is counted once, even if U and V overlap
    and the pair qualifies both as U->V and as V->U.  With U = {u}, V = {v}
    the result is the 0/1/2 multiplicity of the pair in that color.
    """
    u_mask = np.zeros(g.n, dtype=bool)
    v_mask = np.zeros(g.n, dtype=bool)
    for x in U:
        u_mask[_check_vertex(g.n, x)] = True
    for x in V:
        v_mask[_check_vertex(g.n, x)] = True
    between = np.outer(u_mask, v_mask) | np.outer(v_mask, u_mask)
    return int((g.layer(color) & between).sum())


def classify_pair(g: ColoredDigraph, u: int, v: int) -> PairProfile:
    """Multiplicity and single-edge orientation of pair (u, v), per color."""
    u = _check_vertex(g.n, u)
    v = _check_vertex(g.n, v)
    if u == v:
        raise GraphInputError("classify_pair needs two distinct vertices")
    pairs = list(zip(g.layers[:, u, v].tolist(), g.layers[:, v, u].tolist()))
    counts = tuple(fwd + rev for fwd, rev in pairs)
    singles = tuple("uv" if fwd > rev else "vu" if rev > fwd else None for fwd, rev in pairs)
    return PairProfile(counts, singles)


def is_oriented(g: ColoredDigraph) -> bool:
    """True iff no color layer contains both (u, v) and (v, u)."""
    return not (g.layers & g.layers.transpose(0, 2, 1)).any()


# -- interchange -------------------------------------------------------


def _tokens(prefix: bytes, values: np.ndarray, suffix: bytes) -> np.ndarray:
    """The byte strings prefix + decimal value + suffix."""
    return np.char.add(np.char.add(prefix, values.astype("S")), suffix)


def _canonical_bytes(layers: np.ndarray) -> bytes:
    """The canonical JSON of the graph with this layer array, as ASCII bytes."""
    c, n, _ = layers.shape
    head = b'{"n":%d,"c":%d,"edges":[' % (n, c)
    per_color = np.count_nonzero(layers.reshape(c, n * n), axis=1)
    colors = np.flatnonzero(per_color)
    if not colors.size:
        return head + b"]}"
    src, dst = np.nonzero(layers)[1:]  # edges in (color, src, dst) order
    vertices = np.arange(n)
    cells = np.empty((src.size, 3), dtype=f"S{len(str(max(n, c))) + 2}")
    cells[:, 0] = np.repeat(_tokens(b"[", colors + 1, b","), per_color[colors])
    cells[:, 1] = _tokens(b"", vertices, b",")[src]
    cells[:, 2] = _tokens(b"", vertices, b"],")[dst]
    del src, dst  # views of one (edges, 3) int64 array: free it before the copies
    body = cells.tobytes().translate(None, b"\0")
    return b"".join((head, memoryview(body)[:-1], b"]}"))  # no comma after the last edge


# Every byte but the ASCII digits read as a space, so that the text parses
# as the whitespace-separated numbers it holds.
_DIGITS_ONLY = bytes(b if 0x30 <= b <= 0x39 else 0x20 for b in range(256))


def _load_canonical(text) -> ColoredDigraph | None:
    """The graph whose canonical JSON is ``text``, alone or followed by one
    newline; None for any other text."""
    if not (isinstance(text, str) and text.isascii()):
        return None
    data = text.encode()
    numbers = np.fromstring(data.translate(_DIGITS_ONLY), dtype=np.int64, sep=" ")
    if numbers.size % 3 != 2:
        return None
    n, c = numbers[:2].tolist()
    try:
        check_size(n, c)
    except GraphInputError:  # left to the checked route, which names the limit
        return None
    layers = np.zeros((c, n, n), dtype=bool)
    if not _set_edge_rows(layers, numbers[2:].reshape(-1, 3)):
        return None
    canonical = _canonical_bytes(layers)
    if canonical != data.removesuffix(b"\n"):
        return None
    g = ColoredDigraph._adopt(n, c, layers)
    g._digest = hashlib.sha256(canonical).hexdigest()
    return g


def dumps_graph(g: ColoredDigraph) -> str:
    """Canonical JSON serialization (sorted, compact, byte-reproducible)."""
    return _canonical_bytes(g.layers).decode("ascii")


def loads_graph(text: str) -> ColoredDigraph:
    """The graph a graph JSON text describes; GraphInputError if it is not one."""
    g = _load_canonical(text)
    if g is not None:
        return g
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"malformed graph JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise GraphInputError("graph JSON must be an object")
    for key in ("n", "c", "edges"):
        if key not in payload:
            raise GraphInputError(f"graph JSON missing key {key!r}")
    if not isinstance(payload["edges"], list):
        raise GraphInputError("edges must be a list")
    return ColoredDigraph.from_edges(payload["n"], payload["c"], payload["edges"])


def save_graph(g: ColoredDigraph, path) -> None:
    data = _canonical_bytes(g.layers)
    with open(path, "wb") as fh:
        fh.write(data)
        fh.write(b"\n")
    g._digest = hashlib.sha256(data).hexdigest()


def load_graph(path) -> ColoredDigraph:
    with open(path) as fh:
        return loads_graph(fh.read())


def graph_digest(g: ColoredDigraph) -> str:
    """SHA-256 of the canonical serialization, kept on the graph once known."""
    if g._digest is None:
        g._digest = hashlib.sha256(_canonical_bytes(g.layers)).hexdigest()
    return g._digest
