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
text of ``json.dumps(..., separators=(",", ":"))``.  Dumping renders that
text straight from the layer array, with no Python object per edge, as a
stream of byte pieces: one for each block of about ``_STEP`` cells of the
(c * n, n) row view (a row is one color and source) that holds an edge.  In
a block each edge is three fixed-width byte cells (``[color,``, ``from,``
and ``to],``, taken from token tables of the vertices and of the colors the
block's edges hold) padded with zero bytes, which one ``bytes.translate``
of the block's cell bytes drops.  ``dumps_graph`` joins the pieces;
``graph_digest`` and ``save_graph`` hash and write them as they come, so
they never hold the whole text.

Loading reads the text in steps of about ``_STEP`` bytes, each ending just
after the ``]`` of an edge that another edge follows, so that no number is
split.  Every run of ASCII digits in a step is a number (n and c in the
first step, then three per edge); a step's numbers are range-checked as one
array and set as edges.  The load then renders the graph's pieces and
compares them with the text piece by piece, hashing them as it goes, and
returns that graph only if the pieces equal the text byte for byte, or the
text is the pieces and one newline, as ``save_graph`` writes it.  Such text
is JSON, and ``json.loads`` would have read exactly these edges from it.
Any other text (a mismatch, a short text, anything left over) goes to
``json.loads``, which checks the object, and its edge list to
``from_edges``, which checks the entries one by one and names the first bad
one; that route is the only source of error messages.  ``load_graph`` gives
the canonical route the file's bytes as they are and ``json.loads`` the
bytes decoded as UTF-8.  The walk of ``from_edges`` accepts a list or tuple
of three in-range plain ints at once and sends every other entry (an
``EdgeRef``, a numpy integer, a bool, a bad entry) through the checks.  It
costs about 0.3 us per plain entry: on a 2-vCPU Xeon the 598,800 edges of
``directed3(600)`` take 0.16-0.26 s, and loading that graph from
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
from typing import Iterable, Iterator, NamedTuple

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


# The canonical text is rendered in blocks of about this many layer cells
# and parsed in steps of about this many bytes, so that the scratch of a
# dump, digest, save or canonical load stays bounded as the text grows.
_STEP = 1 << 16


def _canonical_pieces(layers: np.ndarray) -> Iterator[bytes]:
    """The canonical JSON of the graph with this layer array, as ASCII byte
    pieces: the head, the edges of each block of rows of the (c * n, n) row
    view that holds any, and the tail."""
    c, n, _ = layers.shape
    yield b'{"n":%d,"c":%d,"edges":[' % (n, c)
    rows = layers.reshape(c * n, n)
    height = max(1, _STEP // max(n, 1))  # rows per block
    vertices = np.arange(n)
    sources, targets = _tokens(b"", vertices, b","), _tokens(b"", vertices, b"],")
    width = f"S{len(str(max(n, c))) + 2}"
    body = b""  # held back one block, so that the last one can drop its comma
    for top in range(0, c * n, height):
        block = rows[top : top + height]
        per_row = np.count_nonzero(block, axis=1)
        held = np.flatnonzero(per_row)  # the block's rows that hold an edge
        if not held.size:
            continue
        if body:
            yield body
        count = per_row[held]
        color, src = np.divmod(held + top, n)
        colors, of_row = np.unique(color, return_inverse=True)
        cells = np.empty((count.sum(), 3), dtype=width)  # edges in (color, src, dst) order
        cells[:, 0] = np.repeat(_tokens(b"[", colors + 1, b",")[of_row], count)
        cells[:, 1] = np.repeat(sources[src], count)
        cells[:, 2] = targets[np.nonzero(block)[1]]
        body = cells.tobytes().translate(None, b"\0")
    yield body[:-1]  # no comma after the last edge
    yield b"]}"


# Every byte but the ASCII digits read as a space, so that the text parses
# as the whitespace-separated numbers it holds.
_DIGITS_ONLY = bytes(b if 0x30 <= b <= 0x39 else 0x20 for b in range(256))


def _span(text: str | bytes, start: int, stop: int) -> bytes:
    """``text[start:stop]`` as bytes; a str is ASCII here."""
    part = text[start:stop]
    return part.encode() if isinstance(part, str) else part


def _load_canonical(text: str | bytes) -> ColoredDigraph | None:
    """The graph whose canonical JSON is ``text``, alone or followed by one
    newline; None for any other text."""
    if isinstance(text, str) and not text.isascii():
        return None
    # end each step just after the ']' of an edge that another edge follows:
    # no number is split, and no step of a canonical text lacks numbers
    cut = "]," if isinstance(text, str) else b"],"
    layers, start = None, 0
    while start < len(text):
        stop = text.rfind(cut, start, start + _STEP) + 1 or text.find(cut, start) + 1 or len(text)
        step = _span(text, start, stop).translate(_DIGITS_ONLY)
        numbers = np.fromstring(step, dtype=np.int64, sep=" ")
        if layers is None:
            if numbers.size % 3 != 2:
                return None
            n, c = numbers[:2].tolist()
            try:
                check_size(n, c)
            except GraphInputError:  # left to the checked route, which names the limit
                return None
            layers = np.zeros((c, n, n), dtype=bool)
            numbers = numbers[2:]
        if numbers.size % 3 or not _set_edge_rows(layers, numbers.reshape(-1, 3)):
            return None
        start = stop
    if layers is None:
        return None
    digest, start = hashlib.sha256(), 0
    for piece in _canonical_pieces(layers):
        stop = start + len(piece)
        if _span(text, start, stop) != piece:
            return None
        digest.update(piece)
        start = stop
    if _span(text, start, start + 2) not in (b"", b"\n"):
        return None
    g = ColoredDigraph._adopt(n, c, layers)
    g._digest = digest.hexdigest()
    return g


def dumps_graph(g: ColoredDigraph) -> str:
    """Canonical JSON serialization (sorted, compact, byte-reproducible)."""
    return b"".join(_canonical_pieces(g.layers)).decode("ascii")


def loads_graph(text: str) -> ColoredDigraph:
    """The graph a graph JSON text describes; GraphInputError if it is not one."""
    g = _load_canonical(text)
    return g if g is not None else _load_json(text)


def _load_json(text: str) -> ColoredDigraph:
    """The graph ``json.loads`` and ``from_edges`` read from ``text``, the
    route that words every error."""
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
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for piece in _canonical_pieces(g.layers):
            fh.write(piece)
            digest.update(piece)
        fh.write(b"\n")
    g._digest = digest.hexdigest()


def load_graph(path) -> ColoredDigraph:
    """The graph a graph JSON file describes; its bytes go to the canonical
    route as they are and to ``json.loads`` decoded as UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    g = _load_canonical(data)
    return g if g is not None else _load_json(data.decode())


def graph_digest(g: ColoredDigraph) -> str:
    """SHA-256 of the canonical serialization, kept on the graph once known."""
    if g._digest is None:
        digest = hashlib.sha256()
        for piece in _canonical_pieces(g.layers):
            digest.update(piece)
        g._digest = digest.hexdigest()
    return g._digest
