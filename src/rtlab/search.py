"""Exhaustive branch-and-bound search for extremal rainbow-free graphs.

For small n and c this module answers two questions exactly:

* ``total``: the maximum of the total edge count over all c-colored directed
  graphs on n vertices with no rainbow triangle of the chosen kind;
* ``min-color``: the maximum over such graphs of the smallest per-color edge
  count.

One branch-and-bound maximizes either objective directly.  It assigns whole
vertex pairs at a time.  A pair's state is one direction choice per color
(present forward / backward / absent, plus "both" when two-way pairs are
allowed), so a pair has 4**c states, or 3**c in oriented mode.  Pairs are
ordered by their larger endpoint, which means every vertex triple is
completed exactly once -- when its last pair is assigned -- and
rainbow-freeness is maintained incrementally by the triple checks of
``triangles.rainbow_free_check``, a three-set Hall condition on the color
bitmasks of each triangle's slots, tested inline for every copy.

Pruning is by optimistic completion: the objective of the per-color counts
so far, each raised by the most its color can still gain on the unassigned
pairs, must beat the best value found.  States are tried densest first, and
the loop over a pair's states stops at the first state whose edge count
cannot lift the optimistic total above the best value; for min-color the
optimistic total is divided by c first, since the smallest color count is at
most the average.  Colors are interchangeable for both objectives, so the
first pair's states are restricted to one representative per
color-permutation orbit.

For ``total`` at n >= 4 the search first solves the same question at n - 1.
Deleting a vertex keeps a graph pattern-free (and oriented), and each vertex
pair lies in n - 2 of the n vertex-deleted subgraphs, so the optimum is at
most ``n * T(n-1) // (n - 2)`` (the averaging bound of Katona, Nemetz and
Simonovits, 1964).  When the n - 1 run is exhaustive the search stops as soon
as its best value reaches that cap.  Until then every prune is the uncapped
one, so the value, the witness and ``exhaustive`` are those of the uncapped
search; only the nodes after the cap is reached are saved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from operator import add
from typing import Sequence

import numpy as np

from .graphs import ColoredDigraph, GraphInputError, count_color, is_oriented
from .triangles import TrianglePattern, find_rainbow, rainbow_free_check

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "MAX_SEARCH_COLORS",
    "MAX_SEARCH_VERTICES",
    "SearchObjective",
    "SearchProblem",
    "SearchResult",
    "solve",
    "verify_witness",
]


# solve allocates its pair list and n x n masks before the node budget counts
# anything, so n is capped; an exhaustive search is out of reach far below.
MAX_SEARCH_VERTICES = 64

# a pair has 4**c states, or 3**c oriented: 65,536 at c = 8
MAX_SEARCH_COLORS = 8

# `rtlab search` stops here unless --budget says otherwise: about 1.4M nodes/s
# on the c = 3 goldens and 2.3-2.6M/s on the n = 4, c = 5 and n = 5, c = 3
# totals, 2-vCPU Xeon.
DEFAULT_NODE_BUDGET = 5_000_000


class SearchObjective(str, Enum):
    TOTAL = "total"
    MIN_COLOR = "min-color"


@dataclass(frozen=True)
class SearchProblem:
    """An extremal question: n vertices, c colors, forbidden pattern."""

    n: int
    c: int
    pattern: TrianglePattern
    oriented: bool = False
    objective: SearchObjective = SearchObjective.TOTAL

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_SEARCH_VERTICES:
            raise GraphInputError(
                f"n must lie in 0..{MAX_SEARCH_VERTICES} (MAX_SEARCH_VERTICES), got {self.n}"
            )
        if not 1 <= self.c <= MAX_SEARCH_COLORS:
            raise GraphInputError(
                f"c must lie in 1..{MAX_SEARCH_COLORS} (MAX_SEARCH_COLORS), got {self.c}"
            )

    @property
    def pair_capacity(self) -> int:
        """Largest edge count a single vertex pair can carry."""
        return self.c if self.oriented else 2 * self.c

    @property
    def color_pair_capacity(self) -> int:
        """Largest edge count one color can place on one pair."""
        return 1 if self.oriented else 2


@dataclass
class SearchResult:
    value: int
    witness: ColoredDigraph | None
    nodes: int
    exhaustive: bool


def _pairs_by_max_endpoint(n: int) -> list[tuple[int, int]]:
    return [(a, m) for m in range(1, n) for a in range(m)]


_PairState = tuple[int, int, int, tuple[int, ...]]


def _profiles(c: int, oriented: bool) -> list[_PairState]:
    """All (count, fwd_mask, bwd_mask, per-color counts) pair states,
    densest first."""
    out = []
    for f in range(1 << c):
        for b in range(1 << c):
            if oriented and f & b:
                continue
            gain = tuple((f >> i & 1) + (b >> i & 1) for i in range(c))
            out.append((sum(gain), f, b, gain))
    out.sort(key=lambda p: (-p[0], p[1], p[2]))
    return out


def _first_pair_profiles(profiles: Sequence[_PairState]) -> list[_PairState]:
    """One representative per color-permutation orbit for the first pair's
    state: the one whose (fwd_mask, bwd_mask) is least.

    A color permutation keeps the number of colors that run forward only,
    backward only, both ways or neither, and can put them in any positions;
    so the least pair has its k forward colors lowest, the two-way ones first
    among them, and the backward-only colors right above them."""
    keep = []
    for state in profiles:
        _, f, b, _ = state
        k = f.bit_count()
        two_way, back_only = (f & b).bit_count(), (b & ~f).bit_count()
        least_b = ((1 << two_way) - 1) | (((1 << back_only) - 1) << k)
        if f == (1 << k) - 1 and b == least_b:
            keep.append(state)
    return keep


def solve(problem: SearchProblem, budget: int | None = None) -> SearchResult:
    """Solve the extremal question exactly (or report a budget-limited try).

    ``budget`` caps the number of pair-state assignments explored, counting
    those of the n - 1 run that caps a ``total`` search; when the cap is hit
    the result carries ``exhaustive=False`` and the best value found so far,
    with its witness (value 0 and no witness if no complete graph on n
    vertices was reached, as when the budget ends in the n - 1 run).
    A negative budget raises GraphInputError; budget 0 stops at the first node.
    """
    if budget is not None and budget < 0:
        raise GraphInputError(f"budget must be non-negative, got {budget}")
    limit = float("inf") if budget is None else budget
    n = problem.n
    # One mask matrix and one list of triple checks serve the whole chain of
    # runs: pairs go by larger endpoint, so a run on fewer vertices uses a
    # prefix of the pairs, and the checks of a pair depend on that pair only.
    masks = [[0] * n for _ in range(n)]  # masks[u][v]: colors carrying u -> v
    checks: list[list] = []  # checks[idx]: the triples completed by pairs[idx]
    profiles = _profiles(problem.c, problem.oriented)
    first = _first_pair_profiles(profiles)
    nodes = 0
    cap = float("inf")  # no witness can beat it, so reaching it ends the search
    if problem.objective is SearchObjective.TOTAL:
        for k in range(3, n):  # the n - 1 run caps the n run, from n = 4 on
            below = _run(replace(problem, n=k), limit, nodes, cap, masks, checks, first, profiles)
            if not below.exhaustive:
                return SearchResult(value=0, witness=None, nodes=below.nodes, exhaustive=False)
            nodes, cap = below.nodes, (k + 1) * below.value // (k - 1)
    return _run(problem, limit, nodes, cap, masks, checks, first, profiles)


def _run(problem, limit, nodes, cap, masks, checks, first, profiles) -> SearchResult:
    """One branch-and-bound over problem.n vertices, on the top-left corner
    of ``masks``, which it leaves all zero; ``nodes`` counts the nodes of
    earlier runs and ``cap`` ends the search when the best value reaches it.
    ``first`` and ``profiles`` are the states of the first and later pairs."""
    n, c = problem.n, problem.c
    pairs = _pairs_by_max_endpoint(n)
    num_pairs = len(pairs)
    score, divisor = (sum, 1) if problem.objective is SearchObjective.TOTAL else (min, c)
    # reach[idx]: what the pairs from idx on can add to the objective at most
    reach = [
        score([(num_pairs - idx) * problem.color_pair_capacity] * c)
        for idx in range(num_pairs + 1)
    ]
    best = -1
    best_graph: ColoredDigraph | None = None
    # One entry per pair whose state is being tried, in pair order: the
    # iterator over its remaining states, the counts before it, its
    # optimistic total, its index and the checks of its triples.  A loop over
    # this stack, not recursion, walks the tree, so the C(n, 2) levels never
    # meet Python's recursion limit.
    stack: list[tuple] = []

    def enter(idx: int, counts: tuple[int, ...]) -> None:
        """Score a leaf, or open pair idx unless the bound prunes it."""
        nonlocal best, best_graph
        value = score(counts)
        if idx == num_pairs:
            if value > best:
                best, best_graph = value, _to_graph(problem, masks)
        elif value + reach[idx] > best:
            a, m = pairs[idx]
            if idx == len(checks):
                checks.append(
                    [rainbow_free_check(masks, problem.pattern, x, a, m) for x in range(a)]
                )
            optimistic = sum(counts) + (num_pairs - idx - 1) * problem.pair_capacity
            states = iter(first if idx == 0 else profiles)
            stack.append((states, counts, optimistic, idx, checks[idx]))

    enter(0, (0,) * c)
    while stack:
        states, base, optimistic, idx, triple_checks = stack[-1]
        a, m = pairs[idx]
        out_a, out_m = masks[a], masks[m]  # the masks of the edges out of a and m
        depth = len(stack)
        for count, f, b, gain in states:
            nodes += 1
            if nodes > limit:
                break
            if (optimistic + count) // divisor <= best:
                break  # states are sorted densest first
            out_a[m], out_m[a] = f, b
            for check in triple_checks:
                if not check():
                    break
            else:
                enter(idx + 1, tuple(map(add, base, gain)))
                if len(stack) > depth or best >= cap:
                    break
        if len(stack) > depth:
            continue  # down to the pair just opened; this one resumes after it
        out_a[m] = out_m[a] = 0
        stack.pop()
        if nodes > limit or best >= cap:
            break  # every open pair would stop at once too
    for entry in stack:  # the pairs an early stop left set
        a, m = pairs[entry[3]]
        masks[a][m] = masks[m][a] = 0
    return SearchResult(
        value=max(best, 0),
        witness=best_graph,
        nodes=nodes,
        exhaustive=nodes <= limit,
    )


def _to_graph(problem: SearchProblem, masks: list[list[int]]) -> ColoredDigraph:
    """The graph whose color i edges are the set bits i - 1 of the masks'
    top-left n x n corner.  The search sets no diagonal mask and the problem
    bounds n and c, so the new array is adopted with no check or copy."""
    n, c = problem.n, problem.c
    size = len(masks)
    corner = np.array(masks, dtype=np.int64).reshape(size, size)[:n, :n]
    bits = corner >> np.arange(c).reshape(c, 1, 1)
    return ColoredDigraph._adopt(n, c, (bits & 1).astype(bool))


def verify_witness(problem: SearchProblem, g: ColoredDigraph, value: int) -> bool:
    """Independent check that a witness certifies its claimed value."""
    if g.n != problem.n or g.c != problem.c:
        return False
    if problem.oriented and not is_oriented(g):
        return False
    if find_rainbow(g, problem.pattern) is not None:
        return False
    per_color = [count_color(g, color) for color in range(1, g.c + 1)]
    if problem.objective is SearchObjective.TOTAL:
        return sum(per_color) >= value
    return min(per_color, default=0) >= value
