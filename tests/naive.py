"""Deliberately plain oracle implementations used to cross-check the package.

Everything here trades speed for obviousness: straight nested loops, direct
has_edge lookups, no precomputation, no shared helpers with the code under
test.  Keep it that way — these functions are the reference the fast paths
are judged against.
"""

from fractions import Fraction
from functools import cache
from itertools import permutations, product

from rtlab.graphs import ColoredDigraph
from rtlab.triangles import TrianglePattern


def _slots(pattern, u, v, w):
    if pattern is TrianglePattern.DIRECTED:
        return ((u, v), (v, w), (w, u))
    return ((u, v), (v, w), (u, w))


def naive_find_rainbow(g: ColoredDigraph, pattern: TrianglePattern):
    """Lexicographically least (u, v, w, c1, c2, c3) rainbow copy, or None."""
    for u, v, w in permutations(range(g.n), 3):
        slots = _slots(pattern, u, v, w)
        for c1 in range(1, g.c + 1):
            if not g.has_edge(c1, *slots[0]):
                continue
            for c2 in range(1, g.c + 1):
                if c2 == c1 or not g.has_edge(c2, *slots[1]):
                    continue
                for c3 in range(1, g.c + 1):
                    if c3 in (c1, c2) or not g.has_edge(c3, *slots[2]):
                        continue
                    return (u, v, w), (c1, c2, c3)
    return None


def naive_masks_have_rainbow(m1: int, m2: int, m3: int) -> bool:
    """Whether three color masks (bit i - 1 for color i) hold one color each,
    pairwise distinct, by trying every ordered triple of distinct colors."""
    colors = range(max(m1, m2, m3).bit_length())
    return any(
        m1 >> i & 1 and m2 >> j & 1 and m3 >> k & 1 for i, j, k in permutations(colors, 3)
    )


def naive_assignment_count(m1: int, m2: int, m3: int) -> int:
    """The number of ordered triples of pairwise distinct colors, one from
    each of three color masks (bit i - 1 for color i)."""
    colors = range(max(m1, m2, m3).bit_length())
    return sum(
        bool(m1 >> i & 1 and m2 >> j & 1 and m3 >> k & 1) for i, j, k in permutations(colors, 3)
    )


def naive_count_rainbow(g: ColoredDigraph, pattern: TrianglePattern) -> int:
    total = 0
    for u, v, w in permutations(range(g.n), 3):
        if pattern is TrianglePattern.DIRECTED and u != min(u, v, w):
            continue
        slots = _slots(pattern, u, v, w)
        for c1 in range(1, g.c + 1):
            if not g.has_edge(c1, *slots[0]):
                continue
            for c2 in range(1, g.c + 1):
                if c2 == c1 or not g.has_edge(c2, *slots[1]):
                    continue
                for c3 in range(1, g.c + 1):
                    if c3 in (c1, c2) or not g.has_edge(c3, *slots[2]):
                        continue
                    total += 1
    return total


def random_graph(rng, n, c, p=0.5) -> ColoredDigraph:
    """Independent coin flip per (color, ordered pair) slot."""
    from rtlab.graphs import ColoredDigraph

    edges = []
    for color in range(1, c + 1):
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < p:
                    edges.append((color, u, v))
    return ColoredDigraph.from_edges(n, c, edges)


def _rule_holds(scenario, rule, edges) -> bool:
    """Check one scenario rule on a set of (color, from, to) label edges."""
    verts = scenario.vertices
    colors = range(1, scenario.colors + 1)
    in_x, in_y, in_z = set(), set(), set()
    for g in scenario.groups:
        if g.kind == "X":
            in_x.update(g.members)
        elif g.kind == "Y":
            in_y.update(g.members)
        elif g.kind == "Z":
            in_z.update(g.members)
    in_xy = in_x | in_y
    in_xyz = in_xy | in_z

    def total(a, b):
        return sum(((c, a, b) in edges) + ((c, b, a) in edges) for c in colors)

    def doubles(a, b):
        return sum(1 for c in colors if (c, a, b) in edges and (c, b, a) in edges)

    def fwd(a, b):
        return sum(1 for c in colors if (c, a, b) in edges)

    def zqual(a, b):
        present = {c for c in colors if (c, a, b) in edges or (c, b, a) in edges}
        return doubles(a, b) >= 1 and len(present) >= 2

    from itertools import combinations, permutations

    kind = rule.kind
    if kind == "no_rainbow":
        for u, v, w in permutations(verts, 3):
            if rule.pattern == "directed":
                trip = ((u, v), (v, w), (w, u))
            else:
                trip = ((u, v), (v, w), (u, w))
            for c1 in colors:
                if (c1,) + trip[0] not in edges:
                    continue
                for c2 in colors:
                    if c2 == c1 or (c2,) + trip[1] not in edges:
                        continue
                    for c3 in colors:
                        if c3 not in (c1, c2) and (c3,) + trip[2] in edges:
                            return False
        return True
    if kind == "oriented":
        return all((c, b, a) not in edges for c, a, b in edges)
    if kind == "pair_edge_cap":
        return all(total(a, b) <= rule.value for a, b in combinations(verts, 2))
    if kind == "slot_sum":
        got = sum(1 for s in rule.slots if s in edges)
        if rule.op == "==":
            return got == rule.value
        if rule.op == "<=":
            return got <= rule.value
        return got >= rule.value
    if kind == "x_maximality":
        return all(
            doubles(a, b) <= 1
            for a, b in combinations(verts, 2)
            if a not in in_x and b not in in_x
        )
    if kind == "y_maximality":
        return all(
            total(a, b) <= 3
            for a, b in combinations(verts, 2)
            if a not in in_xy and b not in in_xy
        )
    if kind == "z_maximality":
        for a, b in combinations(verts, 2):
            if a in in_xyz or b in in_xyz:
                continue
            per = sorted(
                (((c, a, b) in edges) + ((c, b, a) in edges) for c in colors),
                reverse=True,
            )
            if per[0] + per[1] > 2:
                return False
        return True
    if kind == "x_trimmed":
        for g in scenario.groups:
            if g.kind != "X":
                continue
            ga, gb = g.members
            for w in verts:
                if w in in_x:
                    continue
                if doubles(w, ga) >= 2 and doubles(w, gb) >= 2:
                    return False
        return True
    if kind == "y_trimmed":
        for g in scenario.groups:
            if g.kind != "Y":
                continue
            ga, gb = g.members
            for w in verts:
                if w in in_xy:
                    continue
                if total(w, ga) >= 4 and total(w, gb) >= 4:
                    return False
        return True
    if kind == "z_trimmed":
        for g in scenario.groups:
            if g.kind != "Z":
                continue
            ga, gb = g.members
            for w in verts:
                if w in in_xyz:
                    continue
                if zqual(w, ga) and zqual(w, gb):
                    return False
        return True
    if kind == "no_double_double":
        return all(doubles(a, b) <= 1 for a, b in combinations(verts, 2))
    if kind == "no_thick_path":
        return all(
            fwd(a, b) < 3 or fwd(b, c) < 3 for a, b, c in permutations(verts, 3)
        )
    if kind == "no_shared_color_link":
        x = rule.vertex
        u, v = rule.pair
        for c in rule.colors:
            on_u = (c, x, u) in edges or (c, u, x) in edges
            on_v = (c, x, v) in edges or (c, v, x) in edges
            if on_u and on_v:
                return False
        return True
    raise ValueError(f"unhandled rule kind {kind!r}")


def naive_scenario_rules_hold(scenario, edges) -> bool:
    """Whether a (color, from, to) edge set satisfies every scenario rule,
    the group fixtures' slot sums included."""
    from rtlab.localbounds import fixture_constraints

    rules = list(scenario.constraints) + list(fixture_constraints(scenario))
    return all(_rule_holds(scenario, rule, edges) for rule in rules)


def naive_scenario_max(scenario):
    """Brute force over every completion of the free slots.

    Returns (feasible, maximum) where maximum is None when no completion
    satisfies the rules.
    """
    from rtlab.localbounds import objective_slots, scenario_slot_states

    states = scenario_slot_states(scenario)
    free = sorted(s for s, st in states.items() if st == "free")
    present = frozenset(s for s, st in states.items() if st == "present")
    goal = set(objective_slots(scenario))
    best = None
    for bits in range(1 << len(free)):
        edges = set(present)
        edges.update(s for k, s in enumerate(free) if bits >> k & 1)
        if naive_scenario_rules_hold(scenario, edges):
            value = len(edges & goal)
            if best is None or value > best:
                best = value
    return best is not None, best


def naive_two_sided_triangle_free_max(a: int, b: int) -> int:
    """Max edges of a graph on a+b labeled vertices (first a = side A) with
    no triangle having vertices on both sides, by enumerating every graph."""
    from itertools import combinations

    n = a + b
    pairs = list(combinations(range(n), 2))
    triangles = [
        (x, y, z)
        for x, y, z in combinations(range(n), 3)
        if not (z < a or x >= a)  # skip all-in-A and all-in-B triples
    ]
    best = 0
    idx = {p: i for i, p in enumerate(pairs)}
    for bits in range(1 << len(pairs)):
        if bits.bit_count() <= best:
            continue
        ok = True
        for x, y, z in triangles:
            if (
                bits >> idx[(x, y)] & 1
                and bits >> idx[(x, z)] & 1
                and bits >> idx[(y, z)] & 1
            ):
                ok = False
                break
        if ok:
            best = bits.bit_count()
    return best


@cache
def _constraint_grid(m: int):
    """Every feasible point of the grid of step 1/m in (u, y, z, r) order,
    with q1 and q2 in Fraction, straight from the system's definition."""
    points = []
    for iu, iy, iz, ir in product(range(m + 1), range(2 * m + 1), range(m + 1), range(m + 1)):
        # 3u + y/2 + r <= 1 and u - 3y/4 - z >= 0, times 2m and 4m
        if 6 * iu + iy + 2 * ir > 2 * m or 4 * iu - 3 * iy - 4 * iz < 0:
            continue
        u, y, z, r = (Fraction(i, m) for i in (iu, iy, iz, ir))
        q1 = (u + 7 * y / 12 + z / 2 + 3 * r / 4) ** 2 - (z / 2 + 3 * r / 4) ** 2
        q2 = 2 * u**2 + (1 - r - y / 2 - 2 * u) ** 2 - y * z / 2 - 3 * z**2 / 2
        points.append(((u, y, z, r), q1, q2))
    return points


def naive_constraint_slacks(m: int, bound1, bound2):
    """(point, min(q1 - bound1, q2 - bound2)) for every feasible point of
    the grid of step 1/m, in (u, y, z, r) order."""
    return [(p, min(q1 - bound1, q2 - bound2)) for p, q1, q2 in _constraint_grid(m)]


def naive_constraint_scan(m: int, bound1, bound2):
    """The grid scan by visiting every point: (best minimum slack, the first
    point reaching it, feasible points, points with both slacks >= 0)."""
    slacks = naive_constraint_slacks(m, bound1, bound2)
    best = max(value for _, value in slacks)
    first = next(p for p, value in slacks if value == best)
    return best, first, len(slacks), sum(value >= 0 for _, value in slacks)
