import random
import time
from itertools import permutations, product

import numpy as np
import pytest

from rtlab.graphs import ColoredDigraph, GraphInputError
from rtlab.triangles import (
    TrianglePattern,
    count_rainbow,
    find_rainbow,
    pattern_edges,
    rainbow_free_check,
    witness_is_valid,
)

from naive import naive_count_rainbow, naive_find_rainbow, random_graph

D, T = TrianglePattern.DIRECTED, TrianglePattern.TRANSITIVE


def _witness_key(witness):
    """A witness in the oracle's form: ((u, v, w), (c1, c2, c3)), or None."""
    if witness is None:
        return None
    return witness.vertices, tuple(color for color, _, _ in witness.edges)


CYCLE = [(1, 0, 1), (2, 1, 2), (3, 2, 0)]  # a rainbow directed triangle


def test_directed_example():
    g = ColoredDigraph.from_edges(3, 3, CYCLE)
    w = find_rainbow(g, D)
    assert w is not None
    assert w.vertices == (0, 1, 2)
    assert w.edges == ((1, 0, 1), (2, 1, 2), (3, 2, 0))
    assert find_rainbow(g, T) is None  # no u->w edge anywhere


def test_transitive_example():
    g = ColoredDigraph.from_edges(3, 3, [(2, 0, 1), (3, 1, 2), (1, 0, 2)])
    w = find_rainbow(g, T)
    assert w is not None
    assert w.vertices == (0, 1, 2)
    assert w.edges == ((2, 0, 1), (3, 1, 2), (1, 0, 2))
    assert find_rainbow(g, D) is None


def test_witness_is_lex_least():
    # several overlapping rainbow triangles; compare against the plain oracle
    rng = random.Random(23)
    for _ in range(50):
        g = random_graph(rng, 5, 3, p=0.6)
        for pattern in (D, T):
            got = find_rainbow(g, pattern)
            expect = naive_find_rainbow(g, pattern)
            if expect is None:
                assert got is None
            else:
                (u, v, w), colors = expect
                assert got is not None
                assert got.vertices == (u, v, w)
                assert tuple(e[0] for e in got.edges) == colors


def test_monochromatic_blindness():
    rng = random.Random(29)
    for _ in range(20):
        edges = []
        for color in (1, 3):  # only two nonempty layers
            for u in range(5):
                for v in range(5):
                    if u != v and rng.random() < 0.7:
                        edges.append((color, u, v))
        g = ColoredDigraph.from_edges(5, 3, edges)
        assert find_rainbow(g, D) is None
        assert find_rainbow(g, T) is None
        assert count_rainbow(g, D) == 0


def test_witness_soundness_random():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(3, 6), 3, p=rng.uniform(0.2, 0.8))
        for pattern in (D, T):
            w = find_rainbow(g, pattern)
            if w is not None:
                assert witness_is_valid(g, w)


def test_witness_validator_rejects_garbage():
    g = ColoredDigraph.from_edges(3, 3, CYCLE)
    w = find_rainbow(g, D)
    from rtlab.triangles import RainbowWitness

    bad_shape = RainbowWitness(T, w.vertices, w.edges)
    assert not witness_is_valid(g, bad_shape)
    bad_colors = RainbowWitness(D, w.vertices, ((1, 0, 1), (1, 1, 2), (3, 2, 0)))
    assert not witness_is_valid(g, bad_colors)
    degenerate = RainbowWitness(D, (0, 0, 2), w.edges)
    assert not witness_is_valid(g, degenerate)


def test_full_enumeration_n3_agrees_with_oracle():
    # every 3-vertex graph with c <= 2 (no rainbow possible), plus every
    # single-pair-profile combination for c = 3 over a fixed edge universe
    for c in (1, 2):
        slots = [
            (color, u, v)
            for color in range(1, c + 1)
            for u, v in permutations(range(3), 2)
        ]
        for bits in range(1 << len(slots)):
            edges = [s for k, s in enumerate(slots) if bits >> k & 1]
            g = ColoredDigraph.from_edges(3, c, edges)
            assert find_rainbow(g, D) is None
            assert find_rainbow(g, T) is None

    # c = 3: exhaustive over all 2^18 graphs is done pair-profile-wise
    pair_slots = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
    checked = 0
    mismatches = 0
    for p01, p12, p02 in product(range(64), repeat=3):
        layers = np.zeros((3, 3, 3), dtype=bool)
        for pair_bits, (a, b), (b2, a2) in (
            (p01, (0, 1), (1, 0)),
            (p12, (1, 2), (2, 1)),
            (p02, (0, 2), (2, 0)),
        ):
            for color in range(3):
                if pair_bits >> (2 * color) & 1:
                    layers[color, a, b] = True
                if pair_bits >> (2 * color + 1) & 1:
                    layers[color, b2, a2] = True
        g = ColoredDigraph(3, 3, layers)
        for pattern in (D, T):
            if _witness_key(find_rainbow(g, pattern)) != naive_find_rainbow(g, pattern):
                mismatches += 1
        checked += 1
    assert checked == 64**3
    assert mismatches == 0


def test_count_matches_oracle():
    rng = random.Random(37)
    for c in range(3, 7):
        for n in range(3, 9):
            for p in (0.25, 0.5, 0.8):
                g = random_graph(rng, n, c, p=p)
                for pattern in (D, T):
                    assert count_rainbow(g, pattern) == naive_count_rainbow(g, pattern)
                    assert _witness_key(find_rainbow(g, pattern)) == naive_find_rainbow(
                        g, pattern
                    ), (g.edges(), pattern)


def test_colors_beyond_64_are_seen():
    # a color index past the width of a machine word still counts
    for colors in ((1, 2, 70), (65, 66, 70)):
        edges = []
        for color, (u, v) in zip(colors, ((0, 1), (1, 2), (2, 0))):
            edges += [(color, u, v), (color, u + 1, v + 1 if v < 3 else 0)]
        g = ColoredDigraph.from_edges(4, 70, edges)
        for pattern in (D, T):
            assert _witness_key(find_rainbow(g, pattern)) == naive_find_rainbow(g, pattern)
            assert count_rainbow(g, pattern) == naive_count_rainbow(g, pattern)
        assert _witness_key(find_rainbow(g, D)) == ((0, 1, 2), colors)


def test_count_identifies_directed_copies_up_to_rotation():
    g = ColoredDigraph.from_edges(3, 3, CYCLE)
    # one cyclic triangle, one color assignment
    assert count_rainbow(g, D) == 1
    # the reverse cycle would be a separate copy
    g2 = ColoredDigraph.from_edges(3, 3, CYCLE + [(1, 1, 0), (2, 0, 2), (3, 2, 1)])
    assert count_rainbow(g2, D) == 2


def test_transitive_on_doubles_implies_directed_witness():
    # three pairwise double edges in three distinct colors: any transitive
    # rainbow triangle on them can be re-oriented into a directed one
    for c1, c2, c3 in permutations((1, 2, 3)):
        pairs = ((c1, 0, 1), (c2, 1, 2), (c3, 0, 2))
        doubles = [(c, u, v) for c, a, b in pairs for u, v in ((a, b), (b, a))]
        g = ColoredDigraph.from_edges(3, 3, doubles)
        wt = find_rainbow(g, T)
        wd = find_rainbow(g, D)
        assert wt is not None and wd is not None
        assert sorted(wd.vertices) == sorted(wt.vertices) == [0, 1, 2]


def _complete(n, c):
    layers = np.ones((c, n, n), dtype=bool)
    layers[:, range(n), range(n)] = False
    return ColoredDigraph(n, c, layers)


def test_counts_are_exact_just_below_the_color_limit():
    c = (1 << 16) - 1
    g = _complete(3, c)
    assert count_rainbow(g, D) == 2 * c * (c - 1) * (c - 2)
    assert count_rainbow(g, T) == 6 * c * (c - 1) * (c - 2)


def test_count_rejects_colors_past_the_limit():
    # at c = 1,000,003 the float64 kernel would overcount the complete graph
    # by 50,285,684 directed and 150,857,052 transitive copies
    g = _complete(3, 1_000_003)
    for pattern in (D, T):
        with pytest.raises(GraphInputError, match=r"2\*\*16 colors"):
            count_rainbow(g, pattern)
        # finding needs no exact count: it runs on the lowest colors of each pair
        start = time.perf_counter()
        witness = find_rainbow(g, pattern)
        assert time.perf_counter() - start < 5.0
        assert witness_is_valid(g, witness)
        assert _witness_key(witness) == ((0, 1, 2), (1, 2, 3))


def test_find_with_more_colors_than_pair_slots_agrees_with_oracle():
    # c > 3n(n-1): find_rainbow keeps only the three lowest colors of each
    # ordered pair, and must still find the oracle's witness.  Each graph
    # draws its edges from four colors spread over 1..c, so that slots share
    # colors and the kept ones decide whether a triple is rainbow.
    rng = random.Random(37)
    found = 0
    for trial in range(80):
        n = rng.randint(3, 5)
        c = 3 * n * (n - 1) + rng.randint(1, 12)
        palette = rng.sample(range(1, c + 1), 4)
        edges = [
            (color, u, v)
            for u, v in permutations(range(n), 2)
            for color in rng.sample(palette, rng.choice((0, 1, 1, 3)))
        ]
        g = ColoredDigraph.from_edges(n, c, edges)
        for pattern in (D, T):
            want = naive_find_rainbow(g, pattern)
            assert _witness_key(find_rainbow(g, pattern)) == want, (trial, pattern)
            found += want is not None
    assert 20 < found < 150  # both outcomes are covered


def test_pattern_edges_shapes():
    assert pattern_edges(D, 0, 1, 2) == ((0, 1), (1, 2), (2, 0))
    assert pattern_edges(T, 0, 1, 2) == ((0, 1), (1, 2), (0, 2))


def test_rainbow_free_check_matches_oracle_on_live_masks():
    rng = random.Random(31)
    for _ in range(300):
        c = rng.choice((3, 4))
        g = random_graph(rng, 3, c, p=rng.choice((0.3, 0.5)))
        masks = [[0] * 3 for _ in range(3)]
        for pattern in (D, T):
            checks = [rainbow_free_check(masks, pattern, *order) for order in permutations(range(3))]
            assert all(check() for check in checks)  # reads the matrix as it is now
            for u, v in permutations(range(3), 2):
                masks[u][v] = sum(1 << (i - 1) for i in range(1, c + 1) if g.has_edge(i, u, v))
            want = naive_find_rainbow(g, pattern) is None
            assert [check() for check in checks] == [want] * 6, (g.edges(), pattern)
            for row in masks:
                row[:] = [0, 0, 0]
