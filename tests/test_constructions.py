import math
import tracemalloc
from fractions import Fraction

import pytest

from rtlab.constructions import (
    ALPHA,
    AVOIDED_PATTERNS,
    ConstructionId,
    build_construction,
    directed3,
    equal_parts,
    expected_count,
    oriented_cyclic,
    small_set_size,
    transitive3,
    two_color_heavy,
    bipartite_double,
)
from rtlab.exactmath import SQRT7, threshold_value, thresholds
from rtlab.graphs import MAX_CELLS, GraphInputError, count_color, is_oriented
from rtlab.triangles import TrianglePattern, find_rainbow

D, T = TrianglePattern.DIRECTED, TrianglePattern.TRANSITIVE

# which pattern each generator is built to avoid: a literal pin of
# AVOIDED_PATTERNS, so weakening that map fails a test
CLAIMED_FREE = {
    ConstructionId.BIPARTITE_DOUBLE: (D, T),
    ConstructionId.DIRECTED3: (D,),
    ConstructionId.TRANSITIVE3: (T,),
    ConstructionId.ORIENTED_CYCLIC: (T,),
    ConstructionId.TWO_COLOR_HEAVY: (D,),
}


def test_equal_parts_largest_last():
    assert [len(p) for p in equal_parts(10, 3)] == [3, 3, 4]
    assert [len(p) for p in equal_parts(11, 3)] == [3, 4, 4]
    assert [len(p) for p in equal_parts(9, 3)] == [3, 3, 3]
    assert [len(p) for p in equal_parts(7, 2)] == [3, 4]
    assert sum(equal_parts(13, 3), []) == list(range(13))


def test_bipartite_double_counts():
    for n in (2, 5, 8, 13):
        g = bipartite_double(n, 4)
        per = 2 * (n // 2) * ((n + 1) // 2)
        for color in range(1, 5):
            assert count_color(g, color) == per
            assert expected_count(ConstructionId.BIPARTITE_DOUBLE, n, color) == per


def test_directed3_counts():
    g = directed3(9)
    assert [count_color(g, i) for i in (1, 2, 3)] == [39, 39, 39]
    g3 = directed3(3)
    assert [count_color(g3, i) for i in (1, 2, 3)] == [3, 3, 3]
    for n in range(3, 16):
        g = directed3(n)
        for color in (1, 2, 3):
            assert count_color(g, color) == expected_count(
                ConstructionId.DIRECTED3, n, color
            )
    # divisible case matches the closed form 5n^2/9 - 2n/3
    for n in (9, 12, 30):
        assert expected_count(ConstructionId.DIRECTED3, n, 1) == 5 * n * n // 9 - 2 * n // 3


def test_directed3_contains_rainbow_transitive():
    for n in (3, 7, 12):
        assert find_rainbow(directed3(n), T) is not None


def test_transitive3_small_set_size():
    assert small_set_size(0) == 0
    assert ALPHA == (4 - SQRT7) / 9
    for n in (1, 2, 10, 100, 1000, 4729):
        a = small_set_size(n)
        assert abs(ALPHA * n - a) <= Fraction(1, 2), n


def test_transitive3_counts_and_density():
    for n in range(3, 20):
        g = transitive3(n)
        for color in (1, 2, 3):
            assert count_color(g, color) == expected_count(
                ConstructionId.TRANSITIVE3, n, color
            )
    n = 1000
    target = (52 - 4 * math.sqrt(7)) / 81
    for color in (1, 2, 3):
        ratio = expected_count(ConstructionId.TRANSITIVE3, n, color) / n**2
        assert abs(ratio - target) < 2 / n


def test_total_threshold_entries_are_tight():
    # exactly for n <= 3000: the total over c colors stays at or below
    # (c/2)n^2 for bipartite_double and (c/3)n^2 for oriented_cyclic, with
    # equality exactly when the parts are equal
    table = thresholds()
    witnesses = [
        ("directed-total-4plus", ConstructionId.BIPARTITE_DOUBLE, range(4, 7), 2),
        ("transitive-total-4plus", ConstructionId.BIPARTITE_DOUBLE, range(4, 7), 2),
        ("transitive-total-oriented", ConstructionId.ORIENTED_CYCLIC, range(3, 6), 3),
    ]
    for name, cid, colors, parts in witnesses:
        entry = table[name]
        for c in colors:
            for n in range(3, 3001):
                total = sum(expected_count(cid, n, color) for color in range(1, c + 1))
                limit = threshold_value(entry, n, c)
                assert total <= limit and (total == limit) == (n % parts == 0), (name, c, n)
            for n in range(3, 13):  # the closed form counts the built graph
                g = build_construction(cid, n, c)
                built = sum(count_color(g, color) for color in range(1, c + 1))
                assert built == sum(expected_count(cid, n, color) for color in range(1, c + 1))


def test_oriented_cyclic_is_oriented_and_counts():
    for n in (3, 6, 10, 11):
        g = oriented_cyclic(n, 3)
        assert is_oriented(g)
        for color in (1, 2, 3):
            assert count_color(g, color) == expected_count(
                ConstructionId.ORIENTED_CYCLIC, n, color
            )
    assert expected_count(ConstructionId.ORIENTED_CYCLIC, 9, 1) == 27  # n^2/3


def test_oriented_cyclic_has_directed_triangles_only():
    g = oriented_cyclic(6, 3)
    assert find_rainbow(g, D) is not None
    assert find_rainbow(g, T) is None


def test_two_color_heavy_counts():
    for n in (3, 5, 10):
        g = two_color_heavy(n)
        assert count_color(g, 1) == n * (n - 1)
        assert count_color(g, 2) == n * (n - 1)
        assert count_color(g, 3) == 0
        total = sum(count_color(g, i) for i in (1, 2, 3))
        assert total == 2 * n * (n - 1)
        if n > 4:
            assert total > 1.5 * n * n


def test_pattern_freeness_exhaustive_small_n():
    assert AVOIDED_PATTERNS == CLAIMED_FREE
    for cid, patterns in CLAIMED_FREE.items():
        for n in range(0, 31):
            if cid is ConstructionId.TRANSITIVE3 and n < 1:
                continue
            g = build_construction(cid, n)
            for pattern in patterns:
                assert find_rainbow(g, pattern) is None, (cid, n, pattern)


def test_transitive3_avoids_both_patterns():
    # every pair spans at most two colors, so nothing rainbow exists at all
    for n in (5, 9, 14):
        g = transitive3(n)
        assert find_rainbow(g, D) is None
        assert find_rainbow(g, T) is None


def test_induced_part_of_directed3():
    # one part of the 9-vertex three-part graph: a complete double-edge
    # digraph in the two colors other than its index
    g = directed3(9)
    # first part, misses color 1
    assert g.layers[:, :3, :3].sum(axis=(1, 2)).tolist() == [0, 6, 6]


def test_build_construction_dispatch_and_errors():
    assert build_construction("directed3", 6) == directed3(6)
    assert build_construction(ConstructionId.TWO_COLOR_HEAVY, 4) == two_color_heavy(4)
    with pytest.raises(GraphInputError):
        build_construction("directed3", 6, c=4)
    with pytest.raises(ValueError):
        build_construction("unknown-construction", 5)


def _part_of(n, k):
    return {v: i for i, part in enumerate(equal_parts(n, k)) for v in part}


def test_generators_match_pairwise_definitions():
    # each family edge by edge from its definition, against the block fills
    for n in range(0, 26):
        halves, thirds = _part_of(n, 2), _part_of(n, 3)
        a = small_set_size(n)
        sets = {v: 0 if v < a else 1 if v < 2 * a else 2 for v in range(n)}
        inner = [(2, 3), (3, 1), (1, 2)]
        rules = [
            (bipartite_double(n, 4), lambda k, u, v: halves[u] != halves[v]),
            (
                directed3(n),
                lambda k, u, v: thirds[u] < thirds[v]
                or (thirds[u] == thirds[v] and k != thirds[u] + 1),
            ),
            (oriented_cyclic(n, 2), lambda k, u, v: thirds[v] == (thirds[u] + 1) % 3),
            (two_color_heavy(n), lambda k, u, v: k in (1, 2)),
        ]
        if n >= 1:
            rules.append(
                (
                    transitive3(n),
                    lambda k, u, v: k == 3 if sets[u] != sets[v] else k in inner[sets[u]],
                )
            )
        for g, rule in rules:
            for k in range(1, g.c + 1):
                for u in range(n):
                    for v in range(n):
                        assert g.has_edge(k, u, v) == (u != v and rule(k, u, v)), (n, k, u, v)


def test_size_limit_rejected_before_building():
    for cid in ConstructionId:
        with pytest.raises(GraphInputError, match="MAX_CELLS"):
            build_construction(cid, 10**9)
    with pytest.raises(GraphInputError, match="MAX_CELLS"):
        bipartite_double(100, MAX_CELLS // 10**4 + 1)


@pytest.mark.parametrize("cid", list(ConstructionId))
def test_build_makes_one_layer_array(cid):
    # the graph adopts the array its generator filled: no second copy
    build_construction(cid, 10)  # first-call imports and caches stay out of the peak
    tracemalloc.start()
    try:
        g = build_construction(cid, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * g.layers.nbytes
