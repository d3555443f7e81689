import json
import random
import time

import numpy as np
import pytest

from rtlab.graphs import (
    MAX_CELLS,
    ColoredDigraph,
    EdgeRef,
    GraphBuilder,
    GraphInputError,
    add_edge,
    check_size,
    classify_pair,
    count_between,
    count_color,
    dumps_graph,
    graph_digest,
    is_oriented,
    loads_graph,
)

from naive import random_graph


def complete_double(n, c, colors):
    """All ordered pairs present in each listed color."""
    b = GraphBuilder(n, c)
    for color in colors:
        for u in range(n):
            for v in range(n):
                if u != v:
                    b.add(color, u, v)
    return b.build()


def test_builder_and_idempotent_add():
    g = GraphBuilder(3, 2).add(1, 0, 1).add(1, 0, 1).build()
    assert g.total_edges() == 1
    g2 = add_edge(g, EdgeRef(2, 1, 2))
    assert g2.total_edges() == 2
    assert g.total_edges() == 1  # original untouched
    assert add_edge(g2, (2, 1, 2)) == g2  # idempotent


def test_rejects_bad_input():
    b = GraphBuilder(3, 2)
    with pytest.raises(GraphInputError):
        b.add(1, 0, 0)  # loop
    with pytest.raises(GraphInputError):
        b.add(0, 0, 1)  # color out of range
    with pytest.raises(GraphInputError):
        b.add(3, 0, 1)
    with pytest.raises(GraphInputError):
        b.add(1, 0, 3)  # vertex out of range
    with pytest.raises(GraphInputError):
        b.add(1, -1, 0)


def test_count_color_additivity():
    rng = random.Random(7)
    g = ColoredDigraph.empty(5, 3)
    seen = set()
    for _ in range(40):
        color = rng.randrange(1, 4)
        u, v = rng.sample(range(5), 2)
        before = [count_color(g, i) for i in (1, 2, 3)]
        g = add_edge(g, (color, u, v))
        after = [count_color(g, i) for i in (1, 2, 3)]
        bump = 0 if (color, u, v) in seen else 1
        seen.add((color, u, v))
        assert after[color - 1] == before[color - 1] + bump
        for i in (1, 2, 3):
            if i != color:
                assert after[i - 1] == before[i - 1]


def test_count_between_complete_layer():
    # one complete color layer on 3 vertices, U = V = all vertices: 6 edges
    g = complete_double(3, 1, [1])
    assert count_between(g, 1, range(3), range(3)) == 6


def test_count_between_single_pair_multiplicity():
    g = GraphBuilder(4, 2).add(1, 0, 1).add(1, 1, 0).add(2, 0, 1).build()
    assert count_between(g, 1, [0], [1]) == 2
    assert count_between(g, 2, [0], [1]) == 1
    assert count_between(g, 2, [1], [0]) == 1
    assert count_between(g, 1, [2], [3]) == 0


def test_count_between_bipartite_double():
    # doubled complete bipartite on 4 vertices, one color per layer
    b = GraphBuilder(4, 4)
    U, V = [0, 1], [2, 3]
    for color in range(1, 5):
        for u in U:
            for v in V:
                b.add_double(color, u, v)
    g = b.build()
    for color in range(1, 5):
        assert count_between(g, color, U, V) == 2 * len(U) * len(V)


def test_count_between_overlap_counts_ordered_pairs_once():
    g = GraphBuilder(3, 1).add(1, 0, 1).add(1, 1, 0).add(1, 1, 2).build()
    # U and V overlap in {0, 1}: the pair inside the overlap is counted once
    # per direction, not once per (U, V) role assignment.
    assert count_between(g, 1, [0, 1], [1, 2]) == 3


def test_partition_counting():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 7)
        g = random_graph(rng, n, 3, p=0.4)
        cut = rng.randrange(1, n)
        A, B = list(range(cut)), list(range(cut, n))
        for i in (1, 2, 3):
            inside_a = count_between(g, i, A, A)
            inside_b = count_between(g, i, B, B)
            across = count_between(g, i, A, B)
            assert count_color(g, i) == inside_a + inside_b + across


def test_classify_pair_matches_count_between():
    rng = random.Random(13)
    for _ in range(20):
        g = random_graph(rng, 5, 3, p=0.5)
        for u in range(5):
            for v in range(u + 1, 5):
                prof = classify_pair(g, u, v)
                for i in (1, 2, 3):
                    assert prof.counts[i - 1] == count_between(g, i, [u], [v])
                    if prof.singles[i - 1] == "uv":
                        assert g.has_edge(i, u, v) and not g.has_edge(i, v, u)
                    if prof.singles[i - 1] == "vu":
                        assert g.has_edge(i, v, u) and not g.has_edge(i, u, v)


def test_is_oriented():
    g = GraphBuilder(3, 2).add(1, 0, 1).add(2, 1, 0).build()
    assert is_oriented(g)  # opposite directions in different colors is fine
    g2 = add_edge(g, (1, 1, 0))
    assert not is_oriented(g2)
    rng = random.Random(17)
    for _ in range(10):
        g3 = random_graph(rng, 5, 3, p=0.4)
        expect = all(
            classify_pair(g3, u, v).counts[i] < 2
            for u in range(5)
            for v in range(u + 1, 5)
            for i in range(3)
        )
        assert is_oriented(g3) == expect


def test_json_round_trip_and_canonical_order():
    g = GraphBuilder(4, 3).add(3, 2, 1).add(1, 3, 0).add(2, 0, 1).build()
    text = dumps_graph(g)
    assert text == '{"n":4,"c":3,"edges":[[1,3,0],[2,0,1],[3,2,1]]}'
    payload = json.loads(text)
    assert payload["edges"] == sorted(payload["edges"])
    assert [list(e) for e in g.edges()] == payload["edges"]
    assert loads_graph(text) == g
    rng = random.Random(19)
    for _ in range(30):
        h = random_graph(rng, rng.randrange(0, 7), rng.randrange(0, 5), p=0.4)
        assert loads_graph(dumps_graph(h)) == h
    # deduplication on load
    payload["edges"].append(payload["edges"][0])
    assert loads_graph(json.dumps(payload)) == g


def test_loads_rejects_malformed():
    with pytest.raises(GraphInputError):
        loads_graph("not json")
    with pytest.raises(GraphInputError):
        loads_graph('{"n": 2, "c": 1}')
    with pytest.raises(GraphInputError):
        loads_graph('{"n": 2, "c": 1, "edges": [[1, 0, 2]]}')
    with pytest.raises(GraphInputError):
        loads_graph('{"n": 2, "c": 1, "edges": [[1, 0]]}')
    # a JSON boolean is not a size, as it is not a vertex or a color
    with pytest.raises(GraphInputError, match="n and c must be integers"):
        loads_graph('{"n": true, "c": 3, "edges": []}')
    with pytest.raises(GraphInputError, match="n and c must be integers"):
        loads_graph('{"n": 3, "c": false, "edges": []}')
    # each bad entry is named exactly as the per-edge checks name it, and
    # with several bad entries the first one in input order is reported
    for edges, message in (
        ("[[true, 0, 1]]", "color must be an integer, got True"),
        ("[[1, 0.0, 1]]", "vertex must be an integer, got 0.0"),
        ("[[1, -1, 1]]", "vertex -1 out of range for n=3"),
        ("[[2, 1, 1]]", "loop at vertex 1 rejected"),
        ("[[4, 0, 1]]", "color 4 out of range for c=3"),
        ("[[0, 0, 1]]", "color 0 out of range for c=3"),
        ("[[1, 3, 0]]", "vertex 3 out of range for n=3"),
        ("[[1, 0, -2]]", "vertex -2 out of range for n=3"),
        ('[{"color": 1}]', "edge entry {'color': 1} must be [color, from, to]"),
        ("[[1, 0, 1, 2]]", "edge entry [1, 0, 1, 2] must be [color, from, to]"),
        ('[[1, 0, "2"]]', "vertex must be an integer, got '2'"),
        ("[[1, 0, 1], [1, 0, 5], [true, 0, 1]]", "vertex 5 out of range for n=3"),
        ("[[1, 0, 1], [1, 2, 99999999999999999999999]]",
         "vertex 99999999999999999999999 out of range for n=3"),
    ):
        with pytest.raises(GraphInputError) as info:
            loads_graph(f'{{"n": 3, "c": 3, "edges": {edges}}}')
        assert str(info.value) == message, edges


def test_size_limit_is_checked_before_allocation():
    with pytest.raises(GraphInputError, match="MAX_CELLS"):
        loads_graph('{"n": 1000000, "c": 3, "edges": []}')
    with pytest.raises(GraphInputError, match="MAX_CELLS"):
        GraphBuilder(2, MAX_CELLS // 4 + 1)
    with pytest.raises(GraphInputError, match="MAX_CELLS"):
        ColoredDigraph.empty(1 << 13, 2)
    check_size(1 << 12, 4)  # exactly at the cap


def test_digest_is_stable():
    g1 = GraphBuilder(3, 2).add(1, 0, 1).add(2, 1, 2).build()
    g2 = GraphBuilder(3, 2).add(2, 1, 2).add(1, 0, 1).build()
    assert graph_digest(g1) == graph_digest(g2)
    assert graph_digest(add_edge(g1, (1, 2, 0))) != graph_digest(g1)


def test_graph_checks_do_not_loop_over_colors():
    # the loop and two-way-pair checks are whole-array operations, so many
    # colors on few vertices cost about as much as the cells they hold
    start = time.perf_counter()
    for n, c in ((1, 1 << 22), (2, 1 << 20)):
        g = loads_graph(f'{{"n": {n}, "c": {c}, "edges": []}}')
        assert is_oriented(g)
        layers = np.zeros((c, n, n), dtype=bool)
        layers[-1, n - 1, n - 1] = True
        with pytest.raises(GraphInputError, match="loops are not allowed"):
            ColoredDigraph(n, c, layers)
    assert time.perf_counter() - start < 1.0
