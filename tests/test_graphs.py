import json
import random
import time

import numpy as np
import pytest

from rtlab.graphs import (
    MAX_CELLS,
    ColoredDigraph,
    EdgeRef,
    GraphInputError,
    _ARRAY_CHECK_CUTOFF,
    check_size,
    classify_pair,
    count_between,
    count_color,
    dumps_graph,
    graph_digest,
    is_oriented,
    load_graph,
    loads_graph,
    save_graph,
)
from rtlab import graphs
from rtlab.constructions import ConstructionId, build_construction

from naive import random_graph


def complete_double(n, c, colors):
    """All ordered pairs present in each listed color."""
    return ColoredDigraph.from_edges(
        n, c, [(color, u, v) for color in colors for u in range(n) for v in range(n) if u != v]
    )


def long_edges(n):
    """Every ordered pair of n vertices in color 1, as plain-int lists: more
    entries than the cut-off above which from_edges checks one array."""
    edges = [[1, u, v] for u in range(n) for v in range(n) if u != v]
    assert len(edges) > _ARRAY_CHECK_CUTOFF
    return edges


def test_from_edges_sets_a_repeated_edge_once():
    g = ColoredDigraph.from_edges(3, 2, [(1, 0, 1), (1, 0, 1)])
    assert g.total_edges() == 1
    assert g == ColoredDigraph.from_edges(3, 2, [[1, 0, 1]])
    edges = long_edges(10)
    assert ColoredDigraph.from_edges(10, 1, edges + edges[:7]) == complete_double(10, 1, [1])


def test_from_edges_walks_entries_the_array_check_does_not_take():
    # EdgeRefs, numpy ints and iterators skip the array check at any length
    g = complete_double(10, 2, [1, 2])
    assert ColoredDigraph.from_edges(g.n, g.c, g.edges()) == g
    assert ColoredDigraph.from_edges(g.n, g.c, iter(g.edges())) == g
    rows = np.argwhere(g.layers)
    rows[:, 0] += 1
    with pytest.raises(GraphInputError, match="must be \\[color, from, to\\]"):
        ColoredDigraph.from_edges(g.n, g.c, list(rows))  # an array row is not an entry
    numpy_ints = [tuple(row) for row in rows]
    assert type(numpy_ints[0][0]) is not int
    assert ColoredDigraph.from_edges(g.n, g.c, numpy_ints) == g
    assert ColoredDigraph.from_edges(3, 2, [EdgeRef(2, 1, 2), (np.int8(1), np.int64(0), 1)]) == (
        ColoredDigraph.from_edges(3, 2, [(2, 1, 2), (1, 0, 1)])
    )


def test_rejects_bad_input():
    for edge in ((1, 0, 0), (0, 0, 1), (3, 0, 1), (1, 0, 3), (1, -1, 0)):
        with pytest.raises(GraphInputError):
            ColoredDigraph.from_edges(3, 2, [edge])


def test_count_color_additivity():
    rng = random.Random(7)
    edges = []
    g = ColoredDigraph.from_edges(5, 3, edges)
    seen = set()
    for _ in range(40):
        color = rng.randrange(1, 4)
        u, v = rng.sample(range(5), 2)
        before = [count_color(g, i) for i in (1, 2, 3)]
        edges.append((color, u, v))
        g = ColoredDigraph.from_edges(5, 3, edges)
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
    g = ColoredDigraph.from_edges(4, 2, [(1, 0, 1), (1, 1, 0), (2, 0, 1)])
    assert count_between(g, 1, [0], [1]) == 2
    assert count_between(g, 2, [0], [1]) == 1
    assert count_between(g, 2, [1], [0]) == 1
    assert count_between(g, 1, [2], [3]) == 0


def test_count_between_bipartite_double():
    # doubled complete bipartite on 4 vertices, one color per layer
    U, V = [0, 1], [2, 3]
    edges = [(color, u, v) for color in range(1, 5) for u in U for v in V]
    g = ColoredDigraph.from_edges(4, 4, edges + [(color, v, u) for color, u, v in edges])
    for color in range(1, 5):
        assert count_between(g, color, U, V) == 2 * len(U) * len(V)


def test_count_between_overlap_counts_ordered_pairs_once():
    g = ColoredDigraph.from_edges(3, 1, [(1, 0, 1), (1, 1, 0), (1, 1, 2)])
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
    edges = [(1, 0, 1), (2, 1, 0)]
    g = ColoredDigraph.from_edges(3, 2, edges)
    assert is_oriented(g)  # opposite directions in different colors is fine
    g2 = ColoredDigraph.from_edges(3, 2, edges + [(1, 1, 0)])
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
    g = ColoredDigraph.from_edges(4, 3, [(3, 2, 1), (1, 3, 0), (2, 0, 1)])
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


def _json_dumps(g):
    """The canonical text as json.dumps writes it from a list of edge lists."""
    edges = [list(e) for e in g.edges()]
    return json.dumps({"n": g.n, "c": g.c, "edges": edges}, separators=(",", ":"))


def _json_loads(text):
    """The graph json.loads and from_edges read from text, or the message
    of the error they raise."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"malformed graph JSON: {exc}"
    try:
        return ColoredDigraph.from_edges(payload["n"], payload["c"], payload["edges"])
    except GraphInputError as exc:
        return str(exc)


def _loads_or_message(text):
    try:
        return loads_graph(text)
    except GraphInputError as exc:
        return str(exc)


def test_dumps_graph_writes_the_json_dumps_text():
    for cid in ConstructionId:
        for n in (0, 1, 2, 9, 10, 11, 99, 100, 101, 300):
            g = build_construction(cid, n)
            assert dumps_graph(g) == _json_dumps(g), (cid, n)
    # color digits wider than vertex digits, vertex digits wider than color
    # digits, and graphs with no edges or no vertices
    rng = random.Random(23)
    for n, c in ((3, 10), (3, 12), (3, 100), (11, 3), (0, 0), (0, 7), (4, 0), (5, 5)):
        for p in (0.0, 0.3, 1.0):
            g = random_graph(rng, n, c, p=p)
            assert dumps_graph(g) == _json_dumps(g), (n, c, p)


def test_loads_graph_agrees_with_json_loads_and_from_edges():
    g = ColoredDigraph.from_edges(3, 3, [(1, 0, 1), (2, 1, 2), (3, 2, 0), (3, 0, 2)])
    text = dumps_graph(g)
    assert text == '{"n":3,"c":3,"edges":[[1,0,1],[2,1,2],[3,0,2],[3,2,0]]}'
    same_graph = [
        text,
        text + "\n",
        text + "\n\n",
        " " + text,
        text.replace(",", ", "),
        json.dumps(json.loads(text), indent=1),
        '{"n":3,"c":3,"edges":[[2,1,2],[1,0,1],[3,0,2],[3,2,0]]}',  # reordered
        '{"n":3,"c":3,"edges":[[1,0,1],[1,0,1],[2,1,2],[3,0,2],[3,2,0]]}',  # duplicate
        '{"c":3,"n":3,"edges":[[1,0,1],[2,1,2],[3,0,2],[3,2,0]]}',
    ]
    for variant in same_graph:
        assert _loads_or_message(variant) == _json_loads(variant) == g, variant
    rejected = {
        '{"n":03,"c":3,"edges":[[1,0,1]]}': "malformed graph JSON: Expecting ',' delimiter: "
        "line 1 column 7 (char 6)",
        '{"n":3,"c":3,"edges":[[1,0,1],[2,1,-2]]}': "vertex -2 out of range for n=3",
        '{"n":3,"c":3,"edges":[[1,0,99999999999999999999]]}':
            "vertex 99999999999999999999 out of range for n=3",
        '{"n":3,"c":3,"edges":[[1,0,9223372036854775807]]}':
            "vertex 9223372036854775807 out of range for n=3",
        '{"n":3,"c":3,"edges":[[1,0,1.5]]}': "vertex must be an integer, got 1.5",
        '{"n":3,"c":3,"edges":[[1,0,1],[2,1.5,2]]}': "vertex must be an integer, got 1.5",
        '{"n":3,"c":3,"edges":[[true,0,1]]}': "color must be an integer, got True",
        '{"n":3,"c":3,"edges":[[1,0,1],[1,1,1]]}': "loop at vertex 1 rejected",
        '{"n":3,"c":3,"edges":[[1,0,1],[4,1,2]]}': "color 4 out of range for c=3",
        '{"n":2,"c":3,"edges":[[1,0,1],[2,1,2]]}': "vertex 2 out of range for n=2",
    }
    for variant, message in rejected.items():
        assert _loads_or_message(variant) == _json_loads(variant) == message, variant


def test_only_the_canonical_text_skips_json_loads(monkeypatch, tmp_path):
    texts = {}
    for cid in ConstructionId:
        for n in (0, 3, 10, 300):
            g = build_construction(cid, n)
            texts[dumps_graph(g)] = g
            save_graph(g, tmp_path / f"{cid.value}-{n}.json")
    g = ColoredDigraph.from_edges(3, 12, [(12, 0, 1), (10, 2, 1), (1, 1, 0)])
    texts[dumps_graph(g)] = g
    small = [text for text, g in texts.items() if g.n <= 10]
    other = [text + "\n\n" for text in small] + [text.replace(":", ": ") for text in small]
    other += ['{"n":3,"c":12,"edges":[[1,1,0],[12,0,1],[10,2,1]]}', "not json", ""]
    calls = []
    real_loads = json.loads

    def counting_loads(text, *args, **kwargs):
        calls.append(text)
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(graphs.json, "loads", counting_loads)
    for text, g in texts.items():
        assert loads_graph(text) == g
        assert loads_graph(text + "\n") == g
    for path in tmp_path.iterdir():
        assert load_graph(path) == texts[path.read_text()[:-1]]
    assert calls == []
    for text in other:
        _loads_or_message(text)
        assert calls[-1] == text


def test_graphs_are_frozen_and_the_constructor_checks_and_copies():
    for bad in (np.zeros((2, 3, 4), dtype=bool), np.zeros((2, 3, 3), dtype=np.uint8)):
        with pytest.raises(GraphInputError, match="bool with shape"):
            ColoredDigraph(3, 2, bad)
    layers = np.zeros((2, 3, 3), dtype=bool)
    layers[1, 0, 2] = True
    g = ColoredDigraph(3, 2, layers)
    layers[0, 1, 2] = True  # the caller's array stays the caller's
    assert g.total_edges() == 1 and layers.flags.writeable
    built = ColoredDigraph.from_edges(3, 2, [(2, 0, 2)])
    for h in (g, built, loads_graph(dumps_graph(g)), loads_graph(dumps_graph(g) + " ")):
        assert h == built and not h.layers.flags.writeable
        with pytest.raises(ValueError):
            h.layers[0, 0, 1] = True


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
    # with several bad entries the first one in input order is reported;
    # from_edges names it the same way, from lists or tuples, on a short list
    # and late in a list past the cut-off of its array check
    filler = [[1, 0, 1]] * (_ARRAY_CHECK_CUTOFF + 1)
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
        with pytest.raises(GraphInputError) as info:
            loads_graph(json.dumps({"n": 3, "c": 3, "edges": filler + json.loads(edges)}))
        assert str(info.value) == message, edges
        lists = json.loads(edges)
        tuples = [tuple(e) if type(e) is list else e for e in lists]
        tuple_message = message.replace("[1, 0, 1, 2]", "(1, 0, 1, 2)")
        for entries, pad, want in (
            (lists, filler, message),
            (tuples, [tuple(e) for e in filler], tuple_message),
        ):
            for padded in (entries, pad + entries):
                with pytest.raises(GraphInputError) as info:
                    ColoredDigraph.from_edges(3, 3, padded)
                assert str(info.value) == want, padded[-3:]


def test_sizes_must_be_plain_integers():
    # a float c would dump as "c":3.0, which the loader does not read back
    with pytest.raises(GraphInputError) as info:
        ColoredDigraph(3, 3.0, np.zeros((3, 3, 3), dtype=bool))
    assert str(info.value) == "n and c must be integers, got n=3, c=3.0"
    with pytest.raises(GraphInputError) as info:
        ColoredDigraph.from_edges(True, 3, [])
    assert str(info.value) == "n and c must be integers, got n=True, c=3"


def test_size_limit_is_checked_before_allocation():
    with pytest.raises(GraphInputError, match="MAX_CELLS"):
        loads_graph('{"n": 1000000, "c": 3, "edges": []}')
    with pytest.raises(GraphInputError, match="MAX_CELLS"):
        ColoredDigraph.from_edges(2, MAX_CELLS // 4 + 1, [])
    with pytest.raises(GraphInputError, match="MAX_CELLS"):
        ColoredDigraph.from_edges(1 << 13, 2, [])
    check_size(1 << 12, 4)  # exactly at the cap
    # a zero size leaves no cells, so each size is bounded on its own
    for n, c in ((2**40, 0), (0, 2**40), (MAX_CELLS + 1, 0)):
        with pytest.raises(GraphInputError, match="MAX_CELLS"):
            ColoredDigraph.from_edges(n, c, [])
        with pytest.raises(GraphInputError, match="MAX_CELLS"):
            loads_graph(f'{{"n":{n},"c":{c},"edges":[]}}')
    check_size(MAX_CELLS, 0)
    check_size(0, MAX_CELLS)


def test_digest_is_stable():
    g1 = ColoredDigraph.from_edges(3, 2, [(1, 0, 1), (2, 1, 2)])
    g2 = ColoredDigraph.from_edges(3, 2, [(2, 1, 2), (1, 0, 1)])
    assert graph_digest(g1) == graph_digest(g2)
    g3 = ColoredDigraph.from_edges(3, 2, [(1, 0, 1), (2, 1, 2), (1, 2, 0)])
    assert graph_digest(g3) != graph_digest(g1)


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
