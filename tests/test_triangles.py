import random
import time
from itertools import permutations, product

import numpy as np
import pytest

from rtlab import triangles
from rtlab.graphs import ColoredDigraph, GraphInputError, dumps_graph, loads_graph
from rtlab.triangles import (
    TrianglePattern,
    count_rainbow,
    find_rainbow,
    pattern_edges,
    rainbow_free_check,
    witness_is_valid,
)

from naive import (
    _slots,
    naive_assignment_count,
    naive_count_rainbow,
    naive_find_rainbow,
    naive_masks_have_rainbow,
    random_graph,
)

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


def test_witness_validator_on_odd_values():
    # plain in-range ints are read straight from the layers; every other
    # value goes through has_edge, so the answer, or the error, stays that
    # of has_edge's checks
    from rtlab.triangles import RainbowWitness

    g = ColoredDigraph.from_edges(3, 3, CYCLE + [(1, 1, 2), (2, 0, 2)])
    good = ((1, 0, 1), (2, 1, 2), (3, 2, 0))

    def edit(k, edge):
        return tuple(edge if i == k else e for i, e in enumerate(good))

    not_int = r"color must be an integer"
    cases = [
        ((D, (0, 1, 2), good), True),
        ((D, (0, 1, 2), edit(0, (True, 0, 1))), not_int),
        ((D, (0, 1, 2), edit(0, (False, 0, 1))), False),  # out of range first
        ((D, (0, 1, 2), edit(0, (1.0, 0, 1))), not_int),
        ((D, (0, 1, 2), edit(0, (np.int64(1), 0, 1))), True),
        ((D, (0, 1, 2), edit(0, (0, 0, 1))), False),
        ((D, (0, 1, 2), edit(2, (4, 2, 0))), False),
        ((D, (0, 1, 2), edit(0, (2, 0, 1))), False),  # no such edge
        ((D, (-1, 1, 2), good), False),
        ((D, (0, 1, 3), good), False),
        ((D, (0, 0, 2), good), False),
        ((T, (0, 1, 2), good), False),  # the slots of the other pattern
        ((D, (0, 1, 2), (good[1], good[0], good[2])), False),
        ((D, (0, 1, 2), edit(1, (1, 1, 2))), False),  # a repeated color
        ((D, (0, 1, 2), edit(0, (1, False, 1))), r"vertex must be an integer"),
        ((D, (0, 1, 2), edit(0, (1, 0, 1.0))), r"vertex must be an integer"),
        ((D, (0, 1, 2), edit(2, (3, 2, np.int64(0)))), True),
        ((D, tuple(np.arange(3)), good), True),
        ((D, (0, 1, 2), good[:2]), False),
    ]
    for (pattern, vertices, edges), want in cases:
        witness = RainbowWitness(pattern, vertices, edges)
        if isinstance(want, bool):
            assert witness_is_valid(g, witness) is want, (vertices, edges)
        else:
            with pytest.raises(GraphInputError, match=want):
                witness_is_valid(g, witness)
    with pytest.raises(TypeError):
        witness_is_valid(g, RainbowWitness(D, (0, 1, 2), edit(0, ("1", 0, 1))))


def _last_completion_graph(n, c, pattern, colors):
    """A graph whose only rainbow copy on u = 0 is the triple (0, n-1, n-2),
    the last (v, w) in row-major order: every slot carries color a, except
    that the closing slot of w = n-2 also carries b and the pair
    (n-1, n-2) also carries d."""
    a, b, d = colors
    inner = [(a, v, w) for v, w in permutations(range(1, n), 2)]
    close = (b, n - 2, 0) if pattern is D else (b, 0, n - 2)
    edges = [(a, 0, v) for v in range(1, n)] + inner + [close, (d, n - 1, n - 2)]
    return ColoredDigraph.from_edges(n, c, edges)


@pytest.mark.parametrize(
    "n, c, colors",
    [(200, 3, (1, 2, 3)), (40, 70, (65, 66, 70)), (8, 3 * 8 * 7 + 5, (60, 7, 171))],
)
def test_witness_scan_reaches_the_last_pair(n, c, colors):
    # the scan's longest walk for a row u whose only copy is its last
    # (v, w); with c > 3n(n-1) the pass runs on the kept layers only
    a, b, d = colors
    for pattern in (D, T):
        g = _last_completion_graph(n, c, pattern, colors)
        witness = find_rainbow(g, pattern)
        assert witness.vertices == (0, n - 1, n - 2)
        assert _witness_key(witness) == naive_find_rainbow(g, pattern)
        assert [color for color, _, _ in witness.edges] == [a, d, b]


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


def _find_then_count(g, pattern):
    witness = find_rainbow(g, pattern)
    return _witness_key(witness), count_rainbow(g, pattern)


def _count_then_find(g, pattern):
    count = count_rainbow(g, pattern)
    return _witness_key(find_rainbow(g, pattern)), count


def test_find_and_count_agree_in_any_order_and_on_fresh_copies():
    # both detectors read one memoised kernel pass per graph and pattern, so
    # neither the order of the calls nor a second call may change an answer
    rng = random.Random(41)
    for n in range(7):
        for c in range(1, 5):
            for p in (0.2, 0.5, 0.8):
                g = random_graph(rng, n, c, p=p)
                for pattern in (D, T):
                    want = naive_find_rainbow(g, pattern), naive_count_rainbow(g, pattern)
                    fresh = ColoredDigraph(n, c, g.layers)
                    alone = (
                        _witness_key(find_rainbow(ColoredDigraph(n, c, g.layers), pattern)),
                        count_rainbow(ColoredDigraph(n, c, g.layers), pattern),
                    )
                    assert _find_then_count(g, pattern) == want, (g.edges(), pattern)
                    assert _count_then_find(g, pattern) == want
                    assert _count_then_find(fresh, pattern) == want
                    assert _find_then_count(fresh, pattern) == want
                    assert _count_then_find(loads_graph(dumps_graph(g)), pattern) == want
                    assert alone == want


def _spy_on_passes(monkeypatch):
    """The number of layers of every graph whose memo is filled from now on,
    one entry per pass, table or kernel."""
    passes = []
    graph_pass = triangles._graph_pass

    def counted(g):
        passes.append(len(g.layers))
        return graph_pass(g)

    monkeypatch.setattr(triangles, "_graph_pass", counted)
    return passes


def test_count_after_find_runs_no_second_kernel_pass(monkeypatch):
    # one pass serves both closing slots: finding and counting both
    # patterns, in either order and twice over, runs one pass, the table
    # pass on three vertices and the kernel pass past TABLE_MAX_N
    passes = _spy_on_passes(monkeypatch)
    n = triangles.TABLE_MAX_N + 1
    a, b, c = n - 3, n - 2, n - 1  # a rainbow copy of each shape on the last triple
    edges = [(1, v, v + 1) for v in range(n - 1)] + [(2, b, c), (3, c, a), (3, a, c)]
    for g, table in (
        (ColoredDigraph.from_edges(3, 3, CYCLE + [(1, 0, 2), (2, 1, 0)]), True),
        (ColoredDigraph.from_edges(n, 3, edges), False),
    ):
        for pattern in (D, T):
            want = naive_find_rainbow(g, pattern), naive_count_rainbow(g, pattern)
            assert _find_then_count(g, pattern) == _count_then_find(g, pattern) == want
        assert passes == [3]
        # the table pass hands find its first copy; the kernel pass leaves it to the scan
        assert (g._rainbow_memo[True][3] is not None) is table
        del passes[:]


def test_assignment_table_matches_brute_force():
    # every entry of the table pass's lookup, against plain enumeration of
    # the distinct color triples its three 4-color masks allow
    table = triangles._ASSIGNMENTS
    assert table.shape == (1 << 12,)
    for x, y, z in product(range(16), repeat=3):
        assert table[x | y << 4 | z << 8] == naive_assignment_count(x, y, z), (x, y, z)


def test_table_pass_agrees_with_kernel_pass_and_scan(monkeypatch):
    # the same graphs read through the table pass wherever c <= 4 and
    # through the kernel pass and the witness scan everywhere, around the
    # dispatch limit; the oracle judges every fifth graph
    rng = random.Random(43)
    graphs = [
        random_graph(rng, n, c, p=p)
        for n in range(3, triangles.TABLE_MAX_N + 3)
        for c in range(1, 6)
        for p in (0.2, 0.5, 0.8)
    ]

    def read(limit):
        monkeypatch.setattr(triangles, "TABLE_MAX_N", limit)
        return [
            [_find_then_count(ColoredDigraph(g.n, g.c, g.layers), pattern) for pattern in (D, T)]
            for g in graphs
        ]

    table = read(triangles.TABLE_MAX_N + 2)
    assert read(2) == table
    assert sum(key is not None for row in table for key, _ in row) > len(graphs) // 2
    for g, row in list(zip(graphs, table))[::5]:
        for pattern, got in zip((D, T), row):
            assert got == (naive_find_rainbow(g, pattern), naive_count_rainbow(g, pattern))


def test_the_color_limit_and_many_colors_bypass_the_memo(monkeypatch):
    # c = 2**16 is refused by count even after find has run; find then took
    # the c > 3n(n-1) route, which keeps only the lowest colors of each pair
    # and so must leave the memo of the whole graph empty
    passes = _spy_on_passes(monkeypatch)
    g = _complete(3, 1 << 16)
    for pattern in (D, T):
        assert _witness_key(find_rainbow(g, pattern)) == ((0, 1, 2), (1, 2, 3))
        with pytest.raises(GraphInputError, match=r"COUNT_COLOR_LIMIT = 2\*\*16 colors"):
            count_rainbow(g, pattern)
    assert g._rainbow_memo == {}
    assert passes == [3, 3]  # one pass per find, on the three kept layers
    g = _complete(3, 19)
    witnesses = [find_rainbow(g, pattern) for pattern in (D, T)]
    assert g._rainbow_memo == {}  # find added nothing
    del passes[:]
    assert count_rainbow(g, D) == naive_count_rainbow(g, D)
    assert set(g._rainbow_memo) == {True, False}  # the first count filled both slots
    assert count_rainbow(g, T) == naive_count_rainbow(g, T)
    assert [find_rainbow(g, pattern) for pattern in (D, T)] == witnesses
    # one pass for both counts; each find still runs its own on the kept layers
    assert passes == [19, 3, 3]


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
        with pytest.raises(GraphInputError, match=r"COUNT_COLOR_LIMIT = 2\*\*16 colors"):
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


def _assert_halls_condition(triples):
    # each triple of color masks is set on the slots of one copy of the
    # pattern; the other three pairs stay empty, so no other copy can be
    # rainbow, and the closures of all six vertex orders must agree with
    # brute force over distinct color triples
    rainbow = {t: naive_masks_have_rainbow(*t) for t in triples}
    assert 0 < sum(rainbow.values()) < len(rainbow)
    for pattern in (D, T):
        masks = [[0] * 3 for _ in range(3)]
        checks = [rainbow_free_check(masks, pattern, *order) for order in permutations(range(3))]
        for order in permutations(range(3)):
            slots = _slots(pattern, *order)
            for triple, want in rainbow.items():
                for (u, v), mask in zip(slots, triple):
                    masks[u][v] = mask
                assert [check() for check in checks] == [not want] * 6, (pattern, order, triple)
            for u, v in slots:
                masks[u][v] = 0


def test_rainbow_free_check_is_halls_condition_on_every_mask_triple():
    _assert_halls_condition(product(range(16), repeat=3))  # c <= 4


def test_rainbow_free_check_is_halls_condition_on_eight_bit_masks():
    # a seeded sample with c = 8, most masks of at most three colors so that
    # both outcomes are common
    rng = random.Random(8)

    def mask():
        size = rng.choice((0, 1, 1, 2, 2, 3, 8))
        return rng.randrange(256) if size == 8 else sum(1 << i for i in rng.sample(range(8), size))

    _assert_halls_condition({(mask(), mask(), mask()) for _ in range(1500)})


def test_rainbow_free_check_sees_writes_made_after_it_was_built():
    # the closure keeps the rows of m, so writes to m[u][v], one entry or a
    # whole row in place, show on its next call
    for pattern in (D, T):
        masks = [[0] * 3 for _ in range(3)]
        checks = [rainbow_free_check(masks, pattern, *order) for order in permutations(range(3))]
        assert all(check() for check in checks)
        slots = _slots(pattern, 0, 1, 2)
        for (u, v), color in zip(slots, (1, 2, 4)):
            masks[u][v] = color
        assert not any(check() for check in checks)
        masks[u][v] = 1  # the last slot now repeats the first slot's color
        assert all(check() for check in checks)
        for row in masks:
            row[:] = [7, 7, 7]
        assert not any(check() for check in checks)


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
