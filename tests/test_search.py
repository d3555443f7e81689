import itertools

import pytest

from rtlab.exactmath import threshold_value, thresholds
from rtlab.graphs import ColoredDigraph, graph_digest
from rtlab.search import (
    DEFAULT_NODE_BUDGET,
    SearchObjective,
    SearchProblem,
    _first_pair_profiles,
    _profiles,
    solve,
    verify_witness,
)
from rtlab.triangles import TrianglePattern, find_rainbow

D, T = TrianglePattern.DIRECTED, TrianglePattern.TRANSITIVE
TOTAL, MINC = SearchObjective.TOTAL, SearchObjective.MIN_COLOR

# frozen outputs of the exhaustive pair-state enumeration below (n=3, c=3)
GOLDEN_N3 = {
    (False, D): (12, 4),
    (False, T): (12, 4),
    (True, D): (9, 3),
    (True, T): (9, 3),
}
# frozen solver outputs at n=4, c=3, spot-checked against hand witnesses,
# with the graph_digest of each total's witness
GOLDEN_N4_TOTAL = {
    (False, D): (24, "29987002c390952ffbab24213f855eca0e59ac37fdda832553866d08d279ba9a"),
    (False, T): (24, "29987002c390952ffbab24213f855eca0e59ac37fdda832553866d08d279ba9a"),
    (True, D): (18, "7ab3778b244252bcbfe0c9d7bd1a703351f73f0feeec15d7d97f4ea2e8ca8d4d"),
    (True, T): (15, "ec78784b237c9990363c412224de015e418f3652334457ca7521389fe8280ff0"),
}
GOLDEN_N4_MIN = {(False, D): 8, (False, T): 8, (True, D): 6, (True, T): 5}
# frozen solver outputs at n=4, c=4 (total), with the ledger entry each obeys
GOLDEN_N4_C4_TOTAL = {
    (False, D): (32, "directed-total-4plus"),
    (False, T): (32, "transitive-total-4plus"),
    (True, D): (24, "directed-total-4plus"),
    (True, T): (20, "transitive-total-oriented"),
}
# nodes of each c=3 golden search; a slower search fails here, not in timing
GOLDEN_NODES = {
    (3, False, D): {TOTAL: 5951, MINC: 619},
    (3, False, T): {TOTAL: 5951, MINC: 619},
    (3, True, D): {TOTAL: 6, MINC: 6},
    (3, True, T): {TOTAL: 181, MINC: 94},
    (4, False, D): {TOTAL: 11645, MINC: 76870},
    (4, False, T): {TOTAL: 12265, MINC: 60749},
    (4, True, D): {TOTAL: 12, MINC: 12},
    (4, True, T): {TOTAL: 18933, MINC: 873},
}


def _oracle_sdr(m1, m2, m3):
    for c1 in range(3):
        if not m1 >> c1 & 1:
            continue
        for c2 in range(3):
            if c2 == c1 or not m2 >> c2 & 1:
                continue
            for c3 in range(3):
                if c3 not in (c1, c2) and m3 >> c3 & 1:
                    return True
    return False


def _oracle_optima(oriented, pattern):
    """Max total and max min-color over ALL rainbow-free states at n=3, c=3."""
    states = [(f, b) for f in range(8) for b in range(8) if not (oriented and f & b)]
    best_total, best_min = -1, -1
    for s01, s02, s12 in itertools.product(states, repeat=3):
        m = {}
        m[0, 1], m[1, 0] = s01
        m[0, 2], m[2, 0] = s02
        m[1, 2], m[2, 1] = s12
        if pattern is D:
            bad = _oracle_sdr(m[0, 1], m[1, 2], m[2, 0]) or _oracle_sdr(
                m[0, 2], m[2, 1], m[1, 0]
            )
        else:
            bad = any(
                _oracle_sdr(m[u, v], m[v, w], m[u, w])
                for u, v, w in itertools.permutations(range(3))
            )
        if bad:
            continue
        counts = [sum(m[p] >> i & 1 for p in m) for i in range(3)]
        best_total = max(best_total, sum(counts))
        best_min = max(best_min, min(counts))
    return best_total, best_min


def test_oracle_agrees_with_frozen_golden_values():
    for (oriented, pattern), expected in GOLDEN_N3.items():
        assert _oracle_optima(oriented, pattern) == expected, (oriented, pattern)


def test_solver_matches_golden_values_n3():
    for (oriented, pattern), (want_total, want_min) in GOLDEN_N3.items():
        rt = solve(SearchProblem(3, 3, pattern, oriented=oriented))
        rm = solve(SearchProblem(3, 3, pattern, oriented=oriented, objective=MINC))
        assert (rt.value, rm.value) == (want_total, want_min), (oriented, pattern)
        assert rt.exhaustive and rm.exhaustive


def test_witnesses_certify_their_values():
    for oriented, pattern in GOLDEN_N3:
        for objective in (TOTAL, MINC):
            problem = SearchProblem(3, 3, pattern, oriented=oriented, objective=objective)
            result = solve(problem)
            assert result.witness is not None
            assert verify_witness(problem, result.witness, result.value)
            assert find_rainbow(result.witness, pattern) is None


def test_no_rainbow_possible_below_three_colors():
    for c in (1, 2):
        for pattern in (D, T):
            r = solve(SearchProblem(3, c, pattern))
            assert r.value == 6 * c  # every slot fillable
            r = solve(SearchProblem(3, c, pattern, oriented=True))
            assert r.value == 3 * c


def test_two_vertices_leave_no_triangles():
    for pattern in (D, T):
        assert solve(SearchProblem(2, 3, pattern)).value == 6
        assert solve(SearchProblem(2, 3, pattern, oriented=True)).value == 3
    assert solve(SearchProblem(1, 3, D)).value == 0
    assert solve(SearchProblem(0, 3, D)).value == 0


def test_n4_totals_frozen():
    for (oriented, pattern), (want, digest) in GOLDEN_N4_TOTAL.items():
        problem = SearchProblem(4, 3, pattern, oriented=oriented)
        result = solve(problem)
        assert result.value == want, (oriented, pattern)
        assert result.exhaustive
        assert verify_witness(problem, result.witness, result.value)
        assert graph_digest(result.witness) == digest, (oriented, pattern)


def test_golden_node_counts_frozen():
    for (n, oriented, pattern), by_objective in GOLDEN_NODES.items():
        for objective, want in by_objective.items():
            problem = SearchProblem(n, 3, pattern, oriented=oriented, objective=objective)
            assert solve(problem).nodes == want, problem


def test_n4_c4_totals_frozen_and_within_the_ledger():
    table = thresholds()
    for (oriented, pattern), (want, name) in GOLDEN_N4_C4_TOTAL.items():
        problem = SearchProblem(4, 4, pattern, oriented=oriented)
        result = solve(problem, budget=DEFAULT_NODE_BUDGET)
        assert result.value == want, (oriented, pattern)
        assert result.exhaustive
        assert verify_witness(problem, result.witness, result.value)
        entry = table[name]
        limit = threshold_value(entry, 4, 4)
        # a strict entry forces the pattern only above its threshold
        assert result.value <= limit if entry.strict else result.value < limit, name
        if not oriented:  # (c/2)n^2 is tight: bipartite_double attains it
            assert result.value == limit, name


def test_averaging_cap_ends_the_search_only_at_its_value():
    # T(4) = 15 caps the oriented transitive total at n = 5 by 5 * 15 // 3 = 25:
    # the witness of 24 found within 25k nodes must not end the search
    problem = SearchProblem(5, 3, T, oriented=True)
    result = solve(problem, budget=100_000)
    assert (result.value, result.exhaustive, result.nodes) == (24, False, 100_001)
    assert verify_witness(problem, result.witness, result.value)


def test_n4_min_color_directed():
    for (oriented, pattern), want in GOLDEN_N4_MIN.items():
        problem = SearchProblem(4, 3, pattern, oriented=oriented, objective=MINC)
        result = solve(problem)
        assert result.value == want, (oriented, pattern)
        assert result.exhaustive
        assert verify_witness(problem, result.witness, result.value)


def test_min_color_never_beats_average():
    for (oriented, pattern), (want_total, want_min) in GOLDEN_N3.items():
        assert want_min <= want_total // 3


def test_oriented_never_beats_unrestricted():
    for pattern in (D, T):
        free = solve(SearchProblem(3, 3, pattern)).value
        restricted = solve(SearchProblem(3, 3, pattern, oriented=True)).value
        assert restricted <= free


def test_budget_reports_non_exhaustive():
    for objective, golden in ((TOTAL, 24), (MINC, 8)):
        problem = SearchProblem(4, 3, D, objective=objective)
        capped = solve(problem, budget=2000)
        assert not capped.exhaustive, objective
        assert capped.nodes == 2001
        assert capped.value <= golden
        if capped.witness is not None:
            assert verify_witness(problem, capped.witness, capped.value)
    # the budget bounds the work at the largest color count too
    wide = solve(SearchProblem(4, 8, D), budget=1000)
    assert not wide.exhaustive
    assert wide.nodes == 1001
    # budget 0 is a valid, immediately exhausted budget; a negative one is not
    at_zero = solve(SearchProblem(3, 3, D), budget=0)
    assert not at_zero.exhaustive and at_zero.nodes == 1
    with pytest.raises(ValueError, match="non-negative"):
        solve(SearchProblem(3, 3, D), budget=-1)


def test_budget_counts_nodes_exactly():
    # a capped run counts the node that broke the cap, and a budget equal to
    # the unbudgeted node count is exactly enough
    problems = [
        SearchProblem(3, 3, pattern, oriented=oriented, objective=objective)
        for oriented, pattern in GOLDEN_N3
        for objective in (TOTAL, MINC)
    ] + [
        SearchProblem(4, 3, D, objective=MINC),
        SearchProblem(4, 3, T, oriented=True),
        SearchProblem(4, 3, T, oriented=True, objective=MINC),
        # capped by their n = 3 run (5,951 nodes): budgets 0, 1 and 5 end in
        # that run, full.nodes - 1 in the main search
        SearchProblem(4, 3, D),
        SearchProblem(4, 3, T),
    ]
    for problem in problems:
        full = solve(problem)
        for budget in (0, 1, 5, full.nodes - 1):
            capped = solve(problem, budget=budget)
            assert capped.nodes == budget + 1 and not capped.exhaustive, (problem, budget)
        at_count = solve(problem, budget=full.nodes)
        assert at_count.exhaustive, problem
        assert (at_count.value, at_count.nodes) == (full.value, full.nodes), problem
        assert at_count.witness == full.witness, problem


def _permuted(mask, perm):
    return sum(1 << target for i, target in enumerate(perm) if mask >> i & 1)


def test_symmetry_pruning_reduces_nodes():
    """The first pair keeps exactly one state per color-permutation orbit:
    its least (fwd_mask, bwd_mask), which keeps the witnesses stable."""
    for c in (3, 4):
        perms = list(itertools.permutations(range(c)))
        for oriented in (False, True):
            states = {
                (f, b)
                for f in range(1 << c)
                for b in range(1 << c)
                if not (oriented and f & b)
            }
            orbits = {
                frozenset((_permuted(f, p), _permuted(b, p)) for p in perms)
                for f, b in states
            }
            first = [(f, b) for _, f, b, _ in _first_pair_profiles(_profiles(c, oriented))]
            assert len(first) == len(set(first)) == len(orbits) < len(states)
            for orbit in orbits:
                assert orbit.intersection(first) == {min(orbit)}, (c, sorted(orbit))


def test_verify_witness_rejects_bad_certificates():
    problem = SearchProblem(3, 3, D)
    result = solve(problem)
    good = result.witness
    assert not verify_witness(problem, good, result.value + 1)
    assert not verify_witness(SearchProblem(4, 3, D), good, result.value)
    assert not verify_witness(SearchProblem(3, 3, D, oriented=True), good, 1)
    bad = ColoredDigraph.from_edges(3, 3, [(1, 0, 1), (2, 1, 2), (3, 2, 0)])  # a rainbow cycle
    assert not verify_witness(problem, bad, 0)


def test_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem(-1, 3, D)
    with pytest.raises(ValueError):
        SearchProblem(3, 0, D)
    with pytest.raises(ValueError):
        SearchProblem(3, 9, D)
    SearchProblem(64, 3, D)  # exactly at the cap
    with pytest.raises(ValueError, match="MAX_SEARCH_VERTICES"):
        SearchProblem(65, 3, D)
