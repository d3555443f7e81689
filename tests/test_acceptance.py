"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[PASS]``/``[FAIL]`` line naming its criterion
(run with ``pytest -s`` to see the lines as they appear) and then asserts,
so the suite is green exactly when every criterion holds.
"""

import time
from fractions import Fraction

from rtlab.constructions import ConstructionId, build_construction, expected_count
from rtlab.exactmath import (
    QuadraticRational,
    lemma21_bound,
    lemma21_oracle,
    scan_constraint_system,
    threshold_value,
    thresholds,
)
from rtlab.graphs import count_color
from rtlab.localbounds import run_catalogue
from rtlab.search import SearchObjective, SearchProblem, solve
from rtlab.triangles import TrianglePattern, count_rainbow, find_rainbow, witness_is_valid

from naive import naive_count_rainbow, naive_two_sided_triangle_free_max, random_graph

D, T = TrianglePattern.DIRECTED, TrianglePattern.TRANSITIVE

# pattern(s) each construction family avoids, and its per-color density limit
CONSTRUCTION_FREE = {
    ConstructionId.BIPARTITE_DOUBLE: (D, T),
    ConstructionId.DIRECTED3: (D,),
    ConstructionId.TRANSITIVE3: (T,),
    ConstructionId.ORIENTED_CYCLIC: (T,),
    ConstructionId.TWO_COLOR_HEAVY: (D,),
}
# the threshold entry each extremal family sits just below, per color
THRESHOLD_ENTRIES = {
    ConstructionId.BIPARTITE_DOUBLE: "directed-per-color-4plus",
    ConstructionId.DIRECTED3: "directed-per-color-3",
    ConstructionId.TRANSITIVE3: "transitive-per-color-3",
    ConstructionId.ORIENTED_CYCLIC: "transitive-per-color-oriented",
}

CLAIM_MAXIMA = {
    "double-double:adjacent-colors:c4": 4,
    "double-double:adjacent-colors-wrap:c5": 4,
    "heavy-fan:third-pair:c4": 2,
    "full-pair:two-colors:c3": 4,
    "double-pair:other-colors:c3": 4,
    "single-edge:other-colors:c3": 6,
    "two-doubles:touched-both:c4": 8,
    "one-double:shared-link:c4": 6,
    "one-double:no-shared-link:c4": 7,
    "thick-path:fan:c3": 6,
    "thick-path:fan:c4": 8,
    "thick-pair:no-path:c3": 4,
    "thick-pair:no-path:c4": 5,
}

GOLDEN_N3_C3 = {
    # (oriented, pattern) -> (max total, max min-color)
    (False, D): (12, 4),
    (False, T): (12, 4),
    (True, D): (9, 3),
    (True, T): (9, 3),
}


def verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {detail}" if detail else ""), flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_1_class_pair_table():
    started = time.perf_counter()
    entries = run_catalogue("table10x10", jobs=4)
    elapsed = time.perf_counter() - started
    problems = [
        f"{e.scenario_id}: computed {e.computed_max} vs bound {e.bound} ({e.status})"
        for e in entries
        if e.status in ("violated", "infeasible") or e.computed_max > e.bound
    ]
    ok = len(entries) == 100 and not problems and elapsed < 600
    verdict(
        "criterion 1: all 100 class-pair table cells verified",
        ok,
        f"{len(entries)} cells in {elapsed:.1f}s" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_2_pairwise_bound_lists():
    problems = []
    counts = {}
    for which in ("eq1_bullets", "eq3_bullets"):
        entries = run_catalogue(which, jobs=4)
        counts[which] = len(entries)
        for e in entries:
            if e.status in ("violated", "infeasible") or Fraction(e.computed_max) > e.bound:
                problems.append(f"{which}/{e.scenario_id}: {e.computed_max} vs {e.bound}")
    ok = counts == {"eq1_bullets": 12, "eq3_bullets": 10} and not problems
    verdict(
        "criterion 2: both pairwise bound lists verified (12 + 10 scenarios)",
        ok,
        "; ".join(problems) if problems else "all integer maxima within their rational bounds",
    )


def test_criterion_3_local_claim_catalogue():
    entries = run_catalogue("claims_local", jobs=4)
    computed = {e.scenario_id: e.computed_max for e in entries}
    mismatches = [
        f"{sid}: computed {computed.get(sid)} expected {want}"
        for sid, want in CLAIM_MAXIMA.items()
        if computed.get(sid) != want
    ]
    ok = not mismatches and set(computed) == set(CLAIM_MAXIMA)
    verdict(
        "criterion 3: every local claim optimum reproduced exactly",
        ok,
        "; ".join(mismatches) if mismatches else f"{len(computed)} claims exact",
    )


def test_criterion_4_construction_suite():
    started = time.perf_counter()
    problems = []
    for cid, patterns in CONSTRUCTION_FREE.items():
        for n in list(range(3, 31)) + [600]:
            g = build_construction(cid, n)
            for color in range(1, g.c + 1):
                if count_color(g, color) != expected_count(cid, n, color):
                    problems.append(f"{cid.value} n={n} color {color}: count mismatch")
            for pattern in patterns:
                if find_rainbow(g, pattern) is not None:
                    problems.append(f"{cid.value} n={n}: rainbow {pattern.value} present")
        g = build_construction(cid, 3000)
        for color in range(1, g.c + 1):
            if count_color(g, color) != expected_count(cid, 3000, color):
                problems.append(f"{cid.value} n=3000 color {color}: count mismatch")
    # exact densities: every color class at or below its threshold, and the
    # sparsest class within 4n of it
    table = thresholds()
    for cid, name in THRESHOLD_ENTRIES.items():
        entry = table[name]
        colors = range(1, 5 if cid is ConstructionId.BIPARTITE_DOUBLE else 4)
        for n in range(3, 3001):
            counts = [expected_count(cid, n, color) for color in colors]
            limit = threshold_value(entry, n)
            if not max(counts) <= limit:
                problems.append(f"{cid.value} n={n}: {max(counts)} above {name}")
            if not limit - min(counts) <= 4 * n:
                problems.append(f"{cid.value} n={n}: {min(counts)} more than 4n below {name}")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 60
    verdict(
        "criterion 4: constructions exact and pattern-free for n <= 30 and n = 600, "
        "counts exact at n = 3000, densities within 4n below their thresholds",
        ok,
        f"{elapsed:.1f}s" + ("; " + "; ".join(problems[:5]) if problems else ""),
    )


def test_criterion_5_two_set_edge_bound():
    started = time.perf_counter()
    problems = []
    for a in range(8):
        for b in range(8 - a):
            maximum = lemma21_oracle(a, b)
            if maximum > lemma21_bound(a, b):
                problems.append(f"({a},{b}): {maximum} > {lemma21_bound(a, b)}")
    for b in range(8):
        if lemma21_oracle(0, b) != lemma21_bound(0, b):
            problems.append(f"(0,{b}) not tight")
    if lemma21_oracle(2, 2) != 4:
        problems.append("(2,2) != 4")
    for a in range(7):
        for b in range(7 - a):
            if lemma21_oracle(a, b) != naive_two_sided_triangle_free_max(a, b):
                problems.append(f"({a},{b}): oracle disagrees with unpruned enumeration")
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 120
    verdict(
        "criterion 5: two-set edge bound holds on the full grid with the expected tight cases",
        ok,
        f"{elapsed:.1f}s" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_6_scan_confirms_unique_optimum():
    scan = scan_constraint_system(grid_step=0.002, polish_iters=200)
    u, y, z, r = scan.polished_point
    near = (
        abs(u - 1 / 3) <= 1e-4 and abs(y) <= 1e-4 and abs(z) <= 1e-4 and abs(r) <= 1e-4
    )
    exact_zero = scan.exact_slacks_at_optimum == (Fraction(0), Fraction(0))
    ok = scan.polished_value <= 1e-9 and near and exact_zero and scan.optimum_confirmed
    verdict(
        "criterion 6: constraint scan pins the unique zero-slack optimum",
        ok,
        f"polished value {scan.polished_value:.2e} at {tuple(round(v, 6) for v in scan.polished_point)}",
    )


def test_criterion_7_exact_constant_identities():
    table = thresholds()
    base = QuadraticRational(Fraction(26, 81), Fraction(-2, 81))
    checks = {
        "transitive pair-sum doubles per-color": table["transitive-pair-3"].quad
        == table["transitive-per-color-3"].quad * 2,
        "undirected pair-sum is twice the base constant": table["undirected-pair-3"].quad
        == base * 2,
        "per-color base constant": table["undirected-per-color-3"].quad == base,
        "base constant rounds to 0.2557": base.decimal(4) == "0.2557",
    }
    failed = [name for name, holds in checks.items() if not holds]
    verdict(
        "criterion 7: exact square-root-of-7 constants satisfy their identities",
        not failed,
        "; ".join(failed) if failed else "all 4 identities hold",
    )


def test_criterion_8_golden_optima_and_detector_agreement():
    problems = []
    for (oriented, pattern), (want_total, want_min) in GOLDEN_N3_C3.items():
        for objective, want in (
            (SearchObjective.TOTAL, want_total),
            (SearchObjective.MIN_COLOR, want_min),
        ):
            problem = SearchProblem(
                n=3, c=3, pattern=pattern, oriented=oriented, objective=objective
            )
            result = solve(problem)
            if not result.exhaustive or result.value != want:
                problems.append(
                    f"n=3 c=3 {pattern.value} oriented={oriented} {objective.value}: "
                    f"{result.value} vs {want}"
                )

    import random

    rng = random.Random(424242)
    mismatches = 0
    for i in range(10_000):
        n = rng.randint(3, 5)
        g = random_graph(rng, n, 3, p=rng.choice((0.15, 0.3, 0.5)))
        pattern = D if i % 2 == 0 else T
        expected = naive_count_rainbow(g, pattern)
        witness = find_rainbow(g, pattern)
        if count_rainbow(g, pattern) != expected:
            mismatches += 1
        elif (witness is None) != (expected == 0):
            mismatches += 1
        elif witness is not None and not witness_is_valid(g, witness):
            mismatches += 1
    if mismatches:
        problems.append(f"{mismatches} detector disagreements out of 10000")
    ok = not problems
    verdict(
        "criterion 8: golden n=3 optima reproduced and detectors agree with brute force on 10000 graphs",
        ok,
        "; ".join(problems) if problems else "8 golden values + 10000 random graphs",
    )
