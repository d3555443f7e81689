"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single ``[PASS]``/``[FAIL]`` line naming its criterion
(run with ``pytest -s`` to see the lines as they appear) and then asserts,
so the suite is green exactly when every criterion holds.

The criteria grade through the same ``rtlab.cli.check_*`` functions that
build the ``rtlab verify-all`` segments, and assert only what they add on
top.
"""

import time
from fractions import Fraction

from rtlab.cli import (
    check_constraint_scan,
    check_constructions,
    check_detector_sanity,
    check_thresholds,
    check_two_set_edge_bound,
)
from rtlab.constructions import (
    AVOIDED_PATTERNS,
    ConstructionId,
    build_construction,
    expected_count,
)
from rtlab.exactmath import (
    ConstraintSystem,
    QuadraticRational,
    lemma21_bound,
    lemma21_oracle,
    threshold_value,
    thresholds,
)
from rtlab.graphs import count_color
from rtlab.search import SearchObjective, SearchProblem, solve
from rtlab.triangles import TrianglePattern, count_rainbow, find_rainbow, witness_is_valid

from naive import naive_count_rainbow, naive_two_sided_triangle_free_max, random_graph
from test_catalogues import CLAIM_MAXIMA

D, T = TrianglePattern.DIRECTED, TrianglePattern.TRANSITIVE

# the threshold entry each extremal family sits just below, per color
THRESHOLD_ENTRIES = {
    ConstructionId.BIPARTITE_DOUBLE: "directed-per-color-4plus",
    ConstructionId.DIRECTED3: "directed-per-color-3",
    ConstructionId.TRANSITIVE3: "transitive-per-color-3",
    ConstructionId.ORIENTED_CYCLIC: "transitive-per-color-oriented",
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


def _failed_entries(segment) -> list[str]:
    return [f"{status} at {s}" for status in ("violated", "infeasible") for s in segment[status]]


def test_criterion_1_class_pair_table(graded_catalogue):
    segment, _, elapsed = graded_catalogue("table10x10")
    ok = segment["pass"] and segment["scenarios"] == 100 and elapsed < 600
    verdict(
        "criterion 1: all 100 class-pair table cells verified",
        ok,
        "; ".join([f"{segment['scenarios']} cells in {elapsed:.1f}s", *_failed_entries(segment)]),
    )


def test_criterion_2_pairwise_bound_lists(graded_catalogue):
    segments = {which: graded_catalogue(which)[0] for which in ("eq1_bullets", "eq3_bullets")}
    counts = {which: s["scenarios"] for which, s in segments.items()}
    ok = counts == {"eq1_bullets": 12, "eq3_bullets": 10} and all(
        s["pass"] for s in segments.values()
    )
    verdict(
        "criterion 2: both pairwise bound lists verified (12 + 10 scenarios)",
        ok,
        "; ".join([str(counts)] + [f for s in segments.values() for f in _failed_entries(s)]),
    )


def test_criterion_3_local_claim_catalogue(graded_catalogue):
    segment, entries, _ = graded_catalogue("claims_local")
    computed = {e.scenario_id: e.computed_max for e in entries}
    mismatches = [
        f"{sid}: computed {computed.get(sid)} expected {want}"
        for sid, want in CLAIM_MAXIMA.items()
        if computed.get(sid) != want
    ]
    ok = segment["pass"] and not mismatches and set(computed) == set(CLAIM_MAXIMA)
    verdict(
        "criterion 3: every local claim optimum reproduced exactly",
        ok,
        "; ".join(mismatches + _failed_entries(segment)) or f"{len(computed)} claims exact",
    )


def test_criterion_4_construction_suite():
    started = time.perf_counter()
    segment = check_constructions()
    problems = list(segment["failures"])
    for cid, patterns in AVOIDED_PATTERNS.items():
        for n in (600, 3000):
            g = build_construction(cid, n)
            for color in range(1, g.c + 1):
                if count_color(g, color) != expected_count(cid, n, color):
                    problems.append(f"{cid.value} n={n} color {color}: count mismatch")
            if n == 600:  # the detectors at n = 600, the counts alone at n = 3000
                for pattern in patterns:
                    if find_rainbow(g, pattern) is not None:
                        problems.append(f"{cid.value} n=600: rainbow {pattern.value}")
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
    ok = segment["pass"] and segment["cases"] == 5 * 28 and not problems and elapsed < 60
    verdict(
        "criterion 4: constructions exact and pattern-free for n <= 30 and n = 600, "
        "counts exact at n = 3000, densities within 4n below their thresholds",
        ok,
        f"{elapsed:.1f}s" + ("; " + "; ".join(problems[:5]) if problems else ""),
    )


def test_criterion_5_two_set_edge_bound():
    started = time.perf_counter()
    segment = check_two_set_edge_bound()
    problems = [f"({f['a']},{f['b']}): {f['maximum']} above the bound" for f in segment["failures"]]
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
    ok = segment["pass"] and segment["cases"] == 36 and not problems and elapsed < 120
    verdict(
        "criterion 5: two-set edge bound holds on the full grid with the expected tight cases",
        ok,
        f"{elapsed:.1f}s" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_6_scan_confirms_unique_optimum():
    # the claimed optimum is a grid point, so the best one must be exactly it
    segment = check_constraint_scan()
    value, point = segment["grid_value"], segment["grid_point"]
    at_optimum = point == [1 / 3, 0.0, 0.0, 0.0] == [float(v) for v in ConstraintSystem.OPTIMUM]
    exact_zero = ConstraintSystem().slacks(*ConstraintSystem.OPTIMUM) == (0, 0)
    # every feasible point of the grid of step 1/498 graded, and only the
    # optimum has both slacks >= 0, both exactly 0
    counts = (segment["grid_points"], segment["nonnegative_points"])
    exact = counts == (106_923_921, 1) and segment["exact_slacks_at_optimum"] == ["0", "0"]
    # one fixed resolution and no polish: no step, iters or polished fields
    fields = set(segment) == {
        *("name", "pass", "grid_value", "grid_point"),
        *("grid_points", "nonnegative_points", "exact_slacks_at_optimum"),
    }
    ok = value == 0.0 and at_optimum and exact_zero and exact and fields and segment["pass"]
    verdict(
        "criterion 6: constraint scan pins the unique zero-slack optimum",
        ok,
        f"best grid value {value:.2e} at {tuple(round(v, 6) for v in point)}; "
        f"{counts[1]} of {counts[0]} grid points nonnegative",
    )


def test_criterion_7_exact_constant_identities():
    segment = check_thresholds()
    identities = segment["identities"]
    failed = [i["check"] for i in identities if not i["holds"]]
    base = QuadraticRational(Fraction(26, 81), Fraction(-2, 81))
    if thresholds()["undirected-per-color-3"].quad != base:
        failed.append("per-color base constant is not 26/81 - (2/81) sqrt 7")
    entries = {e["name"]: e for e in segment["entries"]}
    expected_names = {
        "directed-per-color-3",
        "transitive-per-color-3",
        "transitive-pair-3",
        "undirected-per-color-3",
        "directed-total-4plus",
    }
    if not expected_names <= set(entries):
        failed.append(f"entries missing: {sorted(expected_names - set(entries))}")
    elif not entries["undirected-per-color-3"]["coefficient"]["decimal"].startswith("0.2556"):
        failed.append("undirected-per-color-3 does not print as 0.2556...")
    scaling = {name for name, e in entries.items() if e["scales_with_colors"]}
    if scaling != {"directed-total-4plus", "transitive-total-4plus", "transitive-total-oriented"}:
        failed.append(f"entries scaling with colors: {sorted(scaling)}")
    verdict(
        "criterion 7: exact square-root-of-7 constants satisfy their identities",
        segment["pass"] and not failed,
        "; ".join(failed) if failed else f"all {len(identities)} identities hold",
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
    sanity = check_detector_sanity(424242)
    if not sanity["pass"]:
        problems.append(f"detector-sanity: {sanity['mismatches']} mismatches")
    ok = not problems
    verdict(
        "criterion 8: golden n=3 optima reproduced and detectors agree with brute force on 10000 graphs",
        ok,
        "; ".join(problems) if problems else "8 golden values + 10000 random graphs",
    )
