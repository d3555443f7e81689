"""Tests of the benchmark itself: span arithmetic, failure accounting,
counter repeatability and the pinned data.

Run from the root of a checkout:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import itertools
import sys
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rtlab import triangles  # noqa: E402
from worker import run_rep  # noqa: E402


def _short_small_n(expected=None):
    return workloads.SmallN(expected=expected, corpus_size=300, golden_ns=(3,))


def _rep(mode, instance, seed=7):
    return run_rep("small-n", seed, mode, time.monotonic_ns(), instance=instance)


def test_self_time_on_hand_built_span_tree():
    tree = [
        ["cli.main", 0, 100, -1, None],
        ["localbounds.evaluate_scenarios", 10, 40, 0, {"catalogue": "table10x10", "nodes": 5}],
        ["localbounds.evaluate_scenario", 15, 25, 1, {"nodes": 5}],
        ["exactmath.scan_constraint_system", 50, 90, 0, {"grid_points": 7}],
    ]
    assert spans.self_times(tree) == [30, 20, 10, 40]
    m = spans.layer_metrics(tree)
    assert m["cli.overhead_s"] == m["cli.busy_s"] == 30e-9
    assert m["localbounds.busy_s"] == 30e-9
    assert m["localbounds.table10x10.s"] == 30e-9  # inclusive: the catalogue's wall time
    assert m["localbounds.table10x10.nodes"] == m["localbounds.nodes"] == 5
    assert m["localbounds.scenarios"] == 1
    assert m["exactmath.scan_s"] == 40e-9
    assert m["exactmath.grid_points"] == 7


def test_tracer_records_parents_and_restores_names():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    original = ns.__dict__["inner"]
    tracer = spans.Tracer("t")
    tracer.patch(ns, "outer", "cli.outer")
    tracer.patch(ns, "inner", "graphs.inner", lambda a, k, r: {"bytes": r})
    assert ns.outer(1) == 4
    tracer.restore()
    assert ns.inner is original
    (outer, start, end, parent, attrs), inner = tracer.spans
    assert (outer, parent, attrs) == ("cli.outer", -1, None)
    assert inner[spans.NAME] == "graphs.inner" and inner[spans.PARENT] == 0
    assert inner[spans.ATTRS] == {"bytes": 2}
    assert start <= inner[spans.START] <= inner[spans.END] <= end


def test_triples_scanned_matches_permutation_order():
    n = 6
    for rank, triple in enumerate(itertools.permutations(range(n), 3), start=1):
        witness = types.SimpleNamespace(vertices=triple)
        assert spans.triples_scanned(n, witness) == rank
    assert spans.triples_scanned(n, None) == n * (n - 1) * (n - 2)


def test_failed_frac_rises_when_a_pin_is_wrong():
    good = _rep("run", _short_small_n())
    assert good["checks"] and all(c["ok"] for c in good["checks"])

    expected = copy.deepcopy(workloads.EXPECTED)
    expected["small-n"]["goldens"][0][-1] += 1
    bad = _rep("run", _short_small_n(expected))
    failed = [c for c in bad["checks"] if not c["ok"]]
    assert len(bad["checks"]) == len(good["checks"])
    assert [c["layer"] for c in failed] == ["search"]

    crashed = {"mode": "run", "error": "exit status 1", "wall_s": 1.0}
    summary = run.summarize("small-n", 7, False, [], [good, bad, crashed])
    assert summary["attempted"] == 2 * len(good["checks"]) + 1
    assert summary["failed"] == 2
    assert not summary["correct"]
    assert run.summarize("small-n", 7, False, [], [good])["failed"] == 0


def test_a_raising_check_fails_alone():
    checker = workloads.Checker()
    checker.check("boom", "graphs", 1, lambda: 1 // 0)
    checker.check("fine", "graphs", [1, 2], lambda: (1, 2))
    assert [c["ok"] for c in checker.results] == [False, True]
    assert "ZeroDivisionError" in checker.results[0]["detail"]


def test_counters_repeat_exactly_on_a_shortened_run():
    first = _rep("trace", _short_small_n())
    second = _rep("trace", _short_small_n())
    assert triangles.find_rainbow.__module__ == "rtlab.triangles"  # wrappers removed
    counters = {name: first["layers"][name] for name in spans.COUNTERS}
    assert counters == {name: second["layers"][name] for name in spans.COUNTERS}
    assert counters["search.solves"] == 8
    assert counters["graphs.graphs_built"] == 300
    assert counters["search.nodes"] > 0 and counters["triangles.triples"] > 0


def _brute_force_count(n, edges, pattern):
    """Rainbow copies by direct enumeration, independent of rtlab."""
    present = set(edges)
    total = 0
    for u, v, w in itertools.permutations(range(n), 3):
        if pattern == "directed":
            if u != min(u, v, w):
                continue
            slots = ((u, v), (v, w), (w, u))
        else:
            slots = ((u, v), (v, w), (u, w))
        for colors in itertools.permutations((1, 2, 3)):
            total += all((c, a, b) in present for c, (a, b) in zip(colors, slots))
    return total


def test_pinned_pool_counts_match_brute_force():
    pool = workloads.make_pool()
    pins = workloads.EXPECTED["small-n"]["pool"]
    assert len(pins) == len(pool)
    for (n, edges), pin in list(zip(pool, pins))[::5]:
        assert pin == [_brute_force_count(n, edges, p) for p in ("directed", "transitive")]


def test_corpus_depends_only_on_the_seed():
    pool = workloads.make_pool()
    assert workloads.make_corpus(3, 50, pool) == workloads.make_corpus(3, 50, pool)
    assert workloads.make_corpus(3, 50, pool) != workloads.make_corpus(4, 50, pool)
