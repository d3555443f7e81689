"""Tests for the shipped bound catalogues.

The expected maxima below were frozen from exhaustive enumeration runs that
the naive oracle confirmed on every instance small enough to brute-force
(see test_scenarios.py); they are regression pins, the real claim is that
no entry is ever violated or infeasible.
"""

import hashlib
from fractions import Fraction

import pytest

from rtlab.graphs import GraphInputError
from rtlab.localbounds import (
    CATALOGUE_IDS,
    Constraint,
    Objective,
    Scenario,
    canonical_key,
    dumps_scenarios,
    evaluate_scenario,
    evaluate_scenarios,
    load_catalogue,
    run_catalogue,
)
from rtlab.localbounds import catalogues

# the full ten-class all-colors bound table, rows and columns ordered
# X12, X13, X23, Y1, Y2, Y3, Z1, Z2, Z3, R
TABLE = {
    "X12": (16, 12, 12, 12, 12, 12, 14, 14, 12, 7),
    "X13": (12, 16, 12, 12, 12, 12, 14, 12, 14, 7),
    "X23": (12, 12, 16, 12, 12, 12, 12, 14, 14, 7),
    "Y1": (12, 12, 12, 13, 12, 12, 13, 12, 12, 7),
    "Y2": (12, 12, 12, 12, 13, 12, 12, 13, 12, 7),
    "Y3": (12, 12, 12, 12, 12, 13, 12, 12, 13, 7),
    "Z1": (14, 14, 12, 13, 12, 12, 12, 12, 12, 6),
    "Z2": (14, 12, 14, 12, 13, 12, 12, 12, 12, 6),
    "Z3": (12, 14, 14, 12, 12, 13, 12, 12, 12, 6),
    "R": (7, 7, 7, 7, 7, 7, 6, 6, 6, 3),
}
CLASSES = ("X12", "X13", "X23", "Y1", "Y2", "Y3", "Z1", "Z2", "Z3", "R")

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

EQ1_MAXIMA = {
    "eq1:01-xx": 16,
    "eq1:02-xy": 12,
    "eq1:03-xz": 14,
    "eq1:04-yy": 11,
    "eq1:05-yz": 12,
    "eq1:06-zz": 12,
    "eq1:07-other": 8,
    "eq1:08-xr": 7,
    "eq1:09-yr": 6,
    "eq1:10-zr": 5,
    "eq1:11-other-r": 4,
    "eq1:12-rr": 2,
}

EQ3_MAXIMA = {
    "eq3:01-xx": 16,
    "eq3:02-xy": 12,
    "eq3:03-xz": 14,
    "eq3:04-yy-same": 13,
    "eq3:05-yy-cross": 12,
    "eq3:06-yz-same": 13,
    "eq3:07-yz-cross": 12,
    "eq3:08-other": 12,
    "eq3:09-zr": 6,
    "eq3:10-rr": 3,
}


def _by_id(entries):
    return {e.scenario_id: e for e in entries}


# SHA-256 of each catalogue's JSON form, dumps_scenarios(load_catalogue(id)):
# a catalogue edit changes the input_digest of every report that reads it,
# so it must show up here
CATALOGUE_SHA256 = {
    "table10x10": "32973e0d20e3b3635fba947edd5d12e9916d0fead5949df46b75bce73aeaea1f",
    "eq1_bullets": "d178e4160cb328de3814c24cee2010cfd30e38bd8b589e0505571ef4616f7eeb",
    "eq3_bullets": "371a6d78d78367f6e35134b9d7d7e3b024ba79dc4cfdd6516c01a6c2dd6e5b69",
    "claims_local": "bb26b82d0c488bc238fed2dcf625f34899c4db97f3d95b20c589a5eaf30a3f54",
}


def test_catalogue_digests_are_pinned():
    assert set(CATALOGUE_SHA256) == set(CATALOGUE_IDS)
    for which in CATALOGUE_IDS:
        text = dumps_scenarios(load_catalogue(which))
        assert hashlib.sha256(text.encode()).hexdigest() == CATALOGUE_SHA256[which], which


def test_unknown_catalogue_is_rejected():
    for fn in (load_catalogue, run_catalogue):
        with pytest.raises(GraphInputError):
            fn("no_such_catalogue")


def test_table_runs_clean_and_matches_frozen_values(graded_catalogue):
    _, entries, _ = graded_catalogue("table10x10")
    assert len(entries) == 100
    got = _by_id(entries)
    for row in CLASSES:
        for col, bound in zip(CLASSES, TABLE[row]):
            e = got[f"table:{row}-{col}"]
            assert e.status not in ("violated", "infeasible"), e
            assert e.bound == Fraction(bound), e
            assert e.computed_max == bound, e  # every cell is exactly met


def test_two_color_bullets_run_clean(graded_catalogue):
    _, entries, _ = graded_catalogue("eq1_bullets")
    assert len(entries) == 12
    for e in entries:
        assert e.status not in ("violated", "infeasible"), e
        assert e.computed_max == EQ1_MAXIMA[e.scenario_id], e
        assert e.computed_max <= e.bound, e


def test_all_color_bullets_run_clean(graded_catalogue):
    _, entries, _ = graded_catalogue("eq3_bullets")
    assert len(entries) == 10
    for e in entries:
        assert e.status not in ("violated", "infeasible"), e
        assert e.computed_max == EQ3_MAXIMA[e.scenario_id], e
        assert e.computed_max <= e.bound, e


def test_claim_maxima_are_reproduced_exactly(graded_catalogue):
    _, entries, _ = graded_catalogue("claims_local")
    assert len(entries) == 13
    for e in entries:
        assert e.status == "tight", e
        assert e.computed_max == CLAIM_MAXIMA[e.scenario_id], e


def test_orbit_members_agree_when_enumerated_alone(graded_catalogue):
    # the table is graded with one enumeration per canonical key; enumerate
    # the last member of every orbit on its own and compare
    _, entries, _ = graded_catalogue("table10x10")
    shared = _by_id(entries)
    last = {canonical_key(s): s for s in load_catalogue("table10x10")}
    assert len(last) == 16
    # every orbit but R-R's has more than one member
    assert sum(shared[s.id].evaluated_as != s.id for s in last.values()) == 15
    for s in last.values():
        alone = evaluate_scenario(s)
        assert alone.evaluated_as == s.id and alone.nodes > 0
        assert alone.computed_max == shared[s.id].computed_max, s.id


def test_parallel_evaluation_matches_sequential():
    scenarios = load_catalogue("claims_local")
    seq = evaluate_scenarios(scenarios, jobs=1)
    par = evaluate_scenarios(scenarios, jobs=2)
    assert seq == par


def test_worker_pool_is_bounded_by_representatives(monkeypatch):
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(catalogues, "ProcessPoolExecutor", InProcessPool)
    eq1 = load_catalogue("eq1_bullets")
    assert evaluate_scenarios(eq1, jobs=64) == evaluate_scenarios(eq1)
    assert evaluate_scenarios(eq1, jobs=3) == evaluate_scenarios(eq1)
    assert pools == [12, 3]

    # two cells of one orbit: one representative, so no pool at all
    table = {s.id: s for s in load_catalogue("table10x10")}
    orbit = [table["table:X12-R"], table["table:R-X23"]]
    first, second = evaluate_scenarios(orbit, jobs=8)
    assert pools == [12, 3]
    assert (first.evaluated_as, first.nodes > 0) == ("table:X12-R", True)
    assert (second.evaluated_as, second.nodes) == ("table:X12-R", 0)
    assert second.computed_max == first.computed_max == 7


def _tiny(bound):
    return Scenario(
        id="tiny",
        source="test",
        colors=3,
        vertices=("u", "v"),
        objective=Objective(colors=(1, 2), side_a=("u",), side_b=("v",)),
        bound=bound,
    )


def test_status_grading():
    # the unconstrained two-color pair has maximum 4
    assert evaluate_scenario(_tiny(Fraction(3))).status == "violated"
    assert evaluate_scenario(_tiny(Fraction(4))).status == "tight"
    assert evaluate_scenario(_tiny(Fraction(9, 2))).status == "tight"
    assert evaluate_scenario(_tiny(Fraction(5))).status == "verified"

    impossible = Scenario(
        id="none",
        source="test",
        colors=3,
        vertices=("u", "v"),
        objective=Objective(colors=(1,), side_a=("u",), side_b=("v",)),
        bound=Fraction(1),
        constraints=(
            Constraint("slot_sum", op="==", value=2, slots=((2, "u", "v"),)),
        ),
    )
    entry = evaluate_scenario(impossible)
    assert entry.status == "infeasible" and entry.computed_max is None


def test_entry_serialization():
    e = evaluate_scenario(_tiny(Fraction(9, 2)))
    d = e.to_dict()
    assert d["bound"] == {"num": 9, "den": 2}
    assert d["computed_max"] == 4 and d["status"] == "tight"
    assert d["scenario_id"] == "tiny" and d["nodes"] > 0
    assert d["evaluated_as"] == "tiny"
