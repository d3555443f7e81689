"""Tests for the shipped bound catalogues.

The expected maxima below were frozen from exhaustive enumeration runs that
the naive oracle confirmed on every instance small enough to brute-force
(see test_scenarios.py); they are regression pins, the real claim is that
no entry is ever violated or infeasible.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from rtlab.cli import check_catalogues
from rtlab.graphs import GraphInputError
from rtlab.localbounds import (
    CATALOGUE_IDS,
    Constraint,
    Objective,
    Scenario,
    canonical_key,
    dumps_scenarios,
    enumerate_max,
    evaluate_scenario,
    evaluate_scenarios,
    load_catalogue,
)

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
    with pytest.raises(GraphInputError):
        load_catalogue("no_such_catalogue")


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


def test_catalogues_graded_together_share_orbits(graded_catalogue):
    # verify-all grades the four catalogues in one call: every eq3 bullet is
    # a table10x10 orbit, so 135 entries take 41 enumerations, and each
    # catalogue's segment is the one it gets on its own
    graded = check_catalogues({w: load_catalogue(w) for w in CATALOGUE_IDS})
    assert list(graded) == list(CATALOGUE_IDS)
    entries = [e for _, _, mine in graded.values() for e in mine]
    assert len(entries) == 135
    assert sum(e.evaluated_as == e.scenario_id and e.nodes > 0 for e in entries) == 41
    for which, (segment, _, mine) in graded.items():
        alone_segment, alone, _ = graded_catalogue(which)
        assert segment == alone_segment, which
        assert [(e.computed_max, e.status) for e in mine] == [
            (e.computed_max, e.status) for e in alone
        ], which
        if which == "eq3_bullets":
            assert all(e.evaluated_as.startswith("table:") for e in mine)


# SHA-256 of the JSON list of [id, feasible, maximum, witness,
# free_slot_count] of the 41 orbit representatives of the four catalogues,
# in verify-all's order; frozen from the plain per-pair bound of
# enumerate_max, which a tighter bound must reproduce exactly
REPRESENTATIVE_RESULTS_SHA256 = "9890afc44b78b9219258f8a54c8a667dfe6ec5c97f0f902f1e8bfe17fc7dbc09"
# nodes (options set) of each representative under the plain per-pair
# bound, with non-objective slots that only deletion-closed rules read fixed
# absent; a tighter bound or a further such cut would set fewer options, and
# must re-pin these with its reason
REPRESENTATIVE_NODES = {
    "table:X12-X12": 85,
    "table:X12-X13": 2_202,
    "table:X12-Y1": 11_319,
    "table:X12-Y3": 8_964,
    "table:X12-Z1": 2_994,
    "table:X12-Z3": 11_991,
    "table:X12-R": 42,
    "table:Y1-Y1": 2_020,
    "table:Y1-Y2": 6_703,
    "table:Y1-Z1": 3_558,
    "table:Y1-Z2": 11_022,
    "table:Y1-R": 54,
    "table:Z1-Z1": 6,
    "table:Z1-Z2": 6,
    "table:Z1-R": 3,
    "table:R-R": 1,
    "eq1:01-xx": 4,
    "eq1:02-xy": 310,
    "eq1:03-xz": 59,
    "eq1:04-yy": 135,
    "eq1:05-yz": 6,
    "eq1:06-zz": 6,
    "eq1:07-other": 817,
    "eq1:08-xr": 2,
    "eq1:09-yr": 3,
    "eq1:10-zr": 21,
    "eq1:11-other-r": 16,
    "eq1:12-rr": 1,
    "double-double:adjacent-colors:c4": 16,
    "double-double:adjacent-colors-wrap:c5": 16,
    "heavy-fan:third-pair:c4": 815,
    "full-pair:two-colors:c3": 16,
    "double-pair:other-colors:c3": 16,
    "single-edge:other-colors:c3": 6,
    "two-doubles:touched-both:c4": 256,
    "one-double:shared-link:c4": 134,
    "one-double:no-shared-link:c4": 153,
    "thick-path:fan:c3": 57,
    "thick-path:fan:c4": 4_556,
    "thick-pair:no-path:c3": 168,
    "thick-pair:no-path:c4": 3_352,
}
# rule-test calls over the 41 representatives, a ceiling well below the
# 837,503 they made when every memo was built by testing each option once
# and a bound on two pairs at a time scanned the second pair option by option
REPRESENTATIVE_RULE_TESTS_CEILING = 400_000


def test_representatives_keep_their_results_and_node_counts():
    firsts = {}
    for s in (s for which in CATALOGUE_IDS for s in load_catalogue(which)):
        firsts.setdefault(canonical_key(s), s)
    assert [s.id for s in firsts.values()] == list(REPRESENTATIVE_NODES)
    rows, nodes, rule_tests = [], {}, 0
    for s in firsts.values():
        r = enumerate_max(s)
        witness = [list(slot) for slot in r.witness] if r.witness else None
        rows.append([s.id, r.feasible, r.maximum, witness, r.free_slot_count])
        nodes[s.id] = r.nodes
        rule_tests += r.rule_tests
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == REPRESENTATIVE_RESULTS_SHA256
    assert nodes == REPRESENTATIVE_NODES
    assert 0 < rule_tests <= REPRESENTATIVE_RULE_TESTS_CEILING


def test_one_orbit_is_enumerated_once():
    # two cells of one orbit: the first is enumerated, the second reuses it
    table = {s.id: s for s in load_catalogue("table10x10")}
    orbit = [table["table:X12-R"], table["table:R-X23"]]
    first, second = evaluate_scenarios(orbit)
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
