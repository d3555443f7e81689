import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import rtlab
from rtlab import cli
from rtlab.cli import main
from rtlab.exactmath import QuadraticRational, thresholds
from rtlab.graphs import graph_digest, load_graph
from rtlab.localbounds import (
    Constraint,
    Objective,
    Scenario,
    dumps_scenarios,
    load_catalogue,
    save_scenarios,
    scenarios,
)
from rtlab.search import DEFAULT_NODE_BUDGET


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; return (exit code, parsed report, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_report_shape(capsys):
    code, report, _ = run_cli(capsys, "lemma21", "--a", "2", "--b", "2")
    assert code == 0
    assert set(report) == {"command", "input_digest", "results", "pass", "wall_time_s"}
    assert report["command"] == ["lemma21", "--a", "2", "--b", "2"]
    assert report["pass"] is True
    assert report["wall_time_s"] >= 0


def test_construct_detect_round_trip(tmp_path, capsys):
    out = tmp_path / "d3.json"
    code, built, _ = run_cli(
        capsys, "construct", "--id", "directed3", "--n", "9", "--out", str(out)
    )
    assert code == 0
    assert built["results"]["per_color"] == {"1": 39, "2": 39, "3": 39}
    assert built["results"]["counts_agree"] is True
    # the digest in the report is the digest of what landed on disk
    assert built["input_digest"] == graph_digest(load_graph(out))

    code, detected, _ = run_cli(capsys, "detect", "--graph", str(out), "--pattern", "directed")
    assert code == 0
    assert detected["results"]["pattern_free"] is True
    assert detected["results"]["witness"] is None
    assert detected["input_digest"] == built["input_digest"]

    code, detected, err = run_cli(
        capsys, "detect", "--graph", str(out), "--pattern", "transitive"
    )
    assert code == 1
    assert detected["pass"] is False
    w = detected["results"]["witness"]
    assert w["pattern"] == "transitive"
    assert len(w["edges"]) == 3
    assert len({color for color, _, _ in w["edges"]}) == 3
    assert "transitive" in err


def test_detect_input_errors(tmp_path, capsys):
    code, report, err = run_cli(
        capsys, "detect", "--graph", str(tmp_path / "absent.json"), "--pattern", "directed"
    )
    assert code == 2 and report is None and "input error" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    code, _, err = run_cli(capsys, "detect", "--graph", str(bad), "--pattern", "directed")
    assert code == 2 and "input error" in err

    latin1 = tmp_path / "latin1.json"  # its e-acute is one byte that is not UTF-8
    latin1.write_bytes('{"n":3,"c":3,"edges":[],"note":"\u00e9"}'.encode("latin-1"))
    code, report, err = run_cli(capsys, "detect", "--graph", str(latin1), "--pattern", "directed")
    assert code == 2 and report is None
    assert err.startswith("input error: 'utf-8' codec can't decode byte 0xe9")

    out_of_range = tmp_path / "range.json"
    out_of_range.write_text(json.dumps({"n": 3, "c": 3, "edges": [[5, 0, 1]]}))
    code, _, err = run_cli(
        capsys, "detect", "--graph", str(out_of_range), "--pattern", "directed"
    )
    assert code == 2 and "input error" in err

    boolean = tmp_path / "bool.json"
    boolean.write_text(json.dumps({"n": True, "c": 3, "edges": []}))
    code, report, err = run_cli(capsys, "detect", "--graph", str(boolean), "--pattern", "directed")
    assert code == 2 and report is None and "n and c must be integers" in err

    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 1000000, "c": 3, "edges": []}))
    code, report, err = run_cli(capsys, "detect", "--graph", str(huge), "--pattern", "directed")
    assert code == 2 and report is None and "MAX_CELLS" in err


@pytest.mark.parametrize(
    "n, c, message",
    [
        (0, 2**40, "MAX_CELLS"),
        (2**40, 0, "MAX_CELLS"),
        (0, 10**20, "MAX_CELLS"),
        (10**20, 0, "MAX_CELLS"),
        (True, 3, "n and c must be integers"),
        (3, True, "n and c must be integers"),
        (1.5, 3, "n and c must be integers"),
        (3, 1.5, "n and c must be integers"),
        (-1, 3, "non-negative"),
        (3, -1, "non-negative"),
    ],
)
def test_detect_rejects_bad_sizes(tmp_path, capsys, n, c, message):
    # with n or c zero a graph has no cells, so only a bound on each size
    # keeps the other from reaching numpy, which raised a bare ValueError
    path = tmp_path / "size.json"
    path.write_text(json.dumps({"n": n, "c": c, "edges": []}))
    code, report, err = run_cli(capsys, "detect", "--graph", str(path), "--pattern", "directed")
    assert code == 2 and report is None
    assert "input error" in err and message in err


def test_construct_examples(tmp_path, capsys):
    code, report, _ = run_cli(
        capsys,
        *["construct", "--id", "bipartite-double", "--n", "6", "--c", "4"],
        "--out",
        str(tmp_path / "bd.json"),
    )
    assert code == 0
    assert report["results"]["per_color"] == {str(i): 18 for i in range(1, 5)}

    code, report, _ = run_cli(
        capsys,
        *["construct", "--id", "oriented-cyclic", "--n", "6", "--c", "3"],
        "--out",
        str(tmp_path / "oc.json"),
    )
    assert code == 0
    assert report["results"]["per_color"] == {"1": 12, "2": 12, "3": 12}

    code, report, _ = run_cli(
        capsys,
        *["construct", "--id", "two-color-heavy", "--n", "5"],
        "--out",
        str(tmp_path / "tch.json"),
    )
    assert code == 0
    assert report["results"]["per_color"] == {"1": 20, "2": 20, "3": 0}


def test_construct_input_errors(tmp_path, capsys):
    code, report, err = run_cli(
        capsys, "construct", "--id", "nosuch", "--n", "5", "--out", str(tmp_path / "x.json")
    )
    assert code == 2 and report is None
    assert "unknown construction id" in err

    code, _, err = run_cli(
        capsys,
        *["construct", "--id", "directed3", "--n", "9", "--c", "4"],
        "--out",
        str(tmp_path / "y.json"),
    )
    assert code == 2 and "c = 3" in err

    code, report, err = run_cli(
        capsys,
        *["construct", "--id", "bipartite-double", "--n", "100000"],
        "--out",
        str(tmp_path / "z.json"),
    )
    assert code == 2 and report is None and "MAX_CELLS" in err
    assert not (tmp_path / "z.json").exists()


def test_search_total_and_min_color(capsys):
    code, report, _ = run_cli(
        capsys, "search", "--n", "3", "--c", "3", "--pattern", "directed"
    )
    assert code == 0
    assert report["results"]["value"] == 12
    assert report["results"]["exhaustive"] is True
    assert report["results"]["witness"]["n"] == 3

    code, report, _ = run_cli(
        capsys,
        *["search", "--n", "3", "--c", "3", "--pattern", "transitive"],
        "--objective",
        "min-color",
        "--oriented",
    )
    assert code == 0
    assert report["results"]["value"] == 3


def test_search_budget_exhaustion(capsys):
    code, report, err = run_cli(
        capsys, "search", "--n", "4", "--c", "3", "--pattern", "directed", "--budget", "5"
    )
    assert code == 1
    assert report["results"]["exhaustive"] is False
    assert "lower bound" in err
    # a negative budget is an input error, not an exhausted search
    code, report, err = run_cli(
        capsys, "search", "--n", "3", "--c", "3", "--pattern", "directed", "--budget", "-1"
    )
    assert code == 2 and report is None
    assert "budget must be non-negative" in err and "lower bound" not in err
    code, report, _ = run_cli(
        capsys, "search", "--n", "3", "--c", "3", "--pattern", "directed", "--budget", "0"
    )
    assert code == 1 and report["results"]["exhaustive"] is False


def test_search_default_budget(capsys):
    # without --budget the search is bounded by DEFAULT_NODE_BUDGET: the
    # n = 4, c = 5 total finishes inside it, the n = 5, c = 3 total stops at
    # it below its averaging cap of 40
    code, report, _ = run_cli(capsys, "search", "--n", "4", "--c", "5", "--pattern", "directed")
    assert code == 0 and report["results"]["exhaustive"] is True
    assert report["results"]["value"] == 40
    assert 1_000_000 < report["results"]["nodes"] <= DEFAULT_NODE_BUDGET
    code, report, err = run_cli(capsys, "search", "--n", "5", "--c", "3", "--pattern", "directed")
    assert code == 1 and report["results"]["exhaustive"] is False
    assert report["results"]["nodes"] == DEFAULT_NODE_BUDGET + 1
    assert report["results"]["value"] == 36
    assert "lower bound" in err


def test_search_vertex_cap(capsys):
    code, report, err = run_cli(
        capsys, "search", "--n", "65", "--c", "3", "--pattern", "directed", "--budget", "10"
    )
    assert code == 2 and report is None and "MAX_SEARCH_VERTICES" in err


def test_search_color_cap(capsys):
    code, report, _ = run_cli(capsys, "search", "--n", "2", "--c", "8", "--pattern", "directed")
    assert code == 0 and report["results"]["value"] == 16
    code, report, err = run_cli(capsys, "search", "--n", "2", "--c", "9", "--pattern", "directed")
    assert code == 2 and report is None and "MAX_SEARCH_COLORS" in err


def test_search_at_the_vertex_cap_walks_every_pair_without_recursion(capsys):
    # with one color the first path assigns all C(64, 2) = 2016 pairs, more
    # levels than Python's default recursion limit of 1000
    code, report, _ = run_cli(
        capsys, "search", "--n", "64", "--c", "1", "--pattern", "directed",
        "--objective", "min-color",
    )
    assert code == 0 and report["results"]["exhaustive"] is True
    assert report["results"]["value"] == 64 * 63


def scenario_pair(bound):
    """A lone vertex pair with every slot free and the given total bound."""
    return Scenario(
        id=f"pair-le-{bound}",
        source="cli test",
        colors=2,
        vertices=("u", "v"),
        objective=Objective(colors=(1, 2), side_a=("u",), side_b=("v",)),
        bound=Fraction(bound),
        constraints=(
            Constraint(kind="no_rainbow", pattern="directed"),
            Constraint(kind="pair_edge_cap", value=5),
        ),
    )


def test_scenario_run_pass_and_violation(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    save_scenarios(ok, [scenario_pair(4), scenario_pair(5)])
    code, report, _ = run_cli(capsys, "scenario", "run", "--file", str(ok))
    assert code == 0
    statuses = {e["scenario_id"]: e["status"] for e in report["results"]["entries"]}
    assert statuses == {"pair-le-4": "tight", "pair-le-5": "verified"}

    bad = tmp_path / "bad.json"
    save_scenarios(bad, [scenario_pair(3)])
    code, report, err = run_cli(capsys, "scenario", "run", "--file", str(bad))
    assert code == 1
    assert report["results"]["violated"] == ["pair-le-3"]
    assert "pair-le-3" in err

    # a scenario whose premises admit no configuration fails the run too
    infeasible = tmp_path / "infeasible.json"
    one_slot_twice = Constraint(kind="slot_sum", op="==", value=2, slots=((1, "u", "v"),))
    stuck = replace(scenario_pair(4), id="pair-infeasible", constraints=(one_slot_twice,))
    save_scenarios(infeasible, [scenario_pair(4), stuck])
    code, report, err = run_cli(capsys, "scenario", "run", "--file", str(infeasible))
    assert code == 1 and report["pass"] is False
    assert report["results"]["violated"] == []
    assert report["results"]["infeasible"] == ["pair-infeasible"]
    assert "pair-infeasible" in err and "pair-le-4" not in err


def count_validations(monkeypatch) -> list:
    """The scenarios validated from here on: one entry per Scenario built."""
    seen, validate = [], scenarios.validate_scenario

    def spy(scenario):
        seen.append(scenario)
        validate(scenario)

    monkeypatch.setattr(scenarios, "validate_scenario", spy)
    return seen


def test_verify_table_clean(tmp_path, capsys, monkeypatch):
    # the saved, unedited table passes `scenario run --file`
    path = tmp_path / "table10x10.json"
    save_scenarios(path, load_catalogue("table10x10"))
    validated = count_validations(monkeypatch)
    code, report, _ = run_cli(capsys, "scenario", "run", "--file", str(path))
    assert code == 0
    assert len(validated) == 100  # each cell once, as it is read
    assert report["results"]["file"] == str(path)
    assert report["results"]["scenarios"] == 100
    assert report["results"]["violated"] == []
    assert report["results"]["infeasible"] == []
    # every cell's computed optimum equals the shipped bound
    assert report["results"]["tight"] == 100
    # one enumeration per orbit; every other cell names the one it reused
    entries = {e["scenario_id"]: e for e in report["results"]["entries"]}
    assert len(entries) == 100
    evaluated = {sid for sid, e in entries.items() if e["nodes"] > 0}
    assert len(evaluated) == 16
    for sid, e in entries.items():
        if sid in evaluated:
            assert e["evaluated_as"] == sid
        else:
            assert e["nodes"] == 0 and e["evaluated_as"] in evaluated
            assert e["computed_max"] == entries[e["evaluated_as"]]["computed_max"]


def test_verify_table_names_lowered_cell(tmp_path, capsys):
    path = tmp_path / "table10x10.json"
    save_scenarios(path, load_catalogue("table10x10"))
    cells = json.loads(path.read_text())
    victim = cells[41]
    victim["bound"]["num"] -= victim["bound"]["den"]
    path.write_text(json.dumps(cells))

    code, report, err = run_cli(capsys, "scenario", "run", "--file", str(path))
    assert code == 1
    assert report["results"]["violated"] == [victim["id"]]
    assert victim["id"] in err


def test_verify_table_grades_every_cell_against_its_own_bound(tmp_path, capsys):
    path = tmp_path / "table10x10.json"
    save_scenarios(path, load_catalogue("table10x10"))
    cells = {c["id"]: c for c in json.loads(path.read_text())}
    # lower the bound of the first cell of its orbit: X(i, j) against Y(k)
    # with k in {i, j}, in either order, 12 cells
    rep = cells["table:X12-Y1"]
    rep["bound"]["num"] -= rep["bound"]["den"]
    orbit = {
        cell
        for x in ("X12", "X13", "X23")
        for y in ("Y1", "Y2", "Y3")
        if y[1] in x[1:]
        for cell in (f"table:{x}-{y}", f"table:{y}-{x}")
    }
    assert len(orbit) == 12
    # a later cell of another orbit loses its pair cap, so it has no orbit
    # partner left and is enumerated on its own
    loner = cells["table:Y2-X13"]
    loner["constraints"] = [
        c for c in loner["constraints"] if c["kind"] != "pair_edge_cap"
    ]
    path.write_text(json.dumps(list(cells.values())))

    code, report, err = run_cli(capsys, "scenario", "run", "--file", str(path))
    assert code == 1
    assert report["results"]["violated"] == ["table:X12-Y1"]
    assert "table:X12-Y1" in err
    entries = {e["scenario_id"]: e for e in report["results"]["entries"]}
    for sid in orbit - {"table:X12-Y1"}:
        assert entries[sid]["status"] == "tight", sid
        assert entries[sid]["evaluated_as"] == "table:X12-Y1", sid
        assert entries[sid]["nodes"] == 0, sid
    assert entries["table:Y2-X13"]["evaluated_as"] == "table:Y2-X13"
    assert entries["table:Y2-X13"]["nodes"] > 0
    assert sum(e["nodes"] > 0 for e in entries.values()) == 17


def test_scenario_run_color_cap(tmp_path, capsys):
    path = tmp_path / "colors.json"
    save_scenarios(path, [replace(scenario_pair(4), colors=8)])
    code, report, _ = run_cli(capsys, "scenario", "run", "--file", str(path))
    assert code == 0 and report["results"]["tight"] == 1
    cells = json.loads(path.read_text())
    cells[0]["colors"] = 9
    path.write_text(json.dumps(cells))
    code, report, err = run_cli(capsys, "scenario", "run", "--file", str(path))
    assert code == 2 and report is None and "MAX_SCENARIO_COLORS" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("kind", ["no_rainbow"]),
        ("op", ["=="]),
        ("colors", 4.7),
        ("value", 2.9),
        ("value", True),
        ("vertices", "uvx"),
        ("id", ["eq1", 1]),
        ("source", 7),
    ],
)
def test_scenario_run_rejects_loosely_typed_fields(tmp_path, capsys, field, value):
    # each of these was truncated, read as an int, split into characters or
    # crashed the run
    record = json.loads(dumps_scenarios([scenario_pair(4)]))[0]
    record["vertices"] = ["u", "v", "x"]
    record["constraints"].append(
        {"kind": "slot_sum", "op": ">=", "value": 1, "slots": [[1, "u", "x"]]}
    )
    path = tmp_path / "loose.json"
    path.write_text(json.dumps([record]))
    code, report, _ = run_cli(capsys, "scenario", "run", "--file", str(path))
    assert code == 0 and report["pass"] is True

    if field in ("colors", "vertices", "id", "source"):
        record[field] = value
    elif field == "kind":
        record["constraints"][0]["kind"] = value
    else:
        record["constraints"][-1][field] = value
    path.write_text(json.dumps([record]))
    code, report, err = run_cli(capsys, "scenario", "run", "--file", str(path))
    assert code == 2 and report is None
    assert "input error" in err and repr(value) in err


@pytest.mark.parametrize(
    "record_of, unknown",
    [
        ("scenario", "constraint"),
        ("objective", "side_a"),
        ("bound", "denominator"),
        ("group", "color"),
        ("fixed_edge", "colour"),
        ("constraint", "values"),
        ("constraint", "pattern"),
        ("no_rainbow", "value"),
        ("no_rainbow", "colors"),
    ],
)
def test_scenario_run_rejects_unknown_keys(tmp_path, capsys, record_of, unknown):
    # a key no record reads was ignored, so a misspelled one left its field
    # at the default and changed what the file checks
    record = json.loads(dumps_scenarios([scenario_pair(4)]))[0]
    record["vertices"] = ["u", "v", "x"]
    record["groups"] = [{"kind": "R", "colors": [], "members": ["x"]}]
    record["fixed_edges"] = [{"color": 1, "from": "u", "to": "x", "state": "absent"}]
    path = tmp_path / "keys.json"
    path.write_text(json.dumps([record]))
    code, report, _ = run_cli(capsys, "scenario", "run", "--file", str(path))
    assert code == 0 and report["pass"] is True

    owner = {
        "scenario": record,
        "objective": record["objective"],
        "bound": record["bound"],
        "group": record["groups"][0],
        "fixed_edge": record["fixed_edges"][0],
        "constraint": record["constraints"][-1],
        "no_rainbow": record["constraints"][0],
    }[record_of]
    owner[unknown] = []
    path.write_text(json.dumps([record]))
    code, report, err = run_cli(capsys, "scenario", "run", "--file", str(path))
    assert code == 2 and report is None
    assert "input error" in err and f"unknown key {unknown!r}" in err


def test_scenario_run_requires_the_keys_a_constraint_reads(tmp_path, capsys):
    # a pair_edge_cap with no value loaded as cap 0
    path = tmp_path / "missing.json"
    for index, key in ((0, "pattern"), (1, "value")):
        record = json.loads(dumps_scenarios([scenario_pair(4)]))[0]
        del record["constraints"][index][key]
        path.write_text(json.dumps([record]))
        code, report, err = run_cli(capsys, "scenario", "run", "--file", str(path))
        assert code == 2 and report is None
        assert "input error" in err and f"needs key {key!r}" in err


def _ceiling(record):
    # 54 free slots between two sides of three vertices in three colors
    record.update(colors=3, vertices=list("abcdef"))
    record["objective"] = {"colors": [1, 2, 3], "between": [["a", "b", "c"], ["d", "e", "f"]]}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda r: r["bound"].update(den=0),
         "malformed scenario record: bound den must be nonzero, got 0"),
        (lambda r: r.update(colors="3"),
         "malformed scenario record: scenario colors must be of type int, got '3'"),
        (lambda r: r.update(constraint=r.pop("constraints")),
         "malformed scenario record: scenario has unknown key 'constraint'"),
        (lambda r: r.pop("objective"),
         "malformed scenario record: scenario needs key 'objective'"),
        (lambda r: r["objective"].update(colors=[1, 3]),
         "objective colors: color 3 out of range 1..2"),
        (lambda r: r.update(vertices=list("uvwxyzt")),
         "scenario needs 1..6 vertices (MAX_VERTICES), got 7"),
        (_ceiling, "54 free slots exceed the ceiling of 36 (MAX_FREE_SLOTS)"),
        (lambda r: r.update(fixed_edges=[{"color": 1, "from": "u", "to": "v", "state": "present"}]),
         "objective slot (1, 'u', 'v') must stay free"),
    ],
    ids=["den-0", "typed-field", "unknown-key", "missing-key", "color-range",
         "vertex-ceiling", "free-slot-ceiling", "fixed-objective-slot"],
)
def test_scenario_run_error_lines(tmp_path, capsys, edit, message):
    # the reader's errors name the malformed record; the checks a Scenario
    # runs on itself keep their own words
    record = json.loads(dumps_scenarios([scenario_pair(4)]))[0]
    edit(record)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([record]))
    code, report, err = run_cli(capsys, "scenario", "run", "--file", str(path))
    assert code == 2 and report is None
    assert err == f"input error: {message}\n"


def test_scenario_run_missing_file(tmp_path, capsys):
    absent = tmp_path / "absent.json"
    code, report, err = run_cli(capsys, "scenario", "run", "--file", str(absent))
    assert code == 2 and report is None
    assert "input error" in err and str(absent) in err


def test_verify_commands_read_only_the_builders(capsys):
    # the shipped catalogues have one source, their builders: an edited
    # catalogue is graded with `scenario run --file`
    with pytest.raises(SystemExit) as info:
        main(["verify-all", "--catalogue-dir", "."])
    assert info.value.code == 2
    capsys.readouterr()


def test_deleted_subcommands_are_usage_errors(capsys):
    # verify-all reports the scan and the threshold table, and `scenario run
    # --file` grades a saved table: the commands that repeated them are gone
    for argv in (["optscan"], ["thresholds"], ["scenario", "verify-table"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
    capsys.readouterr()


def test_verify_all_passes(capsys, monkeypatch):
    validated = count_validations(monkeypatch)
    code, report, _ = run_cli(capsys, "verify-all")
    assert code == 0
    assert len(validated) == 135  # each catalogue scenario once, as it is built
    segments = {s["name"]: s for s in report["results"]["segments"]}
    assert set(segments) == {
        "catalogue:table10x10",
        "catalogue:eq1_bullets",
        "catalogue:eq3_bullets",
        "catalogue:claims_local",
        "two-set-edge-bound",
        "constraint-scan",
        "constructions",
        "detector-sanity",
        "thresholds",
    }
    assert all(s["pass"] for s in segments.values())
    assert segments["two-set-edge-bound"]["cases"] == 36
    assert segments["constructions"]["cases"] == 140
    assert report["results"]["failed_segments"] == []


def test_verify_all_names_a_failing_catalogue(capsys, monkeypatch):
    def lowered(which):
        scenarios = load_catalogue(which)
        if which == "table10x10":
            scenarios = [
                replace(s, bound=s.bound - 1) if s.id == "table:Y2-X13" else s
                for s in scenarios
            ]
        return scenarios

    monkeypatch.setattr(cli, "load_catalogue", lowered)
    code, report, err = run_cli(capsys, "verify-all")
    assert code == 1 and report["pass"] is False
    assert report["results"]["failed_segments"] == ["catalogue:table10x10"]
    assert "table10x10: violated at table:Y2-X13 (computed 12, bound 11)" in err
    assert "failed segments: catalogue:table10x10" in err
    segments = {s["name"]: s for s in report["results"]["segments"]}
    assert segments["catalogue:table10x10"]["violated"] == ["table:Y2-X13"]
    assert all(s["pass"] for name, s in segments.items() if name != "catalogue:table10x10")


def test_non_catalogue_checks_name_their_failures(monkeypatch):
    # each check calls the library through its cli attribute, so a broken
    # library function must turn that check red
    with monkeypatch.context() as m:
        m.setattr(cli, "lemma21_bound", lambda a, b: -1)
        segment = cli.check_two_set_edge_bound()
    assert segment["pass"] is False and segment["cases"] == 36
    assert {"a": 1, "b": 1, "maximum": 1} in segment["failures"]

    with monkeypatch.context() as m:
        m.setattr(cli, "expected_count", lambda cid, n, color, c=None: -1)
        segment = cli.check_constructions()
    assert segment["pass"] is False and segment["cases"] == 140
    assert "directed3 n=3 color 1 count" in segment["failures"]

    with monkeypatch.context() as m:
        m.setattr(cli, "count_rainbow", lambda g, pattern: -1)
        segment = cli.check_detector_sanity(seed=1)
    assert segment["pass"] is False and segment["mismatches"] > 0

    def mutant_thresholds():
        table = dict(thresholds())
        table["directed-pair-3"] = replace(table["directed-pair-3"], quad=QuadraticRational(1))
        return table

    with monkeypatch.context() as m:
        m.setattr(cli, "thresholds", mutant_thresholds)
        segment = cli.check_thresholds()
    assert segment["pass"] is False
    failed = [i["check"] for i in segment["identities"] if not i["holds"]]
    assert failed == ["directed-pair-3 = 2 * directed-per-color-3"]


def test_detector_sanity_catches_a_blind_detector(monkeypatch):
    # a finder and a counter that agree on "no rainbow anywhere" must not
    # pass: the per-triple Hall test does not go through their kernel
    monkeypatch.setattr(cli, "find_rainbow", lambda g, pattern: None)
    monkeypatch.setattr(cli, "count_rainbow", lambda g, pattern: 0)
    segment = cli.check_detector_sanity(cli.DEFAULT_SEED)
    assert segment["pass"] is False
    # 124 of the 200 graphs hold a rainbow directed triangle, 151 a transitive one
    assert segment["mismatches"] == 124 + 151


def test_lemma21_cli(capsys):
    code, report, _ = run_cli(capsys, "lemma21", "--a", "3", "--b", "3")
    assert code == 0
    assert report["results"]["maximum"] <= report["results"]["bound"]

    code, report, err = run_cli(capsys, "lemma21", "--a", "5", "--b", "5")
    assert code == 2 and report is None and "input error" in err

    # an empty side leaves a*b = 0, but the other side is capped as well
    code, report, err = run_cli(capsys, "lemma21", "--a", "21", "--b", "0")
    assert code == 2 and report is None and "MAX_LEMMA21_SIZE" in err


# small valid command lines; each fuzz case replaces one size field's value
_SIZED_COMMANDS = {
    "construct": ["construct", "--id", "bipartite-double", "--n", "3", "--c", "2"],
    "search": ["search", "--n", "3", "--c", "1", "--pattern", "directed", "--budget", "1000"],
    "lemma21": ["lemma21", "--a", "2", "--b", "2"],
}


@pytest.mark.parametrize("value", ["0", "-1", str(2**40), "1.5", "true"])
@pytest.mark.parametrize(
    "command, field",
    [
        ("construct", "--n"),
        ("construct", "--c"),
        ("search", "--n"),
        ("search", "--c"),
        ("search", "--budget"),
        ("lemma21", "--a"),
        ("lemma21", "--b"),
    ],
)
def test_no_size_field_value_exits_3(capsys, tmp_path, command, field, value):
    # a size field either runs or is refused as input: exit 3 means a crash
    argv = list(_SIZED_COMMANDS[command])
    argv[argv.index(field) + 1] = value
    if command == "construct":
        argv += ["--out", str(tmp_path / "g.json")]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error for a value that is not an int
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "internal error" not in err, (argv, code, err)


def _readme_sh_lines(prefix):
    """The lines of the README's sh blocks that start with ``prefix``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith(prefix)]


def test_readme_command_lines_parse():
    # every `rtlab ...` line of the README's sh blocks names real options
    lines = [line.split("#")[0].split() for line in _readme_sh_lines("rtlab ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for argv in lines:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {' '.join(argv)}")


def test_readme_python_lines_run(tmp_path):
    # every `python3 -c ...` line of the README's sh blocks runs against src
    lines = _readme_sh_lines("python3 -c ")
    assert lines
    for line in lines:
        argv = [sys.executable, *shlex.split(line, comments=True)[1:]]
        proc = subprocess.run(
            argv, cwd=tmp_path, capture_output=True, text=True, env=_src_env()
        )
        assert proc.returncode == 0, (line, proc.stderr)


def test_jobs_is_accepted_only_as_one_on_verify_all(tmp_path, capsys):
    # grading runs in one process; verify-all keeps `--jobs 1` so existing
    # command lines still parse, and every other use is a usage error
    path = tmp_path / "one.json"
    save_scenarios(path, [scenario_pair(4)])
    for argv in (
        ["verify-all", "--jobs", "0"],
        ["verify-all", "--jobs", "2"],
        ["scenario", "run", "--file", str(path), "--jobs", "1"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, argv
    capsys.readouterr()


def test_import_starts_no_worker_machinery():
    # scenarios are graded in this process, so importing the package and its
    # CLI loads neither multiprocessing nor concurrent.futures
    probe = (
        "import sys, rtlab, rtlab.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def crash(args, echo, started):
        raise RuntimeError("handler crashed")

    monkeypatch.setattr(cli, "cmd_lemma21", crash)
    code, report, err = run_cli(capsys, "lemma21", "--a", "2", "--b", "2")
    assert code == 3 and report is None
    assert "internal error: RuntimeError('handler crashed')" in err
    assert "Traceback" in err


def _src_env():
    """The environment with ``PYTHONPATH`` led by the tree this test imported,
    so a subprocess runs it and not whatever else may be installed."""
    src = str(Path(rtlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _check_lemma21_run(command, env=None):
    proc = subprocess.run(
        [*command, "lemma21", "--a", "2", "--b", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["pass"] is True and report["results"]["maximum"] == 4


def test_console_script_installed(tmp_path):
    """The declared `rtlab` console script starts the CLI and passes argv through.

    The script is built from `[project.scripts]` the way pip builds it, so the
    check needs no install; an installed `rtlab` on PATH is checked as well.
    """
    exe = shutil.which("rtlab")
    if exe is not None:
        _check_lemma21_run([exe])

    # tomllib is Python 3.11+; on 3.10 only the installed-script check above runs
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    value = tomllib.loads(pyproject.read_text())["project"]["scripts"]["rtlab"]
    ep = EntryPoint(name="rtlab", value=value, group="console_scripts")
    script = tmp_path / "rtlab"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        f"sys.exit({ep.attr}())\n"
    )
    script.chmod(0o755)

    _check_lemma21_run([str(script)], env=_src_env())


def test_library_value_error_exits_3(capsys, monkeypatch):
    # a ValueError that is not an input error is a crash, not a usage error
    def broken(a, b):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "lemma21_oracle", broken)
    code, report, err = run_cli(capsys, "lemma21", "--a", "2", "--b", "2")
    assert code == 3 and report is None
    assert "internal error: ValueError" in err
