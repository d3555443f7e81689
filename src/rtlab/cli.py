"""Command-line interface: detect, construct, search, and verify.

Every subcommand prints a single JSON run report to stdout and keeps all
diagnostics on stderr, so reports can be piped into other tools.  The
report shape is the same everywhere:

    {
      "command":      the argument vector that was run,
      "input_digest": SHA-256 content hash of the inputs,
      "results":      subcommand-specific payload,
      "pass":         overall boolean verdict,
      "wall_time_s":  wall-clock runtime in seconds
    }

For file inputs the digest hashes the parsed content in canonical form
(so formatting changes do not change the digest); for parameter-only
subcommands it hashes the parameter record.

Exit status: 0 when the verdict is pass, 1 when a check fails (for the
detector: a witness was found), 2 on input errors -- malformed files,
out-of-range parameters, unknown names, missing catalogue data -- and 3
on an internal error: any other exception, reported as ``internal error:``
plus its traceback on stderr, so that a crash is never read as a failed
check.

Worker counts for the scenario evaluators come from --jobs (default 1).

Each verify-all segment is built by one ``check_*`` function below; the
acceptance suite calls the same functions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
import traceback
from itertools import combinations
from pathlib import Path

import numpy as np

from .constructions import AVOIDED_PATTERNS, ConstructionId, build_construction, expected_count
from .exactmath import (
    lemma21_bound,
    lemma21_oracle,
    scan_constraint_system,
    threshold_identities,
    thresholds,
)
from .graphs import (
    ColoredDigraph,
    GraphInputError,
    count_color,
    dumps_graph,
    graph_digest,
    load_graph,
    save_graph,
)
from .localbounds import (
    CATALOGUE_IDS,
    dumps_scenarios,
    evaluate_scenarios,
    load_catalogue,
    load_scenarios,
)
from .search import SearchObjective, SearchProblem, solve
from .triangles import (
    TrianglePattern,
    count_rainbow,
    find_rainbow,
    rainbow_free_check,
    witness_is_valid,
)

DEFAULT_SEED = 987654321


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _params_digest(payload: dict) -> str:
    return _sha256(json.dumps(payload, sort_keys=True))


def _emit(echo, digest, results, passed, started) -> int:
    report = {
        "command": list(echo),
        "input_digest": digest,
        "results": results,
        "pass": bool(passed),
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if passed else 1


def _resolve_jobs(jobs: int) -> int:
    if jobs < 1:
        raise GraphInputError("worker count must be at least 1")
    return jobs


def _catalogue_scenarios(which: str, directory: str | None):
    """Build a catalogue, or load the same file from an override directory."""
    if directory is None:
        return load_catalogue(which)
    path = Path(directory) / f"{which}.json"
    if not path.is_file():
        raise GraphInputError(f"missing catalogue file: {path}")
    return load_scenarios(path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_detect(args, echo, started) -> int:
    graph = load_graph(args.graph)
    pattern = TrianglePattern(args.pattern)
    witness = find_rainbow(graph, pattern)
    if witness is not None:
        print(f"rainbow {pattern.value} triangle: {witness.to_dict()}", file=sys.stderr)
    results = {
        "graph": str(args.graph),
        "n": graph.n,
        "colors": graph.c,
        "pattern": pattern.value,
        "pattern_free": witness is None,
        "witness": None if witness is None else witness.to_dict(),
    }
    return _emit(echo, graph_digest(graph), results, witness is None, started)


def cmd_construct(args, echo, started) -> int:
    try:
        cid = ConstructionId(args.id)
    except ValueError:
        names = ", ".join(i.value for i in ConstructionId)
        raise GraphInputError(f"unknown construction id {args.id!r}; valid ids: {names}")
    graph = build_construction(cid, args.n, args.c)
    save_graph(graph, args.out)
    per_color = {str(color): count_color(graph, color) for color in range(1, graph.c + 1)}
    expected = {
        str(color): expected_count(cid, args.n, color, args.c)
        for color in range(1, graph.c + 1)
    }
    agree = per_color == expected
    if not agree:
        print("edge counts disagree with the closed form", file=sys.stderr)
    results = {
        "id": cid.value,
        "n": args.n,
        "colors": graph.c,
        "out": str(args.out),
        "per_color": per_color,
        "expected": expected,
        "counts_agree": agree,
    }
    return _emit(echo, graph_digest(graph), results, agree, started)


def cmd_search(args, echo, started) -> int:
    problem = SearchProblem(
        n=args.n,
        c=args.c,
        pattern=TrianglePattern(args.pattern),
        oriented=args.oriented,
        objective=SearchObjective(args.objective),
    )
    result = solve(problem, budget=args.budget)
    results = {
        "n": args.n,
        "colors": args.c,
        "pattern": args.pattern,
        "oriented": args.oriented,
        "objective": args.objective,
        "value": result.value,
        "nodes": result.nodes,
        "exhaustive": result.exhaustive,
        "witness": None
        if result.witness is None
        else json.loads(dumps_graph(result.witness)),
    }
    if not result.exhaustive:
        print("node budget exhausted; the value is only a lower bound", file=sys.stderr)
    digest = _params_digest(
        {
            "n": args.n,
            "c": args.c,
            "pattern": args.pattern,
            "oriented": args.oriented,
            "objective": args.objective,
            "budget": args.budget,
        }
    )
    return _emit(echo, digest, results, result.exhaustive, started)


def cmd_catalogue(args, echo, started) -> int:
    """``scenario run`` grades a scenario file, ``scenario verify-table``
    the class-pair table."""
    if args.scenario_command == "run":
        key, label, scenarios = "file", str(args.file), load_scenarios(args.file)
    else:
        key, label = "catalogue", "table10x10"
        scenarios = _catalogue_scenarios(label, args.catalogue_dir)
    segment, digest, entries = check_catalogue(label, scenarios, _resolve_jobs(args.jobs))
    summary = {k: v for k, v in segment.items() if k not in ("name", "pass")}
    results = {key: label, **summary, "entries": [e.to_dict() for e in entries]}
    return _emit(echo, digest, results, segment["pass"], started)


def cmd_lemma21(args, echo, started) -> int:
    maximum = lemma21_oracle(args.a, args.b)
    bound = lemma21_bound(args.a, args.b)
    results = {
        "a": args.a,
        "b": args.b,
        "maximum": maximum,
        "bound": bound,
        "gap": bound - maximum,
        "within_bound": maximum <= bound,
    }
    digest = _params_digest({"a": args.a, "b": args.b})
    return _emit(echo, digest, results, maximum <= bound, started)


def cmd_optscan(args, echo, started) -> int:
    scan = scan_constraint_system()
    results = {
        "grid_points": scan.grid_points,
        "nonnegative_points": scan.nonnegative_points,
        "grid_value": float(scan.grid_value),
        "grid_point": [float(v) for v in scan.grid_point],
        "exact_slacks_at_optimum": [str(s) for s in scan.exact_slacks_at_optimum],
        "optimum_confirmed": scan.optimum_confirmed,
    }
    return _emit(echo, _params_digest({}), results, scan.optimum_confirmed, started)


def cmd_thresholds(args, echo, started) -> int:
    table = thresholds()
    rows = [
        {
            "name": entry.name,
            "pattern": entry.pattern,
            "colors": entry.colors,
            "quantity": entry.quantity,
            "coefficient": {
                "exact": str(entry.quad),
                "decimal": entry.quad.decimal(6),
            },
            "linear": str(entry.linear),
            "strict": entry.strict,
            "oriented_only": entry.oriented_only,
            "scales_with_colors": entry.scales_with_colors,
            "note": entry.note,
        }
        for entry in table.values()
    ]
    identities = threshold_identities(table)
    passed = all(i["holds"] for i in identities)
    results = {"entries": rows, "identities": identities}
    return _emit(echo, _params_digest({"entries": sorted(table)}), results, passed, started)


def _random_small_graph(rng: random.Random) -> ColoredDigraph:
    n = rng.randint(3, 5)
    c = 3
    edges = []
    for u in range(n):
        for v in range(n):
            if u == v:
                continue
            for color in range(1, c + 1):
                if rng.random() < 0.3:
                    edges.append((color, u, v))
    return ColoredDigraph.from_edges(n, c, edges)


def check_catalogue(which: str, scenarios, jobs: int = 1):
    """Grade a scenario list and print each violated or infeasible entry,
    prefixed by ``which``, to stderr; it passes when there are none.
    Returns (segment, digest of the scenarios, entries)."""
    entries = evaluate_scenarios(scenarios, jobs=jobs)
    failed = [e for e in entries if e.status in ("violated", "infeasible")]
    for e in failed:
        print(
            f"{which}: {e.status} at {e.scenario_id} "
            f"(computed {e.computed_max}, bound {e.bound})",
            file=sys.stderr,
        )
    segment = {
        "name": f"catalogue:{which}",
        "pass": not failed,
        "scenarios": len(entries),
        "tight": sum(1 for e in entries if e.status == "tight"),
        "verified": sum(1 for e in entries if e.status == "verified"),
        "violated": [e.scenario_id for e in failed if e.status == "violated"],
        "infeasible": [e.scenario_id for e in failed if e.status == "infeasible"],
    }
    return segment, _sha256(dumps_scenarios(scenarios)), entries


def check_two_set_edge_bound(max_sum: int = 7) -> dict:
    """The two-set edge bound against exhaustive enumeration for a + b <= max_sum."""
    failures = []
    cases = 0
    for a in range(max_sum + 1):
        for b in range(max_sum + 1 - a):
            maximum = lemma21_oracle(a, b)
            if maximum > lemma21_bound(a, b):
                failures.append({"a": a, "b": b, "maximum": maximum})
            cases += 1
    return {
        "name": "two-set-edge-bound",
        "pass": not failures,
        "cases": cases,
        "failures": failures,
    }


def check_constraint_scan() -> dict:
    """The constraint-system scan at the default resolution."""
    scan = scan_constraint_system()
    return {
        "name": "constraint-scan",
        "pass": scan.optimum_confirmed,
        "grid_value": float(scan.grid_value),
        "grid_point": [float(v) for v in scan.grid_point],
    }


def check_constructions(sizes=range(3, 31)) -> dict:
    """Every construction family at each n in ``sizes``: per-color counts
    equal the closed form, and no avoided pattern occurs rainbow."""
    failures = []
    cases = 0
    for cid, patterns in AVOIDED_PATTERNS.items():
        for n in sizes:
            graph = build_construction(cid, n)
            for color in range(1, graph.c + 1):
                if count_color(graph, color) != expected_count(cid, n, color):
                    failures.append(f"{cid.value} n={n} color {color} count")
            for pattern in patterns:
                if find_rainbow(graph, pattern) is not None:
                    failures.append(f"{cid.value} n={n} rainbow {pattern.value}")
            cases += 1
    return {
        "name": "constructions",
        "pass": not failures,
        "cases": cases,
        "failures": failures,
    }


def check_detector_sanity(seed: int, graphs: int = 200) -> dict:
    """Seeded cross-check of the finder against the counter, the witness
    validator and the search's per-triple Hall test on random small graphs."""
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(graphs):
        graph = _random_small_graph(rng)
        masks = np.tensordot(1 << np.arange(graph.c), graph.layers, axes=1).tolist()
        triples = list(combinations(range(graph.n), 3))
        for pattern in TrianglePattern:
            witness = find_rainbow(graph, pattern)
            if (witness is None) != (count_rainbow(graph, pattern) == 0):
                mismatches += 1
            free = all(rainbow_free_check(masks, pattern, *t)() for t in triples)
            if (witness is None) != free:
                mismatches += 1
            if witness is not None and not witness_is_valid(graph, witness):
                mismatches += 1
    return {
        "name": "detector-sanity",
        "pass": mismatches == 0,
        "graphs": graphs,
        "seed": seed,
        "mismatches": mismatches,
    }


def cmd_verify_all(args, echo, started) -> int:
    jobs = _resolve_jobs(args.jobs)
    segments = []
    digest_parts: dict = {"seed": args.seed}
    for which in CATALOGUE_IDS:
        segment, digest_parts[which], _ = check_catalogue(
            which, _catalogue_scenarios(which, args.catalogue_dir), jobs
        )
        segments.append(segment)
    segments.append(check_two_set_edge_bound())
    segments.append(check_constraint_scan())
    segments.append(check_constructions())
    segments.append(check_detector_sanity(args.seed))

    passed = all(s["pass"] for s in segments)
    failed = [s["name"] for s in segments if not s["pass"]]
    if failed:
        print("failed segments: " + ", ".join(failed), file=sys.stderr)
    results = {"segments": segments, "failed_segments": failed}
    return _emit(echo, _params_digest(digest_parts), results, passed, started)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_jobs(parser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for scenario evaluation (default: 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    patterns = [t.value for t in TrianglePattern]
    parser = argparse.ArgumentParser(
        prog="rtlab",
        description=(
            "colored-digraph toolbox: rainbow-triangle detection, extremal "
            "constructions, exhaustive search, and bound verification"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("detect", help="scan a graph file for a rainbow triangle")
    p.add_argument("--graph", required=True, help="path to a graph JSON file")
    p.add_argument("--pattern", required=True, choices=patterns)
    p.set_defaults(handler=cmd_detect)

    p = sub.add_parser("construct", help="write a named construction to a graph file")
    p.add_argument("--id", required=True, help="construction name")
    p.add_argument("--n", required=True, type=int, help="number of vertices")
    p.add_argument(
        "--c",
        type=int,
        default=None,
        help="number of colors, where the family allows a choice",
    )
    p.add_argument("--out", required=True, help="output path for the graph JSON")
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("search", help="exhaustive optimum over all colorings at small n")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--c", required=True, type=int)
    p.add_argument("--pattern", required=True, choices=patterns)
    p.add_argument(
        "--objective",
        default=SearchObjective.TOTAL.value,
        choices=[o.value for o in SearchObjective],
    )
    p.add_argument("--oriented", action="store_true", help="forbid two-way pairs within a color")
    p.add_argument(
        "--budget",
        type=int,
        default=None,
        help="node budget; the search reports a lower bound when it runs out",
    )
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("scenario", help="finite local-bound scenarios")
    ssub = p.add_subparsers(dest="scenario_command", required=True)

    q = ssub.add_parser("run", help="evaluate every scenario in a file against its bound")
    q.add_argument("--file", required=True, help="path to a scenario JSON file")
    _add_jobs(q)
    q.set_defaults(handler=cmd_catalogue)

    q = ssub.add_parser(
        "verify-table",
        help="recompute the 10x10 class-pair table and compare with the shipped bounds",
    )
    _add_jobs(q)
    q.add_argument(
        "--catalogue-dir",
        default=None,
        help="read catalogue JSON from this directory instead of the built-in catalogues",
    )
    q.set_defaults(handler=cmd_catalogue)

    p = sub.add_parser(
        "lemma21",
        help="two-set triangle-free edge bound checked against exhaustive enumeration",
    )
    p.add_argument("--a", required=True, type=int, help="size of the first set")
    p.add_argument("--b", required=True, type=int, help="size of the second set")
    p.set_defaults(handler=cmd_lemma21)

    p = sub.add_parser(
        "optscan",
        help="grid scan (step 1/498) over the four-variable constraint system",
    )
    p.set_defaults(handler=cmd_optscan)

    p = sub.add_parser("thresholds", help="print the edge-count threshold table")
    p.set_defaults(handler=cmd_thresholds)

    p = sub.add_parser(
        "verify-all",
        help="run every shipped check: catalogues, edge-bound grid, scan, constructions, detectors",
    )
    _add_jobs(p)
    p.add_argument(
        "--catalogue-dir",
        default=None,
        help="read catalogue JSON from this directory instead of the built-in catalogues",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for the random detector cross-check",
    )
    p.set_defaults(handler=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    echo = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(echo)
    started = time.perf_counter()
    try:
        return args.handler(args, echo, started)
    except GraphInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
