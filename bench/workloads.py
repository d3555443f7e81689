"""The benchmark's three workloads: set-up, traced names, timed work and checks.

Each workload is closed-loop and single-process: one rep calls rtlab in
order, one call after another, and grades every output against a pinned
expectation from ``expected.json``.  ``setup`` makes the rep's inputs from
the seed and is not timed as verdict time; ``run`` is the timed part and
ends at the rep's pass/fail verdict.

Why each workload exists (later claims cite these names):

``verify-all``
    ``rtlab verify-all --jobs 1``, the repo's end-to-end check, called
    through ``rtlab.cli.main`` in the rep's own process so that a traced rep
    can wrap the names the CLI imports.  The scenario engine (localbounds)
    does most of the work, so orbit caching or a faster enumerator shows
    here.  The seed goes to the CLI's ``--seed``.
``large-graphs``
    Every construction family built at n = 600, a canonical dump, digest
    and load round trip at n = 300, and both detectors on a seeded vertex
    relabelling at n = 48.  Graph-layer writes and reads and per-triple
    detector throughput show here; localbounds and search are bypassed.
``small-n``
    The 16 c = 3 search goldens (n = 3, 4) and a seeded corpus of small
    graphs through the graph constructor and both detectors: per-call
    overhead on tiny inputs, and the only workload that runs the search.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import numpy as np

from rtlab import constructions, graphs, search, triangles
from rtlab.constructions import ConstructionId
from rtlab.search import SearchObjective, SearchProblem
from rtlab.triangles import TrianglePattern

from spans import triples_scanned

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

PATTERNS = tuple(TrianglePattern)
FAMILIES = tuple(ConstructionId)

# The base graphs of the small-n corpus come from a fixed seed, so their
# rainbow counts can be pinned once; the workload seed draws corpus graphs
# from them under a random vertex relabelling and color permutation, which
# keep both counts.
POOL_SEED = 20230802
POOL_SIZE = 1000


def _canonical(value):
    """JSON-normal form, so tuples compare equal to pinned lists."""
    return json.loads(json.dumps(value))


class Checker:
    """Grades outputs; an exception inside a check fails that check only."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.results: list[dict] = []

    def check(self, name: str, layer: str, expected, compute):
        """Compare ``compute()`` with ``expected``; return the output, or
        None when it raised."""
        if self.tracer is not None:
            self.tracer.error_layer = None
        try:
            actual = compute()
        except Exception as exc:  # a crash is a failed check, and the rep goes on
            if self.tracer is not None and self.tracer.error_layer is not None:
                layer = self.tracer.error_layer
            self._record(name, layer, False, f"raised {exc!r}")
            return None
        ok = _canonical(actual) == _canonical(expected)
        detail = None if ok else f"got {actual!r}, expected {expected!r}"
        self._record(name, layer, ok, detail)
        return actual

    def _record(self, name, layer, ok, detail):
        self.results.append({"name": name, "layer": layer, "ok": ok, "detail": detail})


def _triangle_names(tracer, module) -> None:
    def find_attrs(args, kwargs, result):
        return {
            "triples": triples_scanned(args[0].n, result),
            "witness": result is not None,
        }

    def count_attrs(args, kwargs, result):
        n = args[0].n
        return {"triples": n * (n - 1) * (n - 2)}

    tracer.patch(module, "find_rainbow", "triangles.find_rainbow", find_attrs)
    tracer.patch(module, "count_rainbow", "triangles.count_rainbow", count_attrs)
    tracer.patch(module, "witness_is_valid", "triangles.witness_is_valid")


def _build_attrs(args, kwargs, result):
    return {"edges": result.total_edges()}


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


class VerifyAll:
    name = "verify-all"
    expected = EXPECTED["verify-all"]

    def setup(self, seed: int) -> dict:
        from rtlab.localbounds import CATALOGUE_IDS, load_catalogue

        first_ids = {load_catalogue(which)[0].id: which for which in CATALOGUE_IDS}
        return {"seed": seed, "first_ids": first_ids}

    def install(self, tracer, inputs) -> None:
        from rtlab import cli
        from rtlab.localbounds import catalogues

        first_ids = inputs["first_ids"]

        def catalogue_attrs(args, kwargs, result):
            scenarios = list(args[0])
            return {
                "catalogue": first_ids.get(scenarios[0].id, "other") if scenarios else "other",
                "nodes": sum(e.nodes for e in result),
            }

        def lemma_attrs(args, kwargs, result):
            return {"graphs": 2 ** (args[0] * args[1])}

        tracer.patch(cli, "main", "cli.main")
        for name in ("load_catalogue", "load_scenarios", "dumps_scenarios"):
            tracer.patch(cli, name, f"localbounds.{name}")
        tracer.patch(cli, "evaluate_scenarios", "localbounds.evaluate_scenarios", catalogue_attrs)
        tracer.patch(
            catalogues,
            "evaluate_scenario",
            "localbounds.evaluate_scenario",
            lambda a, k, r: {"nodes": r.nodes},
        )
        tracer.patch(cli, "lemma21_oracle", "exactmath.lemma21_oracle", lemma_attrs)
        tracer.patch(cli, "lemma21_bound", "exactmath.lemma21_bound")
        tracer.patch(
            cli,
            "scan_constraint_system",
            "exactmath.scan_constraint_system",
            lambda a, k, r: {"grid_points": r.grid_points},
        )
        tracer.patch(cli, "build_construction", "constructions.build_construction", _build_attrs)
        tracer.patch(cli, "expected_count", "constructions.expected_count")
        tracer.patch(cli, "count_color", "graphs.count_color")
        tracer.patch(graphs.ColoredDigraph, "from_edges", "graphs.from_edges")
        _triangle_names(tracer, cli)

    def run(self, inputs, checker: Checker) -> dict:
        from rtlab import cli

        seed = inputs["seed"]
        out = io.StringIO()

        def call_cli():
            with contextlib.redirect_stdout(out):
                return cli.main(["verify-all", "--jobs", "1", "--seed", str(seed)])

        checker.check("exit status", "cli", 0, call_cli)
        report = {}

        def parse():
            report.update(json.loads(out.getvalue()))
            return [report["pass"], report["results"]["failed_segments"]]

        if checker.check("report verdict", "cli", [True, []], parse) is None:
            return {}  # no report: the segment checks have nothing to grade

        def segment(name):
            return next(s for s in report["results"]["segments"] if s["name"] == name)

        for name, layer, want in self.expected["segments"]:
            if name == "detector-sanity":
                want = dict(want, seed=seed)
            checker.check(f"segment {name}", layer, want, lambda name=name: segment(name))
        checker.check(
            "segment constraint-scan",
            "exactmath",
            True,
            lambda: segment("constraint-scan")["pass"],
        )
        return {"cli.report_bytes": len(out.getvalue().encode())}


# ---------------------------------------------------------------------------
# large-graphs
# ---------------------------------------------------------------------------


def _relabel(g, rng: random.Random):
    """The graph with vertex i renamed to order[i] for a random order."""
    order = list(range(g.n))
    rng.shuffle(order)
    inverse = np.argsort(order)
    layers = g.layers[:, inverse][:, :, inverse]
    return graphs.ColoredDigraph(g.n, g.c, np.ascontiguousarray(layers))


class LargeGraphs:
    name = "large-graphs"
    expected = EXPECTED["large-graphs"]

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        n = self.expected["n_detect"]
        return {
            cid: _relabel(constructions.build_construction(cid, n), rng) for cid in FAMILIES
        }

    def install(self, tracer, inputs) -> None:
        tracer.patch(
            constructions, "build_construction", "constructions.build_construction", _build_attrs
        )
        tracer.patch(constructions, "expected_count", "constructions.expected_count")
        tracer.patch(graphs, "count_color", "graphs.count_color")
        tracer.patch(
            graphs, "dumps_graph", "graphs.dumps_graph", lambda a, k, r: {"bytes": len(r)}
        )
        tracer.patch(graphs, "graph_digest", "graphs.graph_digest")
        tracer.patch(graphs, "loads_graph", "graphs.loads_graph")
        _triangle_names(tracer, triangles)

    def run(self, inputs, checker: Checker) -> dict:
        exp = self.expected
        build = constructions.build_construction
        expected_count = constructions.expected_count
        count_color = graphs.count_color
        dumps, digest, loads = graphs.dumps_graph, graphs.graph_digest, graphs.loads_graph
        find, count = triangles.find_rainbow, triangles.count_rainbow
        valid = triangles.witness_is_valid

        for cid in FAMILIES:

            def counts(n=exp["n_build"]):
                g = build(cid, n)
                colors = range(1, g.c + 1)
                return [
                    [count_color(g, color) for color in colors],
                    [expected_count(cid, n, color) for color in colors],
                ]

            want = exp["counts"][cid.value]
            checker.check(f"{cid.value} build counts", "constructions", [want, want], counts)

            def round_trip(n=exp["n_io"]):
                g = build(cid, n)
                back = loads(dumps(g))
                return [digest(back), back == g]

            checker.check(
                f"{cid.value} round trip", "graphs", [exp["digests"][cid.value], True], round_trip
            )

            g = inputs[cid]
            for pattern in PATTERNS:

                def detect(pattern=pattern):
                    witness = find(g, pattern)
                    found = count(g, pattern)
                    return [found, witness is not None, witness is None or valid(g, witness)]

                k = exp["rainbow"][cid.value][pattern.value]
                checker.check(
                    f"{cid.value} detect {pattern.value}", "triangles", [k, k > 0, True], detect
                )
        return {}


# ---------------------------------------------------------------------------
# small-n
# ---------------------------------------------------------------------------


def make_pool() -> list[tuple[int, list[tuple[int, int, int]]]]:
    """The fixed base graphs of the small-n corpus: n = 3..6, c = 3."""
    rng = random.Random(POOL_SEED)
    pool = []
    for _ in range(POOL_SIZE):
        n = rng.randint(3, 6)
        p = rng.choice((0.15, 0.3, 0.5))
        edges = [
            (color, u, v)
            for u in range(n)
            for v in range(n)
            if u != v
            for color in (1, 2, 3)
            if rng.random() < p
        ]
        pool.append((n, edges))
    return pool


def make_corpus(seed: int, size: int, pool) -> list[tuple[int, int, list]]:
    """``size`` entries (pool index, n, edges), each a pool graph under a
    seeded vertex relabelling and color permutation."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(size):
        index = rng.randrange(len(pool))
        n, edges = pool[index]
        order = rng.sample(range(n), n)
        colors = [0, *rng.sample((1, 2, 3), 3)]
        corpus.append((index, n, [(colors[c], order[u], order[v]) for c, u, v in edges]))
    return corpus


class SmallN:
    name = "small-n"

    def __init__(self, expected=None, corpus_size: int = 20_000, golden_ns=(3, 4)):
        self.expected = (expected or EXPECTED)["small-n"]
        self.corpus_size = corpus_size
        self.golden_ns = golden_ns

    def setup(self, seed: int) -> dict:
        corpus = make_corpus(seed, self.corpus_size, make_pool())
        pins = self.expected["pool"]
        want = [0, 0, 0, 0, 0]  # directed total, witnesses; transitive total, witnesses; bad
        for index, _, _ in corpus:
            directed, transitive = pins[index]
            want[0] += directed
            want[1] += directed > 0
            want[2] += transitive
            want[3] += transitive > 0
        return {"graphs": [(n, edges) for _, n, edges in corpus], "want": want}

    def install(self, tracer, inputs) -> None:
        tracer.patch(search, "solve", "search.solve", lambda a, k, r: {"nodes": r.nodes})
        tracer.patch(search, "verify_witness", "search.verify_witness")
        tracer.patch(graphs.ColoredDigraph, "from_edges", "graphs.from_edges")
        _triangle_names(tracer, triangles)

    def run(self, inputs, checker: Checker) -> dict:
        solve, verify_witness = search.solve, search.verify_witness
        for n, oriented, pattern, objective, value in self.expected["goldens"]:
            if n not in self.golden_ns:
                continue
            problem = SearchProblem(
                n, 3, TrianglePattern(pattern), oriented=oriented,
                objective=SearchObjective(objective),
            )

            def golden(problem=problem):
                r = solve(problem)
                return [r.value, r.exhaustive, verify_witness(problem, r.witness, r.value)]

            name = f"search n={n} {pattern} oriented={oriented} {objective}"
            checker.check(name, "search", [value, True, True], golden)

        from_edges = graphs.ColoredDigraph.from_edges
        find, count = triangles.find_rainbow, triangles.count_rainbow
        valid = triangles.witness_is_valid

        def corpus():
            got = [0, 0, 0, 0, 0]
            for n, edges in inputs["graphs"]:
                g = from_edges(n, 3, edges)
                for slot, pattern in zip((0, 2), PATTERNS):
                    witness = find(g, pattern)
                    found = count(g, pattern)
                    got[slot] += found
                    if witness is not None:
                        got[slot + 1] += 1
                        got[4] += not valid(g, witness)
                    got[4] += (witness is None) != (found == 0)
            return got

        checker.check("corpus", "triangles", inputs["want"], corpus)
        return {}


WORKLOADS = {w.name: w for w in (VerifyAll, LargeGraphs, SmallN)}
