"""Spans for the traced benchmark run, and the per-layer metrics built from them.

A traced rep installs timing wrappers, from the benchmark's own files, around
the public rtlab names its workload calls.  Each call becomes one span:
name, start, end, parent span and the rep's run id.  Spans stay in memory
until the rep has reached its verdict and are written out afterwards.

A span's self time is its duration minus the time covered by its child
spans; the rep is single-threaded, so children never overlap.  Per-layer
busy time is the sum of self time over that layer's spans, so a layer never
counts time spent in another layer it calls.  Span names are
``<layer>.<function>``; the layers are the seven rtlab modules below.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict

LAYERS = (
    "graphs",
    "triangles",
    "constructions",
    "search",
    "localbounds",
    "exactmath",
    "cli",
)

# Span record fields, kept as lists to stay small: a small-n rep has ~10^5 spans.
NAME, START, END, PARENT, ATTRS = range(5)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def triples_scanned(n: int, witness) -> int:
    """Ordered vertex triples a lexicographic detector scans up to and
    including the returned witness, or all n(n-1)(n-2) when there is none.

    Computed from the call's input and output only, so it measures the search
    space the answer implies, not how a particular detector walks it.
    """
    if witness is None:
        return n * (n - 1) * (n - 2)
    u, v, w = witness.vertices
    v_rank = v - (v > u)
    w_rank = w - (w > u) - (w > v)
    return u * (n - 1) * (n - 2) + v_rank * (n - 2) + w_rank + 1


class Tracer:
    """Records spans for one rep and owns the wrappers it installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.error_layer: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` wrapped in a span called ``name``.

        ``attrs(args, kwargs, result)`` returns the span's work counters; it
        runs after the span has closed, so it costs no span time.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                stack.pop()
                span[ATTRS] = {"error": True}
                if self.error_layer is None:
                    self.error_layer = layer_of(name)
                raise
            span[END] = clock()
            stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` (a module function or a classmethod) by a
        traced wrapper until ``restore``."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(name, original.__func__, attrs))
        else:
            wrapped = self.wrap(name, original, attrs)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header naming the run and the
        fields, then one array per span; the span id is its line number."""
        with open(path, "w") as fh:
            header = {"run": self.run_id, "fields": ["name", "start_ns", "end_ns", "parent", "attrs"]}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> list[int]:
    """Per span, its duration minus the summed duration of its children (ns)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# ---------------------------------------------------------------------------
# per-layer metrics
#
# Each metric names the end-to-end metric and workload it should move:
#   constructions.*                          -> verdict_s on large-graphs
#   graphs.dumps_s/loads_s/bytes             -> verdict_s on large-graphs
#   graphs.from_edges_s/graphs_built         -> verdict_s on small-n
#   triangles.*                              -> verdict_s on large-graphs and
#                                               small-n, a little on verify-all
#   search.*                                 -> verdict_s on small-n only
#   localbounds.*, exactmath.*               -> verdict_s on verify-all
#   cli.import_s                             -> setup_s on verify-all
#   cli.overhead_s, cli.report_bytes         -> verdict_s on verify-all
#   <layer>.failed                           -> the workload's failed checks
#   trace.overhead_s                         -> none; traced minus untraced
#                                               verdict_s
# ---------------------------------------------------------------------------

CATALOGUES = ("table10x10", "eq1_bullets", "eq3_bullets", "claims_local")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{layer}.busy_s", "s") for layer in LAYERS]
    + [(f"{layer}.failed", "count") for layer in LAYERS]
    + [
        ("constructions.build_s", "s"),
        ("constructions.edges", "count"),
        ("constructions.edges_per_s", "1/s"),
        ("graphs.dumps_s", "s"),
        ("graphs.loads_s", "s"),
        ("graphs.bytes", "B"),
        ("graphs.from_edges_s", "s"),
        ("graphs.graphs_built", "count"),
        ("triangles.find_s", "s"),
        ("triangles.count_s", "s"),
        ("triangles.witness_check_s", "s"),
        ("triangles.calls", "count"),
        ("triangles.triples", "count"),
        ("triangles.triples_per_s", "1/s"),
        ("triangles.witness_frac", "ratio"),
        ("search.solve_s", "s"),
        ("search.solves", "count"),
        ("search.nodes", "count"),
        ("search.nodes_per_s", "1/s"),
        ("localbounds.load_s", "s"),
        ("localbounds.dumps_s", "s"),
    ]
    + [(f"localbounds.{cat}.s", "s") for cat in CATALOGUES]
    + [(f"localbounds.{cat}.nodes", "count") for cat in CATALOGUES]
    + [
        ("localbounds.scenarios", "count"),
        ("localbounds.nodes", "count"),
        ("localbounds.nodes_per_s", "1/s"),
        ("localbounds.scenario_p50_s", "s"),
        ("localbounds.scenario_p90_s", "s"),
        ("localbounds.scenario_max_s", "s"),
        ("exactmath.scan_s", "s"),
        ("exactmath.grid_points", "count"),
        ("exactmath.lemma21_s", "s"),
        ("exactmath.lemma21_graphs", "count"),
        ("cli.import_s", "s"),
        ("cli.overhead_s", "s"),
        ("cli.report_bytes", "B"),
        ("trace.overhead_s", "s"),
    ]
)
# Metrics that count work: they must repeat exactly on reps with one seed.
# The CLI report carries its own rounded wall time, so its size can differ
# by a byte between reps and is no counter.
COUNTERS = tuple(
    name
    for name, unit in PER_LAYER
    if unit in ("count", "B") and not name.endswith(".failed") and name != "cli.report_bytes"
)


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer times and counters of one traced rep.

    ``<layer>.failed``, ``cli.import_s``, ``cli.report_bytes`` and
    ``trace.overhead_s`` come from outside the spans and are filled in by the
    callers; here they are 0.
    """
    own = self_times(spans)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    scenario_s: list[float] = []
    for span, own_ns in zip(spans, own):
        name, attrs = span[NAME], span[ATTRS] or {}
        duration_ns = span[END] - span[START]
        self_ns[name] += own_ns
        calls[name] += 1
        for key, value in attrs.items():
            if key != "catalogue":
                total[f"{name}:{key}"] += int(value)
        if "catalogue" in attrs:
            total[f"{attrs['catalogue']}.ns"] += duration_ns
            total[f"{attrs['catalogue']}.nodes"] += attrs["nodes"]
        if name == "localbounds.evaluate_scenario":
            scenario_s.append(duration_ns / 1e9)

    def s(*names):
        return sum(self_ns.get(name, 0) for name in names) / 1e9

    def n(key):
        return total.get(key, 0)

    m = {name: 0 for name, _ in PER_LAYER}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = s(*(name for name in self_ns if layer_of(name) == layer))

    build_s = s("constructions.build_construction")
    m["constructions.build_s"] = build_s
    m["constructions.edges"] = n("constructions.build_construction:edges")
    m["constructions.edges_per_s"] = _ratio(m["constructions.edges"], build_s)

    m["graphs.dumps_s"] = s("graphs.dumps_graph", "graphs.graph_digest")
    m["graphs.loads_s"] = s("graphs.loads_graph")
    m["graphs.bytes"] = n("graphs.dumps_graph:bytes")
    m["graphs.from_edges_s"] = s("graphs.from_edges")
    m["graphs.graphs_built"] = calls.get("graphs.from_edges", 0)

    find_s = s("triangles.find_rainbow")
    count_s = s("triangles.count_rainbow")
    finds = calls.get("triangles.find_rainbow", 0)
    m["triangles.find_s"] = find_s
    m["triangles.count_s"] = count_s
    m["triangles.witness_check_s"] = s("triangles.witness_is_valid")
    m["triangles.calls"] = sum(v for k, v in calls.items() if layer_of(k) == "triangles")
    m["triangles.triples"] = n("triangles.find_rainbow:triples") + n(
        "triangles.count_rainbow:triples"
    )
    m["triangles.triples_per_s"] = _ratio(m["triangles.triples"], find_s + count_s)
    m["triangles.witness_frac"] = _ratio(n("triangles.find_rainbow:witness"), finds)

    m["search.solve_s"] = s("search.solve")
    m["search.solves"] = calls.get("search.solve", 0)
    m["search.nodes"] = n("search.solve:nodes")
    m["search.nodes_per_s"] = _ratio(m["search.nodes"], m["search.solve_s"])

    m["localbounds.load_s"] = s("localbounds.load_catalogue", "localbounds.load_scenarios")
    m["localbounds.dumps_s"] = s("localbounds.dumps_scenarios")
    for cat in CATALOGUES:
        m[f"localbounds.{cat}.s"] = n(f"{cat}.ns") / 1e9
        m[f"localbounds.{cat}.nodes"] = n(f"{cat}.nodes")
    m["localbounds.scenarios"] = len(scenario_s)
    m["localbounds.nodes"] = n("localbounds.evaluate_scenario:nodes")
    m["localbounds.nodes_per_s"] = _ratio(m["localbounds.nodes"], sum(scenario_s))
    m["localbounds.scenario_p50_s"] = _quantile(scenario_s, 0.5)
    m["localbounds.scenario_p90_s"] = _quantile(scenario_s, 0.9)
    m["localbounds.scenario_max_s"] = max(scenario_s, default=0.0)

    m["exactmath.scan_s"] = s("exactmath.scan_constraint_system")
    m["exactmath.grid_points"] = n("exactmath.scan_constraint_system:grid_points")
    m["exactmath.lemma21_s"] = s("exactmath.lemma21_oracle", "exactmath.lemma21_bound")
    m["exactmath.lemma21_graphs"] = n("exactmath.lemma21_oracle:graphs")

    m["cli.overhead_s"] = s("cli.main")
    return m

