"""Workbench for rainbow-triangle problems on colored directed graphs.

The package models c-colored directed graphs, detects rainbow (3-distinct-
color) directed and transitive triangles, generates the extremal
constructions that avoid them, searches small instances exhaustively,
re-derives local edge-count bounds by scenario enumeration, and keeps the
associated threshold constants in exact arithmetic over Q(sqrt(7)).
"""

from .constructions import (
    ConstructionId,
    bipartite_double,
    build_construction,
    directed3,
    expected_count,
    oriented_cyclic,
    transitive3,
    two_color_heavy,
)
from .exactmath import (
    SQRT7,
    ConstraintSystem,
    QuadraticRational,
    ScanResult,
    ThresholdEntry,
    lemma21_bound,
    lemma21_oracle,
    scan_constraint_system,
    threshold_value,
    thresholds,
)
from .localbounds import (
    CATALOGUE_IDS,
    BoundEntry,
    Constraint,
    EnumerationResult,
    Group,
    Objective,
    Scenario,
    enumerate_max,
    evaluate_scenarios,
    load_catalogue,
    load_scenarios,
    run_catalogue,
    save_scenarios,
)
from .search import (
    SearchProblem,
    SearchResult,
    solve,
    verify_witness,
)
from .graphs import (
    ColoredDigraph,
    EdgeRef,
    GraphInputError,
    PairProfile,
    classify_pair,
    count_between,
    count_color,
    dumps_graph,
    graph_digest,
    is_oriented,
    load_graph,
    loads_graph,
    save_graph,
)
from .triangles import (
    RainbowWitness,
    TrianglePattern,
    count_rainbow,
    find_rainbow,
    sdr_exists,
    witness_is_valid,
)

__version__ = "0.1.0"
