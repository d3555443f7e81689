"""The names the benchmark's traced reps wrap.

A traced rep of each workload in ``bench/workloads.py`` replaces rtlab
functions by timing wrappers and puts them back afterwards.  Renaming or
deleting one of those functions breaks the traced runs only, so each
workload's hooks are installed and restored here.  The hooks' callbacks
also read fields of the wrapped functions' results; those fields are checked
on the result classes.
"""

import sys
from dataclasses import fields
from pathlib import Path

import pytest

from rtlab.exactmath import ScanResult
from rtlab.graphs import ColoredDigraph
from rtlab.localbounds import BoundEntry
from rtlab.search import SearchResult
from rtlab.triangles import RainbowWitness

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def _workload(name):
    if name == "small-n":
        return workloads.SmallN(corpus_size=300, golden_ns=(3,))
    return workloads.WORKLOADS[name]()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_hooks_install_and_restore(name):
    workload = _workload(name)
    inputs = workload.setup(7)
    tracer = spans.Tracer(name)
    try:
        workload.install(tracer, inputs)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr


@pytest.mark.parametrize(
    "cls, names",
    [
        (ScanResult, {"grid_points"}),
        (SearchResult, {"nodes", "value", "exhaustive", "witness"}),
        (BoundEntry, {"nodes"}),
        (RainbowWitness, {"vertices"}),
    ],
)
def test_callback_result_fields_exist(cls, names):
    # the result fields read by the callbacks and checks in bench/workloads.py
    assert names <= {f.name for f in fields(cls)}


def test_callback_graph_attributes_exist():
    graph = ColoredDigraph.from_edges(3, 3, [(1, 0, 1), (2, 1, 2)])
    assert graph.n == 3 and graph.total_edges() == 2
