"""The names the benchmark's traced reps wrap.

A traced rep of each workload in ``bench/workloads.py`` replaces rtlab
functions by timing wrappers and puts them back afterwards.  Renaming or
deleting one of those functions breaks the traced runs only, so each
workload's hooks are installed and restored here.
"""

import sys
from pathlib import Path

import pytest

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
