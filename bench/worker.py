"""One benchmark rep in a fresh interpreter; ``run.py`` starts it.

The rep imports rtlab from the checkout's ``src``, makes its inputs from the
seed, and then, unless it is a set-up sample, runs the timed workload and
grades it.  It prints one JSON line: set-up time (from the parent's launch
timestamp to the end of set-up), verdict time, peak resident memory, every
check, and for a traced rep the per-layer metrics.

Modes: ``setup`` stops after set-up; ``run`` is an untraced rep; ``trace``
installs the span wrappers first and writes its spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_rep(workload: str, seed: int, mode: str, launched_ns: int, spans_path=None, instance=None) -> dict:
    """Run one rep and return its record; ``instance`` overrides the
    workload object (the benchmark's tests pass shortened ones)."""
    start = time.perf_counter()
    if workload == "verify-all":
        import rtlab.cli  # noqa: F401  (timed: cli.import_s)
    import_s = time.perf_counter() - start

    import numpy
    import rtlab

    src = (ROOT / "src").resolve()
    if src not in Path(rtlab.__file__).resolve().parents:
        raise SystemExit(f"rtlab was imported from {rtlab.__file__}, not from {src}")

    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, Checker

    wl = instance or WORKLOADS[workload]()
    inputs = wl.setup(seed)
    tracer = None
    if mode == "trace":
        tracer = Tracer(f"{workload}-{seed}-{launched_ns}")
        wl.install(tracer, inputs)
    record = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "setup_s": (time.monotonic_ns() - launched_ns) / 1e9,
        "numpy": numpy.__version__,
    }
    if mode == "setup":
        return record

    checker = Checker(tracer)
    start = time.perf_counter()
    try:
        extra = wl.run(inputs, checker)
        record["verdict_s"] = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["checks"] = checker.results
    if tracer is not None:
        metrics = layer_metrics(tracer.spans)
        metrics.update(extra)
        if workload == "verify-all":
            metrics["cli.import_s"] = import_s
        record["layers"] = metrics
        record["spans"] = len(tracer.spans)
        if spans_path is not None:
            tracer.write(spans_path)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--launched-ns", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    record = run_rep(args.workload, args.seed, args.mode, args.launched_ns, args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
