"""rtlab benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, measured untraced:
``setup_s`` (interpreter start, imports, catalogue load and seeded input
generation, up to the first timed call; median over several set-ups),
``verdict_s`` (end of set-up to the workload's pass/fail verdict) and
``peak_rss_mb`` (peak resident memory of the process doing the work), both
medians over reps.  ``--trace 1`` alternates traced and untraced reps and
reports the per-layer metrics of ``spans.py``: medians over traced reps, and
``trace.overhead_s``, traced minus untraced verdict time.

Every rep runs in its own interpreter (``worker.py``), one at a time.  Reps
repeat until ``--seconds`` would be exceeded, with at least ``MIN_REPS``
(three when traced).  A check that raises, a rep that crashes or times out, and an
output that differs from its pin all count as failed; the run goes on and
reports them.  Traced reps must give bit-identical work counters.

The last line of stdout is one JSON object: ``correct``, ``attempted`` and
``failed`` (checks; failed/attempted is the ``failed_frac`` printed above
it) and ``metrics``.  The full record, with the machine it ran on, goes to
``.bench_out/`` in the checkout, and traced reps write their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNTERS, LAYERS, PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("verify-all", "large-graphs", "small-n")
END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MiB"))
SETUP_SAMPLES = 5
# Untraced reps per run at least; more run while they fit in --seconds.  On a
# 2-vCPU sandbox single verify-all and small-n reps spread by about 15% from
# one rep to the next, large-graphs reps by about 6%.
MIN_REPS = {"verify-all": 2, "large-graphs": 1, "small-n": 2}
RUN_LIMIT_S = 170  # a run must end within 180 s even when a rep hangs


def machine_record(reps) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in reps if "numpy" in r), "unknown"),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def launch(workload: str, seed: int, mode: str, deadline: float, spans=None) -> dict:
    """Run one worker rep; a crash or timeout comes back as ``{"error": ...}``."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"mode": mode, "error": "run time limit reached"}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--launched-ns", str(time.monotonic_ns())],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"mode": mode, "error": f"timed out after {timeout:.0f} s"}
    except BaseException:  # interrupted: leave no rep running
        proc.kill()
        proc.wait()
        raise
    wall = time.monotonic() - started
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"mode": mode, "error": f"exit status {proc.returncode}", "wall_s": wall}
    record = json.loads(lines[-1])
    record["wall_s"] = wall
    return record


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """All reps of one run, and what they add up to."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    spans_dir = OUT / "spans"
    samples = []
    if trace:
        spans_dir.mkdir(parents=True, exist_ok=True)
    else:
        samples = [launch(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES)]
    # traced runs alternate traced and untraced reps, starting traced
    modes = ("trace", "run") if trace else ("run",)
    min_reps = 3 if trace else MIN_REPS[workload]
    reps = []
    while True:
        mode = modes[len(reps) % len(modes)]
        spans = spans_dir / f"{workload}-seed{seed}-rep{len(reps)}.jsonl" if mode == "trace" else None
        rep = launch(workload, seed, mode, deadline, spans)
        reps.append(rep)
        if "error" in rep:
            break  # the same inputs would fail the same way, or time is up
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and elapsed + rep["wall_s"] > seconds:
            break
    return summarize(workload, seed, trace, samples, reps)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def summarize(workload, seed, trace, samples, reps) -> dict:
    # a launch that crashed or timed out counts as one failed check
    errors = [r for r in samples + reps if "error" in r]
    ok = [r for r in reps if "error" not in r]
    attempted = sum(len(r["checks"]) for r in ok) + len(errors)
    failed = sum(not c["ok"] for r in ok for c in r["checks"]) + len(errors)
    problems = [f"{r['mode']} launch: {r['error']}" for r in errors]
    problems += [
        f"check {c['name']!r} ({c['layer']}): {c['detail']}"
        for r in ok for c in r["checks"] if not c["ok"]
    ]
    untraced = [r for r in ok if r["mode"] == "run"]
    if trace:
        traced = [r for r in ok if r["mode"] == "trace"]
        for name in COUNTERS:
            values = {r["layers"][name] for r in traced}
            if len(values) > 1:
                problems.append(f"counter {name} differs between traced reps: {sorted(values)}")
        # counters are equal on every traced rep; times are medians
        metrics = {
            name: traced[0]["layers"][name] if name in COUNTERS
            else _median([r["layers"][name] for r in traced])
            for name, _ in PER_LAYER
        } if traced else {name: 0 for name, _ in PER_LAYER}
        for layer in LAYERS:
            metrics[f"{layer}.failed"] = sum(
                1 for r in ok for c in r["checks"] if not c["ok"] and c["layer"] == layer
            )
        metrics["trace.overhead_s"] = _median([r["verdict_s"] for r in traced]) - _median(
            [r["verdict_s"] for r in untraced]
        )
        units = dict(PER_LAYER)
    else:
        setups = [r["setup_s"] for r in samples + untraced if "error" not in r]
        metrics = {
            "setup_s": _median(setups),
            "verdict_s": _median([r["verdict_s"] for r in untraced]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        }
        units = dict(END_TO_END)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems and bool(ok),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "machine": machine_record(reps + samples),
        "setup_samples": samples,
        "reps": reps,
    }


def report_lines(run: dict) -> list[str]:
    head = (
        f"{run['workload']} seed={run['seed']} trace={run['trace']} "
        f"reps={len(run['reps'])} correct={run['correct']}"
    )
    lines = [head]
    for name, m in run["metrics"].items():
        lines.append(f"  {name:<32} {m['value']:.6g} {m['unit']}")
    frac = run["failed"] / run["attempted"] if run["attempted"] else 1.0
    lines.append(f"  {'failed_frac':<32} {frac:.6g} ({run['failed']}/{run['attempted']} checks)")
    lines += [f"  problem: {p}" for p in run["problems"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rtlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "rtlab" / "__init__.py").is_file():
        print(f"no rtlab sources under {ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [measure(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    OUT.mkdir(exist_ok=True)
    for run in runs:
        path = OUT / f"{run['workload']}-seed{run['seed']}-trace{run['trace']}.json"
        path.write_text(json.dumps(run, indent=1) + "\n")
        print("\n".join(report_lines(run)))

    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in runs for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
