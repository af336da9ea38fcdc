"""modmax benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Run from the root of a checkout.  Every repetition runs in a fresh child
process (``bench_child.py``), one child at a time, because modmax memoises
catalog groups per process and caches every analysis on the group: a
reused process would time a warm program.  With ``--jobs 2`` (or the
two-worker pool of ``lattice`` and ``load``) a child runs two workers
while it waits, so at most two processes compute at once.

``--trace 0`` alternates serial and two-process repetitions until
``--seconds`` have passed (two rounds at least) and reports the end-to-end
metrics as medians.  ``--trace 1`` runs pairs of one untraced and
one traced child and reports the per-layer metrics as medians over the
traced children, with the tracing overhead as the difference of the
median traced and untraced wall times.  The last stdout line is the JSON
result; the lines before it print each metric with its unit and the error
rate.

Exit codes: 0 with a result, 2 when the checkout holds no modmax source.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_inputs  # noqa: E402
from bench_trace import per_layer_names  # noqa: E402

RUN_LIMIT_S = 170          # the whole run must end within 180 s
MIN_ROUNDS = 2
WORKLOADS = ("suite", "lattice", "load")

END_TO_END = (("wall_s", "s"), ("jobs2_wall_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class Run:
    """Children of one benchmark run, their verdicts and their output."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def child(self, mode: str) -> dict | None:
        """Start one child, wait for it, and count its operations."""
        cmd = [sys.executable, str(HERE / "bench_child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        budget = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        try:
            out, err = proc.communicate(timeout=budget)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # the child and its workers
            out, err = proc.communicate()
        result = None
        if proc.returncode == 0 and out.strip():
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except json.JSONDecodeError:
                pass
        if result is None:
            print(f"child {mode} failed (exit {proc.returncode}): {err[-2000:]}",
                  file=sys.stderr)
            lost = self.ops_per_child(mode)
            self.attempted += lost
            self.failed += lost
            return None
        for ok, detail in result["ops"]:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"incorrect output: {detail}", file=sys.stderr)
        return result

    def ops_per_child(self, mode: str) -> int:
        if self.workload == "suite":
            return 2 if mode == "untraced" else 1
        if self.workload == "lattice":
            return len(bench_inputs.LATTICE_GROUPS)
        return len(bench_inputs.load_inputs(self.seed))

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def timed_run(run: Run, seconds: float) -> dict:
    serial, jobs2 = [], []
    rounds = 0
    while rounds < MIN_ROUNDS or run.elapsed() < seconds:
        round_start = run.elapsed()
        for mode, sink in (("serial", serial), ("jobs2", jobs2)):
            result = run.child(mode)
            if result is not None:
                sink.append(result)
        rounds += 1
        if run.elapsed() + (run.elapsed() - round_start) > RUN_LIMIT_S:
            break
    both = serial + jobs2
    if not serial or not jobs2:
        return {}
    return {
        "wall_s": statistics.median(r["wall_s"] for r in serial),
        "jobs2_wall_s": statistics.median(r["wall_s"] for r in jobs2),
        "setup_s": statistics.median(r["setup_s"] for r in both),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in both),
        "_samples": len(serial),
    }


def traced_run(run: Run, seconds: float) -> dict:
    """Pairs of untraced and traced children until the next pair would
    overrun ``seconds`` (one pair at least); each metric is the median over
    the traced children."""
    bases, traced = [], []
    while True:
        pair_start = run.elapsed()
        base, trace = run.child("untraced"), run.child("traced")
        if base is None or trace is None:
            return {}
        bases.append(base)
        traced.append(trace)
        pair_s = run.elapsed() - pair_start
        if run.elapsed() + pair_s > min(seconds, RUN_LIMIT_S):
            break
    metrics = {}
    for name, _ in per_layer_names():
        metrics[name] = statistics.median(t["metrics"].get(name, 0.0) for t in traced)
    metrics["verify.warm_rerun_s"] = statistics.median(
        b.get("warm_rerun_s", 0.0) for b in bases)
    metrics["trace.untraced_wall_s"] = statistics.median(b["wall_s"] for b in bases)
    metrics["trace.traced_wall_s"] = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.overhead_s"] = (metrics["trace.traced_wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "modmax" / "__init__.py").is_file():
        print(f"error: no modmax source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    if args.trace:
        values = traced_run(run, args.seconds)
        units = dict(per_layer_names())
    else:
        values = timed_run(run, args.seconds)
        units = dict(END_TO_END)
        if values:
            print(f"{args.workload}: medians of {values.pop('_samples')} serial and "
                  f"two-process repetitions, seed {args.seed}")
    if not values:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {run.failed}/{run.attempted} operations")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
