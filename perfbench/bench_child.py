"""One repetition of a workload, in a fresh process started by ``run.py``.

Usage: bench_child.py --workload W --seed N --mode M --spawned-at T

Modes:

- ``serial``: the workload's operations one after another;
- ``jobs2``: the same operations over two processes.  ``suite`` passes
  ``--jobs 2`` to ``modmax verify``; ``lattice`` and ``load`` map their
  operations over a two-worker fork pool, the way ``verify --jobs`` does;
- ``untraced``: ``serial``, then (on ``suite``) the same call again in the
  same process to time a warm rerun;
- ``traced``: ``serial`` with the tracer installed.

``T`` is ``time.monotonic()`` in the parent just before it started this
process, so ``setup_s`` covers interpreter start, imports and input
generation.  The one line printed on stdout is a JSON object with the
timings, peak memory and one verdict per operation, checked against
``reference.json`` or against the verdict fixed when the input was made.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench"

SUITE_ARGV = ["verify", "--suite", "all", "--format", "json"]


# ---------------------------------------------------------------------------
# operations: each returns (ok, detail, facts)

def suite_op(argv, reference):
    from modmax import cli

    def op():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out = buf.getvalue().encode()
        parsed = json.loads(out)
        facts = {
            "rc": rc,
            "bytes": len(out),
            "sha256": hashlib.sha256(out).hexdigest(),
            "reports": len(parsed["reports"]),
            "summary": parsed["summary"],
        }
        ok = facts == reference
        facts["nonvacuous_holds"] = sum(
            1 for r in parsed["reports"] if r["hypothesis"] == "holds")
        return ok, "" if ok else f"suite output differs: {facts}", facts
    return op


def lattice_invariants(G) -> dict:
    """Isomorphism invariants of G's lattice, with the full embedding table."""
    from modmax.lattice import lattice_of
    from modmax.verify import census

    lat = lattice_of(G)
    per_order: dict[str, list[int]] = {}
    for i, s in enumerate(lat.subgroups):
        row = per_order.setdefault(str(s.order), [0] * 6)
        flags = (True, lat.is_normal(i), lat.is_modular(i), lat.is_quasinormal(i),
                 lat.is_s_quasinormal(i), lat.is_subnormal(i))
        for k, flag in enumerate(flags):
            row[k] += flag
    c = census(G)
    return {
        "subgroups": lat.size,
        "per_order_total_normal_modular_quasinormal_squasinormal_subnormal": per_order,
        "census": [[r.n, r.total, r.modular, r.s_quasinormal, r.neither] for r in c.rows],
        "min_n_all_modular": c.min_n_all_modular,
        "longest_chain": lat.max_chain_length,
    }


def lattice_op(name, G, reference):
    def op():
        inv = lattice_invariants(G)
        ok = inv == reference
        return ok, "" if ok else f"{name} invariants differ: {inv}", {}
    op.label = name
    return op


def load_op(item, path):
    from modmax import catalog
    from modmax.groups import group_from_json, load_group

    def call():
        if item["via"] == "file":
            return load_group(path, max_order_cap=item["cap"])
        if item["via"] == "json":
            return group_from_json(item["data"], max_order_cap=item["cap"])
        return catalog.construct(item["name"], max_order_cap=item["cap"])

    def op():
        try:
            G = call()
            verdict = ["accept", G.order]
        except Exception as exc:  # every outcome is a verdict to compare
            cause = exc.__cause__
            verdict = ["reject", type(exc).__name__,
                       type(cause).__name__ if cause is not None else None]
        ok = verdict == item["expect"]
        return ok, "" if ok else f"{item['id']}: got {verdict}, expected {item['expect']}", {}
    op.label = item["id"]
    return op


def prepare(workload: str, seed: int, mode: str, workdir: Path):
    """Set-up: generate the inputs from the seed and bind the operations."""
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    if workload == "suite":
        argv = SUITE_ARGV + (["--jobs", "2"] if mode == "jobs2" else [])
        return [suite_op(argv, reference["suite"])]
    import bench_inputs
    if workload == "lattice":
        from modmax.groups import Group
        return [lattice_op(name, Group(table, name=name), reference["lattice"][name])
                for name, table in bench_inputs.lattice_inputs(seed)]
    ops = []
    workdir.mkdir(parents=True, exist_ok=True)
    for item in bench_inputs.load_inputs(seed):
        path = None
        if item["via"] == "file":
            path = workdir / f"{item['id']}.json"
            path.write_text(item["text"], encoding="utf-8")
        ops.append(load_op(item, path))
    return ops


# ---------------------------------------------------------------------------
# running

_POOL_OPS: list = []


def _run_pool_op(i: int):
    return _POOL_OPS[i]()


def run_ops(ops, mode: str, tracer, workload: str):
    if mode == "jobs2" and workload != "suite":
        _POOL_OPS[:] = ops
        # fork, as modmax's own --jobs pool: workers inherit the prepared
        # inputs and start with every analysis cache empty
        with ProcessPoolExecutor(max_workers=2, mp_context=get_context("fork")) as pool:
            return list(pool.map(_run_pool_op, range(len(ops))))
    if tracer is None:
        return [op() for op in ops]
    out = []
    for op in ops:
        with tracer.span("bench.group" if workload == "lattice" else "bench.op",
                         group=getattr(op, "label", workload)):
            out.append(op())
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=("suite", "lattice", "load"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True,
                   choices=("serial", "jobs2", "untraced", "traced"))
    p.add_argument("--spawned-at", type=float, required=True)
    args = p.parse_args(argv)

    tracer = None
    if args.mode == "traced":
        import bench_trace
        tracer = bench_trace.Tracer()
        bench_trace.install(tracer)
    workdir = SPAN_DIR / f"work-{os.getpid()}"
    try:
        ops = prepare(args.workload, args.seed, args.mode, workdir)
        if tracer is not None:
            # installed before set-up so that prepared calls bind the
            # wrappers; set-up's own spans are not part of the workload
            tracer.spans.clear()
        t0 = time.monotonic()
        results = run_ops(ops, args.mode, tracer, args.workload)
        t1 = time.monotonic()
        warm = None
        if args.mode == "untraced" and args.workload == "suite":
            results += run_ops(ops, "serial", None, args.workload)
            warm = time.monotonic() - t1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "setup_s": t0 - args.spawned_at,
        "wall_s": t1 - t0,
        "peak_rss_mb": peak_kb / 1024,
        "ops": [[ok, detail] for ok, detail, _ in results],
    }
    if warm is not None:
        out["warm_rerun_s"] = warm
    if tracer is not None:
        metrics = tracer.metrics(t1 - t0)
        if args.workload == "suite":
            facts = results[0][2]
            metrics["verify.reports"] = facts["reports"]
            metrics["verify.vacuous"] = facts["summary"]["vacuous"]
            metrics["verify.nonvacuous_holds"] = facts["nonvacuous_holds"]
            metrics["cli.stdout_bytes"] = facts["bytes"]
        out["metrics"] = metrics
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.dump(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
