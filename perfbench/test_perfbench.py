"""Tests of the benchmark itself: seeded inputs, verdicts, trace wiring and
the metric list in ``BENCHMARK.json``.  Every benchmark run also checks the
invariants of all three ``lattice`` groups for its own seed."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import bench_inputs
from bench_child import lattice_invariants, load_op
from bench_trace import per_layer_names
from modmax.groups import Group

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_same_seed_gives_byte_identical_inputs():
    for workload in ("lattice", "load"):
        assert bench_inputs.input_digest(workload, 7) == bench_inputs.input_digest(workload, 7)
        assert bench_inputs.input_digest(workload, 7) != bench_inputs.input_digest(workload, 8)


def test_relabellings_keep_the_lattice_invariants():
    reference = json.loads((HERE / "reference.json").read_text())["lattice"]["S5"]
    tables = set()
    for seed in (1, 2):
        name, table = bench_inputs.lattice_inputs(seed)[2]
        assert name == "S5"
        tables.add(json.dumps(table))
        assert lattice_invariants(Group(table, name=name)) == reference
    assert len(tables) == 2


def test_load_items_get_the_verdict_their_generation_fixes(tmp_path):
    cheap = [item for item in bench_inputs.load_inputs(3)
             if item["id"] in ("cayley156", "perm_S7_over_cap", "latin128", "latin256")]
    assert len(cheap) == 4
    for item in cheap:
        path = tmp_path / f"{item['id']}.json"
        if item["via"] == "file":
            path.write_text(item["text"])
        ok, detail, _ = load_op(item, path)()
        assert ok, detail


def test_trace_wiring_rebinds_every_import_and_sees_every_check():
    # in a child process: installing the tracer patches modmax's modules
    script = textwrap.dedent("""
        import importlib, bench_trace
        originals = {}
        for mod in ("groups", "lattice", "classify"):
            m = importlib.import_module("modmax." + mod)
            for attr in ("quotient", "subgroup_as_group", "lattice_of",
                         "enumerate_lattice", "all_chief_factors", "is_soluble"):
                if hasattr(m, attr):
                    originals[attr] = getattr(m, attr)
        tracer = bench_trace.Tracer()
        bench_trace.install(tracer)
        import modmax
        for name in ("groups", "lattice", "classify", "verify", "catalog", "cli"):
            mod = importlib.import_module("modmax." + name)
            for value in vars(mod).values():
                assert all(value is not o for o in originals.values()), name
        assert all(v is not o for v in vars(modmax).values() for o in originals.values())
        verify = importlib.import_module("modmax.verify")
        verify.run_suite("A4,A4xC2,SL23", "all")
        m = tracer.metrics(1.0)
        checks = {s[4]["check"] for s in tracer.spans if s[0] == "verify.check"}
        assert checks == set(bench_trace.CHECK_IDS), checks
        assert m["lattice.builds"] > m["lattice.builds_derived"] > 0
        assert m["lattice.tables_s"] > 0 and m["lattice.enumerate_s"] > 0
        assert m["groups.quotient_calls"] > 0 and m["classify.residual_calls"] > 0
        print("ok")
    """)
    proc = subprocess.run([sys.executable, "-c", script], cwd=HERE, text=True,
                          capture_output=True, timeout=120,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names()
    sys.path.insert(0, str(HERE))
    import run
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
