"""CLI subcommands, formats, and exit codes."""

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import modmax
from modmax import catalog, verify
from modmax.cli import EXIT_LOAD, EXIT_OK, EXIT_SOUNDNESS, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "catalog:S3")
    assert code == EXIT_OK
    assert "nearly_nilpotent: True" in out
    assert "nilpotent: False" in out


def test_classify_json_roundtrip(capsys):
    code, out, _ = run(capsys, "classify", "catalog:A4", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["profile"]["supersoluble"] is False
    assert obj["strongly_supersoluble_residual_order"] == 4
    assert json.loads(json.dumps(obj)) == obj


def test_classify_trivial_group(capsys):
    code, out, _ = run(capsys, "classify", "catalog:1", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["profile"]["strongly_supersoluble"] is True


def test_lattice_counts(capsys):
    code, out, _ = run(capsys, "lattice", "catalog:Q8", "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["subgroups"]) == 6
    code, out, _ = run(capsys, "lattice", "catalog:C7", "--format", "json")
    assert len(json.loads(out)["subgroups"]) == 2
    code, out, _ = run(capsys, "lattice", "catalog:S4", "--format", "json")
    assert len(json.loads(out)["subgroups"]) == 30


def test_lattice_dot(capsys):
    code, out, _ = run(capsys, "lattice", "catalog:Q8", "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("digraph subgroup_lattice")
    assert out.count("label=") == 6


def test_census_a4(capsys):
    code, out, _ = run(capsys, "census", "catalog:A4", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["min_n_all_modular"] == 3


def test_verify_sharpness(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "sharpness")
    assert code == EXIT_OK
    assert "SharpnessA" in out and "SharpnessB" in out
    assert "fail=0" in out


def test_verify_lemmas_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas",
                       "--groups", "S3,Q8", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["summary"]["fail"] == 0
    assert all(r["ms"] == 0.0 for r in obj["reports"])


def test_verify_output_identical_across_runs(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "lemmas",
                     "--groups", "S3,A4", "--format", "json")
    _, out2, _ = run(capsys, "verify", "--suite", "lemmas",
                     "--groups", "S3,A4", "--format", "json")
    assert out1 == out2


def test_verify_runs_a_repeated_group_once(capsys):
    _, once, _ = run(capsys, "verify", "--groups", "S3", "--format", "json")
    for jobs in ("1", "2"):
        _, twice, _ = run(capsys, "verify", "--groups", "S3,S3", "--jobs", jobs,
                          "--format", "json")
        assert twice == once


def test_serial_cli_never_imports_multiprocessing():
    """Nor dataclasses and the inspect machinery it pulls in: every
    process, a pooled worker too, pays for what `import modmax.cli` loads."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(modmax.__file__).resolve().parents[1]))
    code = ("import sys, modmax.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent')) "
            "or m in ('dataclasses', 'inspect')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, timeout=60, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


GATE_ALL = (97125,
            "164cf7f98e8fbe8bc29292993c8abd5e61e2a98c877df244681dc35e039431dd")


@pytest.mark.parametrize("flags, size, digest", [
    ((), *GATE_ALL),
    (("--fast",), 91809,
     "f81aeae8534fb7fe258f68bfdd902ef1509d86d29ff9b74772a55bc677e6fd0a"),
], ids=["all", "all-fast"])
def test_verify_gate_bytes_are_pinned(capsys, flags, size, digest):
    """The full soundness gate's JSON, byte for byte: a refactor that adds,
    drops or reorders a witness changes the digest even when every verdict
    stays the same."""
    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", "json",
                       *flags)
    assert code == EXIT_OK
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_verify_gate_bytes_across_processes():
    """A fresh interpreter asked for two worker processes prints the same
    pinned bytes, with no cache of this process warmed."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(modmax.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "modmax.cli", "verify", "--suite", "all",
         "--format", "json", "--jobs", "2"],
        capture_output=True, env=env, timeout=600)
    assert proc.returncode == EXIT_OK, proc.stderr
    data = proc.stdout
    assert (len(data), hashlib.sha256(data).hexdigest()) == GATE_ALL


def test_verify_pq2_witness_bytes_are_pinned(capsys):
    """The two non-abelian groups of orders 363 and 1,183 on which Prop3.2
    and Cor4.4 hold non-vacuously, byte for byte."""
    code, out, _ = run(capsys, "verify", "--groups", "pq2_3_11,pq2_7_13",
                       "--format", "json")
    assert code == EXIT_OK
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (
        14487,
        "fe771fd76e08f9c20c999d51c5cc0a555ab4aade9f6d1ae0b95fd1f9cccb3d0b")


@pytest.mark.parametrize("name, size, digest", [
    ("hol_C43", 8727,
     "37048d3a8f909e2f3c3c9e40676bc99b45d3f6aa5e3fb9b56eba8789d2bac2f0"),
    ("pq2_7_13", 7296,
     "55b2e999d9bc1a1342448db89cc2813b550906ee2a130e697dd9370703d002b5"),
])
def test_verify_class_heavy_bytes_are_pinned(capsys, name, size, digest):
    """Two groups with few conjugacy classes of subgroups against many
    subgroups (hol_C43: 16 classes of 310), byte for byte, so the answers
    read once per class are checked where they stand for the most
    subgroups."""
    code, out, _ = run(capsys, "verify", "--groups", name, "--format", "json")
    assert code == EXIT_OK
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


@pytest.mark.parametrize("argv, size, digest", [
    (("lattice", "catalog:E2^5"), 122860,
     "c21eaf53e096c3474581df7fb8755048c41f17662e2b828debf89fe9522c9d66"),
    (("lattice", "catalog:S5"), 49489,
     "932584615c5968d45d2f36a95c7859d49805f1cccef177eaffd1ccbd0289086c"),
    (("census", "catalog:E2^3xS3"), 631,
     "1426c6b6e0bb7fa6381211f9f9e56b734a8b8bbd88e577d239f4716842544faa"),
    (("census", "catalog:E2^6"), 751,
     "2bd10f4865f965a8cc8b916542bda1f586e5bba1b75df16f50a088cb2162e6f2"),
])
def test_lattice_and_census_bytes_are_pinned(capsys, argv, size, digest):
    """The normal, modular and S-quasinormal columns and the cover lists of
    two large lattices (E2^5: 374 subgroups, S5: 156), and the census of
    E2^3xS3 and of E2^6 (2,825 subgroups, all modular), byte for byte."""
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


@pytest.mark.parametrize("argv, size, digest", [
    (("lattice", "catalog:S4"), 1384,
     "a946530f2670f72963854b849d356bd245968b796a572c6d0d14ffb76547c028"),
    (("census", "catalog:A4xC2"), 269,
     "e3e16ad924ee6390565e29ee4a3cb1dbcd4e5539ce735f0bfa4d52af2e32454c"),
    (("catalog",), 1149,
     "48b069aff5b853a7427e45707df3c86fafb95a5a74791155c5d5f32250527a9f"),
])
def test_text_bytes_are_pinned(capsys, argv, size, digest):
    """The text forms of lattice, census and catalog, byte for byte."""
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    data = out.encode()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_verify_depth_pin(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theorems",
                       "--groups", "A4", "--n", "3", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert {r["theorem"] for r in obj["reports"]} ==         {"ThmA(n=3)", "Thm2.12(n=3)", "ThmB(n=3)", "Thm3.4(n=3)"}
    code, _, err = run(capsys, "verify", "--n", "0", "--groups", "S3")
    assert code == EXIT_USAGE


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert any(row["name"] == "hol_C13" and row["order"] == 156 for row in rows)


def test_usage_errors(capsys):
    code, _, err = run(capsys, "nonsense")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "verify", "--groups", "NoSuchGroup")
    assert code == EXIT_USAGE


def test_load_errors(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "catalog:M24")
    assert code == EXIT_LOAD
    code, _, err = run(capsys, "classify", str(tmp_path / "missing.json"))
    assert code == EXIT_LOAD
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == EXIT_LOAD


@pytest.mark.parametrize("command", ["classify", "lattice", "census"])
def test_unreadable_group_files_exit_as_load_errors(capsys, hostile_group_file, command):
    code, out, err = run(capsys, command, str(hostile_group_file))
    assert code == EXIT_LOAD and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_group_file_source(capsys, tmp_path):
    payload = {
        "name": "klein",
        "kind": "cayley",
        "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    }
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "classify", str(path), "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["profile"]["abelian"] is True

    perm = {
        "name": "sym3",
        "kind": "permutation",
        "degree": 3,
        "generators": [[[0, 1, 2]], [[0, 1]]],
    }
    path = tmp_path / "sym3.json"
    path.write_text(json.dumps(perm))
    code, out, _ = run(capsys, "lattice", str(path), "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["subgroups"]) == 6


def test_max_order_flag(capsys):
    code, _, err = run(capsys, "classify", "catalog:S4", "--max-order", "10")
    assert code == EXIT_LOAD


def test_max_order_below_one_is_a_usage_error(capsys):
    code, _, err = run(capsys, "classify", "catalog:S4", "--max-order", "0")
    assert code == EXIT_USAGE
    assert "--max-order must be >= 1" in err


def test_soundness_exit_code_mapping():
    # a real violation is not producible from a correct build; check the
    # mapping through the SuiteResult seam instead
    from modmax.verify import SuiteResult, VerdictReport
    bad = VerdictReport("X", "ThmA(n=1)", "holds", "fails", (), 0.0)
    assert SuiteResult((bad,)).has_failures()
    good = VerdictReport("X", "ThmA(n=1)", "fails", "fails", (), 0.0)
    assert not SuiteResult((good,)).has_failures()
    assert EXIT_SOUNDNESS == 3


# with strong supersolubility denied, these reports conclude it under a
# satisfied hypothesis, so each is a failure of the gate
DENIED_FAILURES = [
    ("Q8", "Prop2.11"), ("Q8", "Prop2.9"), ("Q8", "Thm2.12(n=1)"),
    ("Q8", "ThmA(n=1)"), ("S3", "Prop2.11"), ("S3", "Prop2.9"),
    ("S3", "Thm2.12(n=1)"), ("S3", "Thm2.12(n=2)"), ("S3", "ThmA(n=1)"),
    ("S3", "ThmA(n=2)"),
]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_failure_exits_3_and_is_counted(capsys, monkeypatch, jobs):
    """The gate's failure path end to end: a check made to fail reaches the
    JSON summary, the text flags and summary line, and exit code 3, serial
    and pooled."""
    if jobs != "1" and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the patched check only when forked")
    monkeypatch.setattr(verify, "is_strongly_supersoluble", lambda G: False)
    argv = ("verify", "--groups", "S3,Q8", "--jobs", jobs)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_SOUNDNESS
    obj = json.loads(out)
    assert obj["summary"] == {"pass": 30, "fail": 10, "vacuous": 2}
    assert [(r["group"], r["theorem"]) for r in obj["reports"]
            if r["hypothesis"] != "fails" and r["conclusion"] == "fails"] == \
        DENIED_FAILURES
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_SOUNDNESS
    lines = out.splitlines()
    assert [tuple(line.split()[1:3]) for line in lines
            if line.startswith("[FAIL]")] == DENIED_FAILURES
    assert lines[-1] == "summary: pass=30 fail=10 vacuous=2"


def test_report_witnesses_are_capped(monkeypatch):
    """A report with more than MAX_WITNESSES witnesses keeps the first
    MAX_WITNESSES - 1 and counts the rest."""
    monkeypatch.setattr(verify, "is_nilpotent", lambda *args: False)
    report = verify.lemma_2_1_suite(catalog.construct("E2^3"))
    assert report.is_failure()
    # 16 modular subgroups: one count line and one line per subgroup
    assert verify.MAX_WITNESSES == 10
    assert report.witnesses[0] == "16 modular subgroups checked"
    assert all(w.endswith(": M over its core is not nilpotent")
               for w in report.witnesses[1:9])
    assert report.witnesses[9:] == ("... 8 more",)
    text = verify.SuiteResult((report,)).to_text().splitlines()
    assert text[0].startswith("[FAIL] E2^3")
    assert text[-2:] == ["         - ... 8 more", "summary: pass=0 fail=1 vacuous=0"]


def test_verify_jobs_below_one_is_a_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--groups", "S3", "--jobs", "0")
    assert code == EXIT_USAGE
    assert "jobs must be >= 1" in err


def test_verify_group_with_bad_parameters_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--groups", "D7")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error: ")


@pytest.mark.parametrize("groups", ["D7", "NoSuchGroup", "S3,D7"])
def test_verify_usage_errors_are_the_same_on_two_processes(capsys, monkeypatch, groups):
    """D7's parameters are refused by its builder, in the process that takes
    it; the exit code and the message are those of the serial run."""
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    serial = run(capsys, "verify", "--groups", groups)
    assert serial[:2] == (EXIT_USAGE, "")
    assert run(capsys, "verify", "--groups", groups, "--jobs", "2") == serial


def test_verify_group_over_the_default_cap_is_a_load_error(capsys):
    code, out, err = run(capsys, "verify", "--groups", "C3000")
    assert code == EXIT_LOAD
    assert out == ""
    assert "C3000 has order 3000, above the requested cap 2000" in err


@pytest.mark.parametrize("argv", [("lattice", "catalog:E2^20000"),
                                  ("verify", "--groups", "E2^20000")])
def test_group_with_a_huge_order_is_a_load_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_LOAD
    assert out == ""
    assert "E2^20000 has order more than" in err


def test_lattice_over_the_subgroup_limit_is_a_load_error(capsys):
    """E2^7 is under the order cap (128) but has 29,212 subgroups; the
    enumeration stops past the limit, before any n x n table is built."""
    start = time.perf_counter()
    code, out, err = run(capsys, "lattice", "catalog:E2^7")
    assert time.perf_counter() - start < 10
    assert code == EXIT_LOAD
    assert out == ""
    assert err == ("error: E2^7 has more than 4096 subgroups, "
                   "the limit of one lattice\n")


DEEP_PRODUCT = "C1x" * 500 + "C2"


def test_deep_product_name_is_a_load_error(capsys):
    code, out, err = run(capsys, "classify", f"catalog:{DEEP_PRODUCT}")
    assert (code, out) == (EXIT_LOAD, "")
    assert err.startswith("error: ") and "more than 64 direct factors" in err


def test_verify_deep_product_name_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--groups", DEEP_PRODUCT)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("usage error: ") and "more than 64 direct factors" in err
