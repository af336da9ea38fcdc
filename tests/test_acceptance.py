"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All checks are exact (boolean or integer equality); the only tolerances are
the stated wall-clock budgets.
"""

import json
import time

from modmax import catalog
from modmax.classify import (
    is_nearly_nilpotent,
    is_nilpotent,
    is_nilpotent_hall,
    is_strongly_supersoluble,
    is_supersoluble,
    residual_strongly_supersoluble,
)
from modmax.cli import main
from modmax.groups import prime_spectrum
from modmax.lattice import lattice_of
from modmax.verify import census, run_suite

from oracles import cached_group, modular_alt
from test_lattice_oracle import oracle_subgroups_dfs


def _verdict(criterion: str, ok: bool, detail: str = ""):
    line = f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_golden_classification():
    """S3, hol_C7, hol_C13 classification facts, under one second each."""
    checks = [
        ("S3", lambda g: is_nearly_nilpotent(g) and not is_nilpotent(g)),
        ("hol_C7", lambda g: is_strongly_supersoluble(g)
                             and not is_nearly_nilpotent(g)),
        ("hol_C13", lambda g: is_supersoluble(g)
                              and not is_strongly_supersoluble(g)),
    ]
    ok = True
    timings = []
    for name, fact in checks:
        t0 = time.perf_counter()
        g = catalog.construct(name)  # fresh group: no cached analysis
        good = fact(g)
        dt = time.perf_counter() - t0
        timings.append(f"{name} {dt:.2f}s")
        ok = ok and good and dt < 1.0
    _verdict("criterion 1 (golden classification table)", ok,
             ", ".join(timings))


def test_criterion_2_soundness_gate():
    """Full suite over all checks: zero hypothesis-holds/conclusion-fails."""
    t0 = time.perf_counter()
    result = run_suite("all", "all")
    dt = time.perf_counter() - t0
    failures = result.failures()
    ok = not failures and dt < 300.0
    _verdict("criterion 2 (soundness gate)", ok,
             f"{len(result.reports)} reports, {len(failures)} failures, "
             f"{dt:.1f}s")


def test_criterion_3_sharpness_theorem_A():
    """On A4: 3-maximal set is exactly the trivial subgroup, the prime
    spectrum has 2 elements, and the group is not supersoluble."""
    g = cached_group("A4")
    lat = lattice_of(g)
    n3 = lat.n_maximal_indices(3)
    ok = (len(n3) == 1
          and lat.subgroups[n3[0]].order == 1
          and all(lat.is_modular(i) for i in n3)
          and len(prime_spectrum(g)) == 2
          and not is_supersoluble(g))
    # the harness must report the hypothesis failing only through the bound
    from modmax.verify import verify_theorem_A
    r = verify_theorem_A(g, 3)
    ok = ok and r.hypothesis == "fails" \
        and any("exceeds the bound" in w for w in r.witnesses) \
        and not any("subgroup[" in w for w in r.witnesses)
    _verdict("criterion 3 (sharpness of the ThmA bound)", ok)


def test_criterion_4_sharpness_theorem_B():
    """On A4xC2: residual of order 4 in group order 24, not nilpotent Hall,
    and the least all-modular depth exceeds |pi|+1 = 3."""
    g = cached_group("A4xC2")
    r = residual_strongly_supersoluble(g)
    cen = census(g)
    min_n = cen.min_n_all_modular
    ok = (g.order == 24
          and r.order == 4
          and not is_nilpotent_hall(g, r)
          and (min_n is None or min_n > 3))
    _verdict("criterion 4 (sharpness of the ThmB bound)", ok,
             f"residual order {r.order}, min_n {min_n}")


def test_criterion_5_lemma_property_suites():
    """Lem2.1(i), Lem2.3(3) and all Lem2.2 clauses across the whole suite,
    zero violations."""
    result = run_suite("all", "lemmas")
    bad = [r for r in result.reports
           if r.theorem in ("Lem2.1", "Lem2.2", "Lem2.3")
           and r.conclusion != "holds"]
    gate = [r for r in result.reports if r.is_failure()]
    ok = not bad and not gate
    _verdict("criterion 5 (lemma property suites)", ok,
             f"{len(result.reports)} lemma reports")


def test_criterion_6_lattice_oracle_equivalence():
    """Independent closed-set enumeration equals the lattice for every suite
    group of order at most 24, with the frozen spot counts."""
    ok = True
    details = []
    for entry in catalog.standard_suite():
        g = cached_group(entry.name)
        if g.order > 24:
            continue
        lattice_sets = {frozenset(s.members())
                        for s in lattice_of(g).subgroups}
        if lattice_sets != oracle_subgroups_dfs(g):
            ok = False
            details.append(f"{entry.name} mismatch")
    spots = {"C2": 2, "Q8": 6, "S4": 30}
    for name, want in spots.items():
        got = len(lattice_of(cached_group(name)).subgroups)
        if got != want:
            ok = False
            details.append(f"{name}: {got} != {want}")
    _verdict("criterion 6 (lattice oracle equivalence)", ok,
             "; ".join(details) or "spot counts 2/6/30 confirmed")


def test_criterion_7_modularity_definitional_integrity():
    """Two independent quantifier loop orders agree on every subgroup of
    every suite group, and every normal subgroup is modular."""
    ok = True
    details = []
    for entry in catalog.standard_suite():
        g = cached_group(entry.name)
        lat = lattice_of(g)
        for i in range(lat.size):
            if lat.is_modular(i) != modular_alt(lat, i):
                ok = False
                details.append(f"{entry.name}[{i}] loop orders disagree")
        for i in lat.normal_indices():
            if not lat.is_modular(i):
                ok = False
                details.append(f"{entry.name}[{i}] normal but not modular")
    _verdict("criterion 7 (modularity definitional integrity)", ok,
             "; ".join(details))


def test_criterion_8_determinism(capsys):
    """Two consecutive full verification runs emit byte-identical JSON."""
    main(["verify", "--suite", "all", "--format", "json"])
    first = capsys.readouterr().out
    main(["verify", "--suite", "all", "--format", "json"])
    second = capsys.readouterr().out
    ok = first.encode() == second.encode() and len(first) > 0
    with capsys.disabled():
        _verdict("criterion 8 (byte-identical reruns)", ok,
                 f"{len(first)} bytes")
    parsed = json.loads(first)
    assert parsed["summary"]["fail"] == 0
