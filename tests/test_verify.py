"""Theorem harness verdicts, census values, and the suite runner."""

import pytest

from modmax import catalog
from modmax.classify import is_supersoluble
from modmax.lattice import lattice_of
from modmax.verify import (
    FAILS,
    HOLDS,
    NOT_EVALUATED,
    VACUOUS,
    UnknownSelector,
    census,
    lemma_2_1_suite,
    reports_for_group,
    run_suite,
    verify_corollaries,
    verify_lemma_2_1,
    verify_lemma_2_2,
    verify_lemma_2_3,
    verify_lemma_2_10,
    verify_prop_2_9,
    verify_prop_2_11,
    verify_prop_3_2,
    verify_sharpness_A,
    verify_sharpness_B,
    verify_theorem_A,
    verify_theorem_B,
    verify_theorem_2_12,
    verify_theorem_3_4,
)


def test_census_values(suite_groups):
    c5 = census(catalog.construct("C5"))
    assert c5.min_n_all_modular == 1
    assert c5.rows[0].total == 1 and c5.rows[0].modular == 1

    a4 = census(suite_groups["A4"])
    assert a4.min_n_all_modular == 3
    assert [r.total for r in a4.rows] == [5, 4, 1]
    assert [r.modular for r in a4.rows] == [1, 1, 1]

    s3 = census(suite_groups["S3"])
    assert s3.min_n_all_modular == 1
    assert s3.rows[0].total == 4 and s3.rows[0].modular == 4

    g24 = census(suite_groups["A4xC2"])
    assert g24.min_n_all_modular == 4


def test_census_counts_match_depth_sets(suite_groups):
    for G in suite_groups.values():
        lat = lattice_of(G)
        for row in census(G).rows:
            assert row.total == len(lat.n_maximal_indices(row.n))
            assert row.neither >= row.total - row.modular - row.s_quasinormal


def test_theorem_A_on_s3(suite_groups):
    r = verify_theorem_A(suite_groups["S3"], 2)
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)


def test_theorem_A_bound_blocks_a4(suite_groups):
    r = verify_theorem_A(suite_groups["A4"], 3)
    assert r.hypothesis == FAILS
    assert any("exceeds the bound" in w for w in r.witnesses)
    # the conclusion genuinely fails there, which is the point of sharpness
    assert r.conclusion == FAILS


def test_theorem_A_holds_on_nilpotent_pq(suite_groups):
    r = verify_theorem_A(suite_groups["C6"], 2)
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)


def test_theorem_B_on_a4(suite_groups):
    r = verify_theorem_B(suite_groups["A4"], 3)
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)


def test_theorem_B_trivial_group_vacuous(suite_groups):
    r = verify_theorem_B(suite_groups["1"], 1)
    assert (r.hypothesis, r.conclusion) == (VACUOUS, HOLDS)


def test_theorem_3_4_bound_blocks_a4xc2(suite_groups):
    r = verify_theorem_3_4(suite_groups["A4xC2"], 4)
    assert r.hypothesis == FAILS
    assert r.conclusion == FAILS  # residual V4 is not Hall: sharpness


def test_theorem_A_implies_2_12(suite_groups):
    """Logical containment, checked mechanically across the suite."""
    for G in suite_groups.values():
        lat = lattice_of(G)
        for n in range(1, max(1, lat.max_chain_length) + 1):
            a = verify_theorem_A(G, n)
            b = verify_theorem_2_12(G, n)
            if a.hypothesis in (HOLDS, VACUOUS):
                assert not a.is_failure()
                assert b.conclusion == a.conclusion
            if b.hypothesis == HOLDS:
                assert not b.is_failure()


def test_prop_2_9(suite_groups):
    r = verify_prop_2_9(suite_groups["S3"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    r = verify_prop_2_9(suite_groups["A4"])
    assert r.hypothesis == VACUOUS and r.conclusion == HOLDS


def test_prop_2_11(suite_groups):
    r = verify_prop_2_11(suite_groups["S3"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    r = verify_prop_2_11(suite_groups["Q8"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    # contrapositive on the order-42 separating example
    r = verify_prop_2_11(suite_groups["hol_C7"])
    assert r.hypothesis == FAILS
    # and on the order-156 one
    r = verify_prop_2_11(suite_groups["hol_C13"])
    assert r.hypothesis == FAILS


def test_prop_3_2(suite_groups):
    r = verify_prop_3_2(suite_groups["A4"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    assert any("p*q^2" in w for w in r.witnesses)
    r = verify_prop_3_2(suite_groups["SL23"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    assert any("quaternion" in w for w in r.witnesses)
    r = verify_prop_3_2(suite_groups["S3"])
    assert (r.hypothesis, r.conclusion) == (FAILS, NOT_EVALUATED)


def test_lemma_2_1_per_subgroup(suite_groups):
    s3 = suite_groups["S3"]
    lat = lattice_of(s3)
    c2 = next(s for s in lat.subgroups if s.order == 2)
    r = verify_lemma_2_1(s3, c2)
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    assert any("decomposition r=1" in w for w in r.witnesses)
    # a non-modular subgroup is out of the lemma's scope
    a4 = suite_groups["A4"]
    lat4 = lattice_of(a4)
    c3 = next(s for s in lat4.subgroups if s.order == 3)
    r = verify_lemma_2_1(a4, c3)
    assert (r.hypothesis, r.conclusion) == (VACUOUS, NOT_EVALUATED)


def test_lemma_suites_hold_everywhere(suite_groups):
    for G in suite_groups.values():
        assert lemma_2_1_suite(G).conclusion == HOLDS, G.name
        assert verify_lemma_2_2(G).conclusion == HOLDS, G.name
        assert verify_lemma_2_3(G).conclusion == HOLDS, G.name
        r = verify_lemma_2_10(G)
        assert not r.is_failure(), (G.name, r.witnesses)


def test_lemma_2_10_examples(suite_groups):
    r = verify_lemma_2_10(suite_groups["hol_C13"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    r = verify_lemma_2_10(suite_groups["A4"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    r = verify_lemma_2_10(suite_groups["S3"])
    assert r.hypothesis == VACUOUS  # nearly nilpotent, out of scope


def test_corollaries(suite_groups):
    for name in ("S3", "Q8", "A4", "SL23"):
        for r in verify_corollaries(suite_groups[name]):
            assert not r.is_failure(), (name, r.theorem, r.witnesses)
    # the quaternion-shape branch of Cor4.4 on the order-24 witness
    r = verify_corollaries(suite_groups["SL23"])[3]
    assert r.theorem == "Cor4.4"
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    # trivial group: everything vacuous or satisfied
    for r in verify_corollaries(suite_groups["1"]):
        assert not r.is_failure()


def test_sharpness_narratives(suite_groups):
    r = verify_sharpness_A(suite_groups["A4"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    r = verify_sharpness_B(suite_groups["A4xC2"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)


def test_fast_mode_skips_conclusions(suite_groups):
    r = verify_theorem_A(suite_groups["A4"], 3, fast=True)
    assert r.hypothesis == FAILS and r.conclusion == NOT_EVALUATED


def test_run_suite_soundness_gate():
    result = run_suite("all", "all")
    assert not result.has_failures(), [
        (r.group, r.theorem, r.witnesses) for r in result.failures()]
    counts = result.summary()
    assert counts["fail"] == 0
    assert counts["pass"] > 300


def test_run_suite_selectors():
    result = run_suite("S3,Q8", "theorems")
    groups = {r.group for r in result.reports}
    assert groups == {"S3", "Q8"}
    assert all(r.theorem.startswith("Thm") for r in result.reports)

    sharp = run_suite("all", "sharpness")
    assert {r.theorem for r in sharp.reports} == {"SharpnessA", "SharpnessB"}
    assert {r.group for r in sharp.reports} == {"A4", "A4xC2"}

    empty = run_suite("", "all")
    assert empty.reports == ()
    assert empty.summary() == {"pass": 0, "fail": 0, "vacuous": 0}


def test_run_suite_breadth_beyond_standard_catalog():
    """The gate also holds on groups outside the standard suite, including
    insoluble ones where the theorem hypotheses fail on solubility."""
    result = run_suite("D12,C9,E5^2,pq2_3_2,hol_C11,A5,S5", "all")
    assert not result.has_failures(), [
        (r.group, r.theorem, r.witnesses) for r in result.failures()]
    insoluble = [r for r in result.reports
                 if r.group in ("A5", "S5") and r.theorem.startswith("Thm")]
    assert insoluble
    assert all(r.hypothesis == FAILS for r in insoluble)


def test_run_suite_unknown_selectors():
    with pytest.raises(UnknownSelector):
        run_suite("NoSuchGroup", "all")
    with pytest.raises(UnknownSelector):
        run_suite("all", "nonsense")


def test_run_suite_deterministic_order():
    a = run_suite("S3,A4,Q8", "lemmas")
    b = run_suite("A4,Q8,S3", "lemmas")
    assert [(r.group, r.theorem, r.hypothesis, r.conclusion, r.witnesses)
            for r in a.reports] == \
           [(r.group, r.theorem, r.hypothesis, r.conclusion, r.witnesses)
            for r in b.reports]


def test_run_suite_parallel_matches_serial():
    serial = run_suite("S3,A4,Q8,C6", "lemmas", jobs=1)
    parallel = run_suite("S3,A4,Q8,C6", "lemmas", jobs=2)
    strip = lambda rs: [(r.group, r.theorem, r.hypothesis, r.conclusion,
                         r.witnesses) for r in rs.reports]
    assert strip(serial) == strip(parallel)


def test_depth_set_coherence(suite_groups):
    """Every n-maximal subgroup (n >= 2) is maximal in some (n-1)-maximal
    subgroup, so census rows chain together."""
    for G in suite_groups.values():
        lat = lattice_of(G)
        for n in range(2, lat.max_chain_length + 1):
            for i in lat.n_maximal_indices(n):
                assert any(lat.is_n_maximal(p, n - 1)
                           for p in lat.covers_up[i]), (G.name, n, i)


def test_theorem_B_s4_full_pipeline(suite_groups):
    # hypothesis decided by the census, conclusion computed and reported
    # even though the hypothesis fails on S4 at depth 3
    r = verify_theorem_B(suite_groups["S4"], 3)
    assert r.hypothesis == FAILS
    assert r.conclusion == FAILS
    assert not r.is_failure()
    assert any("residual(order 4)" in w for w in r.witnesses)


def test_reports_for_group_covers_depths(suite_groups):
    reports = reports_for_group("A4", ("ThmA",))
    assert [r.theorem for r in reports] == \
        ["ThmA(n=1)", "ThmA(n=2)", "ThmA(n=3)"]


def test_report_json_shape(suite_groups):
    r = verify_theorem_A(suite_groups["S3"], 2)
    obj = r.to_json_obj()
    assert set(obj) == {"group", "theorem", "hypothesis", "conclusion",
                        "witnesses", "ms"}
    assert obj["ms"] == 0.0
    assert r.to_json_obj(deterministic=False)["ms"] >= 0.0


def test_contrapositive_separating_examples(suite_groups):
    """Where the conclusion is known false, the hypothesis must fail."""
    for name, check in (("hol_C7", verify_prop_2_11),
                        ("hol_C13", verify_prop_2_11)):
        r = check(suite_groups[name])
        assert r.hypothesis == FAILS and r.conclusion == FAILS
        assert not r.is_failure()
    # A4 is not supersoluble, so Cor4.3's hypothesis cannot hold there
    from modmax.verify import verify_corollary_4_3
    r = verify_corollary_4_3(suite_groups["A4"])
    assert not is_supersoluble(suite_groups["A4"])
    assert r.hypothesis == FAILS


def test_fast_mode_covers_the_sharpness_narratives(suite_groups):
    # S3 lacks the narrative's 3-maximal shape, so --fast skips the conclusion
    r = verify_sharpness_A(suite_groups["S3"], fast=True)
    assert (r.hypothesis, r.conclusion) == (FAILS, NOT_EVALUATED)
    r = verify_sharpness_A(suite_groups["S3"])
    assert r.hypothesis == FAILS and r.conclusion != NOT_EVALUATED


def test_run_suite_orders_depths_numerically(monkeypatch):
    from modmax import verify

    def fake_reports(name, checks, fast=False, depth=None):
        return [verify.VerdictReport(name, theorem, HOLDS, HOLDS, (), 0.0)
                for theorem in ("ThmB(n=2)", "ThmA(n=10)", "Lem2.10",
                                "ThmA(n=2)", "Lem2.1", "ThmA(n=1)")]

    monkeypatch.setattr(verify, "reports_for_group", fake_reports)
    result = run_suite("S3", "all")
    assert [r.theorem for r in result.reports] == [
        "Lem2.1", "Lem2.10", "ThmA(n=1)", "ThmA(n=2)", "ThmA(n=10)", "ThmB(n=2)"]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and runs the
    work in this process, so no worker is ever started."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, work):
        return map(fn, work)


@pytest.mark.parametrize("jobs, cpus, expected", [
    (64, 8, 4),     # one worker per group at most
    (64, 3, 3),     # and one per CPU
    (2, 2, 2),
    (3, None, None),  # unknown CPU count: serial
    (1, 8, None),
])
def test_run_suite_caps_the_worker_pool(monkeypatch, jobs, cpus, expected):
    from modmax import verify

    monkeypatch.setattr(verify, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    _RecordingPool.sizes = []
    result = run_suite("S3,Q8,C6,V4", "lemmas", jobs=jobs)
    assert _RecordingPool.sizes == ([] if expected is None else [expected])
    serial = run_suite("S3,Q8,C6,V4", "lemmas")
    assert result.to_json_obj() == serial.to_json_obj()


def test_run_suite_rejects_fewer_than_one_job():
    for jobs in (0, -3):
        with pytest.raises(UnknownSelector, match="jobs must be >= 1"):
            run_suite("S3", "lemmas", jobs=jobs)


@pytest.mark.parametrize("name", ["S3", "A4", "S4", "D8", "hol_C7"])
def test_nonnormal_sylow_test_matches_the_subgroup_lattice(suite_groups, name):
    """The lemma-2.1 helper, which conjugates by S's members, against the
    lattice of S rebuilt as a group, for every S and every subgroup Q <= S."""
    from modmax.groups import subgroup_as_group
    from oracles import restrict_mask
    from modmax.verify import _is_nonnormal_sylow_of

    G = suite_groups[name]
    lat = lattice_of(G)
    for s, S in enumerate(lat.subgroups):
        sub, elems = subgroup_as_group(G, S)
        sublat = lattice_of(sub)
        for q in lat.below[s]:
            Q = lat.subgroups[q]
            local = sublat.index_of[restrict_mask(elems, Q.mask)]
            primes = set(_prime_factors(Q.order))
            sylow = (len(primes) == 1
                     and (S.order // Q.order) % min(primes) != 0)
            expected = sylow and not sublat.is_normal(local)
            assert _is_nonnormal_sylow_of(G, S, Q.mask) == expected, (name, s, q)


def _prime_factors(n):
    """Prime factors of n with multiplicity, by trial division."""
    out, p = [], 2
    while n > 1:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    return out


@pytest.mark.parametrize("name", ["S4", "SL23", "A4xC2", "E2^4"])
def test_residual_and_lemmas_ask_quotients_inside_the_group(monkeypatch, name):
    """After G's own lattice, Lem2.1 and Lem2.3 build no lattice and rebuild
    no group, and the strongly supersoluble residual builds one lattice (its
    self-check quotient) and no subgroup, or nothing when the residual is
    trivial (E2^4), since G/1 is G."""
    import importlib

    from modmax.classify import is_nilpotent_hall, residual_strongly_supersoluble

    modules = {m: importlib.import_module(f"modmax.{m}")
               for m in ("lattice", "classify", "verify")}
    G = catalog.construct(name)
    lattice_of(G)
    builds = []
    for module, attr in (("lattice", "enumerate_lattice"), ("verify", "quotient"),
                         ("classify", "subgroup_as_group")):
        real = getattr(modules[module], attr)
        monkeypatch.setattr(modules[module], attr, lambda *args, real=real, attr=attr:
                            builds.append((attr, args[0].name)) or real(*args))
    lemma_2_1_suite(G)
    verify_lemma_2_3(G)
    assert builds == []
    r = residual_strongly_supersoluble(G)
    is_nilpotent_hall(G, r)
    rebuilds = 0 if name == "E2^4" else 1
    assert (r.order == 1) == (rebuilds == 0)
    # the build, if any, is the lattice of G over a nontrivial residual
    assert len(builds) == rebuilds, builds
    assert all(attr == "enumerate_lattice" and group.startswith(f"{G.name}/")
               for attr, group in builds), builds


def test_suite_builds_each_lattice_once(monkeypatch):
    """The whole gate on freshly built groups enumerates 66 lattices: the 18
    groups' own and 48 of quotients and subgroups.  None is G/1, which is G."""
    from modmax import lattice

    monkeypatch.setattr(catalog, "_shared", {})
    built = []
    real = lattice.enumerate_lattice
    monkeypatch.setattr(lattice, "enumerate_lattice",
                        lambda G: built.append(G.name) or real(G))
    run_suite("all", "all")
    assert len(built) == 66, built
    assert not [name for name in built if name.endswith("/1")], built
