"""Theorem harness verdicts, census values, and the suite runner."""

import concurrent.futures
import gc
import importlib
import itertools
import multiprocessing
import os
import weakref

import pytest

from modmax import catalog, verify
from modmax.classify import is_supersoluble
from modmax.groups import bits, core, direct_product, find_isomorphism, semidirect_product
from modmax.lattice import lattice_of
from oracles import cached_group, close_mask
from modmax.verify import (
    FAILS,
    HOLDS,
    NOT_EVALUATED,
    VACUOUS,
    UnknownSelector,
    _NMAX_RUNNERS,
    _SINGLE_RUNNERS,
    census,
    reports_for_group,
    run_suite,
    verify_sharpness_A,
    verify_sharpness_B,
    verify_theorem_A,
    verify_theorem_B,
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
    r = _NMAX_RUNNERS["Thm3.4"](suite_groups["A4xC2"], 4)
    assert r.hypothesis == FAILS
    assert r.conclusion == FAILS  # residual V4 is not Hall: sharpness


def test_theorem_A_implies_2_12(suite_groups):
    """Logical containment, checked mechanically across the suite."""
    for G in suite_groups.values():
        lat = lattice_of(G)
        for n in range(1, max(1, lat.max_chain_length) + 1):
            a = verify_theorem_A(G, n)
            b = _NMAX_RUNNERS["Thm2.12"](G, n)
            if a.hypothesis in (HOLDS, VACUOUS):
                assert not a.is_failure()
                assert b.conclusion == a.conclusion
            if b.hypothesis == HOLDS:
                assert not b.is_failure()


def test_prop_2_9(suite_groups):
    r = _SINGLE_RUNNERS["Prop2.9"](suite_groups["S3"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    r = _SINGLE_RUNNERS["Prop2.9"](suite_groups["A4"])
    assert r.hypothesis == VACUOUS and r.conclusion == HOLDS


def test_prop_2_11(suite_groups):
    r = _SINGLE_RUNNERS["Prop2.11"](suite_groups["S3"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    r = _SINGLE_RUNNERS["Prop2.11"](suite_groups["Q8"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    # contrapositive on the order-42 separating example
    r = _SINGLE_RUNNERS["Prop2.11"](suite_groups["hol_C7"])
    assert r.hypothesis == FAILS
    # and on the order-156 one
    r = _SINGLE_RUNNERS["Prop2.11"](suite_groups["hol_C13"])
    assert r.hypothesis == FAILS


def test_prop_3_2(suite_groups):
    r = _SINGLE_RUNNERS["Prop3.2"](suite_groups["A4"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    assert any("p*q^2" in w for w in r.witnesses)
    r = _SINGLE_RUNNERS["Prop3.2"](suite_groups["SL23"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    assert any("quaternion" in w for w in r.witnesses)
    r = _SINGLE_RUNNERS["Prop3.2"](suite_groups["S3"])
    assert (r.hypothesis, r.conclusion) == (FAILS, NOT_EVALUATED)


def test_lemma_2_1_per_subgroup(suite_groups):
    """S3's core-free modular C2 passes the per-subgroup decomposition test,
    and only through r = 1: S3 itself is the power-split factor, K = 1."""
    s3 = suite_groups["S3"]
    lat = lattice_of(s3)
    ci = next(i for i, s in enumerate(lat.subgroups) if s.order == 2)
    c2 = lat.subgroups[ci]
    assert lat.modular >> ci & 1 and core(s3, c2).order == 1
    decompositions = verify._direct_decompositions(s3, lat)
    assert verify._core_free_decomposition(s3, lat, c2, decompositions)
    passing = [(tuple(S.order for S in combo), K.order)
               for combo, K in decompositions
               if verify._core_free_decomposition(s3, lat, c2, [(combo, K)])]
    assert passing == [((6,), 1)]


def _decomposition_groups():
    for name in catalog.suite_names() + ["S4xC2", "E2^3xS3", "pq2_3_2"]:
        yield cached_group(name)
    yield direct_product(catalog.construct("S3"), catalog.construct("C5"))
    yield direct_product(catalog.construct("pgroup_7^1:3:2"), catalog.construct("D10"))


def test_direct_decompositions_are_internal_direct_products():
    """Every (S1..Sr, K) found is G as an internal direct product by the
    literal definition: the parts generate G, meet pairwise in {1}, and
    members of different parts commute."""
    shapes = set()
    for G in _decomposition_groups():
        full = (1 << G.order) - 1
        for combo, K in verify._direct_decompositions(G, lattice_of(G)):
            parts = [S.mask for S in combo] + [K.mask]
            union = 0
            for m in parts:
                union |= m
            assert close_mask(G.table, bits(union), G.order) == full, G.name
            for a, b in itertools.combinations(parts, 2):
                assert a & b == 1, G.name
                assert all(G.table[x][y] == G.table[y][x]
                           for x in bits(a) for y in bits(b)), G.name
            shapes.add((len(combo), K.order == 1))
    # r = 0, r = 1 beside a nontrivial K, and r = 2 with K = 1 all occur
    assert {(0, False), (1, False), (1, True), (2, True)} <= shapes


def test_lemma_2_1_finds_power_split_candidates_once_per_group(monkeypatch):
    """pq2_2_3 has 10 core-free modular subgroups and 7 normal ones; the
    power-split test runs once per nontrivial normal subgroup, not once
    per core-free modular subgroup as well (60 calls)."""
    G = catalog.construct("pq2_2_3")
    lat = lattice_of(G)
    core_free = [i for i in bits(lat.modular)
                 if core(G, lat.subgroups[i]).order == 1]
    assert len(core_free) == 10 and len(lat.normal_indices()) == 7
    calls = []
    real = verify.is_p_group_schmidt
    monkeypatch.setattr(verify, "is_p_group_schmidt",
                        lambda G, S: calls.append(S) or real(G, S))
    assert _SINGLE_RUNNERS["Lem2.1"](G).conclusion == HOLDS
    assert len(calls) == 6


def test_lemma_suites_hold_everywhere(suite_groups):
    for G in suite_groups.values():
        assert _SINGLE_RUNNERS["Lem2.1"](G).conclusion == HOLDS, G.name
        assert _SINGLE_RUNNERS["Lem2.2"](G).conclusion == HOLDS, G.name
        assert _SINGLE_RUNNERS["Lem2.3"](G).conclusion == HOLDS, G.name
        r = _SINGLE_RUNNERS["Lem2.10"](G)
        assert not r.is_failure(), (G.name, r.witnesses)


def test_lemma_2_10_examples(suite_groups):
    r = _SINGLE_RUNNERS["Lem2.10"](suite_groups["hol_C13"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    r = _SINGLE_RUNNERS["Lem2.10"](suite_groups["A4"])
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    r = _SINGLE_RUNNERS["Lem2.10"](suite_groups["S3"])
    assert r.hypothesis == VACUOUS  # nearly nilpotent, out of scope


_COROLLARIES = (_SINGLE_RUNNERS["Cor4.1"], _SINGLE_RUNNERS["Cor4.2"],
                _SINGLE_RUNNERS["Cor4.3"], _SINGLE_RUNNERS["Cor4.4"])


def test_corollaries(suite_groups):
    for name in ("S3", "Q8", "A4", "SL23"):
        for check in _COROLLARIES:
            r = check(suite_groups[name])
            assert not r.is_failure(), (name, r.theorem, r.witnesses)
    # the quaternion-shape branch of Cor4.4 on the order-24 witness
    r = _SINGLE_RUNNERS["Cor4.4"](suite_groups["SL23"])
    assert r.theorem == "Cor4.4"
    assert (r.hypothesis, r.conclusion) == (HOLDS, HOLDS)
    # trivial group: everything vacuous or satisfied
    for check in _COROLLARIES:
        assert not check(suite_groups["1"]).is_failure()


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
    assert r.ms >= 0.0  # the wall time, shown in text mode only


def test_contrapositive_separating_examples(suite_groups):
    """Where the conclusion is known false, the hypothesis must fail."""
    for name, check in (("hol_C7", _SINGLE_RUNNERS["Prop2.11"]),
                        ("hol_C13", _SINGLE_RUNNERS["Prop2.11"])):
        r = check(suite_groups[name])
        assert r.hypothesis == FAILS and r.conclusion == FAILS
        assert not r.is_failure()
    # A4 is not supersoluble, so Cor4.3's hypothesis cannot hold there
    r = _SINGLE_RUNNERS["Cor4.3"](suite_groups["A4"])
    assert not is_supersoluble(suite_groups["A4"])
    assert r.hypothesis == FAILS


def test_fast_mode_covers_the_sharpness_narratives(suite_groups):
    # S3 lacks the narrative's 3-maximal shape, so --fast skips the conclusion
    r = verify_sharpness_A(suite_groups["S3"], fast=True)
    assert (r.hypothesis, r.conclusion) == (FAILS, NOT_EVALUATED)
    r = verify_sharpness_A(suite_groups["S3"])
    assert r.hypothesis == FAILS and r.conclusion != NOT_EVALUATED


def test_run_suite_orders_depths_numerically(monkeypatch):
    def fake_reports(name, checks, fast=False, depth=None):
        return [verify.VerdictReport(name, theorem, HOLDS, HOLDS, (), 0.0)
                for theorem in ("ThmB(n=2)", "ThmA(n=10)", "Lem2.10",
                                "ThmA(n=2)", "Lem2.1", "ThmA(n=1)")]

    monkeypatch.setattr(verify, "reports_for_group", fake_reports)
    result = run_suite("S3", "all")
    assert [r.theorem for r in result.reports] == [
        "Lem2.1", "Lem2.10", "ThmA(n=1)", "ThmA(n=2)", "ThmA(n=10)", "ThmB(n=2)"]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size, and each
    task it is given ends at once having taken no group, so the caller runs
    every group itself and no process starts."""
    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)

    def submit(self, fn):
        done = concurrent.futures.Future()
        done.set_result([])
        return done

    def shutdown(self, cancel_futures=False):
        pass


@pytest.mark.parametrize("jobs, cpus, processes", [
    (64, 8, 4),     # one process per group at most, the caller included
    (64, 3, 3),     # and one per CPU
    (2, 2, 2),
    (3, None, None),  # unknown CPU count: serial
    (1, 8, None),
])
def test_run_suite_caps_the_worker_pool(monkeypatch, jobs, cpus, processes):
    ran = []
    real = verify.reports_for_group

    def logged(name, *args):
        ran.append(name)
        return real(name, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    _RecordingPool.sizes = []
    serial = run_suite("S3,Q8,C6,V4", "lemmas")
    monkeypatch.setattr(verify, "reports_for_group", logged)
    result = run_suite("S3,Q8,C6,V4", "lemmas", jobs=jobs)
    # the caller is one of the processes, so the pool holds one fewer
    assert _RecordingPool.sizes == ([] if processes is None else [processes - 1])
    # pooled runs take the largest order first; S3 and C6 (both of order 6)
    # keep their given order
    assert ran == (["S3", "Q8", "C6", "V4"] if processes is None
                   else ["Q8", "S3", "C6", "V4"])
    assert result.to_json_obj() == serial.to_json_obj()


def _recording_construct(monkeypatch):
    """Patch ``catalog.construct`` to log each group it builds; returns the
    log, a list of (name, weak reference) pairs."""
    refs = []
    real = catalog.construct

    def recording(*args, **kwargs):
        G = real(*args, **kwargs)
        refs.append((G.name, weakref.ref(G)))
        return G

    monkeypatch.setattr(catalog, "construct", recording)
    return refs


def test_pooled_run_builds_no_group_before_the_pool_starts(monkeypatch):
    """Names are checked and the queue ordered from the names alone, so a
    process builds a group only once it has taken it from the queue."""
    refs = _recording_construct(monkeypatch)
    built_before_pool = []

    class Pool(_RecordingPool):
        def __init__(self, *args, **kwargs):
            built_before_pool.append(len(refs))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 8)
    run_suite("S3,Q8,C6,V4", "lemmas", jobs=2)
    assert built_before_pool == [0]
    assert [name for name, _ in refs] == ["Q8", "S3", "C6", "V4"]


def test_reports_for_group_frees_its_group_by_reference_counting(monkeypatch):
    """The group's memo is emptied once its reports are made, which breaks
    the cycle through its lattice: the group is gone when the reports are
    returned, with the collector off."""
    refs = _recording_construct(monkeypatch)
    enabled = gc.isenabled()
    gc.disable()
    try:
        reports = reports_for_group("S4", ("ThmA", "Prop2.9", "Lem2.2"))
        alive = [name for name, ref in refs if ref() is not None]
    finally:
        if enabled:
            gc.enable()
    assert [name for name, _ in refs] == ["S4"] and reports
    assert not alive, alive


def test_run_suite_keeps_no_group_it_built(monkeypatch):
    """Every group the gate builds is garbage once ``run_suite`` returns,
    with its lattice and the answers memoised on it."""
    refs = _recording_construct(monkeypatch)
    run_suite("all", "all")
    assert len(refs) == 18
    gc.collect()
    alive = [name for name, ref in refs if ref() is not None]
    assert not alive, alive


def _fork_only():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see a patched function only when forked")


def test_run_suite_pool_runs_each_group_once(monkeypatch, tmp_path):
    """With a real pool, every group runs exactly once across the caller and
    the workers, and the result is the serial one."""
    _fork_only()
    names = "S3,A4,Q8,C6,V4,D8"
    serial = run_suite(names, "lemmas")
    log = tmp_path / "ran"
    real = verify.reports_for_group

    def logged(name, *args):
        with open(log, "a") as f:
            f.write(f"{name} {os.getpid()}\n")
        return real(name, *args)

    monkeypatch.setattr(verify, "reports_for_group", logged)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    pooled = run_suite(names, "lemmas", jobs=3)
    ran = [line.split() for line in log.read_text().splitlines()]
    assert sorted(name for name, _ in ran) == sorted(names.split(","))
    assert len({pid for _, pid in ran}) <= 3
    assert pooled.to_json_obj() == serial.to_json_obj()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("bad", ["A4", "V4"])   # first and last in the queue
def test_run_suite_pool_passes_on_a_group_error(monkeypatch, bad):
    """A group that raises, in whichever process takes it, reaches the
    caller as the same exception type, and no worker outlives it."""
    _fork_only()
    real = verify.reports_for_group

    def planted(name, *args):
        if name == bad:
            raise ArithmeticError(f"planted in {name}")
        return real(name, *args)

    monkeypatch.setattr(verify, "reports_for_group", planted)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    with pytest.raises(ArithmeticError, match=f"planted in {bad}"):
        run_suite("S3,A4,Q8,V4", "lemmas", jobs=2)
    assert multiprocessing.active_children() == []


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
    _SINGLE_RUNNERS["Lem2.1"](G)
    _SINGLE_RUNNERS["Lem2.3"](G)
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
    """The whole gate on freshly built groups enumerates 55 lattices: the 18
    groups' own and 37 of quotients and subgroups (Prop2.9 rebuilds one
    quotient per orbit of normal subgroups).  None is G/1, which is G."""
    from modmax import lattice

    built = []
    real = lattice.enumerate_lattice
    monkeypatch.setattr(lattice, "enumerate_lattice",
                        lambda G: built.append(G.name) or real(G))
    run_suite("all", "all")
    assert len(built) == 55, built
    assert not [name for name in built if name.endswith("/1")], built


def test_derived_groups_are_not_kept_on_their_parent(monkeypatch):
    """Every quotient and subgroup rebuilt as a group during the gate and
    ``classify`` is freed once they return, with the cycle collector off,
    although the two parents given to ``classify`` are still alive: only
    answers are memoised on G, and each derived group's memo is emptied
    once its answer is read.  G/1 is G itself, left out."""
    # modmax.classify the module: the package binds the name to the function
    classify, groups = map(importlib.import_module, ("modmax.classify", "modmax.groups"))

    refs = []
    for attr in ("quotient", "subgroup_as_group"):
        real = getattr(groups, attr)

        def recording(G, S, real=real, attr=attr):
            H, index = real(G, S)
            if H is not G:
                refs.append((attr, weakref.ref(H)))
            return H, index

        for module in (groups, classify, verify):
            if getattr(module, attr, None) is real:
                monkeypatch.setattr(module, attr, recording)
    collecting = gc.isenabled()
    gc.disable()
    try:
        run_suite("all", "all")
        parents = [catalog.construct(name) for name in ("S4", "SL23")]
        for G in parents:
            classify.classify(G)
        alive = [ref().name for _, ref in refs if ref() is not None]
    finally:
        if collecting:
            gc.enable()
    assert {attr for attr, _ in refs} == {"quotient", "subgroup_as_group"}
    assert not alive, alive


def _groups_of_order_24():
    """One group of each of the 15 isomorphism types of order 24 (OEIS
    A000001): twelve catalog names, and C3 x| H for H = C8, Q8 and D8, H
    acting by inversion with kernel C4, C4 and V4."""
    names = ["C24", "C2xC12", "V4xC6", "S4", "SL23", "A4xC2", "D24", "C4xS3",
             "V4xS3", "C3:C4xC2", "C3xD8", "C3xQ8"]
    groups = {name: catalog.construct(name) for name in names}
    c3 = catalog.cyclic(3)
    for name, cyclic_kernel in (("C8", True), ("Q8", True), ("D8", False)):
        H = catalog.construct(name)
        orders = H.element_orders()
        kernel = next(K for K in lattice_of(H).subgroups if 2 * K.order == H.order
                      and (max(orders[x] for x in K) == K.order) == cyclic_kernel)
        action = [tuple(range(3)) if h in kernel else c3.inverse for h in range(H.order)]
        groups[f"C3:{name}"] = semidirect_product(c3, H, action)
    return groups


def test_quaternion_shape_names_sl23_alone_among_the_groups_of_order_24():
    """The 15 groups are pairwise non-isomorphic, so every type of order 24
    is here; the structural quaternion-complement check holds on exactly
    the one isomorphic to SL(2, 3)."""
    groups = _groups_of_order_24()
    assert {G.order for G in groups.values()} == {24} and len(groups) == 15
    for (a, A), (b, B) in itertools.combinations(groups.items(), 2):
        assert find_isomorphism(A, B) is None, (a, b)
    sl23 = catalog.construct("SL23")
    shaped = [name for name, G in groups.items() if verify._quaternion_complement_structure(G)]
    assert shaped == [name for name, G in groups.items()
                      if find_isomorphism(G, sl23) is not None] == ["SL23"]
