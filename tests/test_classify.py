"""Chief factors, class predicates, residuals, and their closure laws."""

import math
from collections import Counter
from itertools import product

import pytest

from modmax import catalog
from modmax.classify import (
    BadOrdering,
    all_chief_factors,
    classify,
    dispersive_orderings,
    is_abelian,
    is_critical,
    is_nearly_nilpotent,
    is_nilpotent,
    is_nilpotent_hall,
    is_p_group_schmidt,
    is_phi_dispersive,
    is_schmidt_group,
    is_soluble,
    is_strongly_supersoluble,
    is_supersoluble,
    is_u_critical,
    normal_subgroups,
    residual,
    residual_strongly_supersoluble,
    residual_supersoluble,
)
from modmax.groups import (
    SubgroupSet,
    bits,
    conjugate_mask,
    factorize,
    group_from_permutations,
    is_prime,
    prime_spectrum,
    quotient,
    semidirect_product,
    subgroup_as_group,
    whole_group,
)
from modmax.lattice import lattice_of
from oracles import (
    cached_group,
    chief_series,
    factor_centralizer_by_members,
    factor_is_cyclic_by_cosets,
    gaussian_binomial,
    is_isomorphic,
    product_mask,
)


def test_chief_factors_of_prime_cyclic():
    g = catalog.construct("C7")
    factors = all_chief_factors(g)
    assert len(factors) == 1
    f = factors[0]
    assert (f.factor_order, f.automizer_order, f.is_cyclic, f.is_frattini) == \
        (7, 1, True, False)


def test_chief_factors_of_s3(suite_groups):
    factors = all_chief_factors(suite_groups["S3"])
    data = sorted((f.factor_order, f.automizer_order, f.is_cyclic)
                  for f in factors)
    assert data == [(2, 1, True), (3, 2, True)]


def test_chief_factors_of_a4(suite_groups):
    factors = all_chief_factors(suite_groups["A4"])
    bottom = [f for f in factors if f.below.order == 1]
    assert len(bottom) == 1
    f = bottom[0]
    assert f.factor_order == 4 and not f.is_cyclic and f.automizer_order == 3


def test_frattini_factor_flag():
    # in the quaternion group the centre sits inside the Frattini subgroup
    q8 = cached_group("Q8")
    bottom = [f for f in all_chief_factors(q8) if f.below.order == 1]
    assert all(f.is_frattini for f in bottom)


@pytest.mark.parametrize("name", catalog.suite_names() + ["S4xC2", "A5", "E2^5"])
def test_factor_centralizer_from_generators_matches_all_members(name):
    """Each chief factor's automizer order, read off the normal sublattice,
    is |G| over the literal all-members C_G(H/K).  The lattice's
    ``centralizer`` on every normal pair is checked in ``test_groups``."""
    G = cached_group(name)
    for f in all_chief_factors(G):
        cent = factor_centralizer_by_members(G, f.below.mask, f.above.mask)
        assert f.automizer_order == G.order // cent.bit_count(), f.descriptor()


@pytest.mark.parametrize("name", catalog.suite_names() + ["S4xC2", "A5", "E2^5"])
def test_factor_cyclicity_matches_the_coset_orders(name):
    """A chief factor is cyclic, by its order being prime, exactly when some
    coset hK has order |H/K|."""
    G = cached_group(name)
    for f in all_chief_factors(G):
        assert f.is_cyclic == factor_is_cyclic_by_cosets(
            G, f.below.mask, f.above.mask), f.descriptor()


@pytest.mark.parametrize("name, p, k", [("E3^5", 3, 5), ("E2^6", 2, 6)])
def test_chief_factors_of_an_elementary_abelian_group_are_its_covers(name, p, k):
    """Every subgroup of E_p^k is normal, so its chief factors are the covers
    of its subspace lattice, sum_j [k choose j]_p [j choose 1]_p of them
    (25,652 on E3^5, 23,562 on E2^6), each of order p, cyclic, and
    centralised by the whole abelian group."""
    G = cached_group(name)
    lat = lattice_of(G)
    covers = {(i, j) for j in range(lat.size) for i in lat.covers_down[j]}
    factors = all_chief_factors(G)
    assert len(covers) == sum(gaussian_binomial(k, j, p) * gaussian_binomial(j, 1, p)
                              for j in range(1, k + 1))
    assert {(lat.index(f.below), lat.index(f.above)) for f in factors} == covers
    assert len(factors) == len(covers)
    assert {(f.factor_order, f.automizer_order, f.is_cyclic) for f in factors} == {(p, 1, True)}


def _commutes_literally(G):
    return all(G.table[a][b] == G.table[b][a] for a in range(G.order) for b in range(G.order))


@pytest.mark.parametrize("name", catalog.suite_names() + ["S4xC2", "A5", "E2^3xS3"])
def test_abelian_from_generators_matches_all_pairs(name):
    """On the group, on every subgroup rebuilt with greedy generators and on
    every quotient with generators projected from the group's."""
    G = cached_group(name)
    lat = lattice_of(G)
    groups = [G] + [subgroup_as_group(G, S)[0] for S in lat.subgroups]
    groups += [quotient(G, lat.subgroups[n])[0] for n in lat.normal_indices()]
    for H in groups:
        assert is_abelian(H) == _commutes_literally(H), H


def test_basic_series_predicates(suite_groups):
    a4 = suite_groups["A4"]
    assert is_soluble(a4) and not is_nilpotent(a4)
    assert is_nilpotent(suite_groups["Q8"])
    s3 = suite_groups["S3"]
    assert not is_abelian(s3) and is_soluble(s3)


def test_supersolubility_hierarchy_golden(suite_groups):
    s3 = suite_groups["S3"]
    assert is_nearly_nilpotent(s3) and not is_nilpotent(s3)
    h7 = suite_groups["hol_C7"]
    assert is_strongly_supersoluble(h7) and not is_nearly_nilpotent(h7)
    h13 = suite_groups["hol_C13"]
    assert is_supersoluble(h13) and not is_strongly_supersoluble(h13)
    assert not is_supersoluble(suite_groups["A4"])


def test_implication_chain(suite_groups):
    for G in suite_groups.values():
        nilp = is_nilpotent(G)
        nn = is_nearly_nilpotent(G)
        sss = is_strongly_supersoluble(G)
        ss = is_supersoluble(G)
        sol = is_soluble(G)
        assert not nilp or nn
        assert not nn or sss      # cross-check, not assumed anywhere
        assert not sss or ss
        assert not ss or sol


def test_power_split_detection(suite_groups):
    assert is_p_group_schmidt(suite_groups["S3"])
    assert is_p_group_schmidt(suite_groups["pq2_2_3"])
    assert not is_p_group_schmidt(suite_groups["Q8"])
    assert not is_p_group_schmidt(suite_groups["C6"])
    assert not is_p_group_schmidt(suite_groups["A4"])


def _c121_by_c5():
    """C121 x| C5 with a -> a^3 (3^5 = 243 = 1 mod 121): the kernel has
    elements of order 11 but is cyclic, not elementary abelian."""
    action = [[x * 3 ** h % 121 for x in range(121)] for h in range(5)]
    return semidirect_product(catalog.cyclic(121), catalog.cyclic(5), action)


def _heisenberg3_by_c2():
    """The unitriangular 3x3 matrices over F_3 with diag(1, 2, 1), acting
    on F_3^3: the kernel has exponent 3 but is not abelian, and the
    involution inverts both generating transvections."""
    vectors = list(product(range(3), repeat=3))
    index = {v: i for i, v in enumerate(vectors)}

    def acting(m):
        return tuple(index[tuple(sum(a * b for a, b in zip(row, v)) % 3 for row in m)]
                     for v in vectors)

    e12 = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    e23 = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    d = ((1, 0, 0), (0, 2, 0), (0, 0, 1))
    return group_from_permutations(27, map(acting, (e12, e23, d)))


@pytest.mark.parametrize("build, order", [(_c121_by_c5, 605), (_heisenberg3_by_c2, 54)],
                         ids=["C121:C5", "Heis3:C2"])
def test_power_split_needs_an_elementary_abelian_kernel(build, order):
    """A prime-index normal p-subgroup on which the complement acts as one
    power map, yet not elementary abelian: once with an element of order
    p^2, once with two generators that do not commute."""
    G = build()
    assert G.order == order
    assert not is_p_group_schmidt(G)


def _p_group_schmidt_literal(G, S):
    """Normality of A tested by conjugation with every member of S, and
    A's commutativity on every pair of its members."""
    lat = lattice_of(G)
    orders = G.element_orders()
    t = G.table
    for ai in bits(lat.down[lat.index(S)]):
        A = lat.subgroups[ai]
        q = S.order // A.order
        fac = factorize(A.order)
        if not is_prime(q) or len(fac) != 1:
            continue
        (p, _), = fac.items()
        members = A.members()
        if (q == p or any(orders[x] != p for x in members if x != 0)
                or any(t[a][b] != t[b][a] for a in members for b in members)
                or any(conjugate_mask(G, g, A.mask) != A.mask
                       for g in S.members())):
            continue
        for x in S.members():
            if x in A or orders[x] != q:
                continue
            ks = set()
            for a in members[1:]:
                ca, y, j = G.conj(x, a), a, 1
                while y != ca and j <= p:
                    y, j = t[y][a], j + 1
                ks.add(j)
            if len(ks) == 1 and 1 < min(ks) <= p:
                return True
    return False


@pytest.mark.parametrize("name", [e.name for e in catalog.standard_suite()]
                         + ["S4xC2", "A5", "E2^3xS3", "C3xS3"])
def test_power_split_test_by_generators_agrees_with_all_members(name):
    G = cached_group(name)
    for S in lattice_of(G).subgroups:
        assert is_p_group_schmidt(G, S) == _p_group_schmidt_literal(G, S), S


def test_power_split_scans_normal_subgroups_only(monkeypatch):
    """The normality filter changes no answer (a t acting as a power map
    normalises A), but it spares the power-map test: S3's three subgroups
    of order 2 have prime index 3 and are not normal, so only C3 is tested,
    one involution on its single generator.  Testing each C2 as well would
    conjugate once more per C2."""
    G = catalog.construct("S3")
    calls = []
    real = G.conj
    monkeypatch.setattr(G, "conj", lambda g, x: calls.append(x) or real(g, x))
    assert is_p_group_schmidt(G)
    assert len(calls) == 1


def test_critical_groups(suite_groups):
    assert is_schmidt_group(suite_groups["S3"])
    assert is_u_critical(suite_groups["A4"])
    assert is_u_critical(suite_groups["SL23"])
    assert not is_u_critical(suite_groups["S4"])
    assert not is_schmidt_group(suite_groups["Q8"])
    assert is_critical(suite_groups["S3"], is_abelian)
    assert is_critical(suite_groups["Q8"], is_abelian)
    assert not is_critical(suite_groups["S4"], is_abelian)


def test_dispersive_orderings(suite_groups):
    s3 = suite_groups["S3"]
    assert dispersive_orderings(s3) == ((3, 2),)
    assert classify(s3).ore_dispersive
    a4 = suite_groups["A4"]
    assert dispersive_orderings(a4) == ((2, 3),)
    assert not classify(a4).ore_dispersive
    triv = suite_groups["1"]
    assert dispersive_orderings(triv) == ((),)
    assert classify(triv).ore_dispersive
    for G in (suite_groups["Q8"], suite_groups["C12"], suite_groups["D8"]):
        spectrum = prime_spectrum(G)
        assert len(dispersive_orderings(G)) == math.factorial(len(spectrum))


def test_bad_ordering_rejected(suite_groups):
    with pytest.raises(BadOrdering):
        is_phi_dispersive(suite_groups["S3"], (5, 2))
    # operator.index rejects floats instead of truncating them to (2, 3)
    for ordering in ((2.5, 3.1), (2.0, 3), ("2", "3")):
        with pytest.raises(TypeError):
            is_phi_dispersive(suite_groups["S3"], ordering)


def test_residuals(suite_groups):
    assert residual_strongly_supersoluble(suite_groups["S3"]).order == 1
    assert residual_strongly_supersoluble(suite_groups["A4"]).order == 4
    assert residual_strongly_supersoluble(suite_groups["A4xC2"]).order == 4
    assert residual_supersoluble(suite_groups["SL23"]).order == 8
    h13 = suite_groups["hol_C13"]
    assert residual_supersoluble(h13).order == 1
    assert residual_strongly_supersoluble(h13).order == 13


def test_residual_is_memoised_per_test_not_per_label():
    """Two tests under one label get their own residuals."""
    G = catalog.construct("hol_C13")
    cyclic = lambda f: f.is_cyclic
    central = lambda f: f.automizer_order == 1
    assert residual(G, cyclic, "same").order == 1
    assert residual(G, central, "same").order == 13
    assert residual(G, cyclic, "same").order == 1


def test_nilpotent_hall(suite_groups):
    a4 = suite_groups["A4"]
    assert is_nilpotent_hall(a4, SubgroupSet(a4, 1))
    v4 = next(s for s in lattice_of(a4).subgroups if s.order == 4)
    assert is_nilpotent_hall(a4, v4)
    g24 = suite_groups["A4xC2"]
    v4 = residual_strongly_supersoluble(g24)
    assert v4.order == 4 and not is_nilpotent_hall(g24, v4)


@pytest.mark.parametrize("name", catalog.suite_names())
def test_chief_series_climbs_from_one_to_the_whole_group(name):
    """Each factor starts where the last one ended, the last ends at G, and
    the factor orders multiply to |G|: two empty series would pass the
    Jordan-Hoelder comparison below."""
    G = cached_group(name)
    for last in (False, True):
        series = chief_series(G, last)
        masks = [1] + [f.above.mask for f in series]
        assert [f.below.mask for f in series] == masks[:-1]
        assert masks[-1] == whole_group(G).mask
        assert math.prod(f.factor_order for f in series) == G.order


def test_chief_series_takes_the_first_or_the_last_normal_cover(suite_groups):
    """The oracle takes the least or, with ``last``, the greatest normal
    cover in canonical order.  V4's three subgroups of order 2 all cover 1
    and are normal, so the two series part at the first step."""
    G = suite_groups["V4"]
    lat = lattice_of(G)
    covers = lat.covers_up[0]
    assert len(covers) == 3 and all(lat.normal >> i & 1 for i in covers)
    assert lat.index(chief_series(G)[0].above) == min(covers)
    assert lat.index(chief_series(G, last=True)[0].above) == max(covers)


def test_jordan_holder_consistency(suite_groups):
    for name in ("S3", "A4", "S4", "SL23", "hol_C7", "C3:C4", "pq2_2_3"):
        G = suite_groups[name]
        first = chief_series(G)
        last = chief_series(G, last=True)
        key = lambda f: (f.factor_order, f.automizer_order, f.is_cyclic)
        assert Counter(map(key, first)) == Counter(map(key, last))
        # every series factor appears among the all-pairs factors
        all_keys = {key(f) for f in all_chief_factors(G)}
        assert {key(f) for f in first} <= all_keys


def test_strongly_supersoluble_closure_laws(suite_groups):
    """Hereditary saturated formation behaviour, checked concretely."""
    for G in suite_groups.values():
        if is_strongly_supersoluble(G):
            lat = lattice_of(G)
            for S in lat.subgroups:
                sub, _ = subgroup_as_group(G, S)
                assert is_strongly_supersoluble(sub)
            for N in normal_subgroups(G):
                Q, _ = quotient(G, N)
                assert is_strongly_supersoluble(Q)
        lat = lattice_of(G)
        phi = lat.subgroups[lat.frattini()]
        q_phi, _ = quotient(G, phi)
        if is_strongly_supersoluble(q_phi):
            assert is_strongly_supersoluble(G)


def test_nearly_nilpotent_closure_laws(suite_groups):
    for G in suite_groups.values():
        if is_nearly_nilpotent(G):
            assert is_strongly_supersoluble(G)
            for N in normal_subgroups(G):
                Q, _ = quotient(G, N)
                assert is_nearly_nilpotent(Q)
        lat = lattice_of(G)
        phi = lat.subgroups[lat.frattini()]
        q_phi, _ = quotient(G, phi)
        if is_nearly_nilpotent(q_phi):
            assert is_nearly_nilpotent(G)


def test_dispersive_formation_laws(suite_groups):
    """Intersection and Frattini closure for a fixed prime ordering."""
    import itertools
    for name in ("S3", "A4", "SL23", "C3:C4", "hol_C7", "pq2_2_3"):
        G = suite_groups[name]
        norms = normal_subgroups(G)
        for phi in itertools.permutations(prime_spectrum(G)):
            good = []
            for N in norms:
                Q, _ = quotient(G, N)
                spec_q = prime_spectrum(Q)
                phi_q = tuple(p for p in phi if p in spec_q)
                if is_phi_dispersive(Q, phi_q):
                    good.append(N)
            for n1, n2 in itertools.combinations(good, 2):
                meet_mask = n1.mask & n2.mask
                N12 = SubgroupSet(G, meet_mask)
                Q, _ = quotient(G, N12)
                phi_q = tuple(p for p in phi if p in prime_spectrum(Q))
                assert is_phi_dispersive(Q, phi_q), \
                    f"intersection closure fails for {name} at {phi}"
        lat = lattice_of(G)
        phi_g = lat.subgroups[lat.frattini()]
        q_phi, _ = quotient(G, phi_g)
        for phi in itertools.permutations(prime_spectrum(G)):
            phi_q = tuple(p for p in phi if p in prime_spectrum(q_phi))
            if is_phi_dispersive(q_phi, phi_q):
                assert is_phi_dispersive(G, phi)


def test_u_critical_structure(suite_groups):
    """Structure facts for minimal non-supersoluble groups."""
    for G in suite_groups.values():
        if not is_u_critical(G):
            continue
        assert is_soluble(G)
        assert len(prime_spectrum(G)) <= 3
        r = residual_supersoluble(G)
        # the residual is a normal Sylow subgroup
        lat = lattice_of(G)
        assert lat.is_normal(lat.index(r))
        p_parts = {p ** e for p, e in factorize(G.order).items()}
        assert r.order in p_parts


def test_primitive_quotient_semidirect_shape(suite_groups):
    """For an abelian non-Frattini chief factor with a complementing maximal
    subgroup, the quotient by the core splits as factor by automizer."""
    for name in ("S3", "A4", "C3:C4", "pq2_2_3", "hol_C7"):
        G = suite_groups[name]
        lat = lattice_of(G)
        maximals = [lat.subgroups[i] for i in lat.covers_down[lat.top()]]
        for f in all_chief_factors(G):
            if f.is_frattini or not _factor_abelian(G, f):
                continue
            for M in maximals:
                if f.below.mask & M.mask != f.below.mask:
                    continue
                if product_mask(G, M.mask, f.above.mask) != (1 << G.order) - 1:
                    continue
                mg = lat.subgroups[lat.core(lat.index(M))]
                q_core, _ = quotient(G, mg)
                built = _semidirect_factor_by_automizer(G, f)
                assert built.order == q_core.order
                assert is_isomorphic(q_core, built)


def _factor_abelian(G, f):
    members = f.above.members()
    return all(G.commutator(a, b) in f.below
               for a in members for b in members)


def _semidirect_factor_by_automizer(G, f):
    sub, elems = subgroup_as_group(G, f.above)
    k_local = SubgroupSet(sub, sum(1 << i for i, x in enumerate(elems)
                                   if x in f.below))
    factor, fproj = quotient(sub, k_local)
    cent = SubgroupSet(G, factor_centralizer_by_members(G, f.below.mask, f.above.mask))
    autz, aproj = quotient(G, cent)
    elem_index = {x: i for i, x in enumerate(elems)}
    reps = [next(g for g in range(G.order) if aproj[g] == a)
            for a in range(autz.order)]
    action = []
    for a in range(autz.order):
        g = reps[a]
        perm = [0] * factor.order
        for i, x in enumerate(elems):
            perm[fproj[elem_index[x]]] = fproj[elem_index[G.conj(g, x)]]
        action.append(tuple(perm))
    return semidirect_product(factor, autz, action)


def test_profile_serialisation(suite_groups):
    p = classify(suite_groups["S3"])
    obj = p.to_json_obj()
    assert obj["nearly_nilpotent"] is True
    assert obj["dispersive_orderings"] == [[3, 2]]
    assert list(obj) == [
        "abelian", "nilpotent", "soluble", "supersoluble",
        "strongly_supersoluble", "nearly_nilpotent", "p_group_schmidt",
        "schmidt_group", "u_critical", "ore_dispersive",
        "dispersive_orderings",
    ]
