"""Chief factors, class predicates, residuals, and their closure laws."""

import math
from collections import Counter

import pytest

from modmax import catalog
from modmax.classify import (
    BadOrdering,
    all_chief_factors,
    chief_series,
    classify,
    dispersive_orderings,
    hypercyclic_center,
    is_abelian,
    is_hypercyclically_embedded,
    is_minimal_non_abelian,
    is_nearly_nilpotent,
    is_nilpotent,
    is_nilpotent_hall,
    is_ore_dispersive,
    is_p_group_schmidt,
    is_phi_dispersive,
    is_schmidt_group,
    is_soluble,
    is_strongly_supersoluble,
    is_supersoluble,
    is_u_critical,
    normal_subgroups,
    residual_strongly_supersoluble,
    residual_supersoluble,
)
from modmax.groups import (
    NotNormal,
    SubgroupSet,
    bits,
    conjugate_mask,
    core,
    factorize,
    is_isomorphic,
    is_prime,
    prime_spectrum,
    quotient,
    semidirect_product,
    subgroup_as_group,
    trivial_subgroup,
)
from modmax.lattice import lattice_of
from oracles import product_mask


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
    q8 = catalog.shared_group("Q8")
    bottom = [f for f in all_chief_factors(q8) if f.below.order == 1]
    assert all(f.is_frattini for f in bottom)


def _factor_centralizer_by_members(G, kmask, hmask):
    """Oracle: {g : [g, h] in K for every member h of H}."""
    return sum(1 << g for g in range(G.order)
               if all((kmask >> G.commutator(g, h)) & 1 for h in bits(hmask)))


@pytest.mark.parametrize("name", catalog.suite_names() + ["S4xC2", "A5", "E2^5"])
def test_factor_centralizer_from_generators_matches_all_members(name):
    """C_G(H/K) read off generators of H is the literal all-members set, on
    every chief factor."""
    from modmax.classify import _factor_centralizer_mask
    G = catalog.shared_group(name)
    for f in all_chief_factors(G):
        km, hm = f.below.mask, f.above.mask
        assert _factor_centralizer_mask(G, km, hm) == _factor_centralizer_by_members(G, km, hm)


def _commutes_literally(G):
    return all(G.table[a][b] == G.table[b][a] for a in range(G.order) for b in range(G.order))


@pytest.mark.parametrize("name", catalog.suite_names() + ["S4xC2", "A5", "E2^3xS3"])
def test_abelian_from_generators_matches_all_pairs(name):
    """On the group, on every subgroup rebuilt with greedy generators and on
    every quotient with generators projected from the group's."""
    G = catalog.shared_group(name)
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
                         + ["S4xC2", "A5", "E2^3xS3"])
def test_power_split_test_by_generators_agrees_with_all_members(name):
    G = catalog.shared_group(name)
    for S in lattice_of(G).subgroups:
        assert is_p_group_schmidt(G, S) == _p_group_schmidt_literal(G, S), S


def test_critical_groups(suite_groups):
    assert is_schmidt_group(suite_groups["S3"])
    assert is_u_critical(suite_groups["A4"])
    assert is_u_critical(suite_groups["SL23"])
    assert not is_u_critical(suite_groups["S4"])
    assert not is_schmidt_group(suite_groups["Q8"])
    assert is_minimal_non_abelian(suite_groups["S3"])
    assert is_minimal_non_abelian(suite_groups["Q8"])
    assert not is_minimal_non_abelian(suite_groups["S4"])


def test_dispersive_orderings(suite_groups):
    s3 = suite_groups["S3"]
    assert dispersive_orderings(s3) == ((3, 2),)
    assert is_ore_dispersive(s3)
    a4 = suite_groups["A4"]
    assert dispersive_orderings(a4) == ((2, 3),)
    assert not is_ore_dispersive(a4)
    triv = suite_groups["1"]
    assert dispersive_orderings(triv) == ((),)
    assert is_ore_dispersive(triv)
    for G in (suite_groups["Q8"], suite_groups["C12"], suite_groups["D8"]):
        spectrum = prime_spectrum(G)
        assert len(dispersive_orderings(G)) == math.factorial(len(spectrum))


def test_bad_ordering_rejected(suite_groups):
    with pytest.raises(BadOrdering):
        is_phi_dispersive(suite_groups["S3"], (5, 2))


def test_hypercyclic_center(suite_groups):
    assert hypercyclic_center(suite_groups["A4"]).order == 1
    assert hypercyclic_center(suite_groups["S3"]).order == 6
    assert hypercyclic_center(suite_groups["E9"]).order == 9
    sl = suite_groups["SL23"]
    z = hypercyclic_center(sl)
    assert z.order == 2  # just the centre: the quaternion factor is non-cyclic


def test_hypercyclically_embedded_requires_normal(suite_groups):
    s3 = suite_groups["S3"]
    lat = lattice_of(s3)
    c2 = next(s for s in lat.subgroups if s.order == 2)
    with pytest.raises(NotNormal):
        is_hypercyclically_embedded(s3, c2)


def test_hypercyclically_embedded_iff_inside_center(suite_groups):
    # the join characterisation: normal A is embedded iff A lies in the join
    for name in ("S3", "A4", "SL23", "C3:C4", "pq2_2_3"):
        G = suite_groups[name]
        z = hypercyclic_center(G)
        for N in normal_subgroups(G):
            embedded = is_hypercyclically_embedded(G, N)
            assert embedded == (N.mask & z.mask == N.mask)


def test_residuals(suite_groups):
    assert residual_strongly_supersoluble(suite_groups["S3"]).order == 1
    assert residual_strongly_supersoluble(suite_groups["A4"]).order == 4
    assert residual_strongly_supersoluble(suite_groups["A4xC2"]).order == 4
    assert residual_supersoluble(suite_groups["SL23"]).order == 8
    h13 = suite_groups["hol_C13"]
    assert residual_supersoluble(h13).order == 1
    assert residual_strongly_supersoluble(h13).order == 13


def test_nilpotent_hall(suite_groups):
    a4 = suite_groups["A4"]
    assert is_nilpotent_hall(a4, trivial_subgroup(a4))
    v4 = next(s for s in lattice_of(a4).subgroups if s.order == 4)
    assert is_nilpotent_hall(a4, v4)
    g24 = suite_groups["A4xC2"]
    v4 = residual_strongly_supersoluble(g24)
    assert v4.order == 4 and not is_nilpotent_hall(g24, v4)


def test_jordan_holder_consistency(suite_groups):
    for name in ("S3", "A4", "S4", "SL23", "hol_C7", "C3:C4", "pq2_2_3"):
        G = suite_groups[name]
        first = chief_series(G, prefer="first")
        last = chief_series(G, prefer="last")
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
        phi = lattice_of(G).frattini()
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
        phi = lattice_of(G).frattini()
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
        phi_g = lattice_of(G).frattini()
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
                mg = core(G, M)
                q_core, _ = quotient(G, mg)
                built = _semidirect_factor_by_automizer(G, f)
                assert built.order == q_core.order
                assert is_isomorphic(q_core, built)


def _factor_abelian(G, f):
    members = f.above.members()
    return all(G.commutator(a, b) in f.below
               for a in members for b in members)


def _semidirect_factor_by_automizer(G, f):
    from modmax.classify import _factor_centralizer_mask

    sub, elems = subgroup_as_group(G, f.above)
    k_local = SubgroupSet(sub, sum(1 << i for i, x in enumerate(elems)
                                   if x in f.below))
    factor, fproj = quotient(sub, k_local)
    cmask = _factor_centralizer_mask(G, f.below.mask, f.above.mask)
    cent = SubgroupSet(G, cmask)
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
