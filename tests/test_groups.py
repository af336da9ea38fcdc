"""Group construction and core operations."""

import pytest
from hypothesis import given, settings, strategies as st

from modmax import catalog
from modmax.groups import (
    ClosureExceedsCap,
    InvalidPermutation,
    LoadError,
    NotAGroup,
    NotAnAction,
    NotNormal,
    NotPrime,
    automorphisms,
    bits,
    center,
    centralizer,
    conjugate_mask,
    core,
    cycles_to_perm,
    derived_subgroup,
    direct_product,
    find_isomorphism,
    group_from_cayley_table,
    group_from_json,
    group_from_permutations,
    hall_subgroup,
    is_isomorphic,
    is_normal_subgroup,
    normal_closure,
    normalizer,
    prime_spectrum,
    quotient,
    semidirect_product,
    subgroup_as_group,
    subgroup_generated,
    sylow_subgroup,
    trivial_subgroup,
    whole_group,
)


def test_symmetric_3_from_permutations():
    G = group_from_permutations(3, [(1, 2, 0), (1, 0, 2)], name="S3")
    assert G.order == 6
    G.validate()


def test_alternating_4_from_standard_generators():
    gens = [(1, 0, 3, 2), (2, 3, 0, 1), (0, 2, 3, 1)]
    G = group_from_permutations(4, gens)
    assert G.order == 12
    G.validate()


def test_trivial_permutation_group():
    G = group_from_permutations(1, [])
    assert G.order == 1


def test_invalid_permutation_rejected():
    with pytest.raises(InvalidPermutation):
        group_from_permutations(3, [(0, 0, 1)])


def test_closure_cap_enforced():
    with pytest.raises(ClosureExceedsCap):
        group_from_permutations(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
                                max_order_cap=30)


def test_cayley_cap_checked_before_any_row_is_read():
    with pytest.raises(ClosureExceedsCap):
        group_from_cayley_table([None] * 31, max_order_cap=30)


def test_trivial_cayley_table():
    G = group_from_cayley_table([[0]])
    assert G.order == 1


def test_cyclic_4_cayley_table():
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    G = group_from_cayley_table(table)
    assert G.order == 4
    assert G.element_order(1) == 4


def test_nonassociative_table_names_triple():
    # a Latin square with two-sided identity that is not associative
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroup, match="associativity"):
        group_from_cayley_table(table)


def test_identity_must_sit_at_zero():
    with pytest.raises(NotAGroup, match="identity"):
        group_from_cayley_table([[1, 0], [0, 1]])


def test_subgroup_generated_examples(suite_groups):
    s3 = suite_groups["S3"]
    assert subgroup_generated(s3, []).order == 1
    three_cycle = next(x for x in range(6) if s3.element_order(x) == 3)
    assert subgroup_generated(s3, [three_cycle]).order == 3

    a4 = suite_groups["A4"]
    doubles = [x for x in range(12) if a4.element_order(x) == 2]
    v4 = subgroup_generated(a4, doubles[:2])
    assert v4.order == 4


def test_centralizer_and_normalizer(suite_groups):
    s3 = suite_groups["S3"]
    assert centralizer(s3, trivial_subgroup(s3)).order == 6
    syl3 = sylow_subgroup(s3, 3)
    assert centralizer(s3, syl3).mask == syl3.mask
    assert normalizer(s3, syl3).order == 6  # normal subgroup


def test_core_and_normal_closure(suite_groups):
    s3 = suite_groups["S3"]
    c2 = next(s for s in _subgroups_of_order(s3, 2))
    assert core(s3, c2).order == 1
    assert normal_closure(s3, c2).order == 6

    a4 = suite_groups["A4"]
    c2 = next(s for s in _subgroups_of_order(a4, 2))
    assert core(a4, c2).order == 1
    assert normal_closure(a4, c2).order == 4


def test_normalizer_of_normal_subgroup_is_whole_group(suite_groups):
    from modmax.lattice import lattice_of
    for name in ("S3", "A4", "Q8", "SL23"):
        G = suite_groups[name]
        lat = lattice_of(G)
        for i in lat.normal_indices():
            assert normalizer(G, lat.subgroups[i]).order == G.order


def test_core_and_closure_of_normal_subgroup(suite_groups):
    a4 = suite_groups["A4"]
    v4 = next(s for s in _subgroups_of_order(a4, 4))
    assert core(a4, v4).mask == v4.mask
    assert normal_closure(a4, v4).mask == v4.mask


def test_normality_by_generators_matches_all_elements(suite_groups):
    """Normality and normal closure read off the generators agree with the
    definitions over every element, on every subgroup of the suite."""
    from modmax.lattice import lattice_of
    for G in suite_groups.values():
        for S in lattice_of(G).subgroups:
            conjugates = [conjugate_mask(G, g, S.mask) for g in range(G.order)]
            assert is_normal_subgroup(G, S) == all(c == S.mask for c in conjugates)
            union = 0
            for c in conjugates:
                union |= c
            assert normal_closure(G, S) == subgroup_generated(G, bits(union))


@pytest.mark.parametrize(
    "name", catalog.suite_names() + ["S4xC2", "A5", "E2^3xS3", "S5"])
def test_core_by_generators_matches_all_elements(name):
    """The core read off the generators is the intersection of the
    conjugates by every element, on every subgroup."""
    from modmax.lattice import lattice_of
    G = catalog.shared_group(name)
    for S in lattice_of(G).subgroups:
        meet = S.mask
        for g in range(G.order):
            meet &= conjugate_mask(G, g, S.mask)
        assert core(G, S).mask == meet


def _subgroups_of_order(G, k):
    from modmax.lattice import lattice_of
    return [s for s in lattice_of(G).subgroups if s.order == k]


def test_derived_and_center(suite_groups):
    c12 = suite_groups["C12"]
    assert derived_subgroup(c12).order == 1
    assert center(c12).order == 12

    s3 = suite_groups["S3"]
    assert derived_subgroup(s3).order == 3
    assert center(s3).order == 1

    q8 = suite_groups["Q8"]
    assert derived_subgroup(q8).order == 2
    assert center(q8).order == 2
    assert derived_subgroup(q8).mask == center(q8).mask


def test_quotient_examples(suite_groups):
    a4 = suite_groups["A4"]
    q, proj = quotient(a4, trivial_subgroup(a4))
    assert q.order == 12 and is_isomorphic(q, a4)
    q, proj = quotient(a4, whole_group(a4))
    assert q.order == 1

    v4 = next(s for s in _subgroups_of_order(a4, 4))
    q, proj = quotient(a4, v4)
    assert q.order == 3
    assert is_isomorphic(q, catalog.construct("C3"))
    # projection is a homomorphism with kernel V4
    for x in range(12):
        for y in range(12):
            assert proj[a4.table[x][y]] == q.table[proj[x]][proj[y]]
    assert {x for x in range(12) if proj[x] == 0} == set(v4.members())


def test_quotient_requires_normality(suite_groups):
    s3 = suite_groups["S3"]
    c2 = next(s for s in _subgroups_of_order(s3, 2))
    with pytest.raises(NotNormal):
        quotient(s3, c2)


def test_direct_product_orders():
    g = direct_product(catalog.construct("C2"), catalog.construct("C3"))
    assert g.order == 6
    assert is_isomorphic(g, catalog.construct("C6"))


def test_semidirect_with_trivial_action_is_direct():
    n = catalog.construct("C3")
    h = catalog.construct("C4")
    ident = tuple(range(3))
    semi = semidirect_product(n, h, [ident] * 4)
    direct = direct_product(n, h)
    assert semi.table == direct.table  # same pair packing, same table


def test_semidirect_rejects_non_action():
    n = catalog.construct("C3")
    h = catalog.construct("C2")
    bad = (0, 1, 2), (1, 0, 2)  # second map moves the identity
    with pytest.raises(NotAnAction):
        semidirect_product(n, h, bad)


def test_holomorph_c7_has_order_42():
    g = catalog.construct("hol_C7")
    assert g.order == 42
    assert prime_spectrum(g) == (2, 3, 7)


def test_sl23_shape():
    g = catalog.construct("SL23")
    assert g.order == 24
    # unique element of order 2 (the central involution)
    assert sum(1 for x in range(24) if g.element_order(x) == 2) == 1


def test_sylow_subgroups(suite_groups):
    s3 = suite_groups["S3"]
    assert sylow_subgroup(s3, 3).order == 3
    assert sylow_subgroup(s3, 2).order == 2
    assert sylow_subgroup(s3, 5).order == 1
    s4 = suite_groups["S4"]
    assert sylow_subgroup(s4, 2).order == 8
    assert sylow_subgroup(s4, 3).order == 3
    with pytest.raises(NotPrime):
        sylow_subgroup(s3, 4)


def test_hall_subgroups(suite_groups):
    a4 = suite_groups["A4"]
    h2 = hall_subgroup(a4, [2])
    assert h2 is not None and h2.order == 4
    h3 = hall_subgroup(a4, [3])
    assert h3 is not None and h3.order == 3
    h23 = hall_subgroup(a4, [2, 3])
    assert h23 is not None and h23.order == 12


def test_hall_subgroup_absence_in_insoluble_group():
    a5 = catalog.construct("A5")
    assert hall_subgroup(a5, [3, 5]) is None  # no subgroup of order 15
    assert hall_subgroup(a5, [2, 5]) is None  # nor of order 20
    h = hall_subgroup(a5, [2, 3])
    assert h is not None and h.order == 12


def test_prime_spectrum_examples(suite_groups):
    assert prime_spectrum(suite_groups["1"]) == ()
    assert prime_spectrum(suite_groups["A4"]) == (2, 3)
    assert prime_spectrum(suite_groups["hol_C7"]) == (2, 3, 7)


def test_group_json_roundtrip(tmp_path):
    data = {
        "name": "A4",
        "kind": "permutation",
        "degree": 4,
        "generators": [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[1, 2, 3]]],
    }
    g = group_from_json(data)
    assert g.order == 12
    assert is_isomorphic(g, catalog.construct("A4"))

    bad = {"name": "x", "kind": "nope"}
    with pytest.raises(LoadError):
        group_from_json(bad)


def test_cycles_to_perm():
    assert cycles_to_perm(4, [[0, 1], [2, 3]]) == (1, 0, 3, 2)
    with pytest.raises(InvalidPermutation):
        cycles_to_perm(3, [[0, 5]])


def test_isomorphism_backtracking():
    assert is_isomorphic(catalog.construct("Q8"), catalog.construct("Q8"))
    assert not is_isomorphic(catalog.construct("Q8"), catalog.construct("D8"))
    assert not is_isomorphic(catalog.construct("C4"), catalog.construct("V4"))
    iso = find_isomorphism(catalog.construct("C6"),
                           direct_product(catalog.construct("C2"),
                                          catalog.construct("C3")))
    assert iso is not None and iso[0] == 0


@pytest.mark.parametrize("name, count", [
    ("1", 1), ("C6", 2), ("V4", 6), ("S3", 6), ("D8", 8), ("Q8", 24)])
def test_automorphisms_share_the_isomorphism_search(name, count):
    G = catalog.construct(name)
    auts = automorphisms(G)
    assert len(auts) == len(set(auts)) == count
    assert tuple(range(G.order)) in auts
    for f in auts:
        assert all(f[G.table[a][b]] == G.table[f[a]][f[b]]
                   for a in range(G.order) for b in range(G.order))
    assert find_isomorphism(G, G) in auts


def test_pq2_3_2_is_the_alternating_group():
    assert is_isomorphic(catalog.construct("pq2_3_2"), catalog.construct("A4"))


# -- property tests ---------------------------------------------------------

_SEED_NAMES = ["S3", "A4", "D8", "Q8", "C3:C4", "pq2_2_3", "S4"]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_subgroups_satisfy_lagrange(data):
    name = data.draw(st.sampled_from(_SEED_NAMES))
    G = catalog.shared_group(name)
    seed = data.draw(st.sets(st.integers(0, G.order - 1), max_size=3))
    S = subgroup_generated(G, seed)
    assert G.order % S.order == 0
    members = S.members()
    assert 0 in members
    for a in members:
        assert G.inverse[a] in S
        for b in members:
            assert G.table[a][b] in S


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_core_inside_subgroup_inside_closure(data):
    name = data.draw(st.sampled_from(_SEED_NAMES))
    G = catalog.shared_group(name)
    seed = data.draw(st.sets(st.integers(0, G.order - 1), max_size=2))
    H = subgroup_generated(G, seed)
    c = core(G, H)
    n = normal_closure(G, H)
    assert c.mask & H.mask == c.mask
    assert H.mask & n.mask == H.mask
    assert is_normal_subgroup(G, c)
    assert is_normal_subgroup(G, n)


def test_suite_tables_are_groups(suite_groups):
    for name, G in suite_groups.items():
        G.validate()
        for g in G.generator_indices:
            assert 0 <= g < G.order
        assert subgroup_generated(G, G.generator_indices).order == G.order


def test_subgroup_as_group_consistency(suite_groups):
    a4 = suite_groups["A4"]
    v4 = next(s for s in _subgroups_of_order(a4, 4))
    sub, elems = subgroup_as_group(a4, v4)
    assert sub.order == 4
    for i in range(4):
        for j in range(4):
            assert elems[sub.table[i][j]] == a4.table[elems[i]][elems[j]]
