"""Group construction and core operations."""

import operator
import random
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from modmax import catalog
from modmax.groups import (
    ClosureExceedsCap,
    Group,
    InvalidPermutation,
    LoadError,
    NotAGroup,
    NotAnAction,
    NotNormal,
    NotPrime,
    SubgroupSet,
    _closure,
    _greedy_generators,
    automorphisms,
    bits,
    center,
    centralizer,
    commutator_mask,
    conjugate_mask,
    core,
    cycles_to_perm,
    derived_subgroup,
    direct_product,
    find_isomorphism,
    group_from_cayley_table,
    group_from_generator_rows,
    group_from_json,
    group_from_permutations,
    hall_subgroup,
    is_isomorphic,
    is_normal_subgroup,
    load_group,
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
from oracles import close_mask, relabel


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


@pytest.mark.parametrize("table, message", [
    ([], "empty multiplication table"),
    ([[0, 1], [1]], "table row 1 has length 1, expected 2"),
    ([[0, 1], [1, -1]], "table entry -1 at row 1 out of range"),
    ([[0, 1], [1, 2]], "table entry 2 at row 1 out of range"),
    ([[1, 0], [0, 1]], "index 0 is not a left identity: 0*0 = 1"),
    ([[0, 1, 2], [1, 2, 0], [0, 0, 1]], "index 0 is not a right identity: 2*0 = 0"),
    ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "row 1 is not a permutation"),
    # a column that is no permutation, and an element with no two-sided
    # inverse, each break an edge of the walk from 0
    ([[0, 1, 2], [1, 2, 0], [2, 2, 1]],
     "associativity fails on triple (1,1,1): (1*1)*1 = 2 but 1*(1*1) = 0"),
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
      [4, 2, 0, 1, 3]], "associativity fails on triple (1,1,2): (1*1)*2 = 2 but 1*(1*2) = 4"),
    ([[0, 1, 2], [1, 5, -1], [2, 0, 1]], "table entry 5 at row 1 out of range"),
    ([[0, 1, 2], [1, -1, 5], [2, 0, 1]], "table entry -1 at row 1 out of range"),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 3]], "table entry 3 at row 2 out of range"),
    ([[1]], "table entry 1 at row 0 out of range"),
    ([[-1]], "table entry -1 at row 0 out of range"),
    ([[True]], "table entry 1 at row 0 out of range"),
    ([[0, 1], [True, 2]], "table entry 2 at row 1 out of range"),
    ([[False, True], [True, -1]], "table entry -1 at row 1 out of range"),
    ([[False, True], [True, True]], "row 1 is not a permutation"),
    # C2 x {e, z} with z idempotent: an associative monoid whose every edge
    # checks, stopped only by the row of its second generator
    ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 2, 3], [3, 2, 3, 2]], "row 2 is not a permutation"),
    # every element's first edge checks; only 2*1 = 0, an edge back to an
    # element already reached, fails
    ([[0, 1, 2, 3], [1, 0, 2, 3], [2, 0, 1, 3], [3, 0, 1, 2]],
     "associativity fails on triple (2,1,1): (2*1)*1 = 1 but 2*(1*1) = 2"),
])
def test_table_checks_name_the_first_failure(table, message):
    with pytest.raises(NotAGroup) as exc:
        Group(table)
    assert str(exc.value) == message
    if "triple" in message:
        _assert_named_triple_fails(table, exc.value)


def test_stated_generators_are_indices_in_range():
    c2 = catalog.construct("C2")
    for gens, message in (([-1], "stated generator -1 out of range"),
                          ([5], "stated generator 5 out of range"),
                          ([1, 2], "stated generator 2 out of range")):
        with pytest.raises(NotAGroup) as exc:
            Group(c2.table, generators=gens)
        assert str(exc.value) == message
    # operator.index rejects floats and strings instead of truncating them
    for gens in ([1.9], ["1"], [0.5, 1]):
        with pytest.raises(TypeError):
            Group(c2.table, generators=gens)
    assert Group(c2.table, generators=[True, 1]).generator_indices == (1,)


@pytest.mark.parametrize("gen_rows, message", [
    ([(1, 1, 2)], "generator row 0 is not a permutation of 0..2"),
    ([(1, 0, 2)], "stated generators do not generate the group"),
    # S3 on 3 points: transitive, but six permutations cannot be three rows
    ([(1, 0, 2), (1, 2, 0)], "generator rows do not act regularly: element 1 has two rows"),
])
def test_generator_rows_that_give_no_group_table_are_refused(gen_rows, message):
    with pytest.raises(NotAGroup) as exc:
        group_from_generator_rows((0, 1, 2), gen_rows)
    assert str(exc.value) == message


def test_package_constructors_never_run_group_init(monkeypatch, tmp_path):
    """Every group the package builds itself comes from its generators'
    rows; only a table from outside runs ``Group.__init__``'s checks."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("Group.__init__ ran")

    monkeypatch.setattr(Group, "__init__", refuse)
    names = set(catalog._NAMED) | set(catalog.suite_names()) | {
        "C1", "C3", "D2", "D12", "E2^0", "E5^2", "hol_C5", "pq2_3_7", "pgroup_7^2:3:2", "S3xQ8"}
    built = {name: catalog.construct(name) for name in sorted(names)}
    s4 = built["S4"]
    a4 = derived_subgroup(s4)
    assert quotient(s4, a4)[0].order == 2
    assert subgroup_as_group(s4, a4)[0].order == 12
    assert direct_product(built["S3"], built["C2"]).order == 12
    assert semidirect_product(built["C3"], built["C2"], [(0, 1, 2), (0, 2, 1)]).order == 6
    path = tmp_path / "a4.json"
    path.write_text('{"kind": "permutation", "degree": 4, '
                    '"generators": [[[0, 1], [2, 3]], [[1, 2, 3]]]}', encoding="utf-8")
    assert load_group(path).order == 12
    with pytest.raises(AssertionError, match="Group.__init__ ran"):
        group_from_cayley_table([[0, 1], [1, 0]])


def test_every_entry_is_read_as_an_int_before_any_check():
    # operator.index rejects strings and floats instead of truncating them
    with pytest.raises(TypeError):
        Group([[0, 1, 5], [1, 0], ["x"]])
    with pytest.raises(TypeError):
        Group([[0, 1], [1, 0.5]])
    with pytest.raises(LoadError, match="malformed group description"):
        group_from_json({"kind": "cayley", "table": [[0, 1], [1, 0.9]]})
    # a permutation file's degree and cycle points likewise
    for degree, cycle in ((3.9, [0, 1]), ("3", [0, 1]), (3, [0, 1.7]), (3, ["0", 1])):
        with pytest.raises(LoadError, match="malformed group description"):
            group_from_json({"kind": "permutation", "degree": degree,
                             "generators": [[cycle]]})
    table = Group([[False, True], [True, False]]).table
    assert table == ((0, 1), (1, 0)) and {type(v) for row in table for v in row} == {int}


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
    # operator.index rejects floats instead of truncating them to (0, 2, 1)
    for bad in ([(0, 1, 2), (0.2, 2.9, 1.5)], [(0, 1, 2), ("0", "2", "1")]):
        with pytest.raises(TypeError):
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
    with pytest.raises(NotPrime, match="^1 is not prime$"):
        sylow_subgroup(s3, True)  # read with operator.index, as hall_subgroup does
    for p in (2.0, 5.0, "3"):
        with pytest.raises(TypeError):
            sylow_subgroup(s3, p)


def test_hall_subgroups(suite_groups):
    a4 = suite_groups["A4"]
    h2 = hall_subgroup(a4, [2])
    assert h2 is not None and h2.order == 4
    h3 = hall_subgroup(a4, [3])
    assert h3 is not None and h3.order == 3
    h23 = hall_subgroup(a4, [2, 3])
    assert h23 is not None and h23.order == 12
    for primes in ([2.0], ["3"], [2, 3.5]):  # read with operator.index
        with pytest.raises(TypeError):
            hall_subgroup(a4, primes)


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


@pytest.mark.parametrize("name, message", [
    (["a"], "group name must be a string, got ['a']"),
    (None, "group name must be a string, got None"),
    (7, "group name must be a string, got 7"),
])
def test_group_json_name_must_be_a_string(name, message):
    data = {"name": name, "kind": "permutation", "degree": 2, "generators": [[[0, 1]]]}
    with pytest.raises(LoadError) as exc:
        group_from_json(data)
    assert str(exc.value) == message
    del data["name"]
    assert group_from_json(data).name == "G"


def test_cycles_to_perm():
    assert cycles_to_perm(4, [[0, 1], [2, 3]]) == (1, 0, 3, 2)
    assert cycles_to_perm(3, [[0, 1], [1, 0]]) == (1, 0, 2)  # a later cycle overwrites
    with pytest.raises(InvalidPermutation):
        cycles_to_perm(3, [[0, 5]])
    with pytest.raises(InvalidPermutation, match="not a bijection"):
        cycles_to_perm(3, [[0, 1], [1, 2]])


def test_permutation_json_costs_the_points_it_names():
    """A large degree with few points named allocates for those points only,
    and every point is still checked against the degree."""
    data = {"kind": "permutation", "degree": 10 ** 6, "generators": [[[5, 999_999]]]}
    tracemalloc.start()
    try:
        G = group_from_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 2 and peak < 2 ** 16
    data["generators"].append([[7, 10 ** 6]])
    with pytest.raises(LoadError, match="cycle point 1000000 out of range"):
        group_from_json(data)
    with pytest.raises(LoadError, match="degree must be at least 1"):
        group_from_json({"kind": "permutation", "degree": 0, "generators": []})
    assert group_from_json({"kind": "permutation", "degree": 9}).order == 1


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_permutation_json_on_named_points_gives_the_same_group(data):
    """Leaving out the points no cycle names changes no table entry and no
    generator index."""
    degree = data.draw(st.integers(1, 7), label="degree")
    cycle = st.lists(st.integers(0, degree - 1), min_size=1, max_size=degree, unique=True)
    gens = data.draw(st.lists(st.lists(cycle, max_size=2), max_size=3), label="gens")
    try:
        perms = [cycles_to_perm(degree, cycles) for cycles in gens]
    except InvalidPermutation:
        assume(False)
    G = group_from_json({"kind": "permutation", "degree": degree, "generators": gens},
                        max_order_cap=5040)
    H = group_from_permutations(degree, perms, max_order_cap=5040)
    assert (G.table, G.generator_indices) == (H.table, H.generator_indices)


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
    assert S.mask == close_mask(G.table, seed, G.order)
    assert G.order % S.order == 0
    members = S.members()
    assert 0 in members
    for a in members:
        assert G.inverse[a] in S
        for b in members:
            assert G.table[a][b] in S


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_closure_extends_a_subgroup_in_each_of_its_three_cases(data):
    """``_closure(table, H, gens)`` is <H, gens> when H <= <N, gens> for a
    subgroup N <= H that gens normalise, checked against the all-pairs
    closure on groups of at most 6 points in the three cases the package
    uses: N = 1 (gens generate H too), N = H (gens normalise H), and H =
    <N, a prefix of gens> with gens normalising N.  The callers built on
    them, ``subgroup_generated`` and the greedy generators modulo N, are
    checked the same way."""
    degree = data.draw(st.integers(1, 6), label="degree")
    perms = data.draw(st.lists(st.permutations(list(range(degree))),
                               min_size=1, max_size=3), label="generators")
    try:
        G = group_from_permutations(degree, perms, max_order_cap=120)
    except ClosureExceedsCap:
        assume(False)
    t, n = G.table, G.order
    span = lambda xs: close_mask(t, xs, n)
    elements = st.lists(st.integers(0, n - 1), max_size=3)
    a = data.draw(elements, label="generators of H")
    b = data.draw(elements, label="more generators")
    H = span(a)
    # N = 1
    assert _closure(t, H, a + b) == span(a + b)
    assert subgroup_generated(G, a + b).mask == span(a + b)
    # N = H
    c = data.draw(st.lists(st.sampled_from(normalizer(G, SubgroupSet(G, H)).members()),
                           max_size=3), label="normalising generators")
    assert _closure(t, H, c) == span(a + c)
    # N = H as ``below``, started from <N, a prefix of the generators>
    j = data.draw(st.integers(0, len(c)), label="prefix")
    assert _closure(t, span(a + c[:j]), c) == span(a + c)
    top = span(a + c)
    gens = _greedy_generators(t, top, H)
    for i, x in enumerate(gens):
        assert x == min(bits(top & ~span([*bits(H), *gens[:i]])))
    assert span([*bits(H), *gens]) == top


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
        for x, x_inv in enumerate(G.inverse):
            assert G.table[x][x_inv] == 0 == G.table[x_inv][x], (name, x)


def test_subgroup_as_group_consistency(suite_groups):
    a4 = suite_groups["A4"]
    v4 = next(s for s in _subgroups_of_order(a4, 4))
    sub, elems = subgroup_as_group(a4, v4)
    assert sub.order == 4
    for i in range(4):
        for j in range(4):
            assert elems[sub.table[i][j]] == a4.table[elems[i]][elems[j]]


# -- validation: the left-multiplication walk against the literal triple loop

def _literal_witness(table):
    """Oracle: the first triple (a, b, c) with (ab)c != a(bc), or None."""
    n = len(table)
    for a in range(n):
        ta = table[a]
        for b in range(n):
            tab, tb = table[ta[b]], table[b]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    return a, b, c
    return None


def _assert_named_triple_fails(table, exc):
    a, b, c = map(int, re.search(r"triple \((\d+),(\d+),(\d+)\)", str(exc)).groups())
    assert table[table[a][b]][c] != table[a][table[b][c]]


def _validate_verdict(table):
    """Whether ``group_from_cayley_table`` accepts a loop's table, asserting
    that it accepts exactly the associative tables and that a rejection
    names a failing triple."""
    witness = _literal_witness(table)
    try:
        group_from_cayley_table(table)
    except NotAGroup as exc:
        _assert_named_triple_fails(table, exc)
        assert witness is not None
        return False
    assert witness is None
    return True


def _switch_intercalate(table, rng):
    """Swap the two values of a random 2x2 subsquare holding only non-zero
    values off row and column 0; identity and inverses are kept.  Returns
    None when 1000 random tries find no such subsquare."""
    n = len(table)
    for _ in range(1000 if n >= 4 else 0):
        r1, r2, c1 = rng.randrange(1, n), rng.randrange(1, n), rng.randrange(1, n)
        u = table[r1][c1]
        c2 = table[r2].index(u)
        v = table[r1][c2]
        if r1 != r2 and c2 != 0 and 0 not in (u, v) and table[r2][c1] == v:
            out = [list(row) for row in table]
            out[r1][c1], out[r1][c2], out[r2][c1], out[r2][c2] = v, u, u, v
            return out
    return None


def _xor_table(rank):
    n = 1 << rank
    index = list(range(n))
    return [list(map(index.__getitem__, map(a.__xor__, range(n)))) for a in range(n)]


def _random_loop(n, rng):
    """A random Latin square with identity 0 and two-sided inverses, or None.

    The zeros sit on a random involution (x*y = 0 = y*x); the other cells
    are filled in random order of values with backtracking."""
    rest = list(range(1, n))
    rng.shuffle(rest)
    t = [[None] * n for _ in range(n)]
    for i in range(n):
        t[0][i] = t[i][0] = i
    while rest:
        a = rest.pop()
        b = rest.pop() if rest and rng.random() < 0.5 else a
        t[a][b] = t[b][a] = 0
    cells = [(i, j) for i in range(1, n) for j in range(1, n) if t[i][j] is None]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(t[i]).union(row[j] for row in t)
        options = [v for v in range(1, n) if v not in used]
        rng.shuffle(options)
        for v in options:
            t[i][j] = v
            if fill(k + 1):
                return True
        t[i][j] = None
        return False

    return t if fill(0) else None


def _times_c2(loop):
    """C2 x L with (c, l) at index c + 2l."""
    n = 2 * len(loop)
    return [[(a ^ b) & 1 | 2 * loop[a >> 1][b >> 1] for b in range(n)] for a in range(n)]


def test_validate_accepts_relabelled_suite_groups(suite_groups):
    rng = random.Random(7)
    for G in suite_groups.values():
        assert _validate_verdict(relabel(G.table, rng))


def test_validate_rejects_switched_elementary_abelian_loops():
    rng = random.Random(11)
    for rank in (3, 4, 5, 6):
        for _ in range(3):
            table = relabel(_switch_intercalate(_xor_table(rank), rng), rng)
            assert not _validate_verdict(table)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_agrees_with_triple_loop_on_small_loops(data):
    rng = data.draw(st.randoms(use_true_random=False))
    if data.draw(st.booleans()):
        table = _random_loop(data.draw(st.integers(1, 8)), rng)
    else:
        name = data.draw(st.sampled_from(
            ["1", "C2", "C3", "V4", "C4", "C5", "S3", "C6", "C7", "D8", "Q8", "E2^3", "C2xC4"]))
        table = relabel(catalog.shared_group(name).table, rng)
        if data.draw(st.booleans()):
            table = _switch_intercalate(table, rng)
    assume(table is not None)
    _validate_verdict(table)


def test_validate_needs_more_than_its_first_round():
    """In C2 x L the walk's first generator, the central index 1, passes
    every edge, so a walk that checked only its first generator would
    accept a non-associative table."""
    rng = random.Random(3)
    for order in (5, 6, 7):
        loop = None
        while loop is None or _literal_witness(loop) is None:
            loop = _random_loop(order, rng)
        t = _times_c2(loop)
        assert all(t[t[1][y]] == list(map(t[1].__getitem__, t[y])) for y in range(len(t)))
        assert not _validate_verdict(t)


def _dihedral_table(order):
    """s^f r^i at index f*m + i, with (s^f r^i)(s^g r^j) = s^(f+g) r^(+-i + j)."""
    m = order // 2
    rot, refl = list(range(m)), list(range(m, order))
    rows = []
    for same, other in ((rot, refl), (refl, rot)):
        for i in range(m):
            # g = 0: r^(i + j) in the row's coset; g = 1: r^(j - i) in the other
            rows.append(same[i:] + same[:i] + other[m - i:] + other[:m - i])
    return rows


def test_validate_at_the_order_cap_is_not_cubic():
    """A relabelled order-2000 dihedral table is accepted in seconds; the
    literal triple loop took about five minutes on it."""
    table = relabel(_dihedral_table(2000), random.Random(2000))
    start = time.perf_counter()
    G = group_from_cayley_table(table, max_order_cap=2000)
    assert G.order == 2000
    assert time.perf_counter() - start < 30


def test_validate_rejects_a_switched_loop_at_order_2048():
    table = _xor_table(11)
    r1, r2, c1 = 3, 5, 9
    c2 = r1 ^ r2 ^ c1
    table[r1][c1], table[r1][c2] = table[r1][c2], table[r1][c1]
    table[r2][c1], table[r2][c2] = table[r2][c2], table[r2][c1]
    start = time.perf_counter()
    with pytest.raises(NotAGroup, match="associativity fails") as exc:
        group_from_cayley_table(table, max_order_cap=2048)
    assert time.perf_counter() - start < 30
    _assert_named_triple_fails(table, exc.value)


# -- construction: shared entries, generators by right multiplication --------

def test_cap_order_group_draws_every_entry_from_one_index():
    """Every table entry is the identity row's object for that value, so a
    group near the cap holds its n^2 row pointers and n ints, not n^2 ints."""
    G = catalog.construct("D2002", max_order_cap=2002)
    first = G.table[0]
    assert all(all(map(operator.is_, row, map(first.__getitem__, row))) for row in G.table)
    held = (sys.getsizeof(G.table) + sum(map(sys.getsizeof, G.table))
            + sum(map(sys.getsizeof, first)))
    assert held < 48 * 2 ** 20
    # building the rows allocates little beyond the n^2 row pointers
    table = _xor_table(10)
    tracemalloc.start()
    try:
        Group(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(map(sys.getsizeof, table)) + 2 ** 20


def _greedy_by_close_mask(G):
    """Oracle: the least element outside the closure so far, until the
    closure is the whole group."""
    gens, mask, full = [], 1, (1 << G.order) - 1
    for x in range(1, G.order):
        if not (mask >> x) & 1:
            gens.append(x)
            mask = close_mask(G.table, gens, G.order)
            if mask == full:
                break
    return tuple(gens)


@pytest.mark.parametrize("name", sorted(set(catalog._NAMED) | set(catalog.suite_names())))
def test_greedy_generators_by_right_multiplication(name):
    G = catalog.shared_group(name)
    assert Group(G.table).generator_indices == _greedy_by_close_mask(G)
    assert Group(G.table, generators=G.generator_indices).generator_indices == G.generator_indices


def _assert_walk_generators_are_greedy(table):
    G = Group(table)
    assert G.generator_indices == _greedy_generators(G.table, (1 << G.order) - 1)
    assert all(G.table[x][x_inv] == 0 == G.table[x_inv][x] for x, x_inv in enumerate(G.inverse))


def test_walk_generators_are_the_greedy_generators(suite_groups):
    """``found_automorphisms``, and the orbits read off it, start from an
    outside table's generators, so the walk must choose exactly
    ``_greedy_generators``' (and find two-sided inverses) on the suite and
    on relabelled copies of the benchmark's lattice groups."""
    for G in suite_groups.values():
        _assert_walk_generators_are_greedy(G.table)
    for name in ("E2^5", "E2^3xS3", "S5"):
        table = catalog.shared_group(name).table
        _assert_walk_generators_are_greedy(table)
        for seed in range(1, 5):
            _assert_walk_generators_are_greedy(relabel(table, random.Random(seed)))


def _quotient_by_cosets(G, N):
    """Oracle: the literal coset construction of G/N, cosets by ascending
    least member, with generators projected from G's."""
    proj, reps = [-1] * G.order, []
    for x in range(G.order):
        if proj[x] < 0:
            for n in bits(N.mask):
                proj[G.table[x][n]] = len(reps)
            reps.append(x)
    table = [[proj[G.table[a][b]] for b in reps] for a in reps]
    gens = dict.fromkeys(proj[g] for g in G.generator_indices if proj[g] != 0)
    return Group(table, generators=gens), tuple(proj)


@pytest.mark.parametrize("name", sorted(set(catalog._NAMED) | set(catalog.suite_names())))
def test_quotient_by_the_trivial_subgroup_is_the_group(name):
    G = catalog.shared_group(name)
    Q, proj = _quotient_by_cosets(G, trivial_subgroup(G))
    assert quotient(G, trivial_subgroup(G)) == (G, proj)
    assert Q.table == G.table and Q.generator_indices == G.generator_indices


ORACLE_GROUPS = catalog.suite_names() + ["S4xC2", "A5", "E2^3xS3"]


def _commutators_of_members(G, a_mask, b_mask):
    """Oracle: [A, B] as the closure of [a, b] over every member pair."""
    comms = {G.commutator(a, b) for a in bits(a_mask) for b in bits(b_mask)}
    return close_mask(G.table, comms, G.order)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_commutator_subgroups_from_generators_match_all_members(name):
    """[A, B] read off generators and conjugation by B's generators, for
    every pair of subgroups A <= B: the derived and lower central series
    of every subgroup among them."""
    from modmax.lattice import lattice_of
    G = catalog.shared_group(name)
    lat = lattice_of(G)
    for b, B in enumerate(lat.subgroups):
        for a in lat.below[b]:
            A = lat.subgroups[a]
            assert commutator_mask(G, A.mask, B.mask) == _commutators_of_members(
                G, A.mask, B.mask), (name, a, b)
    full = (1 << G.order) - 1
    assert derived_subgroup(G).mask == _commutators_of_members(G, full, full)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_centralizer_from_generators_matches_all_members(name):
    from modmax.lattice import lattice_of
    G = catalog.shared_group(name)
    for S in lattice_of(G).subgroups:
        expected = sum(1 << g for g in range(G.order)
                       if all(G.table[g][s] == G.table[s][g] for s in S))
        assert centralizer(G, S).mask == expected, (name, S)
    assert center(G).mask == expected  # the last subgroup is G


# -- construction: tables copied from generator rows against per-entry fillers
#
# The fillers below are the constructors' former table builders, kept
# verbatim as oracles: each computes every one of the n^2 entries in Python.

def _filled_permutations(degree, generators, name="G", max_order_cap=2000):
    gens = [tuple(int(v) for v in p) for p in generators]
    if degree == 1:
        return Group([[0]], name=name, generators=[0] * len(gens))
    ident = tuple(range(degree))
    elems = [ident]
    seen = {ident}
    level = [ident]
    while level:
        found = set()
        for x in level:
            times = operator.itemgetter(*x)  # times(q) is x*q
            for g in gens:
                y = times(g)
                if y not in seen:
                    found.add(y)
        level = sorted(found)
        for y in level:
            seen.add(y)
            elems.append(y)
            if len(elems) > max_order_cap:
                raise ClosureExceedsCap(
                    f"permutation closure exceeds max_order_cap {max_order_cap}")
    lookup = {p: i for i, p in enumerate(elems)}.__getitem__
    table = [tuple(map(lookup, map(operator.itemgetter(*p), elems))) for p in elems]
    return Group(table, name=name, generators=map(lookup, gens))


def _filled_direct_product(A, B, name=None):
    nb = B.order
    n = A.order * nb
    table = [[0] * n for _ in range(n)]
    for a1 in range(A.order):
        ra = A.table[a1]
        for b1 in range(nb):
            rb = B.table[b1]
            i = a1 * nb + b1
            row = table[i]
            for a2 in range(A.order):
                base = ra[a2] * nb
                off = a2 * nb
                for b2 in range(nb):
                    row[off + b2] = base + rb[b2]
    gens = [g * nb for g in A.generator_indices] + list(B.generator_indices)
    return Group(table, name=name or f"{A.name}x{B.name}", generators=gens)


def _compose(p, q):
    """Permutation composition: apply q, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def _filled_semidirect_product(N, H, action, name=None):
    """The former constructor whole: the entry-by-entry action checks too."""
    acts = [tuple(int(v) for v in perm) for perm in action]
    if len(acts) != H.order:
        raise NotAnAction(f"expected {H.order} automorphisms, got {len(acts)}")
    ident = tuple(range(N.order))
    if acts[0] != ident:
        raise NotAnAction("action of the identity must be the identity map")
    for h, perm in enumerate(acts):
        if sorted(perm) != list(range(N.order)):
            raise NotAnAction(f"action of element {h} is not a bijection")
        if perm[0] != 0:
            raise NotAnAction(f"action of element {h} moves the identity")
        for x in range(N.order):
            px = perm[x]
            for y in range(N.order):
                if perm[N.table[x][y]] != N.table[px][perm[y]]:
                    raise NotAnAction(
                        f"action of element {h} is not an automorphism "
                        f"(fails on pair ({x},{y}))")
    for h1 in range(H.order):
        for h2 in range(H.order):
            if acts[H.table[h1][h2]] != _compose(acts[h1], acts[h2]):
                raise NotAnAction(
                    f"action is not a homomorphism (fails on pair ({h1},{h2}))")
    nh = H.order
    n = N.order * nh
    table = [[0] * n for _ in range(n)]
    for n1 in range(N.order):
        for h1 in range(nh):
            i = n1 * nh + h1
            row = table[i]
            act = acts[h1]
            rn = N.table[n1]
            rh = H.table[h1]
            for n2 in range(N.order):
                base = rn[act[n2]] * nh
                off = n2 * nh
                for h2 in range(nh):
                    row[off + h2] = base + rh[h2]
    gens = [g * nh for g in N.generator_indices] + list(H.generator_indices)
    return Group(table, name=name or f"{N.name}:{H.name}", generators=gens)


def _filled_subgroup_as_group(G, S):
    elems = S.members()
    local = {x: i for i, x in enumerate(elems)}
    table = [[local[G.table[x][y]] for y in elems] for x in elems]
    return Group(table, name=f"{G.name}<{S.order}>"), elems


def _filled_cyclic(n, name=None):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = [1] if n > 1 else []
    return Group(table, name=name or f"C{n}", generators=gens)


def _filled_elementary_abelian(p, k, name=None):
    n = p ** k
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total, mult, a, b = 0, 1, i, j
            for _ in range(k):
                total += ((a + b) % p) * mult
                a //= p
                b //= p
                mult *= p
            table[i][j] = total
    gens = [p ** i for i in range(k)]
    return Group(table, name=name or f"E{p}^{k}", generators=gens)


def _filled_dihedral(order, name=None):
    m = order // 2
    table = [[0] * order for _ in range(order)]
    for i in range(m):
        for a in (0, 1):
            x = i + m * a
            for j in range(m):
                for b in (0, 1):
                    rot = (i + (m - j if a else j)) % m
                    table[x][j + m * b] = rot + m * ((a + b) % 2)
    gens = [1, m] if m > 1 else [m]
    return Group(table, name=name or f"D{order}", generators=gens)


def _filled_quaternion8(name="Q8"):
    table = [[0] * 8 for _ in range(8)]
    for i in range(4):
        for a in (0, 1):
            x = i + 4 * a
            for j in range(4):
                for b in (0, 1):
                    rot = (i + (4 - j if a else j)) % 4
                    if a and b:
                        rot = (rot + 2) % 4
                    table[x][j + 4 * b] = rot + 4 * ((a + b) % 2)
    return Group(table, name=name, generators=[1, 4])


_FILLERS = {
    "group_from_permutations": _filled_permutations,
    "direct_product": _filled_direct_product,
    "semidirect_product": _filled_semidirect_product,
    "cyclic": _filled_cyclic,
    "elementary_abelian": _filled_elementary_abelian,
    "dihedral": _filled_dihedral,
    "quaternion8": _filled_quaternion8,
}


def _construct_by_fillers(monkeypatch, name):
    """``catalog.construct(name)`` with every table filled entry by entry."""
    with monkeypatch.context() as patch:
        swap = {getattr(catalog, attr): filler for attr, filler in _FILLERS.items()}
        for attr, filler in _FILLERS.items():
            patch.setattr(catalog, attr, filler)
        patch.setattr(catalog, "_PATTERNS", tuple(
            (pattern, order, swap.get(build, build))
            for pattern, order, build in catalog._PATTERNS))
        return catalog.construct(name)


def _assert_same_group(G, expected):
    assert G.table == expected.table
    assert G.generator_indices == expected.generator_indices
    assert G.inverse == expected.inverse
    assert G.name == expected.name
    first = G.table[0]
    assert all(all(map(operator.is_, row, map(first.__getitem__, row))) for row in G.table)


@pytest.mark.parametrize("name", sorted(
    set(catalog._NAMED) | set(catalog.suite_names())
    | {"hol_C13", "pq2_3_11", "pq2_7_13", "D400", "E3^4", "C2xD12", "pgroup_7^2:3:2"}))
def test_constructors_match_the_per_entry_fillers(monkeypatch, name):
    _assert_same_group(catalog.construct(name), _construct_by_fillers(monkeypatch, name))


@pytest.mark.parametrize("name", catalog.suite_names())
def test_quotients_match_the_coset_filler(name):
    from modmax.lattice import lattice_of
    G = catalog.construct(name)
    lat = lattice_of(G)
    for i in lat.normal_indices():
        N = lat.subgroups[i]
        Q, proj = quotient(G, N)
        expected, expected_proj = _quotient_by_cosets(G, N)
        assert proj == expected_proj
        assert (Q.table, Q.generator_indices, Q.inverse) == (
            expected.table, expected.generator_indices, expected.inverse)
        first = Q.table[0]
        assert all(all(map(operator.is_, row, map(first.__getitem__, row))) for row in Q.table)


@pytest.mark.parametrize("name", catalog.suite_names())
def test_subgroups_as_groups_match_the_entry_filler(name):
    from modmax.lattice import lattice_of
    G = catalog.construct(name)
    for S in lattice_of(G).subgroups:
        sub, elems = subgroup_as_group(G, S)
        expected, expected_elems = _filled_subgroup_as_group(G, S)
        assert elems == expected_elems
        _assert_same_group(sub, expected)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_permutation_tables_match_the_lookup_filler(data):
    degree = data.draw(st.integers(1, 6), label="degree")
    gens = data.draw(st.lists(st.permutations(list(range(degree))), max_size=3),
                     label="generators")
    _assert_same_group(group_from_permutations(degree, gens),
                       _filled_permutations(degree, gens))


def _agl32_generators():
    """x -> x + 1, a rotation of the three bits, and the transvection
    x -> x + (x_0 << 1) on the 8 points of F_2^3."""
    return [tuple(x ^ 1 for x in range(8)),
            tuple(((x << 1) | (x >> 2)) & 7 for x in range(8)),
            tuple(x ^ ((x & 1) << 1) for x in range(8))]


def test_near_cap_permutation_group_copies_its_rows():
    """AGL(3,2), of order 1,344: one lookup per element and generator, where
    the lookup filler makes 1,344^2."""
    gens = _agl32_generators()
    start = time.perf_counter()
    G = group_from_permutations(8, gens, name="AGL32")
    built_s = time.perf_counter() - start
    start = time.perf_counter()
    expected = _filled_permutations(8, gens, name="AGL32")
    filled_s = time.perf_counter() - start
    assert G.order == 1344
    _assert_same_group(G, expected)
    assert built_s < 10 and built_s < filled_s, (built_s, filled_s)


_ACTION_GROUPS = ["C2", "C3", "C4", "V4", "C5", "S3", "E2^3", "Q8"]


def _automorphism_group(N):
    """Aut(N) as a group whose element i is ``automorphisms(N)[i]``, with
    i*j = (i after j), the product a semidirect action composes by."""
    auts = automorphisms(N)
    position = {a: i for i, a in enumerate(auts)}
    return Group([[position[tuple(p[x] for x in q)] for q in auts] for p in auts]), auts


@pytest.mark.parametrize("name", ["C5", "V4", "S3", "Q8", "E2^3"])
def test_holomorphs_match_the_filler(name):
    """N x| Aut(N): a faithful action of a group that is not abelian for
    all but C5, so the order of composition matters (V4 gives S4, E2^3 AGL(3,2))."""
    N = catalog.shared_group(name)
    A, auts = _automorphism_group(N)
    _assert_same_group(semidirect_product(N, A, auts),
                       _filled_semidirect_product(N, A, auts))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_semidirect_checks_name_the_fillers_first_failure(data):
    """Actions by Aut(N) with images replaced, powers of one automorphism,
    or lists of automorphisms, permutations and any indices: accepted, or
    refused with the filler's message."""
    N = catalog.shared_group(data.draw(st.sampled_from(_ACTION_GROUPS[:7]), label="N"))
    auts = automorphisms(N)
    kind = data.draw(st.sampled_from(["holomorph", "powers", "lists"]), label="kind")
    if kind == "holomorph":
        H, action = _automorphism_group(N)
        for h in data.draw(st.lists(st.integers(0, H.order - 1), max_size=2), label="moved"):
            action[h] = data.draw(st.sampled_from(auts), label="image")
    else:
        H = catalog.shared_group(data.draw(st.sampled_from(_ACTION_GROUPS[:5]), label="H"))
    if kind == "powers":  # h -> a^h: an action when H is cyclic and a^|H| = 1
        a = data.draw(st.sampled_from(auts), label="a")
        action, cur = [], tuple(range(N.order))
        for _ in range(H.order):
            action.append(cur)
            cur = tuple(a[cur[i]] for i in range(N.order))
    elif kind == "lists":
        one_act = st.one_of(
            st.sampled_from(auts),
            st.permutations(list(range(N.order))).map(tuple),
            st.lists(st.integers(0, N.order - 1), min_size=N.order, max_size=N.order))
        action = [tuple(range(N.order))] + data.draw(
            st.lists(one_act, min_size=H.order - 1, max_size=H.order - 1), label="action")
    _assert_semidirect_like_filler(N, H, action)


def _assert_semidirect_like_filler(N, H, action):
    outcomes = []
    for build in (semidirect_product, _filled_semidirect_product):
        try:
            outcomes.append(build(N, H, action))
        except NotAnAction as exc:
            outcomes.append(str(exc))
    got, expected = outcomes
    if isinstance(expected, str):
        assert got == expected
    else:
        _assert_same_group(got, expected)


@pytest.mark.parametrize("n, k, action, message", [
    ("C3", "C2", [(0, 1, 2)], "expected 2 automorphisms, got 1"),
    ("C3", "C2", [(0, 2, 1), (0, 1, 2)], "action of the identity must be the identity map"),
    ("C3", "C2", [(0, 1, 2), (0, 1, 1)], "action of element 1 is not a bijection"),
    ("C3", "C2", [(0, 1, 2), (1, 0, 2)], "action of element 1 moves the identity"),
    ("C4", "C2", [(0, 1, 2, 3), (0, 2, 1, 3)],
     "action of element 1 is not an automorphism (fails on pair (1,1))"),
    ("E2^3", "C3", [tuple(range(8)), tuple(range(8)), (0, 1, 2, 3, 4, 5, 7, 6)],
     "action of element 2 is not an automorphism (fails on pair (2,4))"),
    ("C3", "C4", [(0, 1, 2), (0, 2, 1), (0, 1, 2), (0, 1, 2)],
     "action is not a homomorphism (fails on pair (1,2))"),
    ("C7", "V4", [tuple(x * k % 7 for x in range(7)) for k in (1, 6, 2, 5)],
     "action is not a homomorphism (fails on pair (2,2))"),
])
def test_semidirect_checks_name_the_first_failure(n, k, action, message):
    with pytest.raises(NotAnAction) as exc:
        semidirect_product(catalog.construct(n), catalog.construct(k), action)
    assert str(exc.value) == message


def test_catalog_builders_hold_one_table_of_shared_entries():
    """The builders' rows draw on one tuple of indices and the group keeps
    the rows its generators' rows give, so a build peaks at about one
    table of n^2 pointers."""
    for name in ("D600", "C600", "E2^9", "hol_C23", "S3xC2xD50"):
        tracemalloc.start()
        try:
            G = catalog.construct(name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pointers = sys.getsizeof(G.table) + sum(map(sys.getsizeof, G.table))
        assert peak < 1.5 * pointers, (name, peak / pointers)
