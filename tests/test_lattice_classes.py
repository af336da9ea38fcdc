"""Answers read once per automorphism orbit or conjugacy class against
per-member evaluation.

The enumeration finds the subgroups one orbit at a time, under the group
that conjugation and the automorphisms ``found_automorphisms`` finds and
verifies generate, and each orbit class by class, so the lattice records
both each subgroup's conjugacy class and its orbit.  It evaluates the predicate
columns of the whole lattice on one representative per orbit, those of
every other quotient section [N, G] on one per class, and memoises
subnormality per orbit.  The oracles in ``oracles.py`` evaluate every
member on its own: the columns with quantifier loops (Kurosh's conditions
(i) and (ii) literally, not by counting; permutability against every
member, not only the primary cyclic ones), subnormality by joining the
conjugates of H by every member of each term.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from modmax import catalog
from modmax import lattice as lattice_module
from modmax.groups import (
    ClosureExceedsCap,
    Group,
    bits,
    conjugate_mask,
    found_automorphisms,
    group_from_permutations,
)
from modmax.lattice import enumerate_lattice, lattice_of
from oracles import column_by_members, relabel, subnormal_by_members

SUITE = [e.name for e in catalog.standard_suite()]
GROUPS = SUITE + ["S4xC2", "A5", "S5", "pq2_3_11", "E2^3xS3", "C2xD8xS3"]
assert len(set(GROUPS)) == len(GROUPS), "a group listed twice runs twice"


def _central_and_not(name):
    """The group's generators include a central one and a non-central one."""
    G = catalog.shared_group(name)
    gens, table = G.generator_indices, G.table
    central = {all(table[g][h] == table[h][g] for h in gens) for g in gens}
    return central == {True, False}


# the class walk conjugates by the non-central generators only, so some
# group here must have both kinds for the classes to test that choice
assert any(map(_central_and_not, GROUPS)), "no group mixes the two kinds"
PREDICATES = ("modular", "quasinormal", "s_quasinormal")


@pytest.mark.parametrize("name", GROUPS)
def test_classes_are_the_conjugacy_classes(name):
    """class_of[i] is the set of H^g over every g in G, and the normal
    subgroups are exactly the classes of one subgroup."""
    G = catalog.shared_group(name)
    lat = lattice_of(G)
    for i, H in enumerate(lat.subgroups):
        expected = 0
        for g in range(G.order):
            expected |= 1 << lat.index_of[conjugate_mask(G, g, H.mask)]
        assert lat.class_of[i] == expected, (name, i)
        assert lat.is_normal(i) == (expected == 1 << i), (name, i)


@pytest.mark.parametrize("name", GROUPS)
def test_orbits_are_unions_of_classes_of_one_order(name):
    """Each orbit is a union of whole conjugacy classes of subgroups of one
    order, is the orbit of each of its members, and is mapped into itself
    by every automorphism found."""
    lat = lattice_of(catalog.shared_group(name))
    orbit_of, class_of = lat.orbit_of, lat.class_of
    for i in range(lat.size):
        orbit = orbit_of[i]
        assert orbit >> i & 1 and class_of[i] & ~orbit == 0, (name, i)
        assert {lat.subgroups[j].order for j in bits(orbit)} == {
            lat.subgroups[i].order}, (name, i)
        assert all(orbit_of[j] == orbit for j in bits(orbit)), (name, i)
        for phi in found_automorphisms(lat.group):
            image = sum(1 << phi[x] for x in lat.subgroups[i])
            assert orbit >> lat.index_of[image] & 1, (name, i)


@pytest.mark.parametrize("name", SUITE + ["E2^5", "D400", "C2xD8xS3"])
def test_no_automorphisms_found_gives_the_same_lattice(monkeypatch, name):
    """With no automorphism found the enumeration walks conjugacy classes
    alone: the same subgroups and classes, and each orbit one class."""
    G = catalog.shared_group(name)
    lat = enumerate_lattice(G)
    monkeypatch.setattr(lattice_module, "found_automorphisms", lambda G: ())
    bare = enumerate_lattice(G)
    assert [s.mask for s in bare.subgroups] == [s.mask for s in lat.subgroups]
    assert bare.class_of == lat.class_of, name
    assert bare.orbit_of == bare.class_of, name


def _relabelled(name, seed):
    return Group(relabel(catalog.construct(name).table, random.Random(seed)),
                 name=f"{name}~{seed}")


def _assert_orbit_answers_match(lat, name):
    """The whole lattice's columns and subnormality, read once per orbit,
    equal the answers evaluated member by member."""
    top = lat.top()
    for p in PREDICATES:
        assert lat.column(p) == column_by_members(lat, p, 0, top), (name, p)
    for i in range(lat.size):
        assert lat.is_subnormal(i) == subnormal_by_members(lat, i), (name, i)


@pytest.mark.parametrize("name, seed", [
    ("E2^5", 1), ("E2^5", 2), ("E2^3xS3", 1), ("E2^3xS3", 2), ("S5", 1)])
def test_orbit_answers_on_relabelled_tables(name, seed):
    """Tables from outside, relabelled at random, have other generators
    and so other automorphisms found; the answers stay those of every
    member evaluated on its own.  Any basis of E2^5 gives a swap and a
    transvection per coordinate, which generate GL(5, 2), so its orbits
    are the 6 orders under every relabelling."""
    G = _relabelled(name, seed)
    lat = enumerate_lattice(G)
    assert name != "E2^5" or len(set(lat.orbit_of)) == 6
    _assert_orbit_answers_match(lat, G.name)


@pytest.mark.parametrize("name", GROUPS)
def test_subnormality_matches_the_all_members_loop(name):
    lat = lattice_of(catalog.shared_group(name))
    for i in range(lat.size):
        assert lat.is_subnormal(i) == subnormal_by_members(lat, i), (name, i)


@pytest.mark.parametrize("name", GROUPS)
def test_columns_match_per_member_evaluation(name):
    """The whole lattice and every quotient section [N, G]."""
    lat = lattice_of(catalog.shared_group(name))
    top = lat.top()
    for lo in lat.normal_indices():
        for p in PREDICATES:
            assert lat.column(p, (lo, top)) == column_by_members(
                lat, p, lo, top), (name, p, lo)


@pytest.mark.parametrize("name", SUITE + ["S4xC2", "A5"])
def test_every_section_column_matches_per_member_evaluation(name):
    """Every section [lo, hi]: subgroup sections and [lo, G] with lo not
    normal are not fixed by conjugation and are read member by member."""
    lat = lattice_of(catalog.shared_group(name))
    for lo in range(lat.size):
        for hi in bits(lat.up[lo]):
            for p in PREDICATES:
                assert lat.column(p, (lo, hi)) == column_by_members(
                    lat, p, lo, hi), (name, p, lo, hi)


def _assert_quasinormal_sections_match(lat, name):
    for b in range(lat.size):
        assert lat.column("quasinormal", (0, b)) == column_by_members(
            lat, "quasinormal", 0, b), (name, b)


@pytest.mark.parametrize("name", ["E2^5", "S5", "hol_C13", "pq2_3_11",
                                  "C2xD8xS3"])
def test_quasinormal_subgroup_sections_match_all_partners(name):
    """Every subgroup section [1, B], the whole lattice included: testing
    H against B's primary cyclic subgroups alone gives the column of
    testing it against every member of B."""
    lat = lattice_of(catalog.shared_group(name))
    _assert_quasinormal_sections_match(lat, name)


def _draw_permutation_group(data):
    """A group on at most 6 points from 1 to 3 random generators, of order
    at most 120."""
    degree = data.draw(st.integers(1, 6), label="degree")
    gens = data.draw(st.lists(st.permutations(list(range(degree))),
                              min_size=1, max_size=3), label="generators")
    try:
        return group_from_permutations(degree, gens, max_order_cap=120)
    except ClosureExceedsCap:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quasinormal_sections_match_on_random_permutation_groups(data):
    G = _draw_permutation_group(data)
    _assert_quasinormal_sections_match(enumerate_lattice(G), G.name)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_orbit_answers_match_on_random_permutation_groups(data):
    G = _draw_permutation_group(data)
    _assert_orbit_answers_match(enumerate_lattice(G), G.name)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_modular_sections_match_on_random_permutation_groups(data):
    """The interval count carries both of Kurosh's conditions, so its
    column must equal the literal one on every subgroup section [1, B]
    and quotient section [N, G] of groups beyond the fixed catalog."""
    G = _draw_permutation_group(data)
    lat = enumerate_lattice(G)
    top = lat.top()
    sections = [(0, b) for b in range(lat.size)]
    sections += [(n, top) for n in lat.normal_indices() if n]
    for lo, hi in sections:
        assert lat.column("modular", (lo, hi)) == column_by_members(
            lat, "modular", lo, hi), (G.name, lo, hi)


def test_one_modularity_test_per_class(monkeypatch):
    """S4's modular column runs Kurosh's conditions on one representative
    of each of its 11 classes, not on each of its 30 subgroups; a subgroup
    section [1, D8] runs them on each of its 10 members."""
    G = catalog.construct("S4")
    lat = enumerate_lattice(G)
    calls = []
    real = lattice_module._kurosh
    monkeypatch.setattr(lattice_module, "_kurosh",
                        lambda *args: calls.append(args[2]) or real(*args))
    assert lat.modular == column_by_members(lat, "modular", 0, lat.top())
    assert (lat.size, len(set(lat.class_of)), len(calls)) == (30, 11, 11)
    calls.clear()
    d8 = next(i for i, s in enumerate(lat.subgroups) if s.order == 8)
    lat.column("modular", (0, d8))
    assert len(calls) == lat.down[d8].bit_count() == 10


def test_one_modularity_test_per_orbit(monkeypatch):
    """E2^5's 374 subgroups are 374 conjugacy classes but 6 orbits, one per
    order, so its modular column runs Kurosh's conditions 6 times."""
    lat = enumerate_lattice(catalog.construct("E2^5"))
    calls = []
    real = lattice_module._kurosh
    monkeypatch.setattr(lattice_module, "_kurosh",
                        lambda *args: calls.append(args[2]) or real(*args))
    assert lat.modular == (1 << lat.size) - 1
    assert (lat.size, len(set(lat.class_of)), len(set(lat.orbit_of))) == (374, 374, 6)
    assert len(calls) == 6


def test_e2_6_ground_truth():
    """E2^6 has sum_j [6 choose j]_2 = 2,825 subgroups, in 7 orbits (one per
    order: GL(6, 2) is transitive on the subspaces of each dimension), and
    in an abelian group every subgroup is normal, modular, quasinormal and
    S-quasinormal."""
    lat = enumerate_lattice(catalog.construct("E2^6"))
    counts = [sum(1 for s in lat.subgroups if s.order == 2 ** j) for j in range(7)]
    assert counts == [1, 63, 651, 1395, 651, 63, 1]
    assert (lat.size, len(set(lat.orbit_of))) == (2825, 7)
    every = (1 << lat.size) - 1
    assert (lat.normal, lat.modular, lat.quasinormal, lat.s_quasinormal) == (every,) * 4
