"""Answers read once per conjugacy class against per-member evaluation.

The lattice records each subgroup's conjugacy class as the enumeration
finds it, evaluates the predicate columns of the whole lattice and of every
quotient section [N, G] on one representative per class, and memoises
subnormality per class.  The oracles in ``oracles.py`` evaluate every
member on its own: the columns with the same quantifier loops, subnormality
by joining the conjugates of H by every member of each term.
"""

import pytest

from modmax import catalog
from modmax import lattice as lattice_module
from modmax.groups import bits, conjugate_mask
from modmax.lattice import enumerate_lattice, lattice_of
from oracles import column_by_members, subnormal_by_members

SUITE = [e.name for e in catalog.standard_suite()]
GROUPS = SUITE + ["S4xC2", "A5", "S5", "hol_C13", "pq2_3_11"]
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
