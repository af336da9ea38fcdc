"""Lattice structure and embedding predicates."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from modmax import catalog
from modmax import lattice as lattice_module
from modmax.groups import SubgroupSet, bits, quotient, whole_group
from modmax.lattice import (
    BadDepth, TooManySubgroups, enumerate_lattice, lattice_of)
from modmax.verify import run_suite
from oracles import cached_group, close_mask, join_meet_tables, modular_alt

SUITE = [e.name for e in catalog.standard_suite()]


def _of_order(lat, k):
    return [i for i in range(lat.size) if lat.subgroups[i].order == k]


def test_lattice_contains_bounds(suite_groups):
    for G in suite_groups.values():
        lat = lattice_of(G)
        assert lat.subgroups[0].order == 1
        assert lat.subgroups[-1].order == G.order


def test_maximal_subgroups_examples(suite_groups):
    def orders(lat):
        return sorted(lat.subgroups[i].order for i in lat.covers_down[lat.top()])

    assert orders(lattice_of(suite_groups["A4"])) == [3, 3, 3, 3, 4]
    assert orders(lattice_of(suite_groups["S3"])) == [2, 2, 2, 3]
    assert orders(lattice_of(catalog.construct("C7"))) == [1]


def test_n_maximal_examples(suite_groups):
    a4 = lattice_of(suite_groups["A4"])
    assert [a4.subgroups[i].order for i in a4.n_maximal_indices(3)] == [1]
    s3 = lattice_of(suite_groups["S3"])
    assert [s3.subgroups[i].order for i in s3.n_maximal_indices(2)] == [1]
    # depth 1 always equals the maximal subgroups
    for G in suite_groups.values():
        lat = lattice_of(G)
        assert lat.n_maximal_indices(1) == tuple(lat.covers_down[lat.top()])


def test_n_maximal_rejects_bad_depth(suite_groups):
    lat = lattice_of(suite_groups["S3"])
    with pytest.raises(BadDepth):
        lat.n_maximal_indices(0)
    with pytest.raises(BadDepth):
        lat.is_n_maximal(0, -1)


def test_depth_beyond_chain_length_is_empty(suite_groups):
    lat = lattice_of(suite_groups["S3"])
    assert lat.n_maximal_indices(lat.max_chain_length + 1) == ()


def test_existential_reading_allows_several_depths(suite_groups):
    # in A4 the trivial subgroup closes chains of length 2 (via C3) and 3
    lat = lattice_of(suite_groups["A4"])
    assert lat.is_n_maximal(0, 2)
    assert lat.is_n_maximal(0, 3)


def test_modularity_of_normals(suite_groups):
    for G in suite_groups.values():
        lat = lattice_of(G)
        for i in lat.normal_indices():
            assert lat.is_modular(i), f"normal subgroup not modular in {G.name}"


def test_modularity_examples(suite_groups):
    s3 = lattice_of(suite_groups["S3"])
    for i in _of_order(s3, 2):
        assert s3.is_modular(i)  # non-abelian power-split group: all modular
    a4 = lattice_of(suite_groups["A4"])
    for i in _of_order(a4, 2) + _of_order(a4, 3):
        assert not a4.is_modular(i)


def test_modularity_loop_orders_agree(suite_groups):
    for G in suite_groups.values():
        lat = lattice_of(G)
        for i in range(lat.size):
            assert lat.is_modular(i) == modular_alt(lat, i), \
                f"loop orders disagree on subgroup {i} of {G.name}"


def test_one_member_sections_are_modular(suite_groups):
    """A section [b, b] has the one member b, modular in it, and so has the
    trivial group's lattice; one member is where a gather by position
    returns a bare value instead of a tuple."""
    for G in suite_groups.values():
        lat = lattice_of(G)
        for b in range(lat.size):
            assert lat.column("modular", (b, b)) == 1 << b, (G.name, b)
    assert lattice_of(suite_groups["1"]).modular == 1


@pytest.mark.parametrize("name", [*SUITE, "S5", "SL23xS3"])
def test_witness_chains_climb_covers_from_the_top(name):
    """Every n-maximal i has a chain of n covers from the top down to i,
    as a tuple of n + 1 indices."""
    lat = lattice_of(cached_group(name))
    for n in range(1, len(lat.layers)):
        for i in bits(lat.layers[n]):
            chain = lat.witness_chain(i, n)
            assert type(chain) is tuple and len(chain) == n + 1
            assert chain[0] == lat.top() and chain[-1] == i
            for parent, child in zip(chain, chain[1:]):
                assert child in lat.covers_down[parent], (name, i, n, chain)


def test_witness_chains(suite_groups):
    a4 = lattice_of(suite_groups["A4"])
    chain = a4.witness_chain(0, 3)
    assert tuple(a4.subgroups[i].order for i in chain) == (12, 4, 2, 1)
    assert a4.witness_chain(a4.subgroups[0], 3) == chain
    # 1 is covered by S3's three subgroups of order 2 and by C3, all
    # maximal: the chain climbs through the least index, of order 2
    s3 = lattice_of(suite_groups["S3"])
    assert tuple(s3.subgroups[i].order for i in s3.witness_chain(0, 2)) == (6, 2, 1)
    with pytest.raises(BadDepth):
        s3.witness_chain(0, 3)  # only 2-maximal


def test_subgroup_sets_are_read_only_values(suite_groups):
    """Assignment and deletion raise, equality and hashing go by the
    fields, and copies and pickles round-trip."""
    G = suite_groups["S3"]
    H = lattice_of(G).subgroups[1]
    with pytest.raises(AttributeError, match="mask"):
        H.mask = None
    with pytest.raises(AttributeError, match="mask"):
        del H.mask
    again = SubgroupSet(G, H.mask)
    assert again == H and hash(again) == hash(H) and again is not H
    assert SubgroupSet(catalog.construct("S3"), H.mask) != H  # another parent
    assert copy.copy(H) == H
    unpickled = pickle.loads(pickle.dumps(H))
    assert (unpickled.parent.table, unpickled.mask) == (G.table, H.mask)


def test_modular_sets_pinned(suite_groups):
    """Groups where the full modular set is known: D8 and hol_C13 have
    modular = normal exactly; in S4 the three Sylow 2-subgroups join the
    normals (their core is the normal 2^2, and the section above it lives
    in an all-modular quotient)."""
    for name in ("D8", "hol_C13"):
        lat = lattice_of(suite_groups[name])
        assert {i for i in range(lat.size) if lat.is_modular(i)} ==             set(lat.normal_indices())
    lat = lattice_of(suite_groups["S4"])
    modular = {i for i in range(lat.size) if lat.is_modular(i)}
    sylow2 = {i for i in range(lat.size) if lat.subgroups[i].order == 8}
    assert modular == set(lat.normal_indices()) | sylow2
    assert len(sylow2) == 3


def test_quasinormal_examples(suite_groups):
    s3 = lattice_of(suite_groups["S3"])
    for i in _of_order(s3, 2):
        assert not s3.is_s_quasinormal(i)
        assert not s3.is_quasinormal(i)
    q8 = lattice_of(suite_groups["Q8"])
    for i in range(q8.size):
        assert q8.is_quasinormal(i)  # all subgroups normal


def test_normal_implies_quasinormal_and_s_quasinormal(suite_groups):
    for G in suite_groups.values():
        lat = lattice_of(G)
        for i in lat.normal_indices():
            assert lat.is_quasinormal(i)
            assert lat.is_s_quasinormal(i)


def test_quasinormal_implies_s_quasinormal(suite_groups):
    for G in suite_groups.values():
        lat = lattice_of(G)
        for i in range(lat.size):
            if lat.is_quasinormal(i):
                assert lat.is_s_quasinormal(i)


def test_subnormality(suite_groups):
    s3 = lattice_of(suite_groups["S3"])
    for i in _of_order(s3, 2):
        assert not s3.is_subnormal(i)
    for G in (suite_groups["Q8"], suite_groups["D8"]):
        lat = lattice_of(G)
        for i in range(lat.size):
            assert lat.is_subnormal(i)  # nilpotent: every subgroup subnormal
    for G in suite_groups.values():
        lat = lattice_of(G)
        for i in lat.normal_indices():
            assert lat.is_subnormal(i)


def test_subnormal_column_is_answered_on_the_whole_lattice_only(suite_groups):
    """``is_subnormal`` reads the "subnormal" column of the whole lattice;
    a subgroup or quotient section has no such column."""
    lat = lattice_of(suite_groups["S4"])
    column = lat.column("subnormal")
    assert column == sum(1 << i for i in range(lat.size) if lat.is_subnormal(i))
    assert column & lat.normal == lat.normal != column  # a non-normal subnormal V4 <= A4
    top, v4 = lat.top(), lat.normal_indices()[1]
    for section in ((0, lat.covers_down[top][0]), (v4, top)):
        with pytest.raises(KeyError, match="subnormal"):
            lat.column("subnormal", section)


def test_index_refuses_a_subgroup_set_of_another_group(suite_groups):
    """A ``SubgroupSet`` is read only by the lattice of its own group, not
    by its mask in another: C6's subgroups of order 2 and 3 have masks of
    S3's subgroups, and an S3 built again is another group."""
    s3 = suite_groups["S3"]
    lat = lattice_of(s3)
    foreign = [s for s in lattice_of(catalog.construct("C6")).subgroups
               if s.order in (2, 3)]
    foreign.append(SubgroupSet(catalog.construct("S3"), lat.subgroups[1].mask))
    for H in foreign:
        assert H.mask in lat.index_of
        for read in (lat.index, lat.is_normal, lat.is_subnormal, lat.is_modular):
            with pytest.raises(KeyError):
                read(H)
    assert lat.index(lat.subgroups[1]) == 1


def test_frattini_examples(suite_groups):
    """frattini answers with an index: 1 in S3, the subgroup of order 2 in
    C4, and the centre in Q8."""
    assert lattice_of(suite_groups["S3"]).frattini() == 0
    c4 = lattice_of(catalog.construct("C4"))
    assert c4.subgroups[c4.frattini()].order == 2
    lat = lattice_of(suite_groups["Q8"])
    phi = lat.frattini()
    assert type(phi) is int and lat.subgroups[phi].order == 2
    assert phi == lat.centralizer(lat.top())  # the centre
    assert lat.frattini(lat.top()) == lat.top()  # no maximal subgroup above G
    for bad in (-1, lat.size):
        with pytest.raises(KeyError):
            lat.frattini(bad)


@pytest.mark.parametrize("name", ["C12", "D8", "Q8", "A4", "S4", "A4xC2", "pq2_2_3"])
def test_frattini_above_k_is_the_preimage_of_the_quotients(name):
    """frattini(K), the meet of the maximal subgroups containing K, is the
    preimage of Frattini(G/K) for every normal K, read through the rebuilt
    quotient; frattini() is K = 1."""
    G = cached_group(name)
    lat = lattice_of(G)
    assert lat.frattini() == lat.frattini(0) == lat.frattini(lat.subgroups[0])
    for k in lat.normal_indices():
        Q, proj = quotient(G, lat.subgroups[k])
        lat_q = lattice_of(Q)
        phi = lat_q.subgroups[lat_q.frattini()].mask
        preimage = sum(1 << x for x in range(G.order) if phi >> proj[x] & 1)
        assert lat.subgroups[lat.frattini(k)].mask == preimage


def test_covers_are_transitive_reduction(suite_groups):
    for name in ("S3", "A4", "D8", "SL23"):
        lat = lattice_of(suite_groups[name])
        for j in range(lat.size):
            for i in lat.covers_down[j]:
                between = [
                    k for k in range(lat.size)
                    if k not in (i, j) and lat.up[i] >> k & lat.up[k] >> j & 1
                ]
                assert not between


def test_join_meet_tables(suite_groups):
    for name in ("S3", "A4", "Q8", "C3:C4"):
        G = suite_groups[name]
        lat = lattice_of(G)
        for a in range(lat.size):
            for b in range(lat.size):
                meet = lat.subgroups[lat.meet_t[a][b]]
                join = lat.subgroups[lat.join_t[a][b]]
                assert meet.mask == lat.subgroups[a].mask & lat.subgroups[b].mask
                regen = close_mask(G.table, lat.subgroups[a].members()
                                   + lat.subgroups[b].members(), G.order)
                assert join.mask == regen


def test_join_meet_entries_share_one_int_per_index():
    """Past index 256 a computed int is a new object; the tables draw every
    entry from one tuple of the indices instead (join with the trivial
    subgroup and meet with the whole group are the identity maps)."""
    lat = lattice_of(cached_group("E2^5"))
    assert lat.size > 256
    join_row, meet_row = lat.join_t[0], lat.meet_t[lat.top()]
    assert all(e is join_row[e] for row in lat.join_t for e in row)
    assert all(e is meet_row[e] for row in lat.meet_t for e in row)


def _built(table):
    """The indices of the rows a table has built so far."""
    return sorted(dict.keys(table))


@pytest.mark.parametrize("name", SUITE + ["E2^5", "S5", "E2^3xS3"])
def test_rows_match_the_eager_tables(name):
    """Row by row, both tables equal the whole tables of ``oracles.py``,
    hold n tuples, and draw every entry from one int per index (the join
    with the trivial subgroup is the identity map)."""
    lat = lattice_of(cached_group(name))
    join_t, meet_t = join_meet_tables(lat)
    assert len(lat.join_t) == len(lat.meet_t) == lat.size
    assert list(lat.join_t) == list(join_t), name
    assert list(lat.meet_t) == list(meet_t), name
    ints = lat.join_t[0]
    for table in (lat.join_t, lat.meet_t):
        assert all(type(row) is tuple for row in table)
        assert all(e is ints[e] for row in table for e in row), name
    with pytest.raises(IndexError):
        lat.join_t[lat.size]


def test_rows_are_built_on_first_read():
    """S5's modular column tests one representative of each of its 19
    classes, so it builds their join and meet rows and none of the other
    137; a row read again is the same object."""
    lat = enumerate_lattice(catalog.construct("S5"))
    assert _built(lat.join_t) == _built(lat.meet_t) == []
    lat.modular
    reps = sorted({(c & -c).bit_length() - 1 for c in lat.class_of})
    assert (lat.size, len(reps)) == (156, 19)
    assert _built(lat.join_t) == _built(lat.meet_t) == reps
    assert lat.join_t[reps[1]] is lat.join_t[reps[1]]


def test_suite_builds_no_rows_of_derived_lattices(monkeypatch):
    """``run_suite("all", "all")`` builds 55 lattices: the 18 groups' own
    and 37 of quotients and subgroups (Prop2.9 quotients, one per orbit of
    normal subgroups; residual self-checks).  Those 37 are asked for normal
    subgroups and covers only, so none of their join or meet rows is built:
    264 rows per table of the 363 that the 55 lattices could build, all in
    the 18 groups' own."""
    lattices = []

    class Recorded(lattice_module.SubgroupLattice):
        def __init__(self, *args):
            super().__init__(*args)
            lattices.append(self)

    monkeypatch.setattr(lattice_module, "SubgroupLattice", Recorded)
    run_suite("all", "all")
    own = set(catalog.suite_names())
    derived = [lat for lat in lattices if lat.group.name not in own]
    assert (len(lattices), len(derived)) == (55, 37)
    assert not any(_built(lat.join_t) or _built(lat.meet_t) for lat in derived)
    assert sum(lat.size for lat in lattices) == 363
    for table in ("join_t", "meet_t"):
        rows = sum(len(_built(getattr(lat, table))) for lat in lattices)
        assert rows == 264, table


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_lattice_closure_property(data):
    name = data.draw(st.sampled_from(["S4", "SL23", "A4xC2", "pq2_2_3", "hol_C7"]))
    G = cached_group(name)
    lat = lattice_of(G)
    a = data.draw(st.integers(0, lat.size - 1))
    b = data.draw(st.integers(0, lat.size - 1))
    # join and meet land inside the lattice and bound their arguments
    j, m = lat.join_t[a][b], lat.meet_t[a][b]
    up = lat.up
    assert up[m] >> a & up[m] >> b & 1
    assert up[a] >> j & up[b] >> j & 1
    # least upper bound / greatest lower bound
    for c in range(lat.size):
        if up[a] >> c & up[b] >> c & 1:
            assert up[j] >> c & 1
        if up[c] >> a & up[c] >> b & 1:
            assert up[c] >> m & 1


def test_trivial_and_whole_always_modular(suite_groups):
    for G in suite_groups.values():
        lat = lattice_of(G)
        assert lat.is_modular(0)
        assert lat.is_modular(lat.top())


def test_dot_export_is_deterministic_and_complete(suite_groups):
    q8 = suite_groups["Q8"]
    lat = lattice_of(q8)
    dot1 = lat.to_dot()
    dot2 = lattice_of(q8).to_dot()
    assert dot1 == dot2
    assert dot1.count("label=") == 6
    assert 'label="8:5"' in dot1
    # every cover pair appears as one edge
    edges = sum(len(v) for v in lat.covers_up)
    assert dot1.count("->") == edges


def test_whole_group_helper(suite_groups):
    g = suite_groups["S3"]
    lat = lattice_of(g)
    assert lat.index(whole_group(g)) == lat.top()


def test_subgroup_limit_is_checked_before_any_table(monkeypatch):
    """S5 has 156 subgroups: a limit of 156 admits it, 155 stops the
    enumeration before the lattice (and its tables) is constructed."""
    G = catalog.construct("S5")
    monkeypatch.setattr(lattice_module, "MAX_SUBGROUPS", 156)
    assert len(enumerate_lattice(G)) == 156
    monkeypatch.setattr(lattice_module, "MAX_SUBGROUPS", 155)
    monkeypatch.setattr(lattice_module, "SubgroupLattice", None)
    with pytest.raises(TooManySubgroups, match="more than 155 subgroups"):
        enumerate_lattice(G)


def test_analysed_group_pickles_without_its_cache():
    """A group whose lattice is built holds closures in its cache, which do
    not pickle; the group pickles as its table, inverse and generators, and
    the copy analyses again to the same lattice."""
    G = catalog.construct("S4")
    lat = lattice_of(G)
    copy = pickle.loads(pickle.dumps(G))
    assert (copy.name, copy.table, copy.inverse, copy.generator_indices) == \
        (G.name, G.table, G.inverse, G.generator_indices)
    assert copy._cache == {}
    assert lattice_of(copy).size == lat.size == 30
