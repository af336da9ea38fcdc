"""The modular column on lattices that no group in reach gives.

Kurosh's conditions (i) and (ii) use only joins, meets and order, so
``Lattice`` decides them from the up-sets of any finite lattice, with no
group.  The lattices here are the partition lattices Pi_4 (15 elements)
and Pi_5 (52), under refinement, the pentagon N_5 and the diamond M_3.
On every section [lo, hi] the column is compared with the literal
quantifier loops of ``oracles.kurosh_i`` and ``kurosh_ii``, run on join
and meet tables built whole from the up-sets.

Condition (i) alone is Stanley's modularity of an element of a geometric
lattice; in Pi_n it holds exactly on the partitions with at most one block
of more than one point (R. Stanley, "Modular elements of geometric
lattices", *Algebra Universalis*, 1971): 1 + 6 + 4 + 1 = 12 of Pi_4's and
1 + 10 + 10 + 5 + 1 = 27 of Pi_5's.  Condition (ii) cuts them to 6 and 7.
In N_5, a satisfies (i) but not (ii) (a v (c ^ b) = a, (a v c) ^ b = b),
and c fails (i) at a <= b; b, 0 and 1 are modular.

``frattini`` and ``witness_chain`` read only the order too, and are
checked on the same lattices against the meet table built whole.
"""

import pytest

from modmax.groups import Group, SubgroupSet, bits
from modmax.lattice import Lattice
from oracles import join_meet_tables, kurosh_i, kurosh_ii


def partition_lattice(n: int) -> list[int]:
    """Up-sets of Pi_n, the set partitions of n points under refinement,
    indexed by descending block count (the finest partition first).  A
    partition is its restricted growth string: point x is in block s[x]."""
    strings = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    strings.sort(key=lambda s: (-max(s), s))

    def refines(p, q):
        return all(q[x] == q[y] for x in range(n) for y in range(x) if p[x] == p[y])

    return [sum(1 << j for j, q in enumerate(strings) if refines(p, q))
            for p in strings]


# 0 < a < b < 1 and 0 < c < 1, indexed 0, a, c, b, 1
PENTAGON = [0b11111, 0b11010, 0b10100, 0b11000, 0b10000]
# 0 < a, b, c < 1
DIAMOND = [0b11111, 0b10010, 0b10100, 0b11000, 0b10000]

# name -> (up-sets, elements, modular elements, elements satisfying (i))
LATTICES = {
    "Pi_4": (partition_lattice(4), 15, 6, 12),
    "Pi_5": (partition_lattice(5), 52, 7, 27),
    "N_5": (PENTAGON, 5, 3, 4),
    "M_3": (DIAMOND, 5, 5, 5),
}


def _literal(join_t, meet_t, up, down, lo, hi):
    """The literal modular column of the section [lo, hi], and the members
    that satisfy condition (i) alone."""
    inside = up[lo] & down[hi]
    members = tuple(bits(inside))
    below = {z: tuple(bits(down[z] & inside)) for z in members}
    first = [m for m in members if kurosh_i(join_t, meet_t, m, members, below)]
    both = sum(1 << m for m in first
               if kurosh_ii(join_t, meet_t, m, members, bits(up[m] & inside)))
    return both, len(first)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_modular_column_of_every_section_is_literal_kurosh(name):
    up, size, modular, first = LATTICES[name]
    lat = Lattice(up)
    assert lat.size == size
    join_t, meet_t = join_meet_tables(lat)
    for lo in range(size):
        for hi in bits(lat.up[lo]):
            literal, _ = _literal(join_t, meet_t, lat.up, lat.down, lo, hi)
            assert lat.column("modular", (lo, hi)) == literal, (name, lo, hi)
    literal, first_count = _literal(join_t, meet_t, lat.up, lat.down, 0, size - 1)
    assert (lat.modular.bit_count(), first_count) == (modular, first)
    assert all(lat.is_modular(i) == bool(lat.modular >> i & 1) for i in range(size))


def test_partition_lattice_layers():
    """Pi_n is graded by block count: its n-maximal layer is the partitions
    into n + 1 blocks, as many as the Stirling numbers S(5, k)."""
    lat = Lattice(partition_lattice(5))
    assert lat.max_chain_length == 4
    assert [layer.bit_count() for layer in lat.layers] == [1, 15, 25, 10, 1]
    assert lat.interval_sizes()[0][lat.top()] == 52


def _values(obj):
    if isinstance(obj, (tuple, list, dict)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for _, v in items:
            yield from _values(v)
    yield obj


def test_a_lattice_holds_no_group():
    """Nothing a ``Lattice`` keeps, its answers memoised included, is a
    group or a subgroup."""
    lat = Lattice(partition_lattice(4))
    lat.column("modular", (1, lat.top()))
    assert lat.modular and lat.interval_sizes()
    kept = [v for attr in vars(lat).values() for v in _values(attr)]
    assert not any(isinstance(v, (Group, SubgroupSet)) for v in kept)
    with pytest.raises(KeyError, match="no 'quasinormal' column"):
        lat.column("quasinormal")
    with pytest.raises(KeyError, match="not an element of this lattice"):
        lat.index(lat.size)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_frattini_and_witness_chains_need_no_group(name):
    """frattini(k) is the meet, read in the table built whole, of the
    maximal elements above k (the top when there is none), and each
    n-maximal element's witness chain climbs n covers to the top."""
    lat = Lattice(LATTICES[name][0])
    _, meet_t = join_meet_tables(lat)
    top = lat.top()
    for k in range(lat.size):
        meet = top
        for m in bits(lat.up[k] & lat.layers[1]):
            meet = meet_t[meet][m]
        assert lat.frattini(k) == meet, (name, k)
    for n in range(1, len(lat.layers)):
        for i in bits(lat.layers[n]):
            chain = lat.witness_chain(i, n)
            assert len(chain) == n + 1 and (chain[0], chain[-1]) == (top, i)
            assert all(c in lat.covers_down[p] for p, c in zip(chain, chain[1:]))
