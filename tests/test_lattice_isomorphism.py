"""Lattice-isomorphic groups get the same lattice answers.

Whether every n-maximal subgroup is modular depends on the subgroup
lattice L(G) alone: a lattice isomorphism L(G) -> L(H) maps maximal chains
to maximal chains and, as Kurosh's conditions use only joins, meets and
order, modular elements to modular elements.  Normality needs G.  The
groups lattice-isomorphic to an elementary abelian group of rank at least
2 are itself and the P-groups A x| <t>, t of prime order acting on the
elementary abelian A as a non-trivial power map (R. Schmidt, *Subgroup
Lattices of Groups*, 1994, section 2.2), which the catalog builds as
``pgroup_p^k:q:m``.  Cyclic groups whose orders have the same exponent
pattern have isomorphic lattices, and so do the direct products of one
group with cyclic groups of prime orders coprime to it.

``oracles.lattice_isomorphism`` finds the map from the order alone; each
pair is then compared through it.
"""

import pytest

from modmax.groups import bits
from modmax.lattice import lattice_of
from oracles import cached_group, lattice_isomorphism

# (group, lattice-isomorphic group, modular subgroups, normal subgroups of each)
PAIRS = [
    ("E9", "S3", 6, (6, 3)),
    ("E7^2", "pgroup_7^1:2:6", 10, (10, 3)),
    ("E3^3", "pgroup_3^2:2:2", 28, (28, 7)),
    ("C12", "C18", 6, (6, 6)),
    ("S4xC5", "S4xC7", 14, (8, 8)),
]


def _image(phi, mask: int) -> int:
    return sum(1 << phi[i] for i in bits(mask))


@pytest.mark.parametrize("a,b,modular,normal", PAIRS, ids=[p[0] for p in PAIRS])
def test_lattice_isomorphism_carries_the_lattice_answers(a, b, modular, normal):
    """The map carries the modular column, every n-maximal layer, the
    longest chain and every interval size; the normal columns are counted
    on each side, and differ on the P-group pairs."""
    A, B = lattice_of(cached_group(a)), lattice_of(cached_group(b))
    phi = lattice_isomorphism(A, B)
    assert phi is not None and sorted(phi) == list(range(A.size))
    for i in range(A.size):
        assert _image(phi, A.up[i]) == B.up[phi[i]], (a, b, i)
    assert _image(phi, A.modular) == B.modular
    assert A.modular.bit_count() == modular
    assert A.max_chain_length == B.max_chain_length
    assert [_image(phi, layer) for layer in A.layers] == list(B.layers)
    sizes_a, sizes_b = A.interval_sizes(), B.interval_sizes()
    for lo in range(A.size):
        assert {phi[hi]: k for hi, k in sizes_a[lo].items()} == sizes_b[phi[lo]]
    assert (A.normal.bit_count(), B.normal.bit_count()) == normal


def test_equal_sizes_without_a_lattice_isomorphism():
    """D8 and E2^2xC3 have 10 subgroups each, but their n-maximal layers
    hold 1, 3, 5, 1 and 1, 4, 4, 1 subgroups, so no isomorphism exists and
    the search finds none."""
    A, B = (lattice_of(cached_group(name)) for name in ("D8", "E2^2xC3"))
    assert A.size == B.size == 10
    assert [layer.bit_count() for layer in A.layers] == [1, 3, 5, 1]
    assert [layer.bit_count() for layer in B.layers] == [1, 4, 4, 1]
    assert lattice_isomorphism(A, B) is None
    assert lattice_isomorphism(A, A) == tuple(range(A.size))
