"""Independent oracles for the lattice builder and its tables.

The oracles below deliberately avoid the production path (cyclic extension
by Dimino coset closure, tables read off inclusion bitsets, permutability
decided by counting): one walks the full power set, another runs a
depth-first search over multiplication-closed sets using a fixpoint product
scan, and the table and permutability oracles apply the definitions
literally (join = closure of the union, meet = intersection, covers = the
maximal proper members, normal = fixed by every conjugation, HP = PH as
sets).  Expected counts asserted here were frozen from the oracles.
"""

import pytest

from modmax import catalog
from modmax.groups import conjugate_mask, product_mask
from modmax.lattice import lattice_of


def _is_closed(table, subset):
    return all(table[a][b] in subset for a in subset for b in subset)


def oracle_subgroups_powerset(G):
    """Every multiplication-closed subset containing the identity.

    Walks all 2^(n-1) candidate subsets; only usable for small orders.
    """
    n = G.order
    rest = list(range(1, n))
    subgroups = set()
    for bits in range(1 << (n - 1)):
        subset = {0}
        for i, x in enumerate(rest):
            if (bits >> i) & 1:
                subset.add(x)
        if _is_closed(G.table, subset):
            subgroups.add(frozenset(subset))
    return subgroups


def _fixpoint_closure(table, seed):
    """Closure by repeated whole-set product scans (not the production code)."""
    current = frozenset(seed) | {0}
    while True:
        grown = set(current)
        for a in current:
            for b in current:
                grown.add(table[a][b])
        grown = frozenset(grown)
        if grown == current:
            return current
        current = grown


def oracle_subgroups_dfs(G):
    """Depth-first search over closed sets, extending by one element."""
    table = G.table
    start = frozenset({0})
    found = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        for g in range(1, G.order):
            if g in current:
                continue
            nxt = _fixpoint_closure(table, current | {g})
            if nxt not in found:
                found.add(nxt)
                stack.append(nxt)
    return found


def _lattice_membersets(G):
    return {frozenset(s.members()) for s in lattice_of(G).subgroups}


SMALL = ["1", "C2", "C4", "C6", "V4", "S3", "D8", "Q8", "E9", "C12", "E2^3"]
MEDIUM = ["C3:C4", "A4", "pq2_2_3", "S4", "SL23", "A4xC2"]
# Up to order 48 and 374 subgroups.  A5 is perfect: a builder that extends a
# subgroup only inside its normaliser never reaches it.  S5 is left out
# because the DFS oracle takes about 8 s there.
LARGE = ["hol_C7", "E2^4", "C2xC2xS3", "S4xC2", "A5", "E2^3xS3", "E2^5"]


@pytest.mark.parametrize("name", SMALL)
def test_powerset_oracle_agrees(name):
    G = catalog.shared_group(name)
    assert _lattice_membersets(G) == oracle_subgroups_powerset(G)


@pytest.mark.parametrize("name", SMALL + MEDIUM + LARGE)
def test_dfs_oracle_agrees(name):
    G = catalog.shared_group(name)
    assert _lattice_membersets(G) == oracle_subgroups_dfs(G)


@pytest.mark.parametrize("name", LARGE)
def test_tables_agree_with_definitions(name):
    G = catalog.shared_group(name)
    lat = lattice_of(G)
    sets = [frozenset(s.members()) for s in lat.subgroups]
    index = {m: i for i, m in enumerate(sets)}
    closures = {}
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            union = a | b
            if union not in closures:
                closures[union] = index[_fixpoint_closure(G.table, union)]
            assert lat.join_t[i][j] == closures[union]
            assert lat.meet_t[i][j] == index[a & b]
    for j, b in enumerate(sets):
        proper = [i for i, a in enumerate(sets) if a < b]
        maximal = [i for i in proper
                   if not any(sets[i] < sets[k] for k in proper)]
        assert lat.covers_down[j] == tuple(maximal)
        mask = lat.subgroups[j].mask
        assert lat.normal[j] == all(
            conjugate_mask(G, g, mask) == mask for g in range(G.order))


def _permutes_literally(G, a_mask, b_mask):
    """HP = PH compared as sets of products."""
    return product_mask(G, a_mask, b_mask) == product_mask(G, b_mask, a_mask)


@pytest.mark.parametrize("name", [e.name for e in catalog.standard_suite()]
                         + ["A5", "S4xC2", "E2^3xS3"])
def test_permutability_agrees_with_literal_products(name):
    G = catalog.shared_group(name)
    lat = lattice_of(G)
    masks = [s.mask for s in lat.subgroups]
    sylows = [masks[i] for i in lat.sylow_member_indices()]
    for i, h in enumerate(masks):
        assert lat.is_quasinormal(i) == all(
            _permutes_literally(G, h, p) for p in masks)
        assert lat.is_s_quasinormal(i) == all(
            _permutes_literally(G, h, p) for p in sylows)


def test_oracles_agree_with_each_other():
    for name in SMALL:
        G = catalog.shared_group(name)
        assert oracle_subgroups_powerset(G) == oracle_subgroups_dfs(G)


# spot counts, frozen from the oracles
EXPECTED_COUNTS = {
    "1": 1,
    "C2": 2,       # prime order: trivial and whole
    "C4": 3,
    "C6": 4,
    "V4": 5,
    "S3": 6,
    "Q8": 6,       # trivial, centre, three of order 4, whole
    "D8": 10,
    "A4": 10,
    "C3:C4": 8,
    "S4": 30,
    "SL23": 15,
    "A4xC2": 26,
    "pq2_2_3": 28,
    "E2^3": 16,    # subspace count of a rank-3 binary space
}


@pytest.mark.parametrize("name,count", sorted(EXPECTED_COUNTS.items()))
def test_subgroup_counts(name, count):
    G = catalog.shared_group(name)
    assert len(lattice_of(G)) == count


def test_prime_order_has_two_subgroups():
    for p in (2, 3, 5, 7, 13):
        G = catalog.construct(f"C{p}")
        assert len(lattice_of(G)) == 2
