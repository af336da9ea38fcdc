"""Independent oracles for the lattice builder and its tables.

The oracles below deliberately avoid the production path (cyclic extension
of one subgroup per automorphism orbit by Dimino coset closure, tables read off
inclusion bitsets, permutability decided by counting): one walks the full
power set, another runs a depth-first search over multiplication-closed sets
using a fixpoint product scan, and the table and permutability oracles apply
the definitions literally (join = closure of the union, meet =
intersection, covers = the maximal proper members, normal = fixed by every
conjugation, HP = PH as sets, modular = both Kurosh conditions over every
pair of a section, interval sizes = the subgroups counted between the two
ends, primary cyclic subgroups = the powers of each element of prime-power
order).  The literal cyclic extension oracle extends every
subgroup found by every prime-power cyclic generator, with no orbits,
classes or prime-index skip; it reaches the orders the DFS cannot.
Expected counts asserted here were frozen from the oracles, except the
closed-form counts of C_n, D_2n, E_p^k and C_m x C_n, computed from the
parameters.
"""

import math
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from modmax import catalog
from modmax import lattice as lattice_module
from modmax.groups import (
    ClosureExceedsCap,
    _closure,
    bits,
    conjugate_mask,
    factorize,
    group_from_permutations,
)
from modmax.lattice import (
    TooManySubgroups,
    enumerate_lattice,
    lattice_of,
    primary_cyclic,
)
from oracles import column_by_members, kurosh_i, kurosh_ii, product_mask


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


def oracle_subgroups_cyclic_literal(G):
    """Cyclic extension of every subgroup found by every prime-power cyclic
    generator outside it: no conjugacy classes, no prime-index skip."""
    table = G.table
    orders = G.element_orders()
    cyclic: dict[int, int] = {}  # prime-power cyclic subgroup -> least generator
    for x in range(1, G.order):
        if len(factorize(orders[x])) == 1:
            m, y = 1, x
            while y:
                m |= 1 << y
                y = table[y][x]
            cyclic.setdefault(m, x)
    found = {1: ()}  # subgroup mask -> the generators it was built from
    frontier = [1]
    while frontier:
        new = []
        for h in frontier:
            gens = found[h]
            elems = tuple(bits(h))
            for x in cyclic.values():
                if (h >> x) & 1:
                    continue
                k = _closure(table, h, gens + (x,), elems)
                if k not in found:
                    found[k] = gens + (x,)
                    new.append(k)
        frontier = new
    return {frozenset(bits(m)) for m in found}


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
        assert bool(lat.normal >> j & 1) == all(
            conjugate_mask(G, g, mask) == mask for g in range(G.order))


STRUCTURE_GROUPS = [e.name for e in catalog.standard_suite()] + [
    "S4xC2", "A5", "E2^3xS3"]


@pytest.mark.parametrize("name", STRUCTURE_GROUPS)
def test_interval_sizes_count_the_interval(name):
    """sizes[a][b] is the number of subgroups k with a <= k <= b, for every
    comparable pair a <= b and no other, inclusion read off member sets."""
    lat = lattice_of(catalog.shared_group(name))
    sets = [frozenset(s.members()) for s in lat.subgroups]
    sizes = lat.interval_sizes()
    assert len(sizes) == lat.size
    for a, sa in enumerate(sets):
        above = [k for k, sk in enumerate(sets) if sa <= sk]
        assert sizes[a] == {
            b: sum(1 for k in above if sets[k] <= sets[b]) for b in above}, (
            name, a)


def _has_one_prime_divisor(n):
    return len([q for q in range(2, n + 1) if n % q == 0
                and all(q % r for r in range(2, q))]) == 1


@pytest.mark.parametrize("name", STRUCTURE_GROUPS)
def test_primary_cyclic_subgroups_are_the_powers_of_primary_elements(name):
    """The helper maps <x> = {x, x^2, ...} to its least generator, for every
    x != 1 of prime-power order; each is the least subgroup of the lattice
    containing x, and the enumeration leaves the same helper memoised."""
    G = catalog.construct(name)
    lat = enumerate_lattice(G)
    expected = {}
    for x in range(1, G.order):
        powers = {x}
        y = G.table[x][x]
        while y not in powers:
            powers.add(y)
            y = G.table[y][x]
        if _has_one_prime_divisor(len(powers)):
            expected.setdefault(sum(1 << g for g in powers), x)
    assert G._cache["primary_cyclic"] is primary_cyclic(G)
    assert primary_cyclic(G) == expected
    for mask, x in expected.items():
        least = [k for k, s in enumerate(lat.subgroups) if s.mask >> x & 1][0]
        assert lat.subgroups[least].mask == mask, (name, x)


def _permutes_literally(G, a_mask, b_mask):
    """HP = PH compared as sets of products."""
    return product_mask(G, a_mask, b_mask) == product_mask(G, b_mask, a_mask)


def _sylow_masks(order, masks):
    """The masks whose size is the full p-part of ``order`` for a prime p."""
    parts, rest, p = set(), order, 2
    while rest > 1:
        part = 1
        while rest % p == 0:
            part *= p
            rest //= p
        if part > 1:
            parts.add(part)
        p += 1
    return [m for m in masks if m.bit_count() in parts]


@pytest.mark.parametrize("name", [e.name for e in catalog.standard_suite()]
                         + ["A5", "S4xC2", "E2^3xS3"])
def test_permutability_agrees_with_literal_products(name):
    G = catalog.shared_group(name)
    lat = lattice_of(G)
    masks = [s.mask for s in lat.subgroups]
    sylows = _sylow_masks(G.order, masks)
    for i, h in enumerate(masks):
        assert lat.is_quasinormal(i) == all(
            _permutes_literally(G, h, p) for p in masks)
        assert lat.is_s_quasinormal(i) == all(
            _permutes_literally(G, h, p) for p in sylows)


@pytest.mark.parametrize("name", LARGE + ["S5", "hol_C13", "pq2_3_11"])
def test_class_enumeration_agrees_with_literal_cyclic_extension(name):
    G = catalog.shared_group(name)
    assert _lattice_membersets(G) == oracle_subgroups_cyclic_literal(G)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_class_enumeration_agrees_on_random_permutation_groups(data):
    """Groups on at most 6 points from 1 to 3 random generators, of order at
    most 120."""
    degree = data.draw(st.integers(1, 6), label="degree")
    gens = data.draw(st.lists(st.permutations(list(range(degree))),
                              min_size=1, max_size=3), label="generators")
    try:
        G = group_from_permutations(degree, gens, max_order_cap=120)
    except ClosureExceedsCap:
        assume(False)
    assert _lattice_membersets(G) == oracle_subgroups_cyclic_literal(G)


@pytest.mark.parametrize("name, most", [
    ("hol_C13", 400), ("E2^5", 3000), ("E2^6", 300), ("E3^5", 400)])
def test_enumeration_extends_one_subgroup_per_class(monkeypatch, name, most):
    """Extending every subgroup found, as the literal oracle does, takes
    2,640 calls on hol_C13 and 9,517 on E2^5; extending one subgroup per
    conjugacy class takes 23,562 on E2^6 and 25,652 on E3^5, where every
    class is one subgroup but the automorphisms found make one orbit per
    order.  The primary cyclic subgroups are listed before counting, so
    only the extensions are counted."""
    G = catalog.construct(name)
    primary_cyclic(G)
    calls = []

    def counting(*args):
        calls.append(1)
        return _closure(*args)

    monkeypatch.setattr(lattice_module, "_closure", counting)
    enumerate_lattice(G)
    assert 0 < len(calls) < most


def test_a_huge_orbit_stops_at_the_limit():
    """E2^11's 2,047 subgroups of order 2 form one orbit and its 698,027 of
    order 4 another; the limit is checked as each class joins an orbit, so
    the enumeration stops at the 4,097th subgroup, not after the orbit."""
    G = catalog.construct("E2^11", max_order_cap=2048)
    start = time.perf_counter()
    with pytest.raises(TooManySubgroups):
        enumerate_lattice(G)
    assert time.perf_counter() - start < 5


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _gaussian_binomial(k, j, p):
    num = den = 1
    for i in range(j):
        num *= p ** (k - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


# closed forms, computed from the parameters: C_n has tau(n) subgroups; D_2n
# has tau(n) + sigma(n), of which tau(n) + 1 are normal for n odd and
# tau(n) + 3 for n even; E_p^k has sum_j [k choose j]_p; C_m x C_n has
# sum over a | m, b | n of gcd(a, b)
@pytest.mark.parametrize("n", [1680])
def test_cyclic_subgroup_count(n):
    assert len(enumerate_lattice(catalog.construct(f"C{n}"))) == len(_divisors(n))


@pytest.mark.parametrize("n", [200, 999])
def test_dihedral_subgroup_counts(n):
    lat = enumerate_lattice(catalog.construct(f"D{2 * n}"))
    tau, sigma = len(_divisors(n)), sum(_divisors(n))
    assert (lat.size, lat.normal.bit_count()) == (
        tau + sigma, tau + (1 if n % 2 else 3))


@pytest.mark.parametrize("p, k", [(3, 4), (5, 3)])
def test_elementary_abelian_subgroup_count(p, k):
    lat = enumerate_lattice(catalog.construct(f"E{p}^{k}"))
    assert lat.size == sum(_gaussian_binomial(k, j, p) for j in range(k + 1))


@pytest.mark.parametrize("m, n", [(12, 18), (20, 30)])
def test_two_cyclic_factors_subgroup_count(m, n):
    lat = enumerate_lattice(catalog.construct(f"C{m}xC{n}"))
    assert lat.size == sum(math.gcd(a, b) for a in _divisors(m)
                           for b in _divisors(n))


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
    "S5": 156,
    "hol_C13": 72,
    "pq2_3_11": 136,
    "pq2_7_13": 186,
}


@pytest.mark.parametrize("name,count", sorted(EXPECTED_COUNTS.items()))
def test_subgroup_counts(name, count):
    G = catalog.shared_group(name)
    assert len(lattice_of(G)) == count


def test_prime_order_has_two_subgroups():
    for p in (2, 3, 5, 7, 13):
        G = catalog.construct(f"C{p}")
        assert len(lattice_of(G)) == 2


def _kurosh_literally(lat, m, members, below, above_m):
    """Both modularity conditions for m over every pair of one section:
    x v (m ^ z) = (x v m) ^ z for all x <= z, and m v (y ^ z) = (m v y) ^ z
    for all y and all z >= m."""
    join_t, meet_t = lat.join_t, lat.meet_t
    for z in members:
        for x in below[z]:
            if join_t[x][meet_t[m][z]] != meet_t[join_t[x][m]][z]:
                return False
    for z in above_m:
        for y in members:
            if join_t[m][meet_t[z][y]] != meet_t[join_t[m][y]][z]:
                return False
    return True


@pytest.mark.parametrize("name", [e.name for e in catalog.standard_suite()]
                         + ["S4xC2", "A5", "E2^4", "E2^3xS3", "E2^5",
                            "C2xD8xS3"])
def test_modular_columns_agree_with_literal_conditions(name):
    """Both conditions decided by counting interval sizes give the literal
    column on every section [1, B] and [N, G]; C2xD8xS3 (562 subgroups) is
    the largest non-abelian lattice."""
    lat = lattice_of(catalog.shared_group(name))
    top = lat.top()
    sections = [(0, b) for b in range(lat.size)]
    sections += [(n, top) for n in lat.normal_indices() if n]
    for lo, hi in sections:
        inside = lat.up[lo] & lat.down[hi]
        members = [i for i in range(lat.size) if inside >> i & 1]
        below = {z: [x for x in members if lat.up[x] >> z & 1] for z in members}
        literal = sum(1 << m for m in members if _kurosh_literally(
            lat, m, members, below, [z for z in members if lat.up[m] >> z & 1]))
        assert lat.column("modular", (lo, hi)) == literal, (name, lo, hi)


# (section [1, B], member m) pairs where m satisfies condition (i) but not
# condition (ii), frozen from the oracles; every other group below has none
CONDITION_II_WITNESSES = {
    "A4": 3, "S4": 3, "SL23": 3, "hol_C13": 13, "A4xC2": 9, "S4xC2": 9,
    "A5": 15,
}


@pytest.mark.parametrize("name", [e.name for e in catalog.standard_suite()]
                         + ["S4xC2", "A5", "E2^3xS3"])
def test_interval_count_decides_condition_ii(name):
    """The interval count is not vacuous: condition (i) does not imply
    condition (ii), and every member m of a section that satisfies the
    literal (i) but fails the literal (ii) is left out of that section's
    column.  Checked on every section [lo, hi], counted on the sections
    [1, B]."""
    lat = lattice_of(catalog.shared_group(name))
    join_t, meet_t = lat.join_t, lat.meet_t
    count = 0
    for lo in range(lat.size):
        for hi in bits(lat.up[lo]):
            inside = lat.up[lo] & lat.down[hi]
            members = tuple(bits(inside))
            below = {z: tuple(bits(lat.down[z] & inside)) for z in members}
            column = lat.column("modular", (lo, hi))
            for m in members:
                if kurosh_i(join_t, meet_t, m, members, below) and not (
                        kurosh_ii(join_t, meet_t, m, members,
                                  bits(lat.up[m] & inside))):
                    assert not column >> m & 1, (name, lo, hi, m)
                    count += lo == 0
    assert count == CONDITION_II_WITNESSES.get(name, 0)


@pytest.mark.parametrize("name", STRUCTURE_GROUPS)
def test_interval_count_alone_gives_the_modular_column(name):
    """|[m, m v y]| = |[m ^ y, y]| for every y of a section already implies
    condition (i) (the proof is in ``lattice._kurosh``), so the count alone,
    recomputed here from the size table, gives the literal modular column
    on every section."""
    lat = lattice_of(catalog.shared_group(name))
    sizes, join_t, meet_t = lat.interval_sizes(), lat.join_t, lat.meet_t
    for lo in range(lat.size):
        for hi in bits(lat.up[lo]):
            members = tuple(bits(lat.up[lo] & lat.down[hi]))
            counted = sum(1 << m for m in members if all(
                sizes[m][join_t[m][y]] == sizes[meet_t[m][y]][y]
                for y in members))
            assert counted == column_by_members(lat, "modular", lo, hi), (
                name, lo, hi)
