"""Literal helpers the tests check the package against.

None of these is used by ``modmax`` itself.  ``close_mask`` closes a seed
under products of every pair of members found so far, and ``relabel``
renames a table's elements at random.  The mask helpers translate
subgroups between a group and a rebuilt subgroup or quotient; the lattice
oracles evaluate one subgroup at a time, with no conjugacy classes or
automorphism orbits, the way the lattice did before it answered once per
class, and decide Kurosh's conditions (i) and (ii) by the literal
quantifier loops rather than by counting interval sizes.  ``join_meet_tables`` builds both tables whole,
against the lattice's rows built on first read.

The chief-factor oracles decide C_G(H/K) and cyclicity of H/K by looping
over every member, the way ``classify`` did before it read both off the
normal sublattice.  ``normalizer_by_members`` conjugates a subgroup by
every element, and ``is_isomorphic`` asks ``find_isomorphism`` for a map.

``lattice_isomorphism`` searches for a map between two lattices that
keeps joins and meets, reading nothing but their order; it works on any
finite lattice, a subgroup lattice or not.

``cached_group`` is ``catalog.construct`` memoised for the whole test
session, so that tests share each group and the answers memoised on it;
the package itself keeps no group.  ``cycles_to_perm`` writes cycle
notation out as an image tuple, and ``gaussian_binomial`` counts the
j-dimensional subspaces of a k-dimensional space over the field of p
elements.
"""

import functools

from modmax import catalog
from modmax.groups import _cycle_images, bits, conjugate_mask, factorize, find_isomorphism

cached_group = functools.cache(catalog.construct)


def cycles_to_perm(degree: int, cycles) -> tuple[int, ...]:
    """The image tuple of cycle notation (lists of 0-based points), checked
    as ``group_from_json`` checks it."""
    images = _cycle_images(degree, cycles)
    return tuple(images.get(v, v) for v in range(degree))


def gaussian_binomial(k: int, j: int, p: int) -> int:
    num = den = 1
    for i in range(j):
        num *= p ** (k - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def close_mask(table, seed, ambient_order: int) -> int:
    """Multiplicative closure of ``seed`` (iterable of indices) plus identity.

    Closure under products alone suffices in a finite group: inverses are
    positive powers.  Growth is cut short by Lagrange: once the working set
    outgrows the largest proper divisor of the ambient order, the closure
    is the whole group.
    """
    # largest proper divisor: the order over its smallest prime
    threshold = ambient_order // min(factorize(ambient_order)) if ambient_order > 1 else 0
    mask = 1
    elems = [0]
    stack = sorted({int(x) for x in seed} - {0}, reverse=True)
    for x in stack:
        mask |= 1 << x
    count = 1 + len(stack)
    if count > threshold:
        return (1 << ambient_order) - 1
    while stack:
        x = stack.pop()
        elems.append(x)
        row_x = table[x]
        for y in elems:
            z = row_x[y]
            if not (mask >> z) & 1:
                mask |= 1 << z
                stack.append(z)
                count += 1
            z = table[y][x]
            if not (mask >> z) & 1:
                mask |= 1 << z
                stack.append(z)
                count += 1
        if count > threshold:
            return (1 << ambient_order) - 1
    return mask


def relabel(table, rng):
    """The same table under a random permutation p of the non-identity
    indices: entry p(a)p(b) is p(ab)."""
    rest = list(range(1, len(table)))
    rng.shuffle(rest)
    p = [0] + rest
    q = sorted(range(len(p)), key=p.__getitem__)  # the inverse of p
    return [list(map(p.__getitem__, map(table[a].__getitem__, q))) for a in q]


def product_mask(G, a_mask: int, b_mask: int) -> int:
    """Setwise product {a*b : a in A, b in B} as a mask."""
    table = G.table
    out = 0
    for x in bits(a_mask):
        row = table[x]
        for y in bits(b_mask):
            out |= 1 << row[y]
    return out


def restrict_mask(elements: tuple[int, ...], parent_mask: int) -> int:
    """Translate a parent-index mask into the local indices of ``elements``."""
    out = 0
    for i, x in enumerate(elements):
        if (parent_mask >> x) & 1:
            out |= 1 << i
    return out


def image_mask(proj: tuple[int, ...], mask: int) -> int:
    """Push a subgroup mask through a projection map."""
    out = 0
    for x in bits(mask):
        out |= 1 << proj[x]
    return out


def subnormal_by_members(lat, mi: int) -> bool:
    """Iterated normal closure inside the previous term descends to mi; each
    closure is the join of mi's conjugates by every member of the term (a
    conjugate by a member of the join so far lies inside it)."""
    G = lat.group
    masks = [s.mask for s in lat.subgroups]
    hm = masks[mi]
    join_t, index_of = lat.join_t, lat.index_of
    cur = lat.top()
    while cur != mi:
        nxt = mi
        for g in bits(masks[cur]):
            if not (masks[nxt] >> g) & 1:
                nxt = join_t[nxt][index_of[conjugate_mask(G, g, hm)]]
        if nxt == cur:
            return False
        cur = nxt
    return True


def join_meet_tables(lat):
    """Both n x n tables built whole from the inclusion bitsets, the way the
    lattice built them before its rows were built on first read: the join
    of i and j is the least index above both (``rev_up`` holds index j at
    bit n-1-j, so that is the highest bit of an intersection), the meet the
    greatest below both."""
    n = lat.size
    rev_up = [sum(1 << (n - 1 - j) for j in bits(u)) for u in lat.up]
    join_t = tuple(tuple(n - (ri & rj).bit_length() for rj in rev_up)
                   for ri in rev_up)
    meet_t = tuple(tuple((di & dj).bit_length() - 1 for dj in lat.down)
                   for di in lat.down)
    return join_t, meet_t


def kurosh_i(join_t, meet_t, m: int, members, below) -> bool:
    """Kurosh's condition (i) for m in one section, evaluated literally:
    x v (m ^ z) = (x v m) ^ z for every member z and every member x <= z
    (``below[z]``)."""
    join_m, meet_m = join_t[m], meet_t[m]
    for z in members:
        left, right = join_t[meet_m[z]], meet_t[z]
        for x in below[z]:
            if left[x] != right[join_m[x]]:
                return False
    return True


def kurosh_ii(join_t, meet_t, m: int, members, above_m) -> bool:
    """Kurosh's condition (ii) for m in one section, evaluated literally:
    m v (y ^ z) = (m v y) ^ z for every member y and every z >= m
    (``above_m``)."""
    join_m = join_t[m]
    for z in above_m:
        meet_z = meet_t[z]
        for y in members:
            if join_m[meet_z[y]] != meet_z[join_m[y]]:
                return False
    return True


def modular_alt(lat, H) -> bool:
    """Independently coded second evaluation of both Kurosh conditions on
    the whole lattice, every pair literally, with reversed loop nesting and
    iteration order (cross-check)."""
    mi = lat.index(H)
    join_t, meet_t = lat.join_t, lat.meet_t
    n = lat.size
    for y in range(n - 1, -1, -1):
        for z in range(n - 1, -1, -1):
            if not lat.up[mi] >> z & 1:
                continue
            if join_t[mi][meet_t[y][z]] != meet_t[join_t[mi][y]][z]:
                return False
    for x in range(n - 1, -1, -1):
        for z in lat.above[x]:
            if join_t[x][meet_t[mi][z]] != meet_t[join_t[x][mi]][z]:
                return False
    return True


def column_by_members(lat, predicate: str, lo: int, hi: int) -> int:
    """The ``predicate`` column of the section [lo, hi], every member
    evaluated on its own."""
    o = [s.order for s in lat.subgroups]
    join_t, meet_t = lat.join_t, lat.meet_t
    inside = lat.up[lo] & lat.down[hi]
    members = tuple(bits(inside))
    if predicate == "modular":
        below = {z: tuple(bits(lat.down[z] & inside)) for z in members}
        return sum(1 << m for m in members
                   if kurosh_i(join_t, meet_t, m, members, below)
                   and kurosh_ii(join_t, meet_t, m, members,
                                 bits(lat.up[m] & inside)))
    others = members
    if predicate == "s_quasinormal":
        parts = {p ** e for p, e in factorize(o[hi] // o[lo]).items()}
        others = tuple(k for k in members if o[k] // o[lo] in parts)
    return sum(1 << i for i in members if all(
        o[i] * o[j] == o[join_t[i][j]] * o[meet_t[i][j]] for j in others))


def factor_centralizer_by_members(G, kmask: int, hmask: int) -> int:
    """{g : [g, h] in K for every member h of H}, for K <= H normal in G."""
    return sum(1 << g for g in range(G.order)
               if all((kmask >> G.commutator(g, h)) & 1 for h in bits(hmask)))


def factor_is_cyclic_by_cosets(G, kmask: int, hmask: int) -> bool:
    """H/K is cyclic iff some coset hK has order |H/K| in H/K."""
    factor_order = hmask.bit_count() // kmask.bit_count()
    table = G.table
    for h in bits(hmask):
        m, y = 1, h
        while not (kmask >> y) & 1:
            y = table[y][h]
            m += 1
        if m == factor_order:
            return True
    return factor_order == 1


def normalizer_by_members(G, mask: int) -> int:
    """N_G(H) = {g : gHg^-1 = H}, every element of G tried."""
    return sum(1 << g for g in range(G.order) if conjugate_mask(G, g, mask) == mask)


def is_isomorphic(A, B) -> bool:
    return find_isomorphism(A, B) is not None


def lattice_isomorphism(A, B):
    """A bijection ``phi`` (``phi[i]`` the image of A's element i) from
    lattice A onto lattice B that keeps joins and meets, or None when there
    is none.

    Every element is the join of the join-irreducible elements below it
    (those with exactly one lower cover), so ``phi`` is fixed by its values
    on them.  They are tried in index order, each against every
    join-irreducible element of B with as many elements above and below it,
    and each partial map is closed under joins and meets; it fails where it
    would send two elements to one or one element to two.  Once every
    join-irreducible element is mapped, the closure holds every element."""
    def irreducible(L):
        return [i for i in range(L.size) if len(L.covers_down[i]) == 1]

    def shape(L, i):
        return L.up[i].bit_count(), L.down[i].bit_count()

    ja, jb = irreducible(A), irreducible(B)
    if A.size != B.size or sorted(shape(A, i) for i in ja) != sorted(
            shape(B, i) for i in jb):
        return None

    def close(phi, inv, a, b):
        phi, inv, todo = dict(phi), dict(inv), [(a, b)]
        while todo:
            a, b = todo.pop()
            if phi.get(a, b) != b or inv.get(b, a) != a:
                return None
            if a not in phi:
                phi[a], inv[b] = b, a
                for c, d in list(phi.items()):
                    todo.append((A.join_t[a][c], B.join_t[b][d]))
                    todo.append((A.meet_t[a][c], B.meet_t[b][d]))
        return phi, inv

    def search(phi, inv, k):
        while k < len(ja) and ja[k] in phi:
            k += 1
        if k == len(ja):
            return tuple(phi[i] for i in range(A.size))
        a = ja[k]
        for b in jb:
            if b not in inv and shape(B, b) == shape(A, a):
                closed = close(phi, inv, a, b)
                found = closed and search(*closed, k + 1)
                if found:
                    return found
        return None

    start = close({}, {}, 0, 0)
    start = start and close(*start, A.size - 1, B.size - 1)
    return start and search(*start, 0)
