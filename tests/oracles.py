"""Literal helpers the tests check the package against.

None of these is used by ``modmax`` itself.  The mask helpers translate
subgroups between a group and a rebuilt subgroup or quotient; the two
lattice oracles evaluate one subgroup at a time, with no conjugacy classes,
the way the lattice did before it answered once per class.
"""

from modmax.groups import bits, conjugate_mask, factorize
from modmax.lattice import _kurosh


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


def column_by_members(lat, predicate: str, lo: int, hi: int) -> int:
    """The ``predicate`` column of the section [lo, hi], every member
    evaluated on its own."""
    o = [s.order for s in lat.subgroups]
    join_t, meet_t = lat.join_t, lat.meet_t
    inside = lat.up[lo] & lat.down[hi]
    members = tuple(bits(inside))
    if predicate == "modular":
        covers = {z: [x for x in lat.covers_down[z] if inside >> x & 1]
                  for z in members}
        return sum(1 << m for m in members if _kurosh(
            join_t, meet_t, m, members, covers, bits(lat.up[m] & inside)))
    others = members
    if predicate == "s_quasinormal":
        parts = {p ** e for p, e in factorize(o[hi] // o[lo]).items()}
        others = tuple(k for k in members if o[k] // o[lo] in parts)
    return sum(1 << i for i in members if all(
        o[i] * o[j] == o[join_t[i][j]] * o[meet_t[i][j]] for j in others))
