"""Complete subgroup lattices and subgroup embedding predicates.

The lattice of a group is enumerated once by cyclic extension and cached on
the group.  Starting from the trivial subgroup, every subgroup H found is
extended by one generator x of each cyclic subgroup of prime-power order
with x not in H, and <H, x> is closed from H by adding right cosets of H
one at a time (Dimino's method).  Every subgroup is generated by its
prime-power elements, so a chain of such extensions reaches it; perfect
subgroups included.

Subgroups are kept in a canonical order: ascending by order, ties broken by
the sorted member tuple.  Inclusion is stored as bitsets over those
indices (``up[i]``: the subgroups containing i, ``down[j]``: the subgroups
inside j).  A subgroup's proper subgroups have smaller order, so the join of
i and j is the lowest index of ``up[i] & up[j]`` and the meet the highest of
``down[i] & down[j]``; covers and both tables need no closure.

All predicates below are decided against the lattice and never by the
structure theorems they feed, which are test targets.  Modularity and
subnormality are literal quantifier evaluation.  Permutability is decided by
counting: HP is the set of products, |HP| = |H||P|/|H^P|, and HP = PH
exactly when HP is a subgroup, that is when |HP| = |<H, P>|.  The literal
comparison of the product sets stays in the tests as the oracle.

n-maximality is read existentially: H is n-maximal when some maximal chain
G = M0 > M1 > ... > Mn ends at H, so one subgroup can be n-maximal for
several n.  Depth sets are computed by dynamic programming over the cover
relation instead of enumerating chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import Group, SubgroupSet, bits, conjugate_mask, factorize


class BadDepth(Exception):
    """n-maximality depth must be at least 1."""


@dataclass(frozen=True)
class MaximalChain:
    """A chain G = M0 > M1 > ... > Mn of lattice indices, each step a cover."""

    lattice: "SubgroupLattice"
    indices: tuple[int, ...]

    def __post_init__(self):
        lat = self.lattice
        if not self.indices or self.indices[0] != lat.top():
            raise BadDepth("chain must start at the whole group")
        for parent, child in zip(self.indices, self.indices[1:]):
            if child not in lat.covers_down[parent]:
                raise BadDepth(
                    f"step {parent} > {child} is not a cover")

    @property
    def length(self) -> int:
        return len(self.indices) - 1

    def orders(self) -> tuple[int, ...]:
        return tuple(self.lattice.subgroups[i].order for i in self.indices)


class SubgroupLattice:
    """All subgroups of a group with inclusion, covers, and join/meet tables."""

    def __init__(self, group: Group, masks: list[int], _unused):
        # The third argument once carried the enumeration's cache of closed
        # joins.  Joins are now read off the inclusion bitsets; the argument
        # stays because perfbench's traced run subclasses this class with the
        # (group, masks, joins) signature.
        order_key = lambda m: (m.bit_count(), tuple(bits(m)))
        canonical = sorted(masks, key=order_key)
        self.group = group
        self.subgroups = tuple(SubgroupSet(group, m) for m in canonical)
        self.index_of = {m: i for i, m in enumerate(canonical)}
        self._masks = canonical
        self._orders = tuple(m.bit_count() for m in canonical)
        n = len(canonical)
        self.size = n

        # inclusion bitsets; only a later index can contain an earlier one.
        # ``rev_up`` is ``up`` with index j at bit n-1-j, so that the lowest
        # common upper bound is the highest bit of an intersection.
        up = [0] * n
        rev_up = [0] * n
        down = [0] * n
        for i, mi in enumerate(canonical):
            for j in range(i, n):
                if mi & canonical[j] == mi:
                    up[i] |= 1 << j
                    rev_up[i] |= 1 << (n - 1 - j)
                    down[j] |= 1 << i
        self.up = tuple(up)
        self.down = tuple(down)
        self.above = tuple(tuple(bits(b)) for b in up)
        self.below = tuple(tuple(bits(b)) for b in down)

        # covers: the strict down-set minus everything below a strict member
        covers_down = []
        for j in range(n):
            strict = down[j] & ~(1 << j)
            shadow = 0
            for i in bits(strict):
                shadow |= down[i] & ~(1 << i)
            covers_down.append(tuple(bits(strict & ~shadow)))
        covers_up = [[] for _ in range(n)]
        for j, kids in enumerate(covers_down):
            for i in kids:
                covers_up[i].append(j)
        self.covers_down = tuple(covers_down)
        self.covers_up = tuple(tuple(v) for v in covers_up)

        self.join_t = tuple(
            tuple(n - (ri & rj).bit_length() for rj in rev_up) for ri in rev_up)
        self.meet_t = tuple(
            tuple((di & dj).bit_length() - 1 for dj in down) for di in down)

        # a subgroup fixed by conjugation with each generator is normal
        gens = group.generator_indices
        self.normal = tuple(
            all(conjugate_mask(group, g, m) == m for g in gens)
            for m in canonical
        )

        # depth sets over the cover DAG, top down (parents precede children
        # in reverse canonical order because covers strictly shrink)
        depth: list[set[int]] = [set() for _ in range(n)]
        depth[n - 1].add(0)
        for j in range(n - 1, -1, -1):
            dj = depth[j]
            if not dj:
                continue
            for i in self.covers_down[j]:
                depth[i].update(d + 1 for d in dj)
        self.depth_sets = tuple(frozenset(d) for d in depth)
        self.max_chain_length = max(depth[0]) if depth[0] else 0

        self._modular: dict[int, bool] = {}
        self._subnormal: dict[int, bool] = {}
        self._sylow_members: tuple[int, ...] | None = None

    # -- indexing helpers ---------------------------------------------------

    def index(self, H) -> int:
        """Accept a SubgroupSet or a lattice index (never a raw mask)."""
        if isinstance(H, SubgroupSet):
            return self.index_of[H.mask]
        if isinstance(H, int) and 0 <= H < self.size:
            return H
        raise KeyError(f"{H!r} is not a subgroup of this lattice")

    def index_of_mask(self, mask: int) -> int:
        return self.index_of[mask]

    def subgroup(self, i: int) -> SubgroupSet:
        return self.subgroups[i]

    def top(self) -> int:
        return self.size - 1

    def bottom(self) -> int:
        return 0

    def orders(self) -> tuple[int, ...]:
        return self._orders

    def is_normal(self, H) -> bool:
        return self.normal[self.index(H)]

    def normal_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if self.normal[i])

    def leq(self, a, b) -> bool:
        return bool(self.up[self.index(a)] >> self.index(b) & 1)

    # -- maximality ---------------------------------------------------------

    def maximal_subgroups(self, H=None) -> tuple[SubgroupSet, ...]:
        """All K < H with nothing strictly between (H defaults to the group)."""
        j = self.top() if H is None else self.index(H)
        return tuple(self.subgroups[i] for i in self.covers_down[j])

    def n_maximal_indices(self, n: int) -> tuple[int, ...]:
        if n < 1:
            raise BadDepth(f"depth must be >= 1, got {n}")
        return tuple(i for i in range(self.size) if n in self.depth_sets[i])

    def n_maximal_set(self, n: int) -> tuple[SubgroupSet, ...]:
        return tuple(self.subgroups[i] for i in self.n_maximal_indices(n))

    def is_n_maximal(self, H, n: int) -> bool:
        if n < 1:
            raise BadDepth(f"depth must be >= 1, got {n}")
        return n in self.depth_sets[self.index(H)]

    def witness_chain(self, H, n: int) -> MaximalChain:
        """One maximal chain of length n from the whole group down to H,
        reconstructed over the cover relation (least parent index at each
        step).  Raises BadDepth when H is not n-maximal."""
        if n < 1:
            raise BadDepth(f"depth must be >= 1, got {n}")
        i = self.index(H)
        if n not in self.depth_sets[i]:
            raise BadDepth(
                f"subgroup of order {self.subgroups[i].order} is not "
                f"{n}-maximal")
        chain = [i]
        need = n
        while need > 0:
            parent = min(p for p in self.covers_up[chain[-1]]
                         if need - 1 in self.depth_sets[p])
            chain.append(parent)
            need -= 1
        return MaximalChain(self, tuple(reversed(chain)))

    def frattini(self) -> SubgroupSet:
        """Intersection of the maximal subgroups of the whole group."""
        mask = self._masks[self.top()]
        for i in self.covers_down[self.top()]:
            mask &= self._masks[i]
        return self.subgroups[self.index_of[mask]]

    # -- modularity (Kurosh conditions, literal quantifiers) -----------------

    def is_modular(self, H) -> bool:
        """Modular element of the lattice: for all X <= Z,
        <X, M^Z> = <X, M>^Z, and for all Y, Z with M <= Z,
        <M, Y^Z> = <M, Y>^Z (juxtaposition = join, ^ = meet)."""
        mi = self.index(H)
        hit = self._modular.get(mi)
        if hit is not None:
            return hit
        join_t, meet_t = self.join_t, self.meet_t
        result = True
        for z in range(self.size):
            mz = meet_t[mi][z]
            row_meet_z = meet_t[z]
            for x in self.below[z]:
                if join_t[x][mz] != row_meet_z[join_t[x][mi]]:
                    result = False
                    break
            if not result:
                break
        if result:
            for z in self.above[mi]:
                row_meet_z = meet_t[z]
                row_join_m = join_t[mi]
                for y in range(self.size):
                    if row_join_m[row_meet_z[y]] != row_meet_z[row_join_m[y]]:
                        result = False
                        break
                if not result:
                    break
        self._modular[mi] = result
        return result

    def is_modular_alt(self, H) -> bool:
        """Independently coded second evaluation of the same two conditions,
        with reversed loop nesting and iteration order (cross-check)."""
        mi = self.index(H)
        join_t, meet_t = self.join_t, self.meet_t
        n = self.size
        for y in range(n - 1, -1, -1):
            for z in range(n - 1, -1, -1):
                if not self.leq(mi, z):
                    continue
                if join_t[mi][meet_t[y][z]] != meet_t[join_t[mi][y]][z]:
                    return False
        for x in range(n - 1, -1, -1):
            for z in self.above[x]:
                if join_t[x][meet_t[mi][z]] != meet_t[join_t[x][mi]][z]:
                    return False
        return True

    # -- permutability ------------------------------------------------------

    def _permutes_with_all(self, i: int, others) -> bool:
        """HP = PH for every P in ``others``, by |H||P| = |<H,P>||H^P|."""
        o, join_i, meet_i = self._orders, self.join_t[i], self.meet_t[i]
        oi = o[i]
        return all(oi * o[j] == o[join_i[j]] * o[meet_i[j]] for j in others)

    def is_quasinormal(self, H) -> bool:
        """HP = PH as sets for every subgroup P."""
        return self._permutes_with_all(self.index(H), range(self.size))

    def sylow_member_indices(self) -> tuple[int, ...]:
        """Indices of every Sylow p-subgroup, for every prime p dividing |G|."""
        if self._sylow_members is None:
            parts = {}
            for p, e in factorize(self.group.order).items():
                parts[p ** e] = True
            self._sylow_members = tuple(
                i for i, s in enumerate(self.subgroups) if s.order in parts
            )
        return self._sylow_members

    def is_s_quasinormal(self, H) -> bool:
        """HP = PH as sets for every Sylow subgroup P (all primes, all conjugates)."""
        return self._permutes_with_all(self.index(H), self.sylow_member_indices())

    # -- subnormality ---------------------------------------------------------

    def is_subnormal(self, H) -> bool:
        """Iterated normal closure inside the previous term descends to H."""
        mi = self.index(H)
        hit = self._subnormal.get(mi)
        if hit is not None:
            return hit
        G = self.group
        hm = self._masks[mi]
        join_t, index_of = self.join_t, self.index_of
        cur = self.top()
        while cur != mi:
            # normal closure of H in cur: the join of its conjugates there
            # (a conjugate by a member of the join so far lies inside it)
            nxt = mi
            for g in bits(self._masks[cur]):
                if not (self._masks[nxt] >> g) & 1:
                    nxt = join_t[nxt][index_of[conjugate_mask(G, g, hm)]]
            if nxt == cur:
                self._subnormal[mi] = False
                return False
            cur = nxt
        self._subnormal[mi] = True
        return True

    # -- export ----------------------------------------------------------------

    def to_dot(self) -> str:
        """Cover DAG in DOT form, one node per subgroup labeled "order:index".

        Styling: normal nodes are boxes, modular nodes are filled, and
        S-quasinormal nodes get a doubled border.  Node and edge order is
        canonical, so output is byte-stable.
        """
        lines = [
            "digraph subgroup_lattice {",
            "  rankdir=BT;",
            '  node [shape=ellipse fontname="Helvetica"];',
        ]
        for i, s in enumerate(self.subgroups):
            attrs = [f'label="{s.order}:{i}"']
            if self.normal[i]:
                attrs.append("shape=box")
            if self.is_modular(i):
                attrs.append("style=filled")
                attrs.append('fillcolor="#dce9ed"')
            if self.is_s_quasinormal(i):
                attrs.append("peripheries=2")
            lines.append(f"  s{i} [{' '.join(attrs)}];")
        for i in range(self.size):
            for j in self.covers_up[i]:
                lines.append(f"  s{i} -> s{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"SubgroupLattice({self.group.name}, {self.size} subgroups)"


def _extend(table, elems: tuple[int, ...], mask: int,
            gens: tuple[int, ...], order: int) -> int:
    """Mask of <H, x>, where H = <gens[:-1]> has members ``elems`` and mask
    ``mask`` and x = gens[-1] lies outside H.  Right cosets Hr are added
    until every rep times every generator lands in the union (Dimino).  A
    subgroup of more than half the group's order is the whole group."""
    reps = [0]
    for r in reps:
        row = table[r]
        for s in gens:
            y = row[s]
            if not (mask >> y) & 1:
                reps.append(y)
                if 2 * len(reps) * len(elems) > order:
                    return (1 << order) - 1
                for h in elems:
                    mask |= 1 << table[h][y]
    return mask


def enumerate_lattice(G: Group) -> SubgroupLattice:
    """Enumerate every subgroup by cyclic extension (see the module docstring)."""
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
                k = _extend(table, elems, h, gens + (x,), G.order)
                if k not in found:
                    found[k] = gens + (x,)
                    new.append(k)
        frontier = new
    return SubgroupLattice(G, list(found), None)


def lattice_of(G: Group) -> SubgroupLattice:
    """The subgroup lattice of G, memoised on the group instance."""
    lat = G._cache.get("lattice")
    if lat is None:
        lat = enumerate_lattice(G)
        G._cache["lattice"] = lat
    return lat
