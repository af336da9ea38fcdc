"""Complete subgroup lattices and subgroup embedding predicates.

The lattice of a group is enumerated once (cyclic subgroups closed under
pairwise joins) and cached on the group.  Subgroups are kept in a canonical
order: ascending by order, ties broken by the sorted member tuple.  All
predicates below are decided by literal quantifier evaluation against the
lattice; the structure theorems they feed are test targets, never the
computation path.

n-maximality is read existentially: H is n-maximal when some maximal chain
G = M0 > M1 > ... > Mn ends at H, so one subgroup can be n-maximal for
several n.  Depth sets are computed by dynamic programming over the cover
relation instead of enumerating chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .groups import (
    Group,
    SubgroupSet,
    bits,
    close_mask,
    conjugate_mask,
    factorize,
    product_mask,
)


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

    def __init__(self, group: Group, masks: list[int], joins: dict[int, int]):
        order_key = lambda m: (m.bit_count(), tuple(bits(m)))
        canonical = sorted(masks, key=order_key)
        self.group = group
        self.subgroups = tuple(SubgroupSet(group, m) for m in canonical)
        self.index_of = {m: i for i, m in enumerate(canonical)}
        self._masks = canonical
        n = len(canonical)
        self.size = n

        above = [[] for _ in range(n)]
        below = [[] for _ in range(n)]
        for i, mi in enumerate(canonical):
            for j, mj in enumerate(canonical):
                if mi & mj == mi:
                    above[i].append(j)
                    below[j].append(i)
        self.above = tuple(tuple(v) for v in above)
        self.below = tuple(tuple(v) for v in below)

        # covers = transitive reduction of inclusion
        covers_down = [[] for _ in range(n)]  # maximal subgroups of each node
        covers_up = [[] for _ in range(n)]
        for j in range(n):
            strictly_below = [i for i in below[j] if i != j]
            for i in strictly_below:
                mi = canonical[i]
                if not any(k != i and k != j and canonical[k] & mi == mi
                           and canonical[k] & canonical[j] == canonical[k]
                           for k in strictly_below):
                    covers_down[j].append(i)
                    covers_up[i].append(j)
        self.covers_down = tuple(tuple(sorted(v)) for v in covers_down)
        self.covers_up = tuple(tuple(sorted(v)) for v in covers_up)

        index_of = self.index_of
        table = group.table
        meet_t = [[0] * n for _ in range(n)]
        join_t = [[0] * n for _ in range(n)]
        for i in range(n):
            mi = canonical[i]
            row_meet = meet_t[i]
            row_join = join_t[i]
            for j in range(i, n):
                mj = canonical[j]
                row_meet[j] = meet_t[j][i] = index_of[mi & mj]
                union = mi | mj
                jm = index_of.get(union)
                if jm is None:
                    closed = joins.get(union)
                    if closed is None:
                        lcm = (mi.bit_count() * mj.bit_count()
                               // math.gcd(mi.bit_count(), mj.bit_count()))
                        closed = close_mask(table, bits(union), group.order, lcm)
                        joins[union] = closed
                    jm = index_of[closed]
                row_join[j] = join_t[j][i] = jm
        self.meet_t = tuple(tuple(r) for r in meet_t)
        self.join_t = tuple(tuple(r) for r in join_t)

        self.normal = tuple(
            all(conjugate_mask(group, g, m) == m for g in range(group.order))
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
        self._quasinormal: dict[int, bool] = {}
        self._s_quasinormal: dict[int, bool] = {}
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
        return tuple(s.order for s in self.subgroups)

    def is_normal(self, H) -> bool:
        return self.normal[self.index(H)]

    def normal_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.size) if self.normal[i])

    def leq(self, a, b) -> bool:
        ma, mb = self._masks[self.index(a)], self._masks[self.index(b)]
        return ma & mb == ma

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

    def _permutes_with(self, a_mask: int, b_mask: int) -> bool:
        G = self.group
        return product_mask(G, a_mask, b_mask) == product_mask(G, b_mask, a_mask)

    def is_quasinormal(self, H) -> bool:
        """HP = PH as sets for every subgroup P."""
        mi = self.index(H)
        hit = self._quasinormal.get(mi)
        if hit is not None:
            return hit
        hm = self._masks[mi]
        result = all(self._permutes_with(hm, m) for m in self._masks)
        self._quasinormal[mi] = result
        return result

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
        mi = self.index(H)
        hit = self._s_quasinormal.get(mi)
        if hit is not None:
            return hit
        hm = self._masks[mi]
        result = all(
            self._permutes_with(hm, self._masks[i])
            for i in self.sylow_member_indices()
        )
        self._s_quasinormal[mi] = result
        return result

    # -- subnormality ---------------------------------------------------------

    def is_subnormal(self, H) -> bool:
        """Iterated normal closure inside the previous term descends to H."""
        mi = self.index(H)
        hit = self._subnormal.get(mi)
        if hit is not None:
            return hit
        G = self.group
        hm = self._masks[mi]
        cur = self._masks[self.top()]
        while cur != hm:
            seed = 0
            for g in bits(cur):
                seed |= conjugate_mask(G, g, hm)
            nxt = close_mask(G.table, bits(seed), G.order, hm.bit_count())
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


def enumerate_lattice(G: Group) -> SubgroupLattice:
    """Enumerate every subgroup: all cyclic subgroups, closed under joins."""
    table = G.table
    masks = {1}
    for x in range(1, G.order):
        masks.add(close_mask(table, (x,), G.order))
    joins: dict[int, int] = {}
    frontier = list(masks)
    while frontier:
        new = []
        current = list(masks)
        for a in frontier:
            for b in current:
                union = a | b
                if union == a or union == b or union in masks:
                    continue
                j = joins.get(union)
                if j is None:
                    lcm = (a.bit_count() * b.bit_count()
                           // math.gcd(a.bit_count(), b.bit_count()))
                    j = close_mask(table, bits(union), G.order, lcm)
                    joins[union] = j
                if j not in masks:
                    masks.add(j)
                    new.append(j)
        frontier = new
    return SubgroupLattice(G, sorted(masks), joins)


def lattice_of(G: Group) -> SubgroupLattice:
    """The subgroup lattice of G, memoised on the group instance."""
    lat = G._cache.get("lattice")
    if lat is None:
        lat = enumerate_lattice(G)
        G._cache["lattice"] = lat
    return lat
