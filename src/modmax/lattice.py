"""Complete subgroup lattices and subgroup embedding predicates.

The lattice of a group is enumerated once by cyclic extension and cached on
the group.  Starting from the trivial subgroup, a subgroup H is extended by
one generator x of each cyclic subgroup of prime-power order with x not in
H, and <H, x> is closed from H by adding right cosets of H one at a time
(Dimino's method).  Every subgroup is generated by its prime-power
elements, so a chain of such extensions reaches it; perfect subgroups
included.  Two exact facts cut the extensions (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, 2005, on cyclic extension):

- Conjugacy classes.  A new subgroup K brings its whole class into the
  found set (closed under conjugation by the group's generators) and only
  K is extended further: <H^g, x> = <H, x^(g^-1)>^g, and x^(g^-1) is again
  of prime-power order, so the extensions of a conjugate are the conjugates
  of the extensions of K.
- Prime index.  When |<H, x> : H| is prime, H is maximal in K = <H, x>, so
  <H, y> = K for every y in K outside H, and those y are skipped for H.

``tests/test_lattice_oracle.py`` keeps the literal loop, every subgroup
found extended by every generator, as an oracle.

Subgroups are kept in a canonical order: ascending by order, ties broken by
the sorted member tuple.  Inclusion is stored as bitsets over those
indices (``up[i]``: the subgroups containing i, ``down[j]``: the subgroups
inside j).  A subgroup's proper subgroups have smaller order, so the join of
i and j is the lowest index of ``up[i] & up[j]`` and the meet the highest of
``down[i] & down[j]``; covers and both tables need no closure.

Each embedding predicate is one int bitset over those indices, a column:
``normal`` is built with the lattice, ``modular``, ``quasinormal`` and
``s_quasinormal`` are evaluated on first use.  The n-maximal subgroups are
one bitset per depth, ``layers[n]``; n-maximality is read existentially
(some maximal chain G = M0 > ... > Mn ends at H, so H can be n-maximal for
several n) and each layer is the covers of the one above.  "Every
n-maximal subgroup is modular" is ``layers[n] & ~modular`` being 0.

Conjugation by g is a lattice automorphism that fixes G and every normal
subgroup.  So each predicate, subnormality, and each predicate inside a
quotient section [N, G] gives the same answer on every member of a
conjugacy class of subgroups.  The enumeration records each subgroup's
class (``class_of``), a subgroup is normal exactly when its class is
itself, and each answer is evaluated on one representative per class and
its class bitset ORed in.  A subgroup section [lo, hi] with hi < G is not
fixed by conjugation and is evaluated member by member.
``tests/oracles.py`` keeps per-member evaluation as the oracle.

A predicate can be asked inside a section [lo, hi] as well.  The lattice
of a subgroup B is the interval [1, B], and that of G/N is isomorphic to
[N, G] (correspondence theorem: K/N <-> K, the image of K is K v N, and
|K/N| = |K|/|N|), so no subgroup or quotient is rebuilt as a group;
``tests/test_lattice_sections.py`` checks every answer against the rebuilt
group's lattice.

Predicates are decided against the lattice and never by the structure
theorems they feed, which are test targets.  Modularity's condition (i)
is read off covers and its condition (ii) is literal quantifier evaluation.
Subnormality iterates normal closures: the first, H^G, is the least normal
subgroup above H, and each later one is closed from the greedy generators
of H under conjugation by those of the current term; the loop over every
member of the term is the oracle in the tests.  Permutability
is decided by counting: |HP| = |H||P|/|H^P|, and HP = PH exactly when HP
is a subgroup, that is when |HP| = |H v P| (in a quotient both sides
divide by |N|^2).  The literal comparison of product sets is the oracle in
the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import (
    Group,
    SubgroupSet,
    _greedy_generators,
    _normal_closure_mask,
    bits,
    conjugate_mask,
    factorize,
    is_prime,
)


_PREDICATES = ("modular", "quasinormal", "s_quasinormal")


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
    """All subgroups of a group with inclusion, covers, join/meet tables and
    predicate columns."""

    def __init__(self, group: Group, masks: list[int], classes: dict[int, int]):
        # ``classes`` maps each mask to a representative mask of its
        # conjugacy class, as the enumeration found them.  It stays the third
        # positional argument: perfbench's traced run subclasses this class
        # with a (group, masks, joins) signature and forwards it unchanged.
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
        cover_bits = []
        for j in range(n):
            strict = down[j] & ~(1 << j)
            shadow = 0
            for i in bits(strict):
                shadow |= down[i] & ~(1 << i)
            cover_bits.append(strict & ~shadow)
        covers_up = [[] for _ in range(n)]
        for j, kids in enumerate(cover_bits):
            for i in bits(kids):
                covers_up[i].append(j)
        self.covers_down = tuple(tuple(bits(b)) for b in cover_bits)
        self.covers_up = tuple(tuple(v) for v in covers_up)

        # every entry drawn from one tuple of the n indices: past 256 a
        # computed int is a fresh object per entry, a shared one is not
        ints = tuple(range(n))
        self.join_t = tuple(
            tuple([ints[n - (ri & rj).bit_length()] for rj in rev_up])
            for ri in rev_up)
        self.meet_t = tuple(
            tuple([ints[(di & dj).bit_length() - 1] for dj in down])
            for di in down)

        # class_of[i]: the bitset of i's conjugacy class; a subgroup is
        # normal exactly when its class is itself
        by_rep: dict[int, int] = {}
        for i, m in enumerate(canonical):
            by_rep[classes[m]] = by_rep.get(classes[m], 0) | 1 << i
        self.class_of = tuple(by_rep[classes[m]] for m in canonical)
        self.normal = sum(
            1 << i for i, c in enumerate(self.class_of) if c == 1 << i)

        # layers[k]: the subgroups at the end of some maximal chain of
        # length k, the covers of the layer above; the last layer is {1}
        layers = [1 << (n - 1)]
        while True:
            nxt = 0
            for j in bits(layers[-1]):
                nxt |= cover_bits[j]
            if not nxt:
                break
            layers.append(nxt)
        self.layers = tuple(layers)
        self.max_chain_length = len(layers) - 1

        # (predicate, lo, hi) -> column of the section [lo, hi]
        self._columns: dict[tuple[str, int, int], int] = {}
        # index -> greedy generators; class representative -> subnormal
        self._generators: dict[int, tuple[int, ...]] = {}
        self._subnormal: dict[int, bool] = {}

    # -- indexing helpers ---------------------------------------------------

    def index(self, H) -> int:
        """Accept a SubgroupSet or a lattice index (never a raw mask)."""
        if isinstance(H, SubgroupSet):
            return self.index_of[H.mask]
        if isinstance(H, int) and 0 <= H < self.size:
            return H
        raise KeyError(f"{H!r} is not a subgroup of this lattice")

    def top(self) -> int:
        return self.size - 1

    def is_normal(self, H) -> bool:
        return bool(self.normal >> self.index(H) & 1)

    def normal_indices(self) -> tuple[int, ...]:
        return tuple(bits(self.normal))

    def leq(self, a, b) -> bool:
        return bool(self.up[self.index(a)] >> self.index(b) & 1)

    # -- maximality ---------------------------------------------------------

    def maximal_subgroups(self, H=None) -> tuple[SubgroupSet, ...]:
        """All K < H with nothing strictly between (H defaults to the group)."""
        j = self.top() if H is None else self.index(H)
        return tuple(self.subgroups[i] for i in self.covers_down[j])

    def n_maximal_bits(self, n: int) -> int:
        """Bitset of the n-maximal subgroups (0 beyond the longest chain)."""
        if n < 1:
            raise BadDepth(f"depth must be >= 1, got {n}")
        return self.layers[n] if n < len(self.layers) else 0

    def n_maximal_indices(self, n: int) -> tuple[int, ...]:
        return tuple(bits(self.n_maximal_bits(n)))

    def n_maximal_set(self, n: int) -> tuple[SubgroupSet, ...]:
        return tuple(self.subgroups[i] for i in self.n_maximal_indices(n))

    def is_n_maximal(self, H, n: int) -> bool:
        return bool(self.n_maximal_bits(n) >> self.index(H) & 1)

    def witness_chain(self, H, n: int) -> MaximalChain:
        """One maximal chain of length n from the whole group down to H,
        reconstructed over the cover relation (least parent index at each
        step).  Raises BadDepth when H is not n-maximal."""
        i = self.index(H)
        if not self.is_n_maximal(i, n):
            raise BadDepth(
                f"subgroup of order {self.subgroups[i].order} is not "
                f"{n}-maximal")
        chain = [i]
        for k in range(n - 1, -1, -1):
            chain.append(min(p for p in self.covers_up[chain[-1]]
                             if self.layers[k] >> p & 1))
        return MaximalChain(self, tuple(reversed(chain)))

    def frattini(self) -> SubgroupSet:
        """Intersection of the maximal subgroups of the whole group."""
        mask = self._masks[self.top()]
        for i in self.covers_down[self.top()]:
            mask &= self._masks[i]
        return self.subgroups[self.index_of[mask]]

    # -- predicate columns ----------------------------------------------------

    def column(self, predicate: str, section=None) -> int:
        """Bitset of the members of ``section`` that are ``predicate``
        ("modular", "quasinormal" or "s_quasinormal") in it, evaluated once
        per conjugacy class when conjugation fixes the section, else once
        per member.  ``section`` is (lo, hi) with lo <= hi, standing for the
        lattice of the subgroup hi (lo = 0) or of the quotient by lo
        (hi = top); it defaults to the whole lattice."""
        lo, hi = (0, self.top()) if section is None else map(self.index, section)
        key = (predicate, lo, hi)
        if key not in self._columns:
            if predicate not in _PREDICATES or not self.up[lo] >> hi & 1:
                raise KeyError(f"no {predicate!r} column on [{lo}, {hi}]")
            self._columns[key] = self._evaluate(predicate, lo, hi)
        return self._columns[key]

    @property
    def modular(self) -> int:
        return self.column("modular")

    @property
    def quasinormal(self) -> int:
        return self.column("quasinormal")

    @property
    def s_quasinormal(self) -> int:
        return self.column("s_quasinormal")

    def _reads(self, predicate: str, H, section) -> bool:
        i = self.index(H)
        lo, hi = (0, self.top()) if section is None else map(self.index, section)
        if not (self.up[lo] & self.down[hi]) >> i & 1:
            raise KeyError(f"subgroup {i} is not in the section [{lo}, {hi}]")
        return bool(self.column(predicate, (lo, hi)) >> i & 1)

    def is_modular(self, H, section=None) -> bool:
        """Modular element of the lattice (or of the section): for all
        X <= Z, <X, M^Z> = <X, M>^Z, and for all Y, Z with M <= Z,
        <M, Y^Z> = <M, Y>^Z (juxtaposition = join, ^ = meet)."""
        return self._reads("modular", H, section)

    def is_quasinormal(self, H) -> bool:
        """HP = PH as sets for every subgroup P."""
        return self._reads("quasinormal", H, None)

    def is_s_quasinormal(self, H, section=None) -> bool:
        """HP = PH as sets for every Sylow subgroup P (all primes, all
        conjugates; of the section)."""
        return self._reads("s_quasinormal", H, section)

    def _evaluate(self, predicate: str, lo: int, hi: int) -> int:
        """One column.  On a section [N, G] with N normal (the whole lattice
        included) conjugation permutes the members and keeps the answer, so
        the least member of each class is tested and its class ORed in.
        The quantifier loops walk index tuples of the section: walking
        bitsets there is several times slower."""
        o, join_t, meet_t = self._orders, self.join_t, self.meet_t
        inside = self.up[lo] & self.down[hi]
        members = tuple(bits(inside))
        if predicate == "modular":
            covers = {z: [x for x in self.covers_down[z] if inside >> x & 1]
                      for z in members}
            holds = lambda m: _kurosh(
                join_t, meet_t, m, members, covers, bits(self.up[m] & inside))
        else:
            others = members
            if predicate == "s_quasinormal":
                # Sylow members: |P|/|lo| is the full p-part of |hi|/|lo|
                parts = {p ** e for p, e in factorize(o[hi] // o[lo]).items()}
                others = tuple(k for k in members if o[k] // o[lo] in parts)
            holds = lambda i: all(
                o[i] * o[j] == o[join_t[i][j]] * o[meet_t[i][j]] for j in others)
        by_class = hi == self.top() and self.normal >> lo & 1
        column = done = 0
        for i in members:
            if not done >> i & 1:
                same = self.class_of[i] if by_class else 1 << i
                done |= same
                if holds(i):
                    column |= same
        return column

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

    # -- subnormality ---------------------------------------------------------

    def is_subnormal(self, H) -> bool:
        """Iterated normal closure inside the previous term descends to H.
        Conjugation maps a subnormal series of H to one of each conjugate,
        so the answer is memoised per class representative."""
        c = self.class_of[self.index(H)]
        rep = (c & -c).bit_length() - 1
        hit = self._subnormal.get(rep)
        if hit is None:
            hit = self._subnormal[rep] = self._descends(rep)
        return hit

    def _descends(self, mi: int) -> bool:
        """Each term's normal closure of mi, closed from mi's greedy
        generators under conjugation by the term's, until it stops at mi
        (subnormal) or at the term itself (not subnormal).  The first term,
        the normal closure in G, is read off the lattice: the normal
        subgroups above mi are closed under meets, so the least of them
        lies inside every other and has the lowest index."""
        G, index_of, gens = self.group, self.index_of, self._greedy
        above = self.up[mi] & self.normal
        prev, cur = self.top(), (above & -above).bit_length() - 1
        while cur != mi:
            if cur == prev:
                return False
            prev, cur = cur, index_of[_normal_closure_mask(G, gens(mi), gens(cur))]
        return True

    def _greedy(self, i: int) -> tuple[int, ...]:
        gens = self._generators.get(i)
        if gens is None:
            gens = self._generators[i] = _greedy_generators(
                self.group.table, self._masks[i])
        return gens

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
        modular, squasi = self.modular, self.s_quasinormal
        for i, s in enumerate(self.subgroups):
            attrs = [f'label="{s.order}:{i}"']
            if self.normal >> i & 1:
                attrs.append("shape=box")
            if modular >> i & 1:
                attrs.append("style=filled")
                attrs.append('fillcolor="#dce9ed"')
            if squasi >> i & 1:
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


def _kurosh(join_t, meet_t, m: int, members, covers, above_m) -> bool:
    """Both modularity conditions for m over the members of one section;
    ``covers[z]`` and ``above_m`` are z's lower covers and m's up-set in it.

    Condition (i) is read off covers: it fails exactly at a cover x < z with
    x ^ m = z ^ m and x v m = z v m.  Such a cover fails it at (x, z).  And
    if x <= z fails it, x' = x v (m ^ z) < z' = (x v m) ^ z have equal meets
    and joins with m, so every cover on a chain from x' to z' has too.  An
    interval is a sublattice, so this holds in a section.  Condition (ii)
    is evaluated literally."""
    join_m, meet_m = join_t[m], meet_t[m]
    for z in members:
        jz, mz = join_m[z], meet_m[z]
        for x in covers[z]:
            if join_m[x] == jz and meet_m[x] == mz:
                return False
    for z in above_m:
        meet_z = meet_t[z]
        for y in members:
            if join_m[meet_z[y]] != meet_z[join_m[y]]:
                return False
    return True


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
    """Enumerate every subgroup by cyclic extension, one conjugacy class at
    a time (see the module docstring)."""
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
    # every subgroup found -> its class representative, whole classes at a time
    found = {1: 1}
    frontier = [(1, ())]  # class representatives with their generators
    while frontier:
        new = []
        for h, gens in frontier:
            elems = tuple(bits(h))
            skip = h  # h and the members of covers <h, x> of prime index
            for x in cyclic.values():
                if (skip >> x) & 1:
                    continue
                k = _extend(table, elems, h, gens + (x,), G.order)
                if is_prime(k.bit_count() // len(elems)):
                    skip |= k
                if k not in found:
                    new.append((k, gens + (x,)))
                    found[k] = k
                    # found holds whole classes, so none of k's is in it yet
                    conjugates = [k]
                    for c in conjugates:
                        for g in G.generator_indices:
                            d = conjugate_mask(G, g, c)
                            if d not in found:
                                found[d] = k
                                conjugates.append(d)
        frontier = new
    return SubgroupLattice(G, list(found), found)


def lattice_of(G: Group) -> SubgroupLattice:
    """The subgroup lattice of G, memoised on the group instance."""
    lat = G._cache.get("lattice")
    if lat is None:
        lat = enumerate_lattice(G)
        G._cache["lattice"] = lat
    return lat
