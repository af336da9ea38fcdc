"""Complete subgroup lattices and subgroup embedding predicates.

Two classes split what the lattice alone decides from what needs the
group.  ``Lattice`` is built from the up-sets of any finite lattice whose
indices extend its order (0 the bottom, n - 1 the top) and holds no
group: inclusion, covers, the n-maximal layers with a chain of covers down
to each member (``witness_chain``), the meet of the maximal elements above
an element (``frattini``), join and meet rows, interval sizes and the
modular column of every section [lo, hi].  Kurosh's conditions use only
joins, meets and order, and an n-maximal element is the end of a chain of
covers, so these answers are the same on every lattice isomorphic to it
(R. Schmidt, *Subgroup Lattices of Groups*, 1994, section 2.1).
``SubgroupLattice(Lattice)`` computes the up-sets from the subgroups of a
group and adds what needs the group: the subgroups themselves, normality,
conjugacy classes and automorphism orbits (which let a column be evaluated
once per block), the quasinormal, S-quasinormal and subnormal columns, the
readers of the normal column (``core``, ``normal_closure`` and
``centralizer``) and ``to_dot``.  Every reader that answers with elements
takes and returns lattice indices; ``subgroups[i]`` is the subgroup at
index i, read where one is shown or rebuilt.

The lattice of a group is enumerated once by cyclic extension and cached on
the group.  Starting from the trivial subgroup, a subgroup H is extended by
one generator x of each cyclic subgroup of prime-power order with x not in
H, and <H, x> is closed from H by adding right cosets of H one at a time
(Dimino's method, ``groups._closure``, the package's one subgroup
closure).  Every subgroup is generated by its prime-power elements, so a
chain of such extensions reaches it; perfect subgroups included.  Two
exact facts cut the extensions (Holt, Eick and O'Brien, *Handbook of
Computational Group Theory*, 2005, on cyclic extension):

- Orbits.  A new subgroup K brings its whole orbit into the found set,
  under the group that conjugation and ``groups.found_automorphisms``
  generate, and only K is extended further: <phi(H), x> =
  phi(<H, phi^-1(x)>) with phi^-1(x) again of prime-power order.  The
  orbit joins class by class: a class is closed under conjugation by the
  generators (not the central ones, which fix every subgroup), and each
  image of a representative not yet found opens the next class
  (phi(H^g) = phi(H)^phi(g): the image of one member gives the class's).
- Prime index.  When |<H, x> : H| is prime, H is maximal in K = <H, x>, so
  <H, y> = K for every y in K outside H, and those y are skipped for H.

``tests/test_lattice_oracle.py`` keeps the literal loop, every subgroup
found extended by every generator, as an oracle.

Subgroups are kept in a canonical order: ascending by order, ties broken by
the sorted member tuple.  Inclusion is stored as bitsets over those
indices (``up[i]``: the subgroups containing i, ``down[j]``: the subgroups
inside j); ``up[i]`` is the AND, over the members x of i, of the bitset of
subgroups holding x.  A subgroup's proper subgroups have smaller order, so
the join of i and j is the lowest index of ``up[i] & up[j]`` and the meet
the highest of ``down[i] & down[j]``; covers and both tables need no
closure.  The join and meet tables (``join_t``, ``meet_t``) build row i the
first time it is read and keep it: a column tests one representative per
orbit or class, so only the representatives' rows are built, and a
lattice asked only for normal subgroups and covers (a quotient's, for its
chief factors) builds none.  ``tests/oracles.py`` builds both tables
whole, as the oracle.

Each embedding predicate is one int bitset over those indices, a column:
``normal`` is built with the lattice, ``modular``, ``quasinormal``,
``s_quasinormal`` and ``subnormal`` are evaluated on first use.  The
n-maximal subgroups are one bitset per depth, ``layers[n]``; n-maximality
is read existentially (some maximal chain G = M0 > ... > Mn ends at H, so
H can be n-maximal for several n) and each layer is the covers of the one
above.  "Every n-maximal subgroup is modular" is ``layers[n] & ~modular``
being 0.

An automorphism phi of G maps the subgroup lattice onto itself, keeping
orders, joins and meets, and maps Sylow subgroups to Sylow subgroups and
normal subgroups to normal ones.  So the modular, quasinormal,
S-quasinormal and subnormal columns of the whole lattice give the same
answer on every member of an orbit of the group of automorphisms (this is
not a theorem of the paper, and no predicate uses one).  Conjugation is the
inner case: it also fixes every normal subgroup N, so each predicate inside
a quotient section [N, G] is constant on conjugacy classes.  The
enumeration records each subgroup's class (``class_of``) and orbit
(``orbit_of``, a union of classes; ``class_of`` itself when no
automorphism is found), and a subgroup is normal exactly when its class
is itself.  An answer on the whole lattice is evaluated on one
representative per orbit and its orbit bitset ORed in, one on [N, G] per
class; fewer automorphisms found only give smaller orbits.  phi moves N,
so [N, G] is not read per orbit, and a subgroup section [lo, hi] with
hi < G is not fixed by conjugation and is evaluated member by member.
``tests/oracles.py`` keeps per-member evaluation as the oracle.

A predicate can be asked inside a section [lo, hi] as well.  The lattice
of a subgroup B is the interval [1, B], and that of G/N is isomorphic to
[N, G] (correspondence theorem: K/N <-> K, the image of K is K v N, and
|K/N| = |K|/|N|), so no subgroup or quotient is rebuilt as a group;
``tests/test_lattice_sections.py`` checks every answer against the rebuilt
group's lattice.

Predicates are decided against the lattice and never by the structure
theorems they feed, which are test targets.  Modularity is decided by
counting: m satisfies both of Kurosh's conditions exactly when
|[m, m v y]| = |[m ^ y, y]| for every y (``_kurosh``), read from one table
of every interval's size that all sections share (``interval_sizes``).
Subnormality iterates normal closures: the first, H^G, is the least normal
subgroup above H, and each later one is closed from the greedy generators
of H under conjugation by those of the current term; the loop over every
member of the term is the oracle in the tests.  Permutability
is decided by counting: |HP| = |H||P|/|H^P|, and HP = PH exactly when HP
is a subgroup, that is when |HP| = |H v P| (in a quotient both sides
divide by |N|^2).  Quasinormality in a subgroup B (the whole group
included) quantifies over the primary cyclic subgroups of B only, the
cyclic subgroups of prime-power order (``primary_cyclic``; the proof is in
``is_quasinormal``).  The literal comparison of product sets, against
every subgroup, is the oracle in the tests.

The package's other normal-subgroup answers are read off the normal column
too, and nowhere else: the core H_G is the highest normal index below H,
the normal closure H^G the lowest above it, and C_G(H/K) for normal K <= H
the first normal subgroup above K, met from the top, whose generators
commute with H's modulo K.  The intersection of all conjugates, the closure
of all conjugates and the centraliser over every member are the oracles in
the tests.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, getitem, or_

from .groups import (
    Group,
    GroupError,
    SubgroupSet,
    _closure,
    _gatherer,
    _greedy_generators,
    _memo,
    _normal_closure_mask,
    bits,
    conjugate_mask,
    factorize,
    found_automorphisms,
    is_prime,
)


MAX_SUBGROUPS = 4096  # a lattice of n holds up to two n x n tables (join, meet)


class BadDepth(Exception):
    """n-maximality depth must be at least 1."""


class TooManySubgroups(GroupError):
    """The enumeration found more than ``MAX_SUBGROUPS`` subgroups."""


class _Rows(dict):
    """A table of n rows whose row i is ``build(i)``, computed the first
    time it is read and then kept.  Reading a kept row is the dict's own
    lookup, with no Python-level call; ``len`` and iteration see all n rows
    in order."""

    __slots__ = ("_n", "_build")

    def __init__(self, n: int, build):
        super().__init__()
        self._n, self._build = n, build

    def __missing__(self, i):
        if not 0 <= i < self._n:
            raise IndexError(f"row {i!r} of a table of {self._n}")
        row = self[i] = self._build(i)
        return row

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return map(self.__getitem__, range(self._n))


class Lattice:
    """A finite lattice given by the up-sets of its elements, indexed in
    an order that extends the lattice's (0 the bottom, n - 1 the top):
    inclusion, covers, n-maximal layers and their witness chains, the
    meet of the maximal elements above one (``frattini``), join/meet
    tables whose rows are built on first read (``join_t[i][j]``,
    ``meet_t[i][j]``; each row a tuple of shared ints), interval sizes and
    the modular column of every section.  It holds no group."""

    def __init__(self, up):
        n = len(up)
        # every index drawn from one tuple: past 256 a computed int is a
        # fresh object each time, a shared one is not
        ints = tuple(range(n))
        self.size = n
        above = [tuple(bits(u)) for u in up]
        below = [[] for _ in range(n)]
        down = [0] * n
        for i, js in enumerate(above):
            for j in js:
                below[j].append(i)
                down[j] |= 1 << i
        down = tuple(down)
        self.up = tuple(up)
        self.down = down
        self.above = tuple(above)
        self.below = tuple(map(tuple, below))

        # covers: the strict down-set minus everything below a strict member
        # (below[j] ends with j itself)
        strict = [d ^ 1 << j for j, d in enumerate(down)]
        cover_bits = [
            s & ~reduce(or_, map(strict.__getitem__, below[j][:-1]), 0)
            for j, s in enumerate(strict)]
        self.covers_down = tuple(tuple(bits(b)) for b in cover_bits)
        covers_up = [[] for _ in range(n)]
        for j, kids in enumerate(self.covers_down):
            for i in kids:
                covers_up[i].append(j)
        self.covers_up = tuple(map(tuple, covers_up))

        # join and meet rows, built on first read.  ``rev_up`` is ``up``
        # with index j at bit n-1-j (the binary digits read backwards), so
        # the least common upper bound is the highest bit of an
        # intersection; the greatest common lower bound is that of ``down``.
        rev_up = tuple(int(f"{u:0{n}b}"[::-1], 2) for u in up)

        def join_row(i):
            ri = rev_up[i]
            return tuple([ints[n - (ri & rj).bit_length()] for rj in rev_up])

        def meet_row(i):
            di = down[i]
            return tuple([ints[(di & dj).bit_length() - 1] for dj in down])

        self.join_t, self.meet_t = _Rows(n, join_row), _Rows(n, meet_row)

        # layers[k]: the elements at the end of some maximal chain of
        # length k, the covers of the layer above; the last layer is {0}
        layers = [1 << (n - 1)]
        while layers[-1] != 1:
            nxt = 0
            for j in bits(layers[-1]):
                nxt |= cover_bits[j]
            layers.append(nxt)
        self.layers = tuple(layers)
        self.max_chain_length = len(layers) - 1

        # answers memoised through _memo: (predicate, lo, hi) -> column of
        # the section [lo, hi], "sizes" -> interval sizes, and a subgroup
        # lattice's ("generators", i) -> greedy generators
        self._cache: dict = {}

    def index(self, H) -> int:
        """Accept a lattice index."""
        if isinstance(H, int) and 0 <= H < self.size:
            return H
        raise KeyError(f"{H!r} is not an element of this lattice")

    def top(self) -> int:
        return self.size - 1

    def interval_sizes(self) -> tuple[dict[int, int], ...]:
        """``sizes[a][b]`` is |[a, b]|, the number of elements k with
        a <= k <= b, for every b >= a: one AND of inclusion bitsets per
        comparable pair, counted on first use."""
        return _memo(self, "sizes", _interval_sizes, self.up, self.down, self.above)

    # -- maximality ---------------------------------------------------------

    def n_maximal_bits(self, n: int) -> int:
        """Bitset of the n-maximal elements (0 beyond the longest chain)."""
        if n < 1:
            raise BadDepth(f"depth must be >= 1, got {n}")
        return self.layers[n] if n < len(self.layers) else 0

    def n_maximal_indices(self, n: int) -> tuple[int, ...]:
        return tuple(bits(self.n_maximal_bits(n)))

    def is_n_maximal(self, H, n: int) -> bool:
        return bool(self.n_maximal_bits(n) >> self.index(H) & 1)

    def witness_chain(self, H, n: int) -> tuple[int, ...]:
        """A chain top = M0 > M1 > ... > Mn = H of indices, each step a
        cover, climbed from H through the least cover in the layer above.
        Raises BadDepth when H is not n-maximal."""
        i = self.index(H)
        if not self.is_n_maximal(i, n):
            raise BadDepth(f"element {i} is not {n}-maximal")
        chain = [i]
        for k in range(n - 1, -1, -1):
            chain.append(min(p for p in self.covers_up[chain[-1]]
                             if self.layers[k] >> p & 1))
        return tuple(reversed(chain))

    def frattini(self, k=0) -> int:
        """The meet of the maximal elements above k (of every one at
        k = 0): the highest index inside all of them.  In a subgroup
        lattice it is the Frattini subgroup at k = 0, and for k normal the
        preimage of the Frattini subgroup of G/K (correspondence theorem)."""
        down = self.down
        inside = down[self.top()]
        for i in bits(self.up[self.index(k)] & self.n_maximal_bits(1)):
            inside &= down[i]
        return inside.bit_length() - 1

    # -- predicate columns ----------------------------------------------------

    def column(self, predicate: str, section=None) -> int:
        """Bitset of the members of ``section`` that are ``predicate`` in
        it ("modular"; a subgroup lattice also answers "quasinormal",
        "s_quasinormal" and, on the whole lattice, "subnormal").
        ``section`` is (lo, hi) with lo <= hi, the interval [lo, hi], and
        defaults to the whole lattice; in a subgroup lattice it stands for
        the lattice of the subgroup hi (lo = 0) or of the quotient by lo
        (hi = top)."""
        lo, hi = (0, self.top()) if section is None else map(self.index, section)
        return _memo(self, (predicate, lo, hi), self._evaluate, predicate, lo, hi)

    @property
    def modular(self) -> int:
        return self.column("modular")

    def _reads(self, predicate: str, H, section) -> bool:
        i = self.index(H)
        lo, hi = (0, self.top()) if section is None else map(self.index, section)
        if not (self.up[lo] & self.down[hi]) >> i & 1:
            raise KeyError(f"element {i} is not in the section [{lo}, {hi}]")
        return bool(self.column(predicate, (lo, hi)) >> i & 1)

    def is_modular(self, H, section=None) -> bool:
        """Modular element of the lattice (or of the section): for all
        X <= Z, <X, M^Z> = <X, M>^Z, and for all Y, Z with M <= Z,
        <M, Y^Z> = <M, Y>^Z (juxtaposition = join, ^ = meet)."""
        return self._reads("modular", H, section)

    def _evaluate(self, predicate: str, lo: int, hi: int) -> int:
        """One column: ``_plan`` gives the test of one member and, where a
        group of symmetries keeps the answer, the bitset of each member's
        block, and the least member of each block is tested and its block
        ORed in.  The quantifier loops walk index tuples of the section:
        walking bitsets there is several times slower."""
        if not self.up[lo] >> hi & 1:
            raise KeyError(f"no {predicate!r} column on [{lo}, {hi}]")
        members = tuple(bits(self.up[lo] & self.down[hi]))
        holds, same_of = self._plan(predicate, lo, hi, members)
        column = done = 0
        for i in members:
            if not done >> i & 1:
                same = same_of[i] if same_of else 1 << i
                done |= same
                if holds(i):
                    column |= same
        return column

    def _plan(self, predicate: str, lo: int, hi: int, members):
        """(test of one member, None): a lattice alone knows no symmetry,
        so every member is tested, and it knows only modularity."""
        if predicate != "modular":
            raise KeyError(f"no {predicate!r} column on [{lo}, {hi}]")
        get, sizes = _gatherer(members), self.interval_sizes()
        return (lambda m: _kurosh(self, members, m, get, sizes)), None

    def __len__(self) -> int:
        return self.size


class SubgroupLattice(Lattice):
    """All subgroups of a group as a ``Lattice``, with the subgroups,
    normality, conjugacy classes and automorphism orbits, the
    (S-)quasinormal columns and subnormality."""

    def __init__(self, group: Group, masks: list[int], classes: dict):
        # ``classes`` maps each mask to its class and orbit representatives,
        # as the enumeration found them.  It stays the third positional
        # argument: perfbench's traced run subclasses this class with a
        # (group, masks, joins) signature and forwards it unchanged.
        keyed = sorted((m.bit_count(), tuple(bits(m)), m) for m in masks)
        canonical = [m for _, _, m in keyed]
        self.group = group
        self.subgroups = tuple(SubgroupSet(group, m) for m in canonical)
        self.index_of = {m: i for i, m in enumerate(canonical)}
        self._orders = tuple(m.bit_count() for m in canonical)

        # inclusion bitsets: holding[x] is the subgroups containing the
        # element x, and j contains i exactly when it holds every member of
        # i, so up[i] is the AND of its members' bitsets
        holding = [0] * group.order
        for j, (_, members, _) in enumerate(keyed):
            for x in members:
                holding[x] |= 1 << j
        super().__init__([reduce(and_, map(holding.__getitem__, members))
                          for _, members, _ in keyed])

        # class_of[i], orbit_of[i]: the bitsets of i's conjugacy class and
        # of its orbit (a union of classes); a subgroup is normal exactly
        # when its class is itself
        def blocks(reps):
            by_rep: dict[int, int] = {}
            for i, r in enumerate(reps):
                by_rep[r] = by_rep.get(r, 0) | 1 << i
            return tuple(map(by_rep.__getitem__, reps))

        class_reps, orbit_reps = zip(*map(classes.__getitem__, canonical))
        self.class_of, self.orbit_of = blocks(class_reps), blocks(orbit_reps)
        self.normal = sum(
            1 << i for i, c in enumerate(self.class_of) if c == 1 << i)

    def index(self, H) -> int:
        """Accept a SubgroupSet of this group or a lattice index (never a
        raw mask)."""
        # written out, not through ``Lattice.index``: every ``is_*`` read
        # calls it, and the extra call is a visible share of a column read
        if isinstance(H, SubgroupSet) and H.parent is self.group:
            return self.index_of[H.mask]
        if isinstance(H, int) and 0 <= H < self.size:
            return H
        raise KeyError(f"{H!r} is not a subgroup of this lattice")

    def is_normal(self, H) -> bool:
        return bool(self.normal >> self.index(H) & 1)

    def normal_indices(self) -> tuple[int, ...]:
        return tuple(bits(self.normal))

    # -- the normal column's readers: each takes and returns lattice indices --

    def core(self, i: int) -> int:
        """H_G, the largest normal subgroup inside i.  The normal subgroups
        below i are closed under joins, so the largest of them contains
        every other and has the highest index."""
        return (self.down[i] & self.normal).bit_length() - 1

    def normal_closure(self, i: int) -> int:
        """H^G, the least normal subgroup above i.  The normal subgroups
        above i are closed under meets, so the least of them lies inside
        every other and has the lowest index."""
        above = self.up[i] & self.normal
        return (above & -above).bit_length() - 1

    def centralizer(self, h: int, k: int = 0) -> int:
        """C_G(H/K) = {g : [g, x] in K for all x in H}, for K <= H both
        normal (C_G(H) at k = 0).  It is normal and contains K, and for
        normal N, [N, H] <= K exactly when N's generators commute with H's
        modulo K: K is normal, so for fixed n the x with [n, x] in K form a
        subgroup containing K, and so for fixed x.  Those N are closed under
        products, so C_G(H/K) is the largest of them: the first normal
        subgroup above K to pass, met from the top (K passes)."""
        G, km, gens = self.group, self.subgroups[k].mask, self._greedy
        h_gens, normals = gens(h), self.up[k] & self.normal
        while True:
            n = normals.bit_length() - 1
            if all(km >> G.commutator(a, x) & 1 for a in gens(n) for x in h_gens):
                return n
            normals ^= 1 << n

    # -- predicate columns ----------------------------------------------------

    @property
    def quasinormal(self) -> int:
        return self.column("quasinormal")

    @property
    def s_quasinormal(self) -> int:
        return self.column("s_quasinormal")

    def is_quasinormal(self, H) -> bool:
        """HP = PH as sets for every subgroup P.

        The column tests H only against the primary cyclic subgroups, the
        cyclic subgroups of prime-power order, of G (of B in a section
        [1, B]); they are enough.  For x in any P, <x> = <x_1>...<x_k>, the
        product of its primary parts, each x_i a power of x and so in P.
        H<x_i> = <x_i>H for each i gives H<x> = <x>H, moving one factor at
        a time.  Then xH is in H<x>, inside HP, and Hx in <x>H, inside PH,
        for every x in P, so HP = PH."""
        return self._reads("quasinormal", H, None)

    def is_s_quasinormal(self, H, section=None) -> bool:
        """HP = PH as sets for every Sylow subgroup P (all primes, all
        conjugates; of the section)."""
        return self._reads("s_quasinormal", H, section)

    def _plan(self, predicate: str, lo: int, hi: int, members):
        """The two permutability tests and subnormality besides modularity,
        and the blocks that keep each answer.  On the whole lattice the
        automorphisms found permute the members and keep the answer, and on
        a section [N, G] with N normal conjugation does, so one member per
        orbit (per class) is tested; a subgroup section [1, hi] with hi < G
        is not fixed by conjugation and is tested member by member.
        Quasinormality in a subgroup section [1, hi] quantifies over hi's
        primary cyclic subgroups (see ``is_quasinormal``); in a quotient
        section [lo, hi] with lo > 0 over every member.  Subnormality is
        answered on the whole lattice only."""
        if predicate == "subnormal" and (lo, hi) == (0, self.top()):
            holds = self._descends
        elif predicate in ("quasinormal", "s_quasinormal"):
            o, join_t, meet_t = self._orders, self.join_t, self.meet_t
            others = members
            if predicate == "s_quasinormal":
                # Sylow members: |P|/|lo| is the full p-part of |hi|/|lo|
                parts = {p ** e for p, e in factorize(o[hi] // o[lo]).items()}
                others = tuple(k for k in members if o[k] // o[lo] in parts)
            elif lo == 0:
                index_of = self.index_of
                others = tuple(bits(self.down[hi] & sum(
                    1 << index_of[c] for c in primary_cyclic(self.group))))

            def holds(i):
                oi, join_i, meet_i = o[i], join_t[i], meet_t[i]
                return all(oi * o[j] == o[join_i[j]] * o[meet_i[j]]
                           for j in others)
        else:  # "modular", or the lattice's KeyError
            holds = super()._plan(predicate, lo, hi, members)[0]
        same_of = None
        if hi == self.top() and self.normal >> lo & 1:
            same_of = self.orbit_of if lo == 0 else self.class_of
        return holds, same_of

    # -- subnormality ---------------------------------------------------------

    def is_subnormal(self, H) -> bool:
        """Iterated normal closure inside the previous term descends to H,
        read off the "subnormal" column of the whole lattice.  An
        automorphism maps a subnormal series of H to one of its image, so
        the column is evaluated once per orbit."""
        return self._reads("subnormal", H, None)

    def _descends(self, mi: int) -> bool:
        """Each term's normal closure of mi, closed from mi's greedy
        generators under conjugation by the term's, until it stops at mi
        (subnormal) or at the term itself (not subnormal).  The first term,
        the normal closure in G, is read off the normal column."""
        G, index_of, gens = self.group, self.index_of, self._greedy
        prev, cur = self.top(), self.normal_closure(mi)
        while cur != mi:
            if cur == prev:
                return False
            prev, cur = cur, index_of[_normal_closure_mask(G, gens(mi), gens(cur))]
        return True

    def _greedy(self, i: int) -> tuple[int, ...]:
        return _memo(self, ("generators", i), _greedy_generators,
                     self.group.table, self.subgroups[i].mask)

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

    def __repr__(self) -> str:
        return f"SubgroupLattice({self.group.name}, {self.size} subgroups)"


def _kurosh(lat, members, m: int, get, sizes) -> bool:
    """Kurosh's conditions (i) and (ii) for m over the members of one
    section, decided by counting: |[m, m v y]| = |[m ^ y, y]| for every
    member y.  ``get`` gathers the members' entries of a row; ``sizes`` is
    ``lat.interval_sizes()``.

    The count implies (i).  If (i) fails at x <= z, then w = x v (m ^ z) <
    w' = (x v m) ^ z.  Both lie in [m ^ z, z] and in [x, x v m], so they
    have the same meet (m ^ z) and join (x v m) with m, and the count at
    y = w and at y = w' gives |[m ^ z, w]| = |[m, x v m]| = |[m ^ z, w']|,
    although the first interval lies inside the second and misses w'.

    Given (i), (ii) holds exactly when A = [m, m v y] and B = [m ^ y, y]
    have the same size for every y (transposed intervals; R. Schmidt,
    *Subgroup Lattices of Groups*, 1994, section 2.1).  psi(z) = z ^ y maps
    A to B and chi(w) = w v m maps B to A; (i) with z := y gives
    psi chi = id_B, so psi is onto.  (ii) at (y, z) with z >= m is (ii) at
    z' = (m v y) ^ z in A (both sides are unchanged), where it reads
    chi psi(z') = z'.  So (ii) for all z is chi psi = id_A, which holds
    exactly when psi is also one-to-one, that is when |A| = |B|.

    A section is an interval, so its interval sizes are the lattice's own:
    |A| is ``sizes[m]`` gathered at the members' joins with m, |B| is
    ``sizes[m ^ y][y]``, both at C speed with no bitset work per m.  Literal
    quantifier evaluation of both conditions is the oracle in the tests."""
    join_m, meet_m = lat.join_t[m], lat.meet_t[m]
    a = _gatherer(get(join_m))(sizes[m])  # |[m, m v y]|
    b = map(getitem, _gatherer(get(meet_m))(sizes), members)  # |[m ^ y, y]|
    return a == tuple(b)


def _interval_sizes(up, down, above) -> tuple[dict[int, int], ...]:
    return tuple({b: (up[a] & down[b]).bit_count() for b in above_a}
                 for a, above_a in enumerate(above))


def primary_cyclic(G: Group) -> dict[int, int]:
    """Each cyclic subgroup of G of prime-power order > 1, as a mask, mapped
    to its least generator; memoised on the group."""
    return _memo(G, "primary_cyclic", _primary_cyclic, G)


def _primary_cyclic(G: Group) -> dict[int, int]:
    table, orders = G.table, G.element_orders()
    cyclic = {}
    for x in range(1, G.order):
        if len(factorize(orders[x])) == 1:
            cyclic.setdefault(_closure(table, 1, (x,)), x)
    return cyclic


def enumerate_lattice(G: Group) -> SubgroupLattice:
    """Enumerate every subgroup by cyclic extension, one orbit at a time
    (see the module docstring): a new subgroup k brings its whole orbit
    into the found set, class by class, and only k is extended further.
    Raises ``TooManySubgroups`` as soon as a class closure passes
    ``MAX_SUBGROUPS`` found, before any table is built."""
    table = G.table
    cyclic = primary_cyclic(G)
    # conjugation by a central element fixes every subgroup, so the class
    # walk uses only the generators that fail to commute with some other
    gens_g = G.generator_indices
    movers = [g for g in gens_g
              if any(table[g][h] != table[h][g] for h in gens_g)]
    shifted = [tuple(1 << y for y in phi) for phi in found_automorphisms(G)]
    # every subgroup found -> (its class representative, its orbit
    # representative), whole orbits at a time
    found = {1: (1, 1)}

    def add_class(r, k):
        """r, not yet found, and its conjugates join k's orbit."""
        found[r] = (r, k)
        conjugates = [r]
        for c in conjugates:
            for g in movers:
                d = conjugate_mask(G, g, c)
                if d not in found:
                    found[d] = (r, k)
                    conjugates.append(d)
        if len(found) > MAX_SUBGROUPS:
            raise TooManySubgroups(
                f"{G.name} has more than {MAX_SUBGROUPS} "
                f"subgroups, the limit of one lattice")

    frontier = [(1, ())]  # orbit representatives with their generators
    while frontier:
        new = []
        for h, gens in frontier:
            elems = tuple(bits(h))
            skip = h  # h and the members of covers <h, x> of prime index
            for x in cyclic.values():
                if (skip >> x) & 1:
                    continue
                k = _closure(table, h, gens + (x,), elems)
                if is_prime(k.bit_count() // len(elems)):
                    skip |= k
                if k not in found:
                    new.append((k, gens + (x,)))
                    # found holds whole orbits, so none of k's is in it yet;
                    # an automorphism maps each class onto a class, read off
                    # the image of its representative
                    reps = [k]
                    add_class(k, k)
                    for r in reps:
                        members = _gatherer(tuple(bits(r)))
                        for bit in shifted:
                            e = sum(members(bit))
                            if e not in found:
                                add_class(e, k)
                                reps.append(e)
        frontier = new
    return SubgroupLattice(G, list(found), found)


def lattice_of(G: Group) -> SubgroupLattice:
    """The subgroup lattice of G, memoised on the group instance."""
    return _memo(G, "lattice", enumerate_lattice, G)
