"""Finite groups as dense multiplication tables over 0-based element indices.

Conventions used throughout the package:

- the elements of a group of order n are the integers 0..n-1, and 0 is
  always the identity;
- ``table[g][h]`` is the product g*h;
- a subgroup is a bitmask over element indices (bit i set = element i is a
  member), wrapped in :class:`SubgroupSet`.

Groups are immutable once built.  Answers about a group (element orders,
primary cyclic subgroups, the subgroup lattice, chief factors, series and
residuals) are memoised on the instance through :func:`_memo`; no derived
group (quotient or subgroup) is, so each lives only as long as its caller
keeps it.  The memo never changes observable behaviour.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path

DEFAULT_MAX_ORDER = 2000


class GroupError(Exception):
    """Base class for group construction and validation failures."""


class NotAGroup(GroupError):
    """The supplied table violates a group axiom (message names a witness)."""


class InvalidPermutation(GroupError):
    """A generator is not a bijection on the stated points."""


class ClosureExceedsCap(GroupError):
    """A requested group's order, or a closure in progress, is above the order cap."""


class NotNormal(GroupError):
    """Operation requires a normal subgroup."""


class NotAnAction(GroupError):
    """Supplied maps do not form a homomorphism into the automorphism group."""


class NotPrime(GroupError):
    """Argument must be a prime number."""


class LoadError(GroupError):
    """A group description file could not be parsed or validated."""


# ---------------------------------------------------------------------------
# memo and bitmask helpers

def _memo(owner, key, compute, *args):
    """``owner._cache[key]``, filled from ``compute(*args)`` on the first
    read; the only reader and writer of a ``_cache``.  ``compute`` never
    returns None, which marks a miss."""
    hit = owner._cache.get(key)
    if hit is None:
        hit = owner._cache[key] = compute(*args)
    return hit


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(table, start: int, gens, elems=None) -> int:
    """Mask of <H, gens> for the subgroup H = ``start`` (members ``elems``,
    read off the mask when not given), whenever H <= <N, gens> for some
    subgroup N <= H that every generator normalises.  Right cosets Hr are
    added, from H itself, until every representative times every generator
    lands in their union U (Dimino's method; Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, section 4.1).

    U is <H, gens>.  A product rs already in U lies in some Hr', so hrs is
    in Hr' and U is closed under right multiplication by the generators.
    U holds N, so it holds N<gens>, a subgroup as the generators normalise
    N (inverses are positive powers).  Its members are products of members
    of H and generators, so N<gens> <= U <= <H, gens> = <N, gens> =
    N<gens>, the middle step by H <= <N, gens>.  The callers have

    - N = 1, ``gens`` generating H too: the lattice's extensions,
      ``_normal_closure_mask``, ``Group.validate``, a cyclic subgroup;
    - N = H, every generator normalising H: ``is_nilpotent``'s [cur, hi]lo
      and ``sylow_subgroup``'s step inside the normaliser;
    - N = ``below`` in ``_greedy_generators``: H = <below, the generators
      so far>, all of them in ``mask``, where below is normal.

    Early exit: U lies in the subgroup <H, gens>, whose order divides n
    (Lagrange), so once U has more than n/2 members that subgroup is the
    whole table.

    On a table not yet known to be associative (``Group.validate``), H and
    the generators lie in the middle nucleus {a : (xa)y = x(ay) for all x,
    y}.  With an identity and rows and columns that are permutations it is
    a group (Bruck, *A Survey of Binary Systems*, 1958): (x(ab))y =
    ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y) closes it under products,
    which associate on it, and it is finite with cancellation.  Every
    product formed here has both factors in it, so the run is Dimino's in
    that group.  For a subgroup K of it the left cosets xK partition the
    table: z = xk gives zk' = x(kk'), so zK = xK, and |xK| = |K| as left
    multiplication is one-to-one.  So |K| divides n, and the early exit
    holds there too."""
    if elems is None:
        elems = tuple(bits(start))
    n = len(table)
    mask = start
    reps = [0]
    for r in reps:
        row = table[r]
        for s in gens:
            y = row[s]
            if not (mask >> y) & 1:
                reps.append(y)
                if 2 * len(reps) * len(elems) > n:
                    return (1 << n) - 1
                for h in elems:
                    mask |= 1 << table[h][y]
    return mask


def _greedy_generators(table, mask: int, below: int = 1) -> tuple[int, ...]:
    """Generators of the subgroup ``mask`` modulo its normal subgroup
    ``below``: each least member outside the subgroup generated by ``below``
    and the members taken before it, that subgroup extended from the last."""
    gens: list[int] = []
    reached = below
    for x in bits(mask & ~below):
        if not (reached >> x) & 1:
            gens.append(x)
            reached = _closure(table, reached, gens)
            if reached == mask:
                break
    return tuple(gens)


def conjugate_mask(G: "Group", g: int, mask: int) -> int:
    """The conjugate set {g*x*g^-1 : x in mask}."""
    table = G.table
    row_g = table[g]
    ginv = G.inverse[g]
    out = 0
    for x in bits(mask):
        out |= 1 << table[row_g[x]][ginv]
    return out


# ---------------------------------------------------------------------------
# table rows, copied at C speed

def _gatherer(positions):
    """A function taking ``values`` to ``tuple(values[i] for i in
    positions)``, copied at C speed; build it once to gather many rows."""
    if len(positions) == 1:  # itemgetter of one position returns no tuple
        (p,) = positions
        return lambda values: (values[p],)
    return itemgetter(*positions)


def _gather(values, positions) -> tuple:
    """``tuple(values[i] for i in positions)``, copied at C speed."""
    return _gatherer(positions)(values)


def group_from_generator_rows(index, gen_rows, name: str = "G") -> "Group":
    """The group whose table the rows of its generators determine.

    ``index`` is ``tuple(range(n))``, and each row in ``gen_rows`` draws its
    entries from it, with ``row_g[x] = g*x``; the generators are the
    elements ``row_g[0]``, in order.  As (g*y)*x = g*(y*x), the row of g*y
    is the row of g read at the row of y.  Walking the left Cayley graph
    breadth first from the identity copies each row once, n entries at C
    speed, and every entry of the table is an object of ``index``.

    The walk is also the proof that the table is a group's, so
    :class:`Group`'s O(n^2) checks are not run again (Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005, section 4.1).
    Let P be the permutation group the generator rows generate, and R the
    rows built, one for each element z, with first entry z.  Every row in
    R is a product of generator rows, so R <= P.  Each edge of the walk
    checks row_g o row_y = row_(g*y), so R is closed under composition
    with the generators, hence with P (inverses are positive powers), and
    R = P as R holds the identity row ``index``.  So |P| = n and P is
    regular, and row_z o row_x, the member of P with first entry z*x, is
    row_(z*x): the table is P's under z -> row_z, associative, with
    identity 0.  The inverses follow the walk: (g*y)^-1 = y^-1 * g^-1.
    """
    n = len(index)
    for k, row in enumerate(gen_rows):
        if sorted(row) != list(index):
            raise NotAGroup(f"generator row {k} is not a permutation of 0..{n - 1}")
    ginv = [row.index(0) for row in gen_rows]  # g*x = 0 at x = g^-1
    rows: list = [None] * n
    rows[0] = index
    reached, tree = [0], [None]  # tree[i]: the edge (y, g^-1) reaching reached[i]
    for y in reached:
        times_y = _gatherer(rows[y])  # times_y(row_g) is the row of g*y
        for row_g, g_inv in zip(gen_rows, ginv):
            z = row_g[y]
            row = times_y(row_g)
            if rows[z] is None:
                rows[z] = row
                reached.append(z)
                tree.append((y, g_inv))
            elif rows[z] != row:
                raise NotAGroup(
                    f"generator rows do not act regularly: element {z} has two rows")
    if len(reached) != n:
        raise NotAGroup("stated generators do not generate the group")
    inverse = [index[0]] * n
    for z, (y, g_inv) in zip(reached[1:], tree[1:]):
        inverse[z] = rows[inverse[y]][g_inv]
    G = Group.__new__(Group)
    G._fill(name, tuple(rows), tuple(inverse), dict.fromkeys(row[0] for row in gen_rows))
    return G


def _pair_group(N: "Group", H: "Group", acts, name: str) -> "Group":
    """The group of the pairs (x, h), packed as index x*|H| + h, with
    (x, h)(y, k) = (x * acts[h][y], h*k).  Only the rows of the generators
    (g, 1) and (1, h) are built here; ``acts[h]`` is read for the
    generators h of H alone."""
    nh = H.order
    index = tuple(range(N.order * nh))
    blocks = [index[x * nh:(x + 1) * nh] for x in range(N.order)]  # the pairs (x, *)
    gen_rows = [tuple(chain.from_iterable(map(blocks.__getitem__, N.table[g])))
                for g in N.generator_indices]
    for h in H.generator_indices:
        row_h = H.table[h]
        gen_rows.append(tuple(chain.from_iterable(
            _gather(blocks[y], row_h) for y in acts[h])))
    return group_from_generator_rows(index, gen_rows, name)


# ---------------------------------------------------------------------------
# the Group type

class Group:
    """A finite group given by its full multiplication table.

    ``Group(table)`` is the path for tables from outside the package.  It
    performs the O(n^2) checks (identity at index 0, Latin-square
    rows/columns, two-sided inverses), one row or column at a time at C
    speed, and draws every entry from one tuple of the n indices.  Entries
    are read with :func:`operator.index`, so a float or a string raises
    TypeError instead of being truncated.  Associativity is checked only by
    :meth:`validate` (O(n^2 log n)), which :func:`group_from_cayley_table`
    calls on untrusted input.

    Every group the package builds itself (catalog families, permutation
    closures, quotients, subgroups, direct and semidirect products) comes
    from :func:`group_from_generator_rows`, whose walk over the generators'
    rows proves the group axioms, associativity included, without these
    checks.
    """

    def _fill(self, name, table, inverse, generators) -> None:
        self.name = str(name)
        self.order = len(table)
        self.table = table
        self.inverse = inverse
        self.generator_indices = tuple(generators)
        self._cache: dict = {}

    def __init__(self, table, name: str = "G", generators=None):
        rows = [tuple(map(operator.index, row)) for row in table]
        n = len(rows)
        if n == 0:
            raise NotAGroup("empty multiplication table")
        index = tuple(range(n))
        for i, row in enumerate(rows):
            if len(row) != n:
                raise NotAGroup(f"table row {i} has length {len(row)}, expected {n}")
            try:
                if min(row) < 0:  # a negative entry would index from the end
                    raise IndexError
                rows[i] = _gather(index, row)
            except IndexError:
                v = next(v for v in row if not 0 <= v < n)
                raise NotAGroup(f"table entry {v} at row {i} out of range") from None
        rows = tuple(rows)
        for j in range(n):
            if rows[0][j] != j:
                raise NotAGroup(f"index 0 is not a left identity: 0*{j} = {rows[0][j]}")
            if rows[j][0] != j:
                raise NotAGroup(f"index 0 is not a right identity: {j}*0 = {rows[j][0]}")
        inverse = []
        for i, (row, col) in enumerate(zip(rows, zip(*rows))):
            if len(set(row)) != n:
                raise NotAGroup(f"row {i} is not a permutation")
            if len(set(col)) != n:
                raise NotAGroup(f"column {i} is not a permutation")
            r = row.index(0)
            if rows[r][i] != 0:
                raise NotAGroup(f"element {i} has no two-sided inverse")
            inverse.append(r)
        full = (1 << n) - 1
        if generators is None:
            gens = _greedy_generators(rows, full)
        else:
            gens = tuple(dict.fromkeys(map(operator.index, generators)))
            for g in gens:
                if not 0 <= g < n:
                    raise NotAGroup(f"stated generator {g} out of range")
            if _closure(rows, 1, gens) != full:
                raise NotAGroup("stated generators do not generate the group")
        self._fill(name, rows, tuple(inverse), gens)

    # -- basic arithmetic ---------------------------------------------------

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1"""
        return self.table[self.table[g][x]][self.inverse[g]]

    def commutator(self, a: int, b: int) -> int:
        """a * b * a^-1 * b^-1"""
        t = self.table
        return t[t[t[a][b]][self.inverse[a]]][self.inverse[b]]

    def element_orders(self) -> tuple[int, ...]:
        return _memo(self, "element_orders", _element_orders, self.table)

    def element_order(self, x: int) -> int:
        return self.element_orders()[x]

    def validate(self) -> "Group":
        """Associativity by Light's test; raises NotAGroup naming a triple.

        Each round takes the least element a not yet reached and checks
        (x*a)*y = x*(a*y) for every x and y, one row comparison per x.  The
        checked elements lie in the middle nucleus, which is closed under
        products, so once right multiplication by them reaches every element
        from 0 the table is associative.  Each round's reached set is a
        group at least twice the last, so there are at most log2(n) + 1
        rounds of O(n^2) each (Clifford-Preston, vol. I, 1961).
        """
        t = self.table
        full = (1 << self.order) - 1
        gens: list[int] = []
        reached = 1
        while reached != full:
            a = (~reached & (reached + 1)).bit_length() - 1
            times_a = _gatherer(t[a])  # times_a(tx)[c] is x*(a*c)
            for x, tx in enumerate(t):
                lhs, rhs = t[tx[a]], times_a(tx)
                if lhs != rhs:
                    c = next(c for c, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                    raise NotAGroup(
                        f"associativity fails on triple ({x},{a},{c}): "
                        f"({x}*{a})*{c} = {lhs[c]} but {x}*({a}*{c}) = {rhs[c]}")
            gens.append(a)
            reached = _closure(t, reached, gens)
        return self

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Group({self.name!r}, order={self.order})"

    # pickling support for process pools: caches are not shipped
    def __getstate__(self):
        state = dict(self.__dict__)
        state["_cache"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


def _element_orders(table) -> tuple[int, ...]:
    """The order of each element, by repeated right multiplication."""
    out = []
    for x in range(len(table)):
        k, y = 1, x
        while y != 0:
            y = table[y][x]
            k += 1
        out.append(k)
    return tuple(out)


@dataclass(frozen=True)
class SubgroupSet:
    """A subgroup of ``parent`` as a bitmask over element indices."""

    parent: Group
    mask: int

    def __post_init__(self):
        if not self.mask & 1:
            raise NotAGroup("subgroup must contain the identity (index 0)")
        if self.mask >> self.parent.order:
            raise NotAGroup("subgroup mask has bits outside the parent group")
        if self.parent.order % self.order != 0:
            raise NotAGroup(
                f"size {self.order} does not divide group order {self.parent.order}")

    @property
    def order(self) -> int:
        return self.mask.bit_count()

    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        return bits(self.mask)

    def __contains__(self, x: int) -> bool:
        return bool((self.mask >> x) & 1)

    def __repr__(self) -> str:
        return f"SubgroupSet({self.parent.name}, order={self.order})"


def trivial_subgroup(G: Group) -> SubgroupSet:
    return SubgroupSet(G, 1)


def whole_group(G: Group) -> SubgroupSet:
    return SubgroupSet(G, (1 << G.order) - 1)


# ---------------------------------------------------------------------------
# constructors

def _check_permutation(p, degree: int):
    tup = tuple(map(operator.index, p))
    if len(tup) != degree or sorted(tup) != list(range(degree)):
        raise InvalidPermutation(f"{p!r} is not a bijection on 0..{degree - 1}")
    return tup


def group_from_permutations(degree: int, generators, name: str = "G",
                            max_order_cap: int = DEFAULT_MAX_ORDER) -> Group:
    """Close a set of permutations (image tuples) under composition.

    Elements are enumerated breadth first from the identity by right
    multiplication with the generators, ties inside a BFS level broken by
    lexicographic image tuple, so element indices are reproducible.
    Products compose left to right: (p*q)(i) = q[p[i]].  Only the rows of
    the generators are looked up, one product g*p per element and
    generator; the other rows are copied from them.
    """
    if degree < 1:
        raise InvalidPermutation("degree must be at least 1")
    gens = [_check_permutation(p, degree) for p in generators]
    if degree == 1:  # itemgetter of one point returns that point, not a tuple
        index = (0,)
        return group_from_generator_rows(index, [index] * len(gens), name)
    ident = tuple(range(degree))
    elems = [ident]
    seen = {ident}
    level = [ident]
    while level:
        found = set()
        for x in level:
            times = itemgetter(*x)  # times(q) is x*q
            for g in gens:
                y = times(g)
                if y not in seen:
                    found.add(y)
        level = sorted(found)
        for y in level:
            seen.add(y)
            elems.append(y)
            if len(elems) > max_order_cap:
                raise ClosureExceedsCap(
                    f"permutation closure exceeds max_order_cap {max_order_cap}")
    index = tuple(range(len(elems)))
    lookup = dict(zip(elems, index)).__getitem__
    gen_rows = [tuple(map(lookup, map(itemgetter(*g), elems))) for g in gens]  # g*p
    return group_from_generator_rows(index, gen_rows, name)


def group_from_cayley_table(table, name: str = "G",
                            max_order_cap: int = DEFAULT_MAX_ORDER) -> Group:
    """Build a group from an explicit table, with full axiom validation.

    The order cap is compared with the number of rows before any row is read.
    """
    if len(table) > max_order_cap:
        raise ClosureExceedsCap(
            f"order {len(table)} exceeds max_order_cap {max_order_cap}")
    return Group(table, name=name).validate()


def _cycle_images(degree: int, cycles) -> dict[int, int]:
    """The images of the points that cycle notation names, each point read
    with :func:`operator.index` and checked against ``degree``; a later
    cycle overwrites the images an earlier one gave."""
    images: dict[int, int] = {}
    for cyc in cycles:
        pts = list(map(operator.index, cyc))
        for v in pts:
            if not 0 <= v < degree:
                raise InvalidPermutation(f"cycle point {v} out of range for degree {degree}")
        if len(set(pts)) != len(pts):
            raise InvalidPermutation(f"cycle {cyc!r} repeats a point")
        images.update(zip(pts, pts[1:] + pts[:1]))
    if len(set(images.values())) != len(images):
        raise InvalidPermutation(f"cycles {cycles!r} are not a bijection")
    return images


def cycles_to_perm(degree: int, cycles) -> tuple[int, ...]:
    """Turn cycle notation (list of lists of 0-based points) into an image tuple."""
    images = _cycle_images(degree, cycles)
    return tuple(images.get(v, v) for v in range(degree))


def group_from_json(data, max_order_cap: int = DEFAULT_MAX_ORDER) -> Group:
    """Build a group from the JSON description format.

    Schema: {"name": str, "kind": "permutation"|"cayley",
             "degree": int?, "generators": [[cycle, ...], ...]?,
             "table": [[int, ...], ...]?}
    """
    if not isinstance(data, dict):
        raise LoadError("group description must be a JSON object")
    name = data.get("name", "G")
    if not isinstance(name, str):
        raise LoadError(f"group name must be a string, got {name!r}")
    kind = data.get("kind")
    try:
        if kind == "permutation":
            degree = operator.index(data["degree"])
            images = [_cycle_images(degree, cycles) for cycles in data.get("generators", [])]
            # unnamed points are fixed by every element and never decide the
            # BFS order, so build on the named points and 0, relabelled in
            # order; a degree below 1 names none and is rejected there
            label = {v: i for i, v in enumerate(sorted({0}.union(*images)))}
            perms = [tuple(label[img.get(v, v)] for v in label) for img in images]
            return group_from_permutations(min(degree, len(label)), perms, name=name,
                                           max_order_cap=max_order_cap)
        if kind == "cayley":
            return group_from_cayley_table(data["table"], name=name,
                                           max_order_cap=max_order_cap)
    except GroupError as exc:
        raise LoadError(f"invalid group {name!r}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise LoadError(f"malformed group description: {exc}") from exc
    raise LoadError(f"unknown group kind {kind!r} (expected 'permutation' or 'cayley')")


def load_group(path, max_order_cap: int = DEFAULT_MAX_ORDER) -> Group:
    try:
        with open(Path(path), "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise LoadError(f"{path} is not valid JSON: {exc}") from exc
    return group_from_json(data, max_order_cap=max_order_cap)


# ---------------------------------------------------------------------------
# subgroup-valued operations

def subgroup_generated(G: Group, seed) -> SubgroupSet:
    """Smallest subgroup of G containing the seed indices."""
    return SubgroupSet(G, _normal_closure_mask(G, seed, ()))


def centralizer_mask(G: Group, hmask: int, kmask: int = 1) -> int:
    """C_G(H/K) = {g : every commutator [g, h] with h in H lies in K}, for
    K <= H normal in G; K = 1 gives the centraliser of H.  K is normal, so
    for each g the h with [g, h] in K form a subgroup containing K (the
    preimage of the centraliser of gK in G/K): generators of H modulo K
    suffice."""
    t, inv = G.table, G.inverse
    gens = [(h, inv[h]) for h in _greedy_generators(t, hmask, kmask)]
    out = 0
    for g, row in enumerate(t):
        ginv = inv[g]
        if all(kmask >> t[t[row[h]][ginv]][hinv] & 1 for h, hinv in gens):
            out |= 1 << g
    return out


def centralizer(G: Group, S: SubgroupSet) -> SubgroupSet:
    """Elements commuting with every member of S."""
    return SubgroupSet(G, centralizer_mask(G, S.mask))


def normalizer(G: Group, S: SubgroupSet) -> SubgroupSet:
    out = 0
    for g in range(G.order):
        if conjugate_mask(G, g, S.mask) == S.mask:
            out |= 1 << g
    return SubgroupSet(G, out)


def core(G: Group, H: SubgroupSet) -> SubgroupSet:
    """Largest normal subgroup of G inside H: H intersected with its
    conjugates by the generators of G until the intersection stops
    shrinking (a subgroup the generators normalise is normal)."""
    mask = H.mask
    while True:
        meet = mask
        for g in G.generator_indices:
            meet &= conjugate_mask(G, g, mask)
        if meet == mask:
            return SubgroupSet(G, mask)
        mask = meet


def _normal_closure_mask(G: Group, seed, gens) -> int:
    """Smallest subgroup containing ``seed`` that ``gens`` normalise: each
    seed or conjugate not yet reached becomes a generator, and its
    conjugates by ``gens`` are queued.  Each closure extends the subgroup
    reached by its right cosets, at least doubling it, so for a result H
    the k <= log2|H| closures compute each member of H once, and multiply
    at most |H| coset representatives (per closure its index, the indices
    multiplying to |H|) by at most k generators each."""
    table, mask, found = G.table, 1, []
    stack = list(seed)
    while stack:
        x = stack.pop()
        if not (mask >> x) & 1:
            found.append(x)
            mask = _closure(table, mask, found)
            stack.extend(G.conj(g, x) for g in gens)
    return mask


def normal_closure(G: Group, H: SubgroupSet) -> SubgroupSet:
    """Smallest normal subgroup of G containing H."""
    return SubgroupSet(G, _normal_closure_mask(G, bits(H.mask), G.generator_indices))


def commutator_mask(G: Group, a_mask: int, b_mask: int) -> int:
    """The commutator subgroup [A, B] of subgroups A <= B, as a mask.  With
    X and Y generating A and B, [A, B] = [X, Y]^B, the normal closure in B
    of the commutators of generators (Robinson, A Course in the Theory of
    Groups, 5.1.7)."""
    ys = _greedy_generators(G.table, b_mask)
    seed = {G.commutator(x, y) for x in _greedy_generators(G.table, a_mask) for y in ys}
    return _normal_closure_mask(G, seed, ys)


def derived_subgroup(G: Group) -> SubgroupSet:
    return SubgroupSet(G, commutator_mask(G, (1 << G.order) - 1, (1 << G.order) - 1))


def center(G: Group) -> SubgroupSet:
    return centralizer(G, whole_group(G))


def is_normal_subgroup(G: Group, S: SubgroupSet) -> bool:
    """S is fixed by conjugation with each generator, hence by all of G."""
    return all(conjugate_mask(G, g, S.mask) == S.mask for g in G.generator_indices)


def quotient(G: Group, N: SubgroupSet) -> tuple[Group, tuple[int, ...]]:
    """Quotient group G/N with its projection map (element -> coset index).

    Cosets are indexed by ascending least member, which puts the coset of
    the identity first.  The rows of the generators' cosets are read off
    their representatives, and the other rows are copied from them.
    """
    if N.mask == 1:  # singleton cosets: this construction gives G itself
        return G, tuple(range(G.order))
    if not is_normal_subgroup(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.name}")
    t = G.table
    qindex = tuple(range(G.order // N.order))
    proj = [-1] * G.order
    reps: list[int] = []
    for x in range(G.order):
        if proj[x] >= 0:
            continue
        idx = qindex[len(reps)]
        reps.append(x)
        row = t[x]
        for nmem in bits(N.mask):
            proj[row[nmem]] = idx
    qgens = tuple(dict.fromkeys(proj[g] for g in G.generator_indices if proj[g] != 0))
    gen_rows = [_gather(proj, _gather(t[reps[c]], reps)) for c in qgens]
    return group_from_generator_rows(qindex, gen_rows, f"{G.name}/{N.order}"), tuple(proj)


def direct_product(A: Group, B: Group, name: str | None = None) -> Group:
    """Direct product on pairs, packed as index a*|B| + b, built from the
    rows of the generators (a, 1) and (1, b)."""
    return _pair_group(A, B, [range(A.order)] * B.order, name or f"{A.name}x{B.name}")


def semidirect_product(N: Group, H: Group, action,
                       name: str | None = None) -> Group:
    """Semidirect product N x| H for a left action of H on N.

    ``action`` is a sequence of |H| permutations of N's indices;
    ``action[h]`` must be an automorphism of N and h -> action[h] a
    homomorphism (action[h1*h2] = action[h1] after action[h2]).
    Pairs (n, h) are packed as index n*|H| + h.  Both conditions are
    checked one whole row at a time; the table is built from the rows of
    the generators (n, 1) and (1, h).
    """
    acts = [tuple(map(operator.index, perm)) for perm in action]
    if len(acts) != H.order:
        raise NotAnAction(f"expected {H.order} automorphisms, got {len(acts)}")
    ident = tuple(range(N.order))
    if acts[0] != ident:
        raise NotAnAction("action of the identity must be the identity map")
    for h, perm in enumerate(acts):
        if sorted(perm) != list(range(N.order)):
            raise NotAnAction(f"action of element {h} is not a bijection")
        if perm[0] != 0:
            raise NotAnAction(f"action of element {h} moves the identity")
        for x, row in enumerate(N.table):
            # perm(x*y) against perm(x)*perm(y), for every y at once
            lhs, rhs = _gather(perm, row), _gather(N.table[perm[x]], perm)
            if lhs != rhs:
                y = next(y for y, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                raise NotAnAction(
                    f"action of element {h} is not an automorphism "
                    f"(fails on pair ({x},{y}))")
    for h1, row in enumerate(H.table):
        act = acts[h1]
        for h2, h12 in enumerate(row):
            if acts[h12] != _gather(act, acts[h2]):  # action[h1] after action[h2]
                raise NotAnAction(
                    f"action is not a homomorphism (fails on pair ({h1},{h2}))")
    return _pair_group(N, H, acts, name or f"{N.name}:{H.name}")


# ---------------------------------------------------------------------------
# arithmetic helpers, Sylow and Hall subgroups

def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk scale)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values())


def prime_spectrum(G: Group) -> tuple[int, ...]:
    """Sorted distinct primes dividing |G|."""
    return tuple(sorted(factorize(G.order)))


def sylow_subgroup(G: Group, p: int) -> SubgroupSet:
    """A Sylow p-subgroup, grown deterministically via normalizers.

    A p-subgroup below full p-order has index divisible by p in its
    normalizer, so it can always be extended by the least suitable element.
    """
    p = operator.index(p)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    p_part = 1
    n = G.order
    while n % p == 0:
        p_part *= p
        n //= p
    current = SubgroupSet(G, 1)
    while current.order < p_part:
        nrm = normalizer(G, current)
        chosen = None
        for g in bits(nrm.mask & ~current.mask):
            # image of g in N/current has order p iff g^p falls into current
            gp = g
            for _ in range(p - 1):
                gp = G.table[gp][g]
            if gp in current:
                chosen = g
                break
        if chosen is None:  # cannot happen for a p-subgroup below full p-order
            raise GroupError(f"Sylow growth stalled for p={p} in {G.name}")
        current = SubgroupSet(G, _closure(G.table, current.mask, (chosen,)))
    return current


def hall_subgroup(G: Group, primes) -> SubgroupSet | None:
    """A subgroup whose order is the full part of |G| over the given primes.

    Searches the enumerated subgroup lattice; returns None when no such
    subgroup exists (Hall subgroups can fail to exist outside soluble
    groups).  The first lattice member in canonical order is returned.
    """
    pset = sorted(set(map(operator.index, primes)))
    for p in pset:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    target = 1
    for p, e in factorize(G.order).items():
        if p in pset:
            target *= p ** e
    from .lattice import lattice_of  # deferred: lattice builds on this module

    for S in lattice_of(G).subgroups:
        if S.order == target:
            return S
    return None


# ---------------------------------------------------------------------------
# subgroups as standalone groups, isomorphism testing

def subgroup_as_group(G: Group, S: SubgroupSet) -> tuple[Group, tuple[int, ...]]:
    """Reindex a subgroup as its own Group.

    Returns (group, elements) where elements[i] is the parent index of the
    new element i.  The rows of S's greedy generators are two copies at C
    speed each: the parent row at the members, then its local indices; the
    other rows are copied from them.  Local indices keep the parent's order,
    so the generators are the ones greedy generation finds in the new table.
    """
    elems = S.members()
    index = tuple(range(len(elems)))
    local = [0] * G.order  # parent index -> local index, on the members
    for i, x in zip(index, elems):
        local[x] = i
    gen_rows = [_gather(local, _gather(G.table[x], elems))
                for x in _greedy_generators(G.table, S.mask)]
    return group_from_generator_rows(index, gen_rows, f"{G.name}<{S.order}>"), elems


def _extend_partial_map(A: Group, B: Group, span, fmap, g, img):
    """Extend a partial isomorphism by one generator image and re-close.

    Returns the extended (span, fmap) or None on any inconsistency.  The
    span is kept multiplication-closed, every product pair is checked, and
    injectivity is enforced, so a surviving total map is an isomorphism.
    """
    span = list(span)
    fmap = dict(fmap)
    if g in fmap:
        return (span, fmap) if fmap[g] == img else None
    fmap[g] = img
    span.append(g)
    i = 0
    while i < len(span):
        x = span[i]
        i += 1
        fx = fmap[x]
        for y in tuple(span):
            fy = fmap[y]
            for p, q in ((A.table[x][y], B.table[fx][fy]),
                         (A.table[y][x], B.table[fy][fx])):
                known = fmap.get(p)
                if known is None:
                    fmap[p] = q
                    span.append(p)
                elif known != q:
                    return None
    if len(set(fmap.values())) != len(fmap):
        return None
    return (span, fmap)


def _isomorphisms(A: Group, B: Group):
    """Yield every isomorphism A -> B as an image tuple.

    Backtracking over the images of A's greedy generators, each image
    restricted to elements of the same order; exponential in the worst case.
    """
    gens = _greedy_generators(A.table, (1 << A.order) - 1)
    orders_a, orders_b = A.element_orders(), B.element_orders()
    candidates = [tuple(b for b in range(B.order) if orders_b[b] == orders_a[g])
                  for g in gens]

    def backtrack(i, span, fmap):
        if i == len(gens):
            if len(span) == A.order:
                yield tuple(fmap[x] for x in range(A.order))
            return
        for img in candidates[i]:
            ext = _extend_partial_map(A, B, span, fmap, gens[i], img)
            if ext is not None:
                yield from backtrack(i + 1, *ext)

    return backtrack(0, [0], {0: 0})


def find_isomorphism(A: Group, B: Group) -> tuple[int, ...] | None:
    if A.order != B.order:
        return None
    if sorted(A.element_orders()) != sorted(B.element_orders()):
        return None
    return next(_isomorphisms(A, B), None)


def is_isomorphic(A: Group, B: Group) -> bool:
    return find_isomorphism(A, B) is not None


def automorphisms(G: Group) -> list[tuple[int, ...]]:
    """All automorphisms as index permutations, sorted.  Desk scale only."""
    return sorted(_isomorphisms(G, G))


# ---------------------------------------------------------------------------
# automorphisms found from the generators

def found_automorphisms(G: Group) -> tuple[tuple[int, ...], ...]:
    """Some automorphisms of G as index permutations, found by a bounded
    search from ``G.generator_indices`` and each one verified; memoised on
    the group.  Their number is not Aut(G)'s: a caller that reads orbits of
    the group they generate gets smaller orbits from fewer of them, never a
    wrong answer.

    For each generator g_i, with g_j the next one (cyclically), the
    candidate images of the generators are: g_i -> g_i*g_j; g_i and g_j
    swapped when they have the same order; g_i -> g_i^a for each a among
    the greedy generators of the units modulo the order of g_i.  So at
    most 2k + sum_i |unit generators of ord(g_i)| candidates are tried for
    k generators.  With the catalog's stated generators these include a
    swap, a transvection and, for p > 2, a scalar on one coordinate of
    E_p^k (generating GL(k, p) together), the unit multipliers of C_n and
    x -> x^a on the rotations of D_n.  A candidate whose images differ in
    order from the generators is skipped; each other one is extended along
    one breadth-first spanning tree of the right Cayley graph and kept
    when :func:`_is_automorphism` accepts it."""
    return _memo(G, "found automorphisms", _found_automorphisms, G)


def _found_automorphisms(G: Group) -> tuple[tuple[int, ...], ...]:
    t, gens, orders = G.table, G.generator_indices, G.element_orders()
    reached, seen = [0], bytearray(G.order)
    seen[0] = 1
    tree = []  # (z, x, j): z = x*g_j was first reached from x, breadth first
    for x in reached:
        row = t[x]
        for j, g in enumerate(gens):
            z = row[g]
            if not seen[z]:
                seen[z] = 1
                reached.append(z)
                tree.append((z, x, j))
    found = {}
    for images in _automorphism_candidates(G):
        if any(orders[a] != orders[g] for a, g in zip(images, gens)):
            continue
        phi = [0] * G.order
        for z, x, j in tree:
            phi[z] = t[phi[x]][images[j]]
        if _is_automorphism(G, phi):
            found.setdefault(tuple(phi))
    return tuple(found)


def _automorphism_candidates(G: Group):
    """The candidate images of the generators, as tuples (see
    :func:`found_automorphisms`)."""
    t, gens, orders = G.table, G.generator_indices, G.element_orders()
    k = len(gens)
    for i, g in enumerate(gens):
        j = (i + 1) % k
        h = gens[j]
        yield gens[:i] + (t[g][h],) + gens[i + 1:]
        if j != i and orders[g] == orders[h]:
            swapped = list(gens)
            swapped[i], swapped[j] = h, g
            yield tuple(swapped)
        for a in _unit_generators(orders[g]):
            power = g
            for _ in range(a - 1):
                power = t[power][g]
            yield gens[:i] + (power,) + gens[i + 1:]


def _unit_generators(m: int) -> tuple[int, ...]:
    """Greedy generators of the units modulo m: each least unit outside the
    subgroup the ones before it generate."""
    gens: list[int] = []
    reached = {1}
    for a in range(2, m):
        if a not in reached and math.gcd(a, m) == 1:
            gens.append(a)
            power, layer = a, set(reached)
            while power not in reached:  # reached times a^e, e = 1, 2, ...
                layer = {x * a % m for x in layer}
                reached |= layer
                power = power * a % m
    return tuple(gens)


def _is_automorphism(G: Group, phi) -> bool:
    """``phi`` (phi[x] the image of x) is a bijection with
    phi(x*g) = phi(x)*phi(g) for every x and every generator g, compared one
    whole column per generator at C speed, O(n*k).  By induction on the
    length of a word w in the generators, phi(x*w) = phi(x)*phi(w), so phi
    is a homomorphism, and being one-to-one an automorphism (Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005)."""
    n, t = G.order, G.table
    if len(set(phi)) != n:
        return False
    for g in G.generator_indices:
        column = list(map(itemgetter(phi[g]), t))  # column[y] = y*phi(g)
        if _gather(phi, list(map(itemgetter(g), t))) != _gather(column, phi):
            return False
    return True
