"""Finite groups as dense multiplication tables over 0-based element indices.

Conventions used throughout the package:

- the elements of a group of order n are the integers 0..n-1, and 0 is
  always the identity;
- ``table[g][h]`` is the product g*h;
- a subgroup is a bitmask over element indices (bit i set = element i is a
  member), wrapped in :class:`SubgroupSet`.

Groups are immutable once built.  Derived data (element orders, subgroup
lattices, quotients) is memoised on the instance under ``_cache`` by the
modules that need it; the cache never changes observable behaviour.
"""

from __future__ import annotations

import json
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
# bitmask helpers

def bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def _right_closure(table, gens, start: int = 1) -> int:
    """Mask of the elements reached from the mask ``start`` by right
    multiplication with ``gens``, in O(n * |gens|).  In a group, from the
    identity this is the subgroup they generate (positive words suffice,
    inverses being positive powers); from a normal subgroup N it is N<gens>."""
    mask = start
    stack = list(bits(start))
    while stack:
        row = table[stack.pop()]
        for g in gens:
            y = row[g]
            if not (mask >> y) & 1:
                mask |= 1 << y
                stack.append(y)
    return mask


def _greedy_generators(table, mask: int, below: int = 1) -> tuple[int, ...]:
    """Generators of the subgroup ``mask`` modulo its normal subgroup
    ``below``: each least member outside the subgroup generated by ``below``
    and the members taken before it."""
    gens: list[int] = []
    reached = below
    for x in bits(mask & ~below):
        if not (reached >> x) & 1:
            gens.append(x)
            reached = _right_closure(table, gens, below)
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


def _table_from_generator_rows(index, gen_rows) -> list[tuple[int, ...]]:
    """The multiplication table of a group from the rows of its generators.

    ``index`` is ``tuple(range(n))``, and each row in ``gen_rows`` draws its
    entries from it, with ``row_g[x] = g*x``.  As (g*y)*x = g*(y*x), the
    row of g*y is the row of y read through the row of g.  Walking the left
    Cayley graph breadth first from the identity therefore copies each row
    once, n entries at C speed, with O(n * |gens|) steps in Python; every
    entry of the table is an object of ``index``.
    """
    rows: list = [None] * len(index)
    rows[0] = index
    reached = [0]
    for y in reached:
        row_y = rows[y]
        for row_g in gen_rows:
            z = row_g[y]
            if rows[z] is None:
                rows[z] = _gather(row_g, row_y)
                reached.append(z)
    if len(reached) != len(index):
        raise NotAGroup("stated generators do not generate the group")
    return rows


def _pair_table(N: "Group", H: "Group", acts):
    """Table and generators of the pairs (x, h), packed as index x*|H| + h,
    with (x, h)(y, k) = (x * acts[h][y], h*k).  Only the rows of the
    generators (g, 1) and (1, h) are built here; ``acts[h]`` is read for
    the generators h of H alone."""
    nh = H.order
    index = tuple(range(N.order * nh))
    blocks = [index[x * nh:(x + 1) * nh] for x in range(N.order)]  # the pairs (x, *)
    gen_rows = [tuple(chain.from_iterable(map(blocks.__getitem__, N.table[g])))
                for g in N.generator_indices]
    for h in H.generator_indices:
        row_h = H.table[h]
        gen_rows.append(tuple(chain.from_iterable(
            _gather(blocks[y], row_h) for y in acts[h])))
    gens = [g * nh for g in N.generator_indices] + list(H.generator_indices)
    return _table_from_generator_rows(index, gen_rows), gens


# ---------------------------------------------------------------------------
# the Group type

class Group:
    """A finite group given by its full multiplication table.

    Construction performs the O(n^2) checks (identity at index 0,
    Latin-square rows/columns, two-sided inverses), one row or column at a
    time at C speed, and draws every entry from one tuple of the n indices.
    Associativity is checked only by :meth:`validate` (O(n^2 log n)), which
    :func:`group_from_cayley_table` calls on untrusted input.
    """

    def __init__(self, table, name: str = "G", generators=None):
        rows = [tuple(map(int, row)) for row in table]
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
        self.name = str(name)
        self.order = n
        self.table = rows
        self.inverse = tuple(inverse)
        self._cache: dict = {}
        full = (1 << n) - 1
        if generators is None:
            gens = _greedy_generators(rows, full)
        else:
            gens = tuple(dict.fromkeys(int(g) for g in generators))
            if _right_closure(rows, gens) != full:
                raise NotAGroup("stated generators do not generate the group")
        self.generator_indices = gens

    # -- basic arithmetic ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1"""
        return self.table[self.table[g][x]][self.inverse[g]]

    def commutator(self, a: int, b: int) -> int:
        """a * b * a^-1 * b^-1"""
        t = self.table
        return t[t[t[a][b]][self.inverse[a]]][self.inverse[b]]

    def element_orders(self) -> tuple[int, ...]:
        orders = self._cache.get("element_orders")
        if orders is None:
            out = []
            for x in range(self.order):
                k, y = 1, x
                while y != 0:
                    y = self.table[y][x]
                    k += 1
                out.append(k)
            orders = tuple(out)
            self._cache["element_orders"] = orders
        return orders

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
            reached = _right_closure(t, gens)
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

    def issubset(self, other: "SubgroupSet") -> bool:
        return self.mask & other.mask == self.mask

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def __repr__(self) -> str:
        return f"SubgroupSet({self.parent.name}, order={self.order})"


def trivial_subgroup(G: Group) -> SubgroupSet:
    return SubgroupSet(G, 1)


def whole_group(G: Group) -> SubgroupSet:
    return SubgroupSet(G, (1 << G.order) - 1)


# ---------------------------------------------------------------------------
# constructors

def _check_permutation(p, degree: int):
    tup = tuple(int(v) for v in p)
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
        return Group([[0]], name=name, generators=[0] * len(gens))
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
    return Group(_table_from_generator_rows(index, gen_rows), name=name,
                 generators=map(lookup, gens))


def group_from_cayley_table(table, name: str = "G",
                            max_order_cap: int = DEFAULT_MAX_ORDER) -> Group:
    """Build a group from an explicit table, with full axiom validation.

    The order cap is compared with the number of rows before any row is read.
    """
    if len(table) > max_order_cap:
        raise ClosureExceedsCap(
            f"order {len(table)} exceeds max_order_cap {max_order_cap}")
    return Group(table, name=name).validate()


def cycles_to_perm(degree: int, cycles) -> tuple[int, ...]:
    """Turn cycle notation (list of lists of 0-based points) into an image tuple."""
    img = list(range(degree))
    for cyc in cycles:
        pts = [int(v) for v in cyc]
        for v in pts:
            if not 0 <= v < degree:
                raise InvalidPermutation(f"cycle point {v} out of range for degree {degree}")
        if len(set(pts)) != len(pts):
            raise InvalidPermutation(f"cycle {cyc!r} repeats a point")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a] = b
    return tuple(img)


def group_from_json(data, max_order_cap: int = DEFAULT_MAX_ORDER) -> Group:
    """Build a group from the JSON description format.

    Schema: {"name": str, "kind": "permutation"|"cayley",
             "degree": int?, "generators": [[cycle, ...], ...]?,
             "table": [[int, ...], ...]?}
    """
    if not isinstance(data, dict):
        raise LoadError("group description must be a JSON object")
    name = data.get("name", "G")
    kind = data.get("kind")
    try:
        if kind == "permutation":
            degree = int(data["degree"])
            gens = [cycles_to_perm(degree, cycles) for cycles in data.get("generators", [])]
            return group_from_permutations(degree, gens, name=name,
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
    return SubgroupSet(G, close_mask(G.table, seed, G.order))


def centralizer(G: Group, S: SubgroupSet) -> SubgroupSet:
    """Elements commuting with S, tested on generators of S."""
    t = G.table
    gens = _greedy_generators(t, S.mask)
    out = 0
    for g in range(G.order):
        row = t[g]
        if all(row[s] == t[s][g] for s in gens):
            out |= 1 << g
    return SubgroupSet(G, out)


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
    conjugates by ``gens`` are queued.  Each new generator at least doubles
    the span: at most log2(n) + 1 closures of O(n * generators)."""
    table, mask, found = G.table, 1, []
    stack = list(seed)
    while stack:
        x = stack.pop()
        if not (mask >> x) & 1:
            found.append(x)
            mask = _right_closure(table, found)
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
    key = ("quotient", N.mask)
    hit = G._cache.get(key)
    if hit is not None:
        return hit  # normality was checked when the entry was built
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
    Q = Group(_table_from_generator_rows(qindex, gen_rows), name=f"{G.name}/{N.order}",
              generators=qgens)
    result = (Q, tuple(proj))
    G._cache[key] = result
    return result


def direct_product(A: Group, B: Group, name: str | None = None) -> Group:
    """Direct product on pairs, packed as index a*|B| + b, built from the
    rows of the generators (a, 1) and (1, b)."""
    table, gens = _pair_table(A, B, [range(A.order)] * B.order)
    return Group(table, name=name or f"{A.name}x{B.name}", generators=gens)


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
    acts = [tuple(int(v) for v in perm) for perm in action]
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
    table, gens = _pair_table(N, H, acts)
    return Group(table, name=name or f"{N.name}:{H.name}", generators=gens)


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
        current = subgroup_generated(G, list(bits(current.mask)) + [chosen])
    return current


def hall_subgroup(G: Group, primes) -> SubgroupSet | None:
    """A subgroup whose order is the full part of |G| over the given primes.

    Searches the enumerated subgroup lattice; returns None when no such
    subgroup exists (Hall subgroups can fail to exist outside soluble
    groups).  The first lattice member in canonical order is returned.
    """
    pset = sorted(set(int(p) for p in primes))
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
    new element i.  Each row is two copies at C speed: the parent row at
    the members, then its local indices.  Cached per mask on the parent.
    """
    key = ("subgroup", S.mask)
    hit = G._cache.get(key)
    if hit is not None:
        return hit
    elems = S.members()
    local = [0] * G.order  # parent index -> local index, on the members
    for i, x in enumerate(elems):
        local[x] = i
    table = [_gather(local, _gather(G.table[x], elems)) for x in elems]
    sub = Group(table, name=f"{G.name}<{S.order}>")
    result = (sub, elems)
    G._cache[key] = result
    return result


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
