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
from pathlib import Path

DEFAULT_MAX_ORDER = 2000


class GroupError(Exception):
    """Base class for group construction and validation failures."""


class NotAGroup(GroupError):
    """The supplied table violates a group axiom (message names a witness)."""


class InvalidPermutation(GroupError):
    """A generator is not a bijection on the stated points."""


class ClosureExceedsCap(GroupError):
    """Generated closure grew past the construction-time order cap."""


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


def close_mask(table, seed, ambient_order: int | None = None) -> int:
    """Multiplicative closure of ``seed`` (iterable of indices) plus identity.

    Closure under products alone suffices in a finite group: inverses are
    positive powers.  When ``ambient_order`` is given, growth is cut short
    by Lagrange: once the working set outgrows the largest proper divisor
    of the ambient order, the closure is the whole group.
    """
    threshold = None
    if ambient_order is not None:
        # largest proper divisor: the order over its smallest prime
        m = ambient_order
        if m == 1:
            threshold = 0
        else:
            spf = m
            d = 2
            while d * d <= m:
                if m % d == 0:
                    spf = d
                    break
                d += 1
            threshold = m // spf
    mask = 1
    elems = [0]
    stack = sorted({int(x) for x in seed} - {0}, reverse=True)
    for x in stack:
        mask |= 1 << x
    count = 1 + len(stack)
    if threshold is not None and count > threshold:
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
        if threshold is not None and count > threshold:
            return (1 << ambient_order) - 1
    return mask


def product_mask(G: "Group", a_mask: int, b_mask: int) -> int:
    """Setwise product {a*b : a in A, b in B} as a mask."""
    table = G.table
    out = 0
    for x in bits(a_mask):
        row = table[x]
        for y in bits(b_mask):
            out |= 1 << row[y]
    return out


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
# the Group type

class Group:
    """A finite group given by its full multiplication table.

    Construction performs the cheap O(n^2) checks (identity at index 0,
    Latin-square rows/columns, two-sided inverses).  Full associativity is
    an O(n^3) scan and is only run by :meth:`validate`, which
    :func:`group_from_cayley_table` calls on untrusted input.
    """

    def __init__(self, table, name: str = "G", generators=None,
                 max_order_cap: int = DEFAULT_MAX_ORDER):
        rows = tuple(tuple(int(v) for v in row) for row in table)
        n = len(rows)
        if n == 0:
            raise NotAGroup("empty multiplication table")
        if n > max_order_cap:
            raise ClosureExceedsCap(
                f"order {n} exceeds max_order_cap {max_order_cap}")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise NotAGroup(f"table row {i} has length {len(row)}, expected {n}")
            for v in row:
                if not 0 <= v < n:
                    raise NotAGroup(f"table entry {v} at row {i} out of range")
        for j in range(n):
            if rows[0][j] != j:
                raise NotAGroup(f"index 0 is not a left identity: 0*{j} = {rows[0][j]}")
            if rows[j][0] != j:
                raise NotAGroup(f"index 0 is not a right identity: {j}*0 = {rows[j][0]}")
        inverse = [0] * n
        for i in range(n):
            if len(set(rows[i])) != n:
                raise NotAGroup(f"row {i} is not a permutation")
            col = {rows[k][i] for k in range(n)}
            if len(col) != n:
                raise NotAGroup(f"column {i} is not a permutation")
            r = rows[i].index(0)
            if rows[r][i] != 0:
                raise NotAGroup(f"element {i} has no two-sided inverse")
            inverse[i] = r
        self.name = str(name)
        self.order = n
        self.table = rows
        self.inverse = tuple(inverse)
        self.max_order_cap = max_order_cap
        self._cache: dict = {}
        if generators is None:
            gens = self._greedy_generators()
        else:
            gens = tuple(dict.fromkeys(int(g) for g in generators))
            if close_mask(rows, gens) != (1 << n) - 1:
                raise NotAGroup("stated generators do not generate the group")
        self.generator_indices = tuple(gens)

    def _greedy_generators(self):
        gens: list[int] = []
        mask = 1
        full = (1 << self.order) - 1
        for x in range(1, self.order):
            if not (mask >> x) & 1:
                gens.append(x)
                mask = close_mask(self.table, gens, self.order)
                if mask == full:
                    break
        return tuple(gens)

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
        """Exhaustive associativity check; raises NotAGroup naming a triple."""
        t = self.table
        n = self.order
        for a in range(n):
            ta = t[a]
            for b in range(n):
                ab = ta[b]
                tb = t[b]
                tab = t[ab]
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        raise NotAGroup(
                            f"associativity fails on triple ({a},{b},{c}): "
                            f"({a}*{b})*{c} = {tab[c]} but {a}*({b}*{c}) = {ta[tb[c]]}")
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
    Products compose left to right: (p*q)(i) = q[p[i]].
    """
    if degree < 1:
        raise InvalidPermutation("degree must be at least 1")
    gens = [_check_permutation(p, degree) for p in generators]
    ident = tuple(range(degree))
    elems = [ident]
    seen = {ident}
    level = [ident]
    while level:
        found = set()
        for x in level:
            for g in gens:
                y = tuple(g[x[i]] for i in range(degree))
                if y not in seen:
                    found.add(y)
        level = sorted(found)
        for y in level:
            seen.add(y)
            elems.append(y)
            if len(elems) > max_order_cap:
                raise ClosureExceedsCap(
                    f"permutation closure exceeds max_order_cap {max_order_cap}")
    index = {p: i for i, p in enumerate(elems)}
    n = len(elems)
    table = [[0] * n for _ in range(n)]
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i][j] = index[tuple(q[p[k]] for k in range(degree))]
    gen_idx = [index[g] for g in gens]
    return Group(table, name=name, generators=gen_idx, max_order_cap=max_order_cap)


def group_from_cayley_table(table, name: str = "G",
                            max_order_cap: int = DEFAULT_MAX_ORDER) -> Group:
    """Build a group from an explicit table, with full axiom validation."""
    return Group(table, name=name, max_order_cap=max_order_cap).validate()


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
    t = G.table
    members = S.members()
    out = 0
    for g in range(G.order):
        row = t[g]
        if all(row[s] == t[s][g] for s in members):
            out |= 1 << g
    return SubgroupSet(G, out)


def normalizer(G: Group, S: SubgroupSet) -> SubgroupSet:
    out = 0
    for g in range(G.order):
        if conjugate_mask(G, g, S.mask) == S.mask:
            out |= 1 << g
    return SubgroupSet(G, out)


def core(G: Group, H: SubgroupSet) -> SubgroupSet:
    """Largest normal subgroup of G inside H (intersection of conjugates)."""
    out = H.mask
    for g in range(1, G.order):
        out &= conjugate_mask(G, g, H.mask)
        if out == 1:
            break
    return SubgroupSet(G, out)


def normal_closure(G: Group, H: SubgroupSet) -> SubgroupSet:
    """Smallest normal subgroup of G containing H: H closed, together with
    its conjugates by the generators of G, until those conjugates add
    nothing (a subgroup the generators normalise is normal)."""
    mask = H.mask
    while True:
        seed = mask
        for g in G.generator_indices:
            seed |= conjugate_mask(G, g, mask)
        if seed == mask:
            return SubgroupSet(G, mask)
        mask = close_mask(G.table, bits(seed), G.order)


def derived_subgroup(G: Group) -> SubgroupSet:
    comms = {G.commutator(a, b) for a in range(G.order) for b in range(G.order)}
    return SubgroupSet(G, close_mask(G.table, comms, G.order))


def center(G: Group) -> SubgroupSet:
    t = G.table
    out = 0
    for g in range(G.order):
        row = t[g]
        if all(row[x] == t[x][g] for x in range(G.order)):
            out |= 1 << g
    return SubgroupSet(G, out)


def is_normal_subgroup(G: Group, S: SubgroupSet) -> bool:
    """S is fixed by conjugation with each generator, hence by all of G."""
    return all(conjugate_mask(G, g, S.mask) == S.mask for g in G.generator_indices)


def quotient(G: Group, N: SubgroupSet) -> tuple[Group, tuple[int, ...]]:
    """Quotient group G/N with its projection map (element -> coset index).

    Cosets are indexed by ascending least member, which puts the coset of
    the identity first.
    """
    key = ("quotient", N.mask)
    hit = G._cache.get(key)
    if hit is not None:
        return hit  # normality was checked when the entry was built
    if not is_normal_subgroup(G, N):
        raise NotNormal(f"subgroup of order {N.order} is not normal in {G.name}")
    t = G.table
    proj = [-1] * G.order
    reps: list[int] = []
    for x in range(G.order):
        if proj[x] >= 0:
            continue
        idx = len(reps)
        reps.append(x)
        row = t[x]
        for nmem in bits(N.mask):
            proj[row[nmem]] = idx
    m = len(reps)
    qtable = [[proj[t[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
    qgens = tuple(dict.fromkeys(proj[g] for g in G.generator_indices if proj[g] != 0))
    Q = Group(qtable, name=f"{G.name}/{N.order}", generators=qgens,
              max_order_cap=G.max_order_cap)
    result = (Q, tuple(proj))
    G._cache[key] = result
    return result


def direct_product(A: Group, B: Group, name: str | None = None) -> Group:
    """Direct product on pairs, packed as index a*|B| + b."""
    nb = B.order
    n = A.order * nb
    table = [[0] * n for _ in range(n)]
    for a1 in range(A.order):
        ra = A.table[a1]
        for b1 in range(nb):
            rb = B.table[b1]
            i = a1 * nb + b1
            row = table[i]
            for a2 in range(A.order):
                base = ra[a2] * nb
                off = a2 * nb
                for b2 in range(nb):
                    row[off + b2] = base + rb[b2]
    gens = [g * nb for g in A.generator_indices] + list(B.generator_indices)
    cap = max(A.max_order_cap, B.max_order_cap, n)
    return Group(table, name=name or f"{A.name}x{B.name}", generators=gens,
                 max_order_cap=cap)


def _compose(p, q):
    """Permutation composition: apply q, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def semidirect_product(N: Group, H: Group, action,
                       name: str | None = None) -> Group:
    """Semidirect product N x| H for a left action of H on N.

    ``action`` is a sequence of |H| permutations of N's indices;
    ``action[h]`` must be an automorphism of N and h -> action[h] a
    homomorphism (action[h1*h2] = action[h1] after action[h2]).
    Pairs (n, h) are packed as index n*|H| + h.
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
        for x in range(N.order):
            px = perm[x]
            for y in range(N.order):
                if perm[N.table[x][y]] != N.table[px][perm[y]]:
                    raise NotAnAction(
                        f"action of element {h} is not an automorphism "
                        f"(fails on pair ({x},{y}))")
    for h1 in range(H.order):
        for h2 in range(H.order):
            if acts[H.table[h1][h2]] != _compose(acts[h1], acts[h2]):
                raise NotAnAction(
                    f"action is not a homomorphism (fails on pair ({h1},{h2}))")
    nh = H.order
    n = N.order * nh
    table = [[0] * n for _ in range(n)]
    for n1 in range(N.order):
        for h1 in range(nh):
            i = n1 * nh + h1
            row = table[i]
            act = acts[h1]
            rn = N.table[n1]
            rh = H.table[h1]
            for n2 in range(N.order):
                base = rn[act[n2]] * nh
                off = n2 * nh
                for h2 in range(nh):
                    row[off + h2] = base + rh[h2]
    gens = [g * nh for g in N.generator_indices] + list(H.generator_indices)
    cap = max(N.max_order_cap, H.max_order_cap, n)
    return Group(table, name=name or f"{N.name}:{H.name}", generators=gens,
                 max_order_cap=cap)


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
    new element i.  Cached per mask on the parent.
    """
    key = ("subgroup", S.mask)
    hit = G._cache.get(key)
    if hit is not None:
        return hit
    elems = S.members()
    local = {x: i for i, x in enumerate(elems)}
    table = [[local[G.table[x][y]] for y in elems] for x in elems]
    sub = Group(table, name=f"{G.name}<{S.order}>", max_order_cap=G.max_order_cap)
    result = (sub, elems)
    G._cache[key] = result
    return result


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
    gens = A._greedy_generators()
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
