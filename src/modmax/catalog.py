"""Deterministic constructions of the named groups used by the test suites.

Every construction is reproducible bit for bit: permutation closures use
the breadth-first enumeration from :mod:`modmax.groups`, cyclic group
automorphisms are realised through the least primitive root, and searched
objects (an order-3 automorphism of the quaternion group, action matrices
for the pq^2 family) are chosen as the lexicographically least candidate.

``standard_suite`` returns the catalog entries with the expected slices of
their classification profiles; the golden test asserts every expected
field against a fresh computation.  The provenance tag records whether a
value is a classical textbook fact ("literature") or was frozen from an
independent computation ("computed").
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable

from .groups import (
    DEFAULT_MAX_ORDER,
    ClosureExceedsCap,
    Group,
    automorphisms,
    direct_product,
    factorize,
    group_from_generator_rows,
    group_from_permutations,
    is_prime,
    prime_spectrum,
    semidirect_product,
)


class UnknownName(Exception):
    """No catalog entry or constructor pattern matches the requested name."""


class BadParameters(Exception):
    """Constructor parameters are out of range or inconsistent."""


# ---------------------------------------------------------------------------
# basic families: each builds the rows of its generators, row_g[x] = g*x,
# from its own formula; the other rows are copied from them

def cyclic(n: int, name: str | None = None) -> Group:
    if n < 1:
        raise BadParameters(f"cyclic order must be positive, got {n}")
    index = tuple(range(n))
    rows = [index[1:] + index[:1]] if n > 1 else []
    return group_from_generator_rows(index, rows, name or f"C{n}")


def elementary_abelian(p: int, k: int, name: str | None = None) -> Group:
    """(C_p)^k with element index sum(d_i * p^i) over base-p digits."""
    if not is_prime(p):
        raise BadParameters(f"{p} is not prime")
    if k < 0:
        raise BadParameters(f"rank must be nonnegative, got {k}")
    n = p ** k
    index = tuple(range(n))
    gens = [p ** i for i in range(k)]
    # p^i adds 1 to digit i: in each run of p^(i+1) indices, the p runs of
    # p^i shift down by one, cyclically
    rows = [tuple(chain.from_iterable(index[s + g:s + g * p] + index[s:s + g]
                                      for s in range(0, n, g * p)))
            for g in gens]
    return group_from_generator_rows(index, rows, name or f"E{p}^{k}")


def dihedral(order: int, name: str | None = None) -> Group:
    """Dihedral group of the given (even) order, rotations indexed first."""
    if order < 2 or order % 2:
        raise BadParameters(f"dihedral order must be even and >= 2, got {order}")
    m = order // 2
    index = tuple(range(order))
    rots, refls = index[:m], index[m:]
    # r^j -> r^(j+1) and s r^j -> s r^(j+1); s r^j -> r^(-j) and r^j -> s r^(-j)
    rotate = rots[1:] + rots[:1] + refls[1:] + refls[:1]
    reflect = refls[:1] + refls[:0:-1] + rots[:1] + rots[:0:-1]
    rows = [rotate, reflect] if m > 1 else [reflect]
    return group_from_generator_rows(index, rows, name or f"D{order}")


def quaternion8(name: str = "Q8") -> Group:
    """Order-8 quaternion group: elements a^i * b^j, index i + 4j."""
    index = tuple(range(8))
    # a * a^j b^k = a^(j+1) b^k;  b * a^j = a^(-j) b  and  b * a^j b = a^(2-j)
    times_a = tuple(index[(j + 1) % 4 + 4 * k] for k in (0, 1) for j in range(4))
    times_b = tuple(index[(2 * k - j) % 4 + 4 * (1 - k)] for k in (0, 1) for j in range(4))
    return group_from_generator_rows(index, [times_a, times_b], name)


def symmetric(n: int, name: str | None = None) -> Group:
    if not 1 <= n <= 5:
        raise BadParameters(f"symmetric degree must be 1..5, got {n}")
    if n == 1:
        return cyclic(1, name=name or "S1")
    gens = [tuple(list(range(1, n)) + [0]), tuple([1, 0] + list(range(2, n)))]
    return group_from_permutations(n, gens, name=name or f"S{n}")


def alternating(n: int, name: str | None = None) -> Group:
    if not 3 <= n <= 5:
        raise BadParameters(f"alternating degree must be 3..5, got {n}")
    gens = []
    for k in range(2, n):
        img = list(range(n))
        img[0], img[1], img[k] = 1, img[k], 0
        gens.append(tuple(img))
    return group_from_permutations(n, gens, name=name or f"A{n}")


def _least_primitive_root(p: int) -> int:
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise BadParameters(f"no primitive root modulo {p}")


def holomorph_cyclic(p: int, name: str | None = None) -> Group:
    """C_p with its full automorphism group acting: C_p x| C_(p-1).

    The automorphism group is realised as multiplication by powers of the
    least primitive root modulo p, so the table is fixed across runs.
    """
    if not is_prime(p):
        raise BadParameters(f"{p} is not prime")
    if p == 2:
        return cyclic(2, name=name or "hol_C2")
    g = _least_primitive_root(p)
    base = cyclic(p)
    top = cyclic(p - 1)
    action = []
    for h in range(p - 1):
        mult = pow(g, h, p)
        action.append(tuple((x * mult) % p for x in range(p)))
    return semidirect_product(base, top, action, name=name or f"hol_C{p}")


def dicyclic12(name: str = "C3:C4") -> Group:
    """C3 x| C4 with the order-4 generator inverting the C3."""
    base = cyclic(3)
    top = cyclic(4)
    invert = (0, 2, 1)
    ident = (0, 1, 2)
    action = [ident, invert, ident, invert]
    return semidirect_product(base, top, action, name=name)


def sl23(name: str = "SL23") -> Group:
    """Quaternion group extended by an order-3 automorphism (SL(2,3) shape).

    The automorphism is the lexicographically least order-3 element of
    Aut(Q8), which keeps the table reproducible without hand-coding it.
    """
    q8 = quaternion8()
    alpha = None
    for perm in automorphisms(q8):
        sq = tuple(perm[perm[i]] for i in range(8))
        cube = tuple(perm[sq[i]] for i in range(8))
        if cube == tuple(range(8)) and perm != tuple(range(8)):
            alpha = perm
            break
    if alpha is None:
        raise BadParameters("quaternion group lost its order-3 automorphism")
    alpha2 = tuple(alpha[alpha[i]] for i in range(8))
    action = [tuple(range(8)), alpha, alpha2]
    return semidirect_product(q8, cyclic(3), action, name=name)


def _matrix_order_p(q: int, p: int) -> tuple[int, int, int, int] | None:
    """Lexicographically least 2x2 matrix over Z/q of multiplicative order p."""
    ident = (1, 0, 0, 1)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    m = (a, b, c, d)
                    if m == ident:
                        continue
                    cur = m
                    for _ in range(p - 1):
                        cur = ((cur[0] * a + cur[1] * c) % q,
                               (cur[0] * b + cur[1] * d) % q,
                               (cur[2] * a + cur[3] * c) % q,
                               (cur[2] * b + cur[3] * d) % q)
                    if cur == ident:
                        return m
    return None


def pq2(p: int, q: int, name: str | None = None) -> Group:
    """Order p*q^2 split group: elementary abelian q^2 with C_p on top.

    Action rule, fixed for reproducibility: when p divides q-1 the least
    scalar of multiplicative order p acts as a power map on both
    coordinates; otherwise the lexicographically least order-p matrix over
    Z/q acts (which is then irreducible, giving the non-supersoluble
    members of the family).
    """
    if not is_prime(p) or not is_prime(q):
        raise BadParameters(f"need two primes, got p={p}, q={q}")
    if p == q:
        raise BadParameters("p and q must be distinct")
    base = elementary_abelian(q, 2)
    top = cyclic(p)
    if (q - 1) % p == 0:
        k = next(s for s in range(2, q)
                 if pow(s, p, q) == 1 and s != 1)
        mat = (k, 0, 0, k)
    else:
        mat = _matrix_order_p(q, p)
        if mat is None:
            raise BadParameters(
                f"no order-{p} action on an elementary abelian {q}^2 group")
    a, b, c, d = mat

    def apply(m, v0, v1):
        return ((m[0] * v0 + m[1] * v1) % q, (m[2] * v0 + m[3] * v1) % q)

    action = []
    cur = (1, 0, 0, 1)
    for _ in range(p):
        perm = []
        for idx in range(q * q):
            v0, v1 = idx % q, idx // q
            w0, w1 = apply(cur, v0, v1)
            perm.append(w0 + q * w1)
        action.append(tuple(perm))
        cur = ((cur[0] * a + cur[1] * c) % q, (cur[0] * b + cur[1] * d) % q,
               (cur[2] * a + cur[3] * c) % q, (cur[2] * b + cur[3] * d) % q)
    return semidirect_product(base, top, action, name=name or f"pq2_{p}_{q}")


def power_split_group(p: int, k: int, q: int, power: int,
                      name: str | None = None) -> Group:
    """Elementary abelian p^k with a prime-order q scalar power action."""
    if k < 1:
        raise BadParameters("rank must be at least 1")
    if not is_prime(p) or not is_prime(q) or p == q:
        raise BadParameters(f"need distinct primes, got p={p}, q={q}")
    m = power % p
    if m in (0, 1) or pow(m, q, p) != 1:
        raise BadParameters(
            f"power {power} does not have multiplicative order {q} modulo {p}")
    base = elementary_abelian(p, k)
    top = cyclic(q)
    action = []
    for h in range(q):
        mult = pow(m, h, p)
        perm = []
        for idx in range(p ** k):
            out, scale, rest = 0, 1, idx
            for _ in range(k):
                out += ((rest % p) * mult % p) * scale
                rest //= p
                scale *= p
            perm.append(out)
        action.append(tuple(perm))
    return semidirect_product(base, top, action,
                              name=name or f"pgroup_{p}^{k}:{q}")


# ---------------------------------------------------------------------------
# the name registry

_NAMED: dict[str, tuple[int, Callable[[], Group]]] = {
    "1": (1, lambda: cyclic(1, name="1")),
    "V4": (4, lambda: elementary_abelian(2, 2, name="V4")),
    "E9": (9, lambda: elementary_abelian(3, 2, name="E9")),
    "Q8": (8, quaternion8),
    "S3": (6, lambda: symmetric(3)),
    "S4": (24, lambda: symmetric(4)),
    "S5": (120, lambda: symmetric(5)),
    "A4": (12, lambda: alternating(4)),
    "A5": (60, lambda: alternating(5)),
    "C3:C4": (12, dicyclic12),
    "SL23": (24, sl23),
    "A4xC2": (24, lambda: direct_product(alternating(4), cyclic(2), name="A4xC2")),
}

# (pattern, order of the integer parameters, builder of the same
# parameters).  An order function gets a limit first: p ** k is computed
# with k at most limit.bit_length(), which is exact or above the limit.
_PATTERNS: tuple[tuple[re.Pattern, Callable[..., int], Callable[..., Group]], ...] = (
    (re.compile(r"^C(\d+)$"), lambda limit, n: n, cyclic),
    (re.compile(r"^D(\d+)$"), lambda limit, n: n, dihedral),
    (re.compile(r"^E(\d+)\^(\d+)$"),
     lambda limit, p, k: p ** min(k, limit.bit_length()), elementary_abelian),
    (re.compile(r"^hol_C(\d+)$"), lambda limit, p: p * (p - 1), holomorph_cyclic),
    (re.compile(r"^pq2_(\d+)_(\d+)$"), lambda limit, p, q: p * q * q, pq2),
    (re.compile(r"^pgroup_(\d+)\^(\d+):(\d+):(\d+)$"),
     lambda limit, p, k, q, power: p ** min(k, limit.bit_length()) * q,
     power_split_group),
)

# positions of the parameters each builder tests for primality
_PRIME_ARGS = {elementary_abelian: (0,), holomorph_cyclic: (0,), pq2: (0, 1),
               power_split_group: (0, 2)}

# orders up to this bound are exact, in messages too
_EXACT_ORDERS = 10 ** 12

# resolving and building a product recurse once per factor, so a name with
# more factors is refused before either starts
_MAX_FACTORS = 64


def _resolve(name: str, limit: int = _EXACT_ORDERS,
             memo: dict | None = None) -> tuple[int, Callable[[], Group]]:
    """Map a catalog name to ``(order, builder)`` without building anything.

    Besides the registered names and parameter patterns, ``AxB`` is the
    direct product of two resolvable names (leftmost split that resolves).
    The order is what the builder returns when its parameters are valid,
    or limit + 1 when that is larger; invalid parameters raise
    BadParameters only when the builder runs.  ``memo`` maps the sub-names
    of one product to their resolution (None: unresolvable), so that each
    is resolved once.
    """
    memo = {} if memo is None else memo
    if name not in memo:
        memo[name] = _resolve_new(name, limit, memo)
    if memo[name] is None:
        raise UnknownName(f"no catalog group named {name!r}")
    return memo[name]


def _resolve_new(name: str, limit: int, memo: dict):
    entry = _NAMED.get(name)
    if entry is not None:
        return entry
    for pattern, order, build in _PATTERNS:
        m = pattern.match(name)
        if m:
            if any(len(v) > 1000 for v in m.groups()):
                raise BadParameters(f"{name[:20]}... has a parameter over 1000 digits")
            args = [int(v) for v in m.groups()]
            size = min(order(limit, *args), limit + 1)
            # a name under the limit can still carry a huge prime (rank 0);
            # the builder's trial division is quick below the limit only
            if size <= limit and any(args[i] > limit for i in _PRIME_ARGS.get(build, ())):
                raise BadParameters(f"{name[:20]}... has a prime parameter over {limit}")
            return size, lambda: build(*args)
    for pos in range(1, len(name) - 1):
        if name[pos] != "x":
            continue
        try:
            order_a, build_a = _resolve(name[:pos], limit, memo)
            order_b, build_b = _resolve(name[pos + 1:], limit, memo)
        except UnknownName:
            continue
        return (min(order_a * order_b, limit + 1),
                lambda: direct_product(build_a(), build_b(), name=name))
    return None


def construct(name: str, max_order_cap: int = DEFAULT_MAX_ORDER) -> Group:
    """Build a catalog group by name; raises UnknownName, BadParameters, or
    ClosureExceedsCap when the order is above the cap, before building."""
    if name.count("x") >= _MAX_FACTORS:
        raise BadParameters(
            f"{name[:20]}... has more than {_MAX_FACTORS} direct factors")
    limit = max(max_order_cap, _EXACT_ORDERS)
    order, build = _resolve(name, limit)
    if order > max_order_cap:
        shown = order if order <= limit else f"more than {limit}"
        raise ClosureExceedsCap(
            f"{name} has order {shown}, above the requested cap {max_order_cap}")
    return build()


_shared: dict[str, Group] = {}


def shared_group(name: str) -> Group:
    """Memoised construct(); analysis caches accumulate on the instance."""
    G = _shared.get(name)
    if G is None:
        G = construct(name)
        _shared[name] = G
    return G


# ---------------------------------------------------------------------------
# the standard suite with golden expectations

@dataclass(frozen=True)
class CatalogEntry:
    name: str
    order: int
    description: str
    expected: dict = field(default_factory=dict)     # profile field -> bool
    provenance: dict = field(default_factory=dict)   # profile field -> source

    def build(self) -> Group:
        return construct(self.name)


def _entry(name, order, description, literature=None, computed=None):
    expected = {}
    provenance = {}
    for src, fields in (("literature", literature or {}), ("computed", computed or {})):
        for key, value in fields.items():
            expected[key] = value
            provenance[key] = src
    return CatalogEntry(name, order, description, expected, provenance)


def standard_suite() -> list[CatalogEntry]:
    """The groups every verification run covers, with asserted profile slices."""
    return [
        _entry("1", 1, "trivial group",
               computed={"abelian": True, "nilpotent": True, "soluble": True,
                         "supersoluble": True, "strongly_supersoluble": True,
                         "nearly_nilpotent": True, "ore_dispersive": True}),
        _entry("C2", 2, "cyclic of order 2",
               computed={"abelian": True, "nilpotent": True,
                         "strongly_supersoluble": True}),
        _entry("C4", 4, "cyclic of order 4",
               computed={"abelian": True, "nilpotent": True}),
        _entry("C6", 6, "cyclic of order 6",
               computed={"abelian": True, "nearly_nilpotent": True,
                         "ore_dispersive": True}),
        _entry("C12", 12, "cyclic of order 12",
               computed={"abelian": True, "strongly_supersoluble": True}),
        _entry("V4", 4, "elementary abelian 2^2",
               computed={"abelian": True, "nilpotent": True}),
        _entry("E9", 9, "elementary abelian 3^2",
               computed={"abelian": True, "nilpotent": True}),
        _entry("S3", 6, "symmetric group on 3 points",
               literature={"nearly_nilpotent": True, "nilpotent": False},
               computed={"abelian": False, "soluble": True,
                         "supersoluble": True, "strongly_supersoluble": True,
                         "p_group_schmidt": True, "schmidt_group": True,
                         "u_critical": False, "ore_dispersive": True}),
        _entry("D8", 8, "dihedral of order 8",
               computed={"abelian": False, "nilpotent": True}),
        _entry("Q8", 8, "quaternion group",
               computed={"abelian": False, "nilpotent": True,
                         "schmidt_group": False, "p_group_schmidt": False}),
        _entry("C3:C4", 12, "dicyclic group of order 12",
               computed={"nilpotent": False, "supersoluble": True,
                         "nearly_nilpotent": True}),
        _entry("A4", 12, "alternating group on 4 points",
               literature={"supersoluble": False},
               computed={"soluble": True, "nilpotent": False,
                         "schmidt_group": True, "u_critical": True,
                         "ore_dispersive": False}),
        _entry("S4", 24, "symmetric group on 4 points",
               computed={"soluble": True, "supersoluble": False,
                         "u_critical": False, "schmidt_group": False}),
        _entry("SL23", 24, "quaternion group with an order-3 twist",
               computed={"soluble": True, "supersoluble": False,
                         "schmidt_group": True, "u_critical": True}),
        _entry("hol_C7", 42, "C7 with its full automorphism group",
               literature={"strongly_supersoluble": True,
                           "nearly_nilpotent": False},
               computed={"supersoluble": True, "soluble": True}),
        _entry("hol_C13", 156, "C13 with its full automorphism group",
               literature={"supersoluble": True,
                           "strongly_supersoluble": False},
               computed={"soluble": True}),
        _entry("A4xC2", 24, "alternating group times a central 2",
               computed={"soluble": True, "supersoluble": False,
                         "u_critical": False}),
        _entry("pq2_2_3", 18, "elementary abelian 3^2 inverted by an involution",
               computed={"supersoluble": True, "nilpotent": False,
                         "p_group_schmidt": True, "nearly_nilpotent": True}),
    ]


def suite_names() -> list[str]:
    return [entry.name for entry in standard_suite()]


def catalog_listing() -> list[dict]:
    """Name, order, prime spectrum and expected-field summary, JSON-ready."""
    out = []
    for entry in standard_suite():
        G = shared_group(entry.name)
        out.append({
            "name": entry.name,
            "order": G.order,
            "primes": list(prime_spectrum(G)),
            "description": entry.description,
            "expected": {k: entry.expected[k] for k in sorted(entry.expected)},
        })
    return out
