"""Chief factors and group-class predicates.

Chief factors are quantified over all pairs of normal subgroups with
nothing normal strictly between, not over one chosen series; the class
definitions below ("every chief factor ...") are then evaluated literally.
The automizer order of a factor H/K is |G| / |C_G(H/K)| where
C_G(H/K) = {g : [g, h] in K for all h in H}, i.e. the order of the
automorphism group the whole group induces on the factor.

Class predicates implemented here:

- soluble / nilpotent / abelian via derived and lower central series;
- supersoluble: every chief factor cyclic;
- strongly supersoluble: supersoluble with square-free automizer order on
  every chief factor;
- nearly nilpotent: supersoluble with automizer order 1 or prime on every
  non-Frattini chief factor (Frattini factors are exempt, all-factor
  quantification is deliberate for the strong variant);
- power-automorphism split groups (elementary abelian A with a prime-order
  complement acting by a fixed nontrivial power map);
- minimal-non-X groups for X in {nilpotent, supersoluble, abelian};
- prime-ordering dispersivity and class residuals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .groups import (
    Group,
    NotNormal,
    SubgroupSet,
    bits,
    close_mask,
    factorize,
    is_prime,
    prime_spectrum,
    quotient,
    squarefree,
    subgroup_as_group,
    subgroup_generated,
    trivial_subgroup,
    whole_group,
)
from .lattice import lattice_of


class BadOrdering(Exception):
    """Prime ordering does not match the group's prime spectrum."""


class InternalCheckError(Exception):
    """A mathematically guaranteed self-check failed (implementation bug)."""


@dataclass(frozen=True)
class ChiefFactor:
    """A factor H/K with K < H normal in G and nothing normal between."""

    below: SubgroupSet          # K
    above: SubgroupSet          # H
    factor_order: int           # |H| / |K|
    automizer_order: int        # |G / C_G(H/K)|
    is_cyclic: bool
    is_frattini: bool           # H/K lands inside Frattini(G/K)

    def descriptor(self) -> str:
        kind = "frattini" if self.is_frattini else "non-frattini"
        return (f"cf(|K|={self.below.order},|H|={self.above.order},"
                f"order={self.factor_order},aut={self.automizer_order},"
                f"{'cyclic' if self.is_cyclic else 'non-cyclic'},{kind})")


PROFILE_FIELDS = (
    "abelian",
    "nilpotent",
    "soluble",
    "supersoluble",
    "strongly_supersoluble",
    "nearly_nilpotent",
    "p_group_schmidt",
    "schmidt_group",
    "u_critical",
    "ore_dispersive",
)


@dataclass(frozen=True)
class ClassProfile:
    abelian: bool
    nilpotent: bool
    soluble: bool
    supersoluble: bool
    strongly_supersoluble: bool
    nearly_nilpotent: bool
    p_group_schmidt: bool
    schmidt_group: bool
    u_critical: bool
    ore_dispersive: bool
    dispersive_orderings: tuple[tuple[int, ...], ...]

    def to_json_obj(self) -> dict:
        out = {name: getattr(self, name) for name in PROFILE_FIELDS}
        out["dispersive_orderings"] = [list(o) for o in self.dispersive_orderings]
        return out


# ---------------------------------------------------------------------------
# normal subgroups and chief factors

def normal_subgroups(G: Group) -> tuple[SubgroupSet, ...]:
    """All normal subgroups, in canonical lattice order."""
    lat = lattice_of(G)
    return tuple(lat.subgroups[i] for i in lat.normal_indices())


def _factor_centralizer_mask(G: Group, kmask: int, hmask: int) -> int:
    """{g : every commutator [g, h] with h in H lies in K}."""
    members = tuple(bits(hmask))
    out = 0
    for g in range(G.order):
        ok = True
        for h in members:
            if not (kmask >> G.commutator(g, h)) & 1:
                ok = False
                break
        if ok:
            out |= 1 << g
    return out


def _factor_is_cyclic(G: Group, kmask: int, hmask: int, factor_order: int) -> bool:
    """H/K is cyclic iff some coset hK has order |H/K| in H/K."""
    table = G.table
    for h in bits(hmask):
        m, y = 1, h
        while not (kmask >> y) & 1:
            y = table[y][h]
            m += 1
        if m == factor_order:
            return True
    return factor_order == 1


def _frattini_preimage_mask(G: Group, kmask: int) -> int:
    """Pullback of Frattini(G/K): intersection of maximal subgroups above K."""
    lat = lattice_of(G)
    out = (1 << G.order) - 1
    for i in lat.covers_down[lat.top()]:
        m = lat.subgroups[i].mask
        if m & kmask == kmask:
            out &= m
    return out


def all_chief_factors(G: Group) -> tuple[ChiefFactor, ...]:
    """Every pair (K, H) of normals with H/K minimal normal in G/K."""
    key = "chief_factors"
    hit = G._cache.get(key)
    if hit is not None:
        return hit
    norms = normal_subgroups(G)
    masks = [s.mask for s in norms]
    factors = []
    for ik, K in enumerate(norms):
        km = masks[ik]
        for ih, H in enumerate(norms):
            hm = masks[ih]
            if km == hm or km & hm != km:
                continue
            if any(m != km and m != hm and m & km == km and m & hm == m
                   for m in masks):
                continue
            forder = H.order // K.order
            cmask = _factor_centralizer_mask(G, km, hm)
            aut = G.order // cmask.bit_count()
            cyc = _factor_is_cyclic(G, km, hm, forder)
            fratt = hm & _frattini_preimage_mask(G, km) == hm
            factors.append(ChiefFactor(K, H, forder, aut, cyc, fratt))
    result = tuple(factors)
    G._cache[key] = result
    return result


def chief_series(G: Group, prefer: str = "first") -> tuple[ChiefFactor, ...]:
    """One ascending chief series, extracted greedily.

    ``prefer`` picks which normal cover to take at each step ("first" or
    "last" in canonical order); used to cross-check series independence.
    """
    factors = all_chief_factors(G)
    series = []
    current = trivial_subgroup(G).mask
    full = whole_group(G).mask
    while current != full:
        choices = [f for f in factors if f.below.mask == current]
        if not choices:
            raise InternalCheckError("chief series extraction stalled")
        step = choices[0] if prefer == "first" else choices[-1]
        series.append(step)
        current = step.above.mask
    return tuple(series)


# ---------------------------------------------------------------------------
# series-based predicates

def is_abelian(G: Group) -> bool:
    t = G.table
    return all(t[a][b] == t[b][a] for a in range(G.order) for b in range(G.order))


def _series_reaches_one(G: Group, key: str, step) -> bool:
    """Iterate ``step`` from the whole group to a fixpoint; memoised on G."""
    hit = G._cache.get(key)
    if hit is not None:
        return hit
    cur = (1 << G.order) - 1
    while True:
        nxt = close_mask(G.table, step(cur), G.order)
        if nxt == cur:
            G._cache[key] = cur == 1
            return cur == 1
        cur = nxt


def is_soluble(G: Group) -> bool:
    """Derived series reaches the trivial subgroup."""
    def step(cur):
        members = tuple(bits(cur))
        return {G.commutator(a, b) for a in members for b in members}
    return _series_reaches_one(G, "soluble", step)


def is_nilpotent(G: Group) -> bool:
    """Lower central series reaches the trivial subgroup."""
    def step(cur):
        return {G.commutator(a, b) for a in bits(cur) for b in range(G.order)}
    return _series_reaches_one(G, "nilpotent", step)


# ---------------------------------------------------------------------------
# chief-factor classes

def is_supersoluble(G: Group) -> bool:
    return all(f.is_cyclic for f in all_chief_factors(G))


def is_strongly_supersoluble(G: Group) -> bool:
    factors = all_chief_factors(G)
    return (all(f.is_cyclic for f in factors)
            and all(squarefree(f.automizer_order) for f in factors))


def is_nearly_nilpotent(G: Group) -> bool:
    factors = all_chief_factors(G)
    if not all(f.is_cyclic for f in factors):
        return False
    return all(
        f.automizer_order == 1 or is_prime(f.automizer_order)
        for f in factors if not f.is_frattini
    )


# ---------------------------------------------------------------------------
# power-automorphism split groups and critical groups

def _elementary_abelian_prime(G: Group, S: SubgroupSet) -> int | None:
    """The prime p when S is elementary abelian of order p^k (k >= 1)."""
    if S.order == 1:
        return None
    fac = factorize(S.order)
    if len(fac) != 1:
        return None
    (p, _), = fac.items()
    orders = G.element_orders()
    members = S.members()
    if any(orders[x] != p for x in members if x != 0):
        return None
    t = G.table
    return p if all(t[a][b] == t[b][a] for a in members for b in members) else None


def is_p_group_schmidt(G: Group) -> bool:
    """Split group A x| <t> with A elementary abelian p, t of prime order
    q != p acting as one fixed nontrivial power map a -> a^k on A."""
    orders = G.element_orders()
    for A in normal_subgroups(G):
        if A.order in (1, G.order):
            continue
        p = _elementary_abelian_prime(G, A)
        if p is None:
            continue
        q = G.order // A.order
        if not is_prime(q) or q == p:
            continue
        members = [x for x in A.members() if x != 0]
        for t in range(1, G.order):
            if t in A or orders[t] != q:
                continue
            k = None
            uniform = True
            for a in members:
                ca = G.conj(t, a)
                # ca must equal a^j for a single exponent j shared by all a
                j, y = 1, a
                while y != ca:
                    y = G.table[y][a]
                    j += 1
                    if j > p:
                        break
                if j > p:
                    uniform = False
                    break
                if k is None:
                    k = j
                elif j != k:
                    uniform = False
                    break
            if uniform and k is not None and k % p != 1:
                return True
    return False


def is_critical(G: Group, predicate) -> bool:
    """G fails the predicate while every proper subgroup satisfies it."""
    if predicate(G):
        return False
    lat = lattice_of(G)
    for S in lat.subgroups[:-1]:
        sub, _ = subgroup_as_group(G, S)
        if not predicate(sub):
            return False
    return True


def is_schmidt_group(G: Group) -> bool:
    """Minimal non-nilpotent group."""
    return is_critical(G, is_nilpotent)


def is_u_critical(G: Group) -> bool:
    """Minimal non-supersoluble group."""
    return is_critical(G, is_supersoluble)


def is_minimal_non_abelian(G: Group) -> bool:
    return is_critical(G, is_abelian)


# ---------------------------------------------------------------------------
# dispersivity

def is_phi_dispersive(G: Group, ordering) -> bool:
    """A nested chain of normal subgroups realises the prime ordering:
    for every i there is a normal subgroup of order p_1^a_1 ... p_i^a_i."""
    phi = tuple(int(p) for p in ordering)
    spectrum = prime_spectrum(G)
    if tuple(sorted(phi)) != spectrum:
        raise BadOrdering(f"{phi} is not an ordering of {spectrum}")
    fac = factorize(G.order)
    normal_orders = {N.order for N in normal_subgroups(G)}
    need = 1
    for p in phi:
        need *= p ** fac[p]
        if need not in normal_orders:
            return False
    return True


def dispersive_orderings(G: Group) -> tuple[tuple[int, ...], ...]:
    """All orderings of the prime spectrum for which G is dispersive.

    The trivial group has the empty ordering and is vacuously dispersive.
    """
    return tuple(
        phi for phi in itertools.permutations(prime_spectrum(G))
        if is_phi_dispersive(G, phi)
    )


def is_ore_dispersive(G: Group) -> bool:
    """Dispersive for the descending prime ordering."""
    return is_phi_dispersive(G, tuple(sorted(prime_spectrum(G), reverse=True)))


# ---------------------------------------------------------------------------
# hypercyclic embedding

def is_hypercyclically_embedded(G: Group, A: SubgroupSet) -> bool:
    """Every chief factor of G below A is cyclic (A must be normal)."""
    lat = lattice_of(G)
    if not lat.is_normal(lat.index(A)):
        raise NotNormal(f"subgroup of order {A.order} is not normal in {G.name}")
    return all(
        f.is_cyclic for f in all_chief_factors(G)
        if f.above.mask & A.mask == f.above.mask
    )


def hypercyclic_center(G: Group) -> SubgroupSet:
    """Join of all normal hypercyclically embedded subgroups."""
    seed = 1
    for N in normal_subgroups(G):
        if is_hypercyclically_embedded(G, N):
            seed |= N.mask
    result = subgroup_generated(G, bits(seed))
    if not is_hypercyclically_embedded(G, result):
        raise InternalCheckError(
            "join of hypercyclically embedded subgroups lost the property")
    return result


# ---------------------------------------------------------------------------
# residuals

def residual(G: Group, predicate) -> SubgroupSet:
    """Intersection of all normal subgroups N with predicate(G/N) true."""
    mask = whole_group(G).mask
    for N in normal_subgroups(G):
        Q, _ = quotient(G, N)
        if predicate(Q):
            mask &= N.mask
    return SubgroupSet(G, mask)


def _checked_residual(G: Group, predicate, label: str) -> SubgroupSet:
    r = residual(G, predicate)
    Q, _ = quotient(G, r)
    if not predicate(Q):
        raise InternalCheckError(
            f"quotient by the {label} residual is not {label} in {G.name}")
    return r


def residual_supersoluble(G: Group) -> SubgroupSet:
    """Smallest normal subgroup with supersoluble quotient."""
    return _checked_residual(G, is_supersoluble, "supersoluble")


def residual_strongly_supersoluble(G: Group) -> SubgroupSet:
    """Smallest normal subgroup with strongly supersoluble quotient."""
    return _checked_residual(G, is_strongly_supersoluble, "strongly supersoluble")


def is_nilpotent_hall(G: Group, H: SubgroupSet) -> bool:
    """H nilpotent and |H| coprime to its index."""
    if math.gcd(H.order, G.order // H.order) != 1:
        return False
    sub, _ = subgroup_as_group(G, H)
    return is_nilpotent(sub)


# ---------------------------------------------------------------------------
# the assembled profile

def classify(G: Group) -> ClassProfile:
    orderings = dispersive_orderings(G)
    descending = tuple(sorted(prime_spectrum(G), reverse=True))
    return ClassProfile(
        abelian=is_abelian(G),
        nilpotent=is_nilpotent(G),
        soluble=is_soluble(G),
        supersoluble=is_supersoluble(G),
        strongly_supersoluble=is_strongly_supersoluble(G),
        nearly_nilpotent=is_nearly_nilpotent(G),
        p_group_schmidt=is_p_group_schmidt(G),
        schmidt_group=is_schmidt_group(G),
        u_critical=is_u_critical(G),
        ore_dispersive=descending in orderings,
        dispersive_orderings=orderings,
    )
