"""Chief factors and group-class predicates.

Chief factors are quantified over all pairs of normal subgroups with
nothing normal strictly between (the covers of the normal sublattice), not
over one chosen series; each class below is one test per chief factor
("every chief factor ..."), evaluated literally.
The automizer order of a factor H/K is |G| / |C_G(H/K)| where
C_G(H/K) = {g : [g, h] in K for all h in H}, i.e. the order of the
automorphism group the whole group induces on the factor.  Both it and
cyclicity are read off the normal sublattice (``_chief_factors``):
C_G(H/K) is the largest normal N with [N, H] <= K, the lattice's
``centralizer(h, k)``, and a chief factor is cyclic exactly when its order
is prime.

Quotients and sections of G are asked about inside G.  The chief factors of
G/N are G's factors H/K with N <= K, with the same order, cyclicity,
automizer order and Frattini flag ((G/N)/(K/N) is G/K), so residuals read
G's factors; the lower central series of hi/lo is [cur, hi]lo from hi.  Three
rebuilds stay on purpose: ``is_critical`` rebuilds proper subgroups, whose
chief factors G's do not give; Prop2.9 (:mod:`modmax.verify`) rebuilds
quotients, since read through G's factors its check would be a tautology;
and ``residual`` rebuilds G/R once to check its reading.  The quotient by
the trivial subgroup is G itself, so none of them rebuilds G.

Class predicates implemented here:

- soluble / nilpotent via derived and lower central series, [A, B] read
  off generators; abelian when the generators commute;
- supersoluble: every chief factor cyclic;
- strongly supersoluble: supersoluble with square-free automizer order on
  every chief factor;
- nearly nilpotent: supersoluble with automizer order 1 or prime on every
  non-Frattini chief factor (Frattini factors are exempt, all-factor
  quantification is deliberate for the strong variant);
- power-automorphism split groups (elementary abelian A with a prime-order
  complement acting by a fixed nontrivial power map), one element of the
  complement's order tested per A, on A's generators;
- minimal-non-X groups, ``is_critical(G, predicate)``, named for X
  nilpotent (Schmidt) and supersoluble;
- prime-ordering dispersivity and class residuals.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import NamedTuple

from .groups import (
    Group,
    SubgroupSet,
    _ask_derived,
    _closure,
    _greedy_generators,
    _memo,
    bits,
    commutator_mask,
    conjugate_mask,
    factorize,
    is_prime,
    prime_spectrum,
    quotient,
    squarefree,
    subgroup_as_group,
    whole_group,
)
from .lattice import lattice_of


class BadOrdering(Exception):
    """Prime ordering does not match the group's prime spectrum."""


class InternalCheckError(Exception):
    """A mathematically guaranteed self-check failed (implementation bug)."""


class ChiefFactor(NamedTuple):
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


class ClassProfile(NamedTuple):
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


def all_chief_factors(G: Group) -> tuple[ChiefFactor, ...]:
    """Every pair (K, H) of normals with H/K minimal normal in G/K, i.e. H
    covers K in the normal sublattice; K ascending, then H ascending."""
    return _memo(G, "chief_factors", _chief_factors, G)


def _chief_factors(G: Group) -> tuple[ChiefFactor, ...]:
    """Each factor H/K is read off the lattice: the automizer order is
    |G| over C_G(H/K), the lattice's ``centralizer(h, k)``, H/K is a
    Frattini factor when H lies below ``frattini(k)``, the preimage of
    Frattini(G/K), and H/K is cyclic exactly when its order is prime.
    H/K is minimal normal in G/K, so characteristically simple, and a
    cyclic group has a characteristic subgroup of each order dividing its
    own.  Neither fact is a theorem under test."""
    lat = lattice_of(G)
    factors = []
    for k in bits(lat.normal):
        above = lat.up[k] & lat.normal & ~(1 << k)
        shadow = 0
        for h in bits(above):
            shadow |= lat.up[h] & ~(1 << h)
        K = lat.subgroups[k]
        frattini = lat.down[lat.frattini(k)]
        for h in bits(above & ~shadow):
            H = lat.subgroups[h]
            forder = H.order // K.order
            aut = G.order // lat.subgroups[lat.centralizer(h, k)].order
            factors.append(ChiefFactor(K, H, forder, aut, is_prime(forder),
                                       bool(frattini >> h & 1)))
    return tuple(factors)


# ---------------------------------------------------------------------------
# series-based predicates

def is_abelian(G: Group) -> bool:
    """Every pair of generators commutes."""
    t, gens = G.table, G.generator_indices
    return all(t[a][b] == t[b][a] for a in gens for b in gens)


def _fixpoint(step, cur: int) -> int:
    """Iterate ``step`` (mask to mask) from ``cur`` until it stops."""
    nxt = step(cur)
    while nxt != cur:
        cur, nxt = nxt, step(nxt)
    return cur


def is_soluble(G: Group) -> bool:
    """Derived series reaches the trivial subgroup; its end is memoised."""
    return _memo(G, "soluble", _fixpoint, lambda cur: commutator_mask(G, cur, cur),
                 (1 << G.order) - 1) == 1


def is_nilpotent(G: Group, section=None) -> bool:
    """Lower central series reaches the trivial subgroup.  ``section`` =
    (lo, hi), masks with lo normal in hi, asks it of hi/lo inside G: since
    gamma_i(hi/lo) = gamma_i(hi)lo/lo, the series is [cur, hi]lo from hi
    (the normal subgroup [cur, hi] of hi extended by the generators of lo,
    which normalise it).  The series' end is memoised per section."""
    lo, hi = section or (1, (1 << G.order) - 1)
    lo_gens = _greedy_generators(G.table, lo)
    step = lambda cur: _closure(G.table, commutator_mask(G, cur, hi), lo_gens)
    return _memo(G, ("nilpotent", lo, hi), _fixpoint, step, hi) == lo


# ---------------------------------------------------------------------------
# chief-factor classes

def _supersoluble_factor(f: ChiefFactor) -> bool:
    return f.is_cyclic


def _strongly_supersoluble_factor(f: ChiefFactor) -> bool:
    return f.is_cyclic and squarefree(f.automizer_order)


def _nearly_nilpotent_factor(f: ChiefFactor) -> bool:
    return f.is_cyclic and (f.is_frattini or f.automizer_order == 1
                            or is_prime(f.automizer_order))


def is_supersoluble(G: Group) -> bool:
    return all(map(_supersoluble_factor, all_chief_factors(G)))


def is_strongly_supersoluble(G: Group) -> bool:
    return all(map(_strongly_supersoluble_factor, all_chief_factors(G)))


def is_nearly_nilpotent(G: Group) -> bool:
    return all(map(_nearly_nilpotent_factor, all_chief_factors(G)))


# ---------------------------------------------------------------------------
# power-automorphism split groups and critical groups

def _elementary_abelian(G: Group, S: SubgroupSet) -> tuple[int, tuple[int, ...]] | None:
    """(p, S's greedy generators) when S is elementary abelian of order p^k
    (k >= 1)."""
    fac = factorize(S.order)
    if len(fac) != 1:
        return None
    (p, _), = fac.items()
    orders = G.element_orders()
    if any(orders[x] != p for x in S.members() if x != 0):
        return None
    t = G.table
    gens = _greedy_generators(t, S.mask)  # commuting generators: abelian
    return (p, gens) if all(t[a][b] == t[b][a] for a in gens for b in gens) else None


def is_p_group_schmidt(G: Group, S: SubgroupSet | None = None) -> bool:
    """Split group A x| <t> with A elementary abelian p, t of prime order
    q != p acting as one fixed nontrivial power map a -> a^k on A.

    ``S`` asks it of a subgroup, inside G's lattice: A runs over S's
    subgroups fixed by conjugation with S's generators.

    One t per A is tested, the least member of S of order q, and only on
    A's generators.  Every element of order q lies outside the p-group A,
    so it is a0 t^j with a0 in A and 0 < j < q.  On the abelian A it acts
    as t^j does, a -> a^(k^j), which is nontrivial because k has order q
    mod p (t^q = 1 acts trivially, t does not).  So if one element of
    order q acts as a nontrivial power map, every one does.  Conjugation
    is an automorphism, so a power map on A's generators is a power map on
    all of A."""
    lat = lattice_of(G)
    S = whole_group(G) if S is None else S
    orders, table = G.element_orders(), G.table
    s_gens = _greedy_generators(table, S.mask)
    for ai in bits(lat.down[lat.index(S)]):
        A = lat.subgroups[ai]
        q = S.order // A.order
        if not is_prime(q):
            continue
        found = _elementary_abelian(G, A)
        if found is None:
            continue
        p, a_gens = found
        if q == p or any(conjugate_mask(G, g, A.mask) != A.mask for g in s_gens):
            continue
        t = next(x for x in S if orders[x] == q)  # Cauchy: one exists
        # t acts as one power map a -> a^k, 1 < k <= p, on every generator:
        # k is the least j with a^j = t a t^-1 (p + 1 when there is none)
        ks = set()
        for a in a_gens:
            ca, y, j = G.conj(t, a), a, 1
            while y != ca and j <= p:
                y, j = table[y][a], j + 1
            ks.add(j)
        if len(ks) == 1 and 1 < min(ks) <= p:
            return True
    return False


def is_critical(G: Group, predicate) -> bool:
    """G fails the predicate while every proper subgroup satisfies it."""
    if predicate(G):
        return False
    lat = lattice_of(G)
    for S in lat.subgroups[:-1]:
        if not _ask_derived(G, subgroup_as_group(G, S)[0], predicate):
            return False
    return True


def is_schmidt_group(G: Group) -> bool:
    """Minimal non-nilpotent group."""
    return is_critical(G, is_nilpotent)


def is_u_critical(G: Group) -> bool:
    """Minimal non-supersoluble group."""
    return is_critical(G, is_supersoluble)


# ---------------------------------------------------------------------------
# dispersivity

def is_phi_dispersive(G: Group, ordering) -> bool:
    """A nested chain of normal subgroups realises the prime ordering:
    for every i there is a normal subgroup of order p_1^a_1 ... p_i^a_i."""
    phi = tuple(map(operator.index, ordering))
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


# ---------------------------------------------------------------------------
# residuals

def residual(G: Group, test, label: str) -> SubgroupSet:
    """Smallest normal subgroup R with G/R in the class whose chief factors
    all pass ``test``.  G/N is in the class when no failing factor H/K of G
    has N <= K, so R is the intersection of those N.  G/R is rebuilt once
    and checked, as a cross-check of that reading (G/1 is G itself); R is
    memoised on G per ``test``, so G/R is not kept."""
    return _memo(G, ("residual", test), _residual, G, test, label)


def _residual(G: Group, test, label: str) -> SubgroupSet:
    lat = lattice_of(G)
    bad = 0
    for f in all_chief_factors(G):
        if not test(f):
            bad |= 1 << lat.index(f.below)
    inside = lat.down[lat.top()]
    for n in bits(lat.normal):
        if not lat.up[n] & bad:
            inside &= lat.down[n]
    r = lat.subgroups[inside.bit_length() - 1]
    if not _ask_derived(G, quotient(G, r)[0],
                        lambda Q: all(map(test, all_chief_factors(Q)))):
        raise InternalCheckError(
            f"quotient by the {label} residual is not {label} in {G.name}")
    return r


def residual_supersoluble(G: Group) -> SubgroupSet:
    """Smallest normal subgroup with supersoluble quotient."""
    return residual(G, _supersoluble_factor, "supersoluble")


def residual_strongly_supersoluble(G: Group) -> SubgroupSet:
    """Smallest normal subgroup with strongly supersoluble quotient."""
    return residual(G, _strongly_supersoluble_factor, "strongly supersoluble")


def is_nilpotent_hall(G: Group, H: SubgroupSet) -> bool:
    """H nilpotent and |H| coprime to its index."""
    return (math.gcd(H.order, G.order // H.order) == 1
            and is_nilpotent(G, (1, H.mask)))


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
