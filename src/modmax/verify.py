"""Verdict harness for the numbered structural results.

Each check evaluates a hypothesis and a conclusion on a concrete group and
returns a :class:`VerdictReport`.  The soundness contract of the whole
harness: a report counts as a failure only when the hypothesis holds (or
is vacuous, which counts as satisfied) while the conclusion fails.  Across
the standard suite no check may ever fail; a failure would mean either a
counterexample to a published result or a bug in this package, and both
break the build.

Check identifiers, fixed as part of the report schema:

- ThmA, Thm2.12: soluble groups whose n-maximal subgroups are all modular
  (2.12 also allows S-quasinormal), n bounded by the number of prime
  divisors; conclusion is strong supersolubility plus a square-free
  automizer bound on non-Frattini chief factors.
- ThmB, Thm3.4: same hypotheses with the bound relaxed by one; conclusion
  is that the strongly supersoluble residual is a nilpotent Hall subgroup.
- Prop2.9: closure facts for nearly nilpotent groups.
- Prop2.11: all maximal or all 2-maximal subgroups modular/S-quasinormal
  forces nearly nilpotent (hence strongly supersoluble).
- Prop3.2, Cor4.4: non-supersoluble groups whose 3-maximal subgroups are
  all well placed have order p*q^2 or are a quaternion group of order 8
  extended by an order-3 element.
- Lem2.1, Lem2.2, Lem2.3, Lem2.10: the supporting property suites, run
  exhaustively over all qualifying subgroups.  Lem2.1 finds G's
  non-cyclic chief factors and direct decompositions once, and tests each
  modular subgroup only on its own parts.
- Cor4.1, Cor4.2, Cor4.3: specialisations of Prop2.11.
- SharpnessA, SharpnessB: the two narratives showing the bounds in
  ThmA/ThmB cannot be weakened (evaluated on A4 and A4xC2).

Every check is a hypothesis and a conclusion evaluated by one runner.
Hypotheses with an empty quantification domain (no n-maximal subgroups)
are reported as "vacuous" and count as satisfied.  Conclusions are always
evaluated, even under a failed hypothesis, so that sharpness runs can
report them; the --fast mode skips them in exactly that case and reports
"not-evaluated".  A group the statement does not speak about gets a fixed
verdict without its conclusion being evaluated: Prop3.2 and Cor4.4 report
a failed hypothesis and "not-evaluated" on supersoluble groups, Lem2.10
holds vacuously outside soluble primitive non-nearly-nilpotent groups.

``run_suite`` runs one list of groups: in order when serial; when pooled,
the calling process and a process pool take them, largest first, from one
shared queue.  A report's JSON ``ms`` is always 0.0, so that identical
runs serialise byte for byte; the text form shows the wall time.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from typing import NamedTuple

from . import catalog
from .classify import (
    all_chief_factors,
    is_nearly_nilpotent,
    is_nilpotent,
    is_nilpotent_hall,
    is_p_group_schmidt,
    is_soluble,
    is_strongly_supersoluble,
    is_supersoluble,
    residual_strongly_supersoluble,
)
from .groups import (
    Group,
    SubgroupSet,
    _ask_derived,
    _forget,
    _greedy_generators,
    _memo,
    bits,
    conjugate_mask,
    factorize,
    is_prime,
    prime_spectrum,
    quotient,
    squarefree,
)
from .lattice import BadDepth, lattice_of

HOLDS = "holds"
FAILS = "fails"
VACUOUS = "vacuous"
NOT_EVALUATED = "not-evaluated"

MAX_WITNESSES = 10


class UnknownSelector(Exception):
    """Suite selector does not name a known group set or check set, or the
    worker count is below one."""


class VerdictReport(NamedTuple):
    group: str
    theorem: str
    hypothesis: str            # holds | fails | vacuous
    conclusion: str            # holds | fails | not-evaluated
    witnesses: tuple[str, ...]
    ms: float

    def is_failure(self) -> bool:
        return (self.hypothesis in (HOLDS, VACUOUS)
                and self.conclusion == FAILS)

    def to_json_obj(self) -> dict:
        # "ms" is always 0 so that identical runs serialise byte for byte;
        # wall time is shown in text mode.
        return {
            "group": self.group,
            "theorem": self.theorem,
            "hypothesis": self.hypothesis,
            "conclusion": self.conclusion,
            "witnesses": list(self.witnesses),
            "ms": 0.0,
        }


def _cap_witnesses(items) -> tuple[str, ...]:
    items = list(items)
    if len(items) > MAX_WITNESSES:
        extra = len(items) - (MAX_WITNESSES - 1)
        items = items[:MAX_WITNESSES - 1] + [f"... {extra} more"]
    return tuple(items)


def _descriptor(lat, i: int) -> str:
    return f"subgroup[{i}](order {lat.subgroups[i].order})"


def _offender_witnesses(lat, offenders, cap: int = 4) -> list[str]:
    out = [_descriptor(lat, i) for i in offenders[:cap]]
    if len(offenders) > cap:
        out.append(f"... {len(offenders) - cap} more offenders")
    return out


# ---------------------------------------------------------------------------
# the check runner

def _run(hypothesis, conclusion, scope, G: Group, theorem: str, fast: bool,
         *args) -> VerdictReport:
    """One numbered result, given as functions of (G, lattice, *args).

    ``hypothesis`` gives (status, witnesses) and ``conclusion`` gives
    (ok, witnesses).  ``scope``, when set, gives None for a group the
    statement speaks about and a settled (hypothesis, conclusion, witnesses)
    verdict otherwise, with the conclusion left unevaluated.
    """
    t0 = time.perf_counter()
    lat = lattice_of(G)
    verdict = scope(G, lat, *args) if scope else None
    if verdict is None:
        status, witnesses = hypothesis(G, lat, *args)
        if fast and status == FAILS:
            outcome = NOT_EVALUATED
        else:
            ok, more = conclusion(G, lat, *args)
            outcome, witnesses = (HOLDS if ok else FAILS), witnesses + more
    else:
        status, outcome, witnesses = verdict
    ms = (time.perf_counter() - t0) * 1000.0
    return VerdictReport(G.name, theorem, status, outcome,
                         _cap_witnesses(witnesses), ms)


def _nmax_runner(theorem: str, with_squasi: bool, slack: int, conclusion):
    """``verify(G, n, fast=False)`` for a theorem on n-maximal subgroups."""
    hypothesis = functools.partial(_nmax_hypothesis, with_squasi=with_squasi,
                                   slack=slack)

    def verify(G: Group, n: int, fast: bool = False) -> VerdictReport:
        if n < 1:
            raise BadDepth(f"depth must be >= 1, got {n}")
        return _run(hypothesis, conclusion, None, G, f"{theorem}(n={n})", fast, n)
    return verify


def _single_runner(theorem: str, hypothesis, conclusion, scope=None):
    """``verify(G, fast=False)`` for a check without a depth."""
    def verify(G: Group, fast: bool = False) -> VerdictReport:
        return _run(hypothesis, conclusion, scope, G, theorem, fast)
    return verify


def _holds(G: Group, lat, *args):
    """The hypothesis of a property suite, true of every group in scope."""
    return HOLDS, []


def _well_placed(lat, n: int, modular: bool, s_quasinormal: bool, cap: int = 4):
    """Status of "every n-maximal subgroup is well placed", with witnesses:
    the empty domain, or the offenders."""
    layer = lat.n_maximal_bits(n)
    if not layer:
        return VACUOUS, [f"no {n}-maximal subgroups"]
    placed = ((lat.modular if modular else 0)
              | (lat.s_quasinormal if s_quasinormal else 0))
    offenders = list(bits(layer & ~placed))
    return (FAILS if offenders else HOLDS), _offender_witnesses(lat, offenders, cap)


def _every_n_maximal(n: int, modular: bool, s_quasinormal: bool):
    return lambda G, lat: _well_placed(lat, n, modular, s_quasinormal)


def _is_class(label: str, predicate):
    """The conclusion "G is <label>", witnessed only when it fails."""
    def conclusion(G: Group, lat):
        ok = predicate(G)
        return ok, [] if ok else [f"group is not {label}"]
    return conclusion


# ---------------------------------------------------------------------------
# the modularity census

class CensusRow(NamedTuple):
    n: int
    total: int
    modular: int
    s_quasinormal: int
    neither: int


class ModularityCensus(NamedTuple):
    group: str
    rows: tuple[CensusRow, ...]
    min_n_all_modular: int | None

    def to_json_obj(self) -> dict:
        return {
            "group": self.group,
            "rows": [
                {"n": r.n, "total": r.total, "modular": r.modular,
                 "s_quasinormal": r.s_quasinormal, "neither": r.neither}
                for r in self.rows
            ],
            "min_n_all_modular": self.min_n_all_modular,
        }


def census(G: Group) -> ModularityCensus:
    """Classify every n-maximal subgroup by modularity and S-quasinormality,
    for each depth up to the longest maximal chain."""
    lat = lattice_of(G)
    modular, squasi = lat.modular, lat.s_quasinormal
    rows = []
    min_n = None
    for n in range(1, lat.max_chain_length + 1):
        layer = lat.layers[n]
        rows.append(CensusRow(n, layer.bit_count(), (layer & modular).bit_count(),
                              (layer & squasi).bit_count(),
                              (layer & ~(modular | squasi)).bit_count()))
        if min_n is None and not layer & ~modular:
            min_n = n
    return ModularityCensus(G.name, tuple(rows), min_n)


# ---------------------------------------------------------------------------
# n-maximal theorems

def _nmax_hypothesis(G: Group, lat, n: int, with_squasi: bool, slack: int):
    """Soluble, n at most |pi(G)| + slack, and every n-maximal subgroup
    modular (or S-quasinormal, with ``with_squasi``)."""
    bound = len(prime_spectrum(G)) + slack
    if not is_soluble(G):
        return FAILS, ["group is not soluble"]
    if n > bound:
        return FAILS, [f"n={n} exceeds the bound {bound}"]
    return _well_placed(lat, n, True, with_squasi)


def _strongly_supersoluble_conclusion(G: Group, lat, n: int):
    """Strongly supersoluble, and each non-Frattini chief factor has a
    square-free automizer order with at most n prime factors."""
    witnesses = []
    if not is_strongly_supersoluble(G):
        witnesses.append("group is not strongly supersoluble")
    for f in all_chief_factors(G):
        if f.is_frattini:
            continue
        aut = f.automizer_order
        if not squarefree(aut) or len(factorize(aut)) > n:
            witnesses.append(f"automizer bound fails: {f.descriptor()}")
    return not witnesses, witnesses


def _residual_hall_conclusion(G: Group, lat, n: int):
    """The strongly supersoluble residual is a nilpotent Hall subgroup."""
    r = residual_strongly_supersoluble(G)
    ok = is_nilpotent_hall(G, r)
    word = "is" if ok else "is not"
    return ok, [f"residual(order {r.order}) {word} nilpotent Hall in order {G.order}"]


# ---------------------------------------------------------------------------
# propositions

def _quotient_nearly_nilpotent(G: Group, lat, n: int) -> bool:
    """G/N is nearly nilpotent, for N the normal subgroup at index n, asked
    of the rebuilt quotient: read through G's chief factors the check would
    be a tautology.  G/N is isomorphic to G/phi(N) for every automorphism
    phi, so the answer is memoised on G per orbit of n (``lat.orbit_of``)
    and asked of the quotient by the orbit's least member, which is not
    kept."""
    orbit = lat.orbit_of[n]
    rep = (orbit & -orbit).bit_length() - 1
    return _memo(G, ("nearly nilpotent quotient", rep), lambda: _ask_derived(
        G, quotient(G, lat.subgroups[rep])[0], is_nearly_nilpotent))


def _prop_2_9_cases(G: Group, lat) -> tuple[bool, bool]:
    """(G nearly nilpotent, G over its Frattini subgroup nearly nilpotent)."""
    return is_nearly_nilpotent(G), _quotient_nearly_nilpotent(G, lat, lat.frattini())


def _prop_2_9_hypothesis(G: Group, lat):
    if any(_prop_2_9_cases(G, lat)):
        return HOLDS, []
    return VACUOUS, ["group is not nearly nilpotent (no closure to check)"]


def _prop_2_9_conclusion(G: Group, lat):
    """Closure facts: a nearly nilpotent group is strongly supersoluble and
    all its quotients are nearly nilpotent; recovering the property from the
    Frattini quotient is also checked."""
    nn_here, nn_frattini_quotient = _prop_2_9_cases(G, lat)
    witnesses = []
    if nn_here:
        if not is_strongly_supersoluble(G):
            witnesses.append("nearly nilpotent but not strongly supersoluble")
        for n in lat.normal_indices():
            if not _quotient_nearly_nilpotent(G, lat, n):
                witnesses.append(f"quotient by normal subgroup of order "
                                 f"{lat.subgroups[n].order} is not nearly nilpotent")
    if nn_frattini_quotient and not nn_here:
        witnesses.append("Frattini quotient nearly nilpotent, group is not")
    return not witnesses, witnesses


def _prop_2_11_hypothesis(G: Group, lat):
    """All maximal, or all 2-maximal, subgroups modular or S-quasinormal."""
    s1, w1 = _well_placed(lat, 1, True, True, cap=2)
    s2, w2 = _well_placed(lat, 2, True, True, cap=2)
    if s1 == VACUOUS and s2 == VACUOUS:
        return VACUOUS, ["no maximal subgroups at all"]
    if s1 != FAILS or s2 != FAILS:
        # either disjunct suffices; an empty depth counts as satisfied
        return HOLDS, []
    return FAILS, w1 + w2


def _quaternion_complement_structure(G: Group) -> bool:
    """A normal self-centralising quaternion Sylow 2-subgroup of order 8
    with an order-3 complement, checked structurally."""
    if G.order != 24:
        return False
    lat = lattice_of(G)
    orders = G.element_orders()
    for i in lat.normal_indices():
        S = lat.subgroups[i]
        if S.order != 8 or sum(1 for x in S if orders[x] == 2) != 1:
            continue
        # one involution and non-abelian: Q8.  Non-abelian and
        # self-centralising: C_G(S) lies strictly inside S.  An element of
        # order 3, a complement, exists at |G| = 24 by Cauchy's theorem.
        c = lat.centralizer(i)
        if c != i and lat.down[i] >> c & 1:
            return True
    return False


def _supersoluble_out_of_scope(G: Group, lat):
    # Prop3.2 and Cor4.4 describe non-supersoluble groups only
    if is_supersoluble(G):
        return FAILS, NOT_EVALUATED, ["group is supersoluble, statement out of scope"]
    return None


def _three_maximal_conclusion(G: Group, lat):
    """Order p*q^2, or the quaternion-by-3 structure."""
    if sorted(factorize(G.order).values()) == [1, 2]:
        return True, [f"order {G.order} has shape p*q^2"]
    if _quaternion_complement_structure(G):
        return True, ["normal self-centralising quaternion Sylow "
                      "2-subgroup with order-3 complement"]
    return False, ["neither the p*q^2 shape nor the quaternion shape"]


# ---------------------------------------------------------------------------
# lemma suites

def _lemma_2_1_conclusion(G: Group, lat):
    """Lem2.1 over every modular subgroup M of G: M over its core is
    nilpotent, the normal closure over the core is hypercyclically
    embedded, and a core-free M exhibits the coprime
    power-split-by-permutable decomposition.  Both quotients by the core
    M_G are read in G: M/M_G as a section, and the chief factors of G/M_G
    below M^G/M_G as G's factors H/K with M_G <= K and H <= M^G.  Only
    non-cyclic factors can keep M^G/M_G from being hypercyclically
    embedded, and the direct decompositions of G do not depend on M, so
    both are found once."""
    noncyclic = [f for f in all_chief_factors(G) if not f.is_cyclic]
    decompositions = _direct_decompositions(G, lat)
    modular = list(bits(lat.modular))
    bad = []
    for i in modular:
        M = lat.subgroups[i]
        witnesses = []
        mg = lat.subgroups[lat.core(i)].mask
        closure = lat.subgroups[lat.normal_closure(i)].mask
        if not is_nilpotent(G, (mg, M.mask)):
            witnesses.append("M over its core is not nilpotent")
        if any(f.below.mask & mg == mg and f.above.mask & ~closure == 0
               for f in noncyclic):
            witnesses.append("normal closure over the core is not "
                             "hypercyclically embedded")
        if mg == 1 and not _core_free_decomposition(G, lat, M, decompositions):
            witnesses.append("no coprime decomposition found for core-free M")
        if witnesses:
            bad.append(f"{_descriptor(lat, i)}: " + "; ".join(witnesses))
    return not bad, [f"{len(modular)} modular subgroups checked"] + bad


def _direct_decompositions(G: Group, lat):
    """Every G = S1 x ... x Sr x K with pairwise coprime orders, each Si a
    non-abelian power-split normal subgroup, as (S1..Sr, K) pairs.

    Normal parts of pairwise coprime orders that multiply to |G| are always
    an internal direct product, so no product is formed.  Normal A and B of
    coprime orders meet in {1} (Lagrange); [A, B] lies in both, so they
    commute elementwise, and |AB| = |A||B|.  AB is normal again, of order
    coprime to every remaining part, so by induction the product of all
    parts has order |G| and is G.  The literal product is the tests' oracle."""
    norms = [lat.subgroups[i] for i in lat.normal_indices()]
    split_candidates = [N for N in norms
                        if 1 < N.order and is_p_group_schmidt(G, N)]
    out = []
    for r in range(len(split_candidates) + 1):
        for combo in itertools.combinations(split_candidates, r):
            orders = [S.order for S in combo]
            if any(math.gcd(a, b) != 1
                   for a, b in itertools.combinations(orders, 2)):
                continue
            prod = math.prod(orders)
            if G.order % prod:
                continue
            for K in norms:
                if (K.order == G.order // prod
                        and all(math.gcd(K.order, o) == 1 for o in orders)):
                    out.append((combo, K))
    return out


def _core_free_decomposition(G: Group, lat, M: SubgroupSet, decompositions) -> bool:
    """Some decomposition G = S1 x ... x Sr x K has M meeting each Si in a
    non-normal Sylow subgroup, and M meet K quasinormal in G."""
    for combo, K in decompositions:
        if not all(_is_nonnormal_sylow_of(G, S, M.mask & S.mask) for S in combo):
            continue
        piece_orders = [(M.mask & S.mask).bit_count() for S in combo]
        mk_mask = M.mask & K.mask
        if (math.prod(piece_orders) * mk_mask.bit_count() == M.order
                and lat.quasinormal >> lat.index_of[mk_mask] & 1):
            return True
    return False


def _is_nonnormal_sylow_of(G: Group, S: SubgroupSet, q_mask: int) -> bool:
    """The subgroup ``q_mask`` of S is a Sylow subgroup of S, not normal in
    S: S normalises it exactly when each of S's generators does."""
    fac = factorize(q_mask.bit_count())
    if len(fac) != 1:
        return False
    (p, e), = fac.items()
    if e != factorize(S.order)[p]:
        return False
    return any(conjugate_mask(G, g, q_mask) != q_mask
               for g in _greedy_generators(G.table, S.mask))


def _restriction_failures(lat, predicate: str, members, word: str) -> list[str]:
    """Witnesses against Lem2.2 and Lem2.3's restriction clause: each
    member a that is not ``predicate`` (a column name) inside a subgroup b
    with a < b < G, read in the section [1, b], once per such b."""
    top = lat.top()
    return [f"{_descriptor(lat, a)} not {word} inside {_descriptor(lat, b)}"
            for a in members for b in lat.above[a]
            if b != a and b != top and not lat.column(predicate, (0, b)) >> a & 1]


def _lemma_2_2_conclusion(G: Group, lat):
    """Modular subgroups: closed under joins, stable in quotients, include
    all normals, and restrict to intermediate subgroups."""
    bad = []
    top, join_t, modular_bits = lat.top(), lat.join_t, lat.modular
    modular = list(bits(modular_bits))
    for k, a in enumerate(modular):
        join_a = join_t[a]
        for b in modular[k:]:
            if not modular_bits >> join_a[b] & 1:
                bad.append(
                    f"join of {_descriptor(lat, a)} and {_descriptor(lat, b)}"
                    " is not modular")
    for i in bits(lat.normal & ~modular_bits):
        bad.append(f"normal {_descriptor(lat, i)} is not modular")
    for ni in lat.normal_indices():
        # G/N is the section [N, G]; the image of a is a v N
        in_quotient = lat.column("modular", (ni, top))
        join_n = join_t[ni]
        for a in modular:
            if not in_quotient >> join_n[a] & 1:
                bad.append(
                    f"image of {_descriptor(lat, a)} not modular in quotient "
                    f"by order {lat.subgroups[ni].order}")
    bad += _restriction_failures(lat, "modular", modular, "modular")
    return not bad, [f"{len(modular)} modular subgroups"] + bad


def _lemma_2_3_conclusion(G: Group, lat):
    """S-quasinormal subgroups restrict to intermediates, correspond through
    quotients, and are subnormal with nilpotent closure-over-core."""
    top, squasi_bits = lat.top(), lat.s_quasinormal
    squasi = list(bits(squasi_bits))
    bad = _restriction_failures(lat, "s_quasinormal", squasi, "S-quasinormal")
    for hi in lat.normal_indices():
        # G/H is the section [H, G]; K >= H is its own image there
        in_quotient = lat.column("s_quasinormal", (hi, top))
        for k in bits((squasi_bits ^ in_quotient) & lat.up[hi]):
            bad.append(
                f"quotient correspondence fails for {_descriptor(lat, k)} "
                f"over normal of order {lat.subgroups[hi].order}")
    subs = lat.subgroups
    for h in squasi:
        if not lat.is_subnormal(h):
            bad.append(f"{_descriptor(lat, h)} is not subnormal")
        # H^G over H_G, the section [H_G, H^G] of G
        section = subs[lat.core(h)].mask, subs[lat.normal_closure(h)].mask
        if not is_nilpotent(G, section):
            bad.append(
                f"closure over core of {_descriptor(lat, h)} is not nilpotent")
    return not bad, [f"{len(squasi)} S-quasinormal subgroups"] + bad


def _primitive_pairs(G: Group, lat):
    """(R, M) pairs: minimal normal self-centralising R with a core-free
    maximal complement M."""
    pairs = []
    for f in all_chief_factors(G):
        if f.below.order != 1:
            continue  # R is minimal normal: 1 < R is a chief factor
        R = f.above
        ri = lat.index(R)
        if lat.centralizer(ri) != ri:
            continue
        for mi in lat.covers_down[lat.top()]:
            M = lat.subgroups[mi]
            if (lat.core(mi) == 0 and R.mask & M.mask == 1
                    and R.order * M.order == G.order):
                pairs.append((ri, mi))
    return pairs


def _lemma_2_10_scope(G: Group, lat):
    # the lemma speaks about soluble primitive groups R x| M that are not
    # nearly nilpotent; it holds vacuously on every other group
    if not is_soluble(G) or is_nearly_nilpotent(G):
        return VACUOUS, HOLDS, ["group is not a primitive non-nearly-nilpotent "
                                "soluble group"]
    if not _primitive_pairs(G, lat):
        return VACUOUS, HOLDS, ["no self-centralising minimal normal with "
                                "core-free complement"]
    return None


def _lemma_2_10_conclusion(G: Group, lat):
    """No nontrivial proper subgroup of the point stabiliser is modular or
    S-quasinormal, and for prime |M| each intermediate size below |R| has
    a subgroup that is neither."""
    bad = []
    pairs = _primitive_pairs(G, lat)
    placed, subs = lat.modular | lat.s_quasinormal, lat.subgroups
    for ri, mi in pairs:
        R, M = subs[ri], subs[mi]
        proper = lat.down[mi] & ~(1 << mi | 1)
        for ti in bits(proper & placed):
            bad.append(
                f"{_descriptor(lat, ti)} inside the stabiliser is "
                "modular or S-quasinormal")
        if is_prime(M.order):
            # the orders inside R that no unplaced subgroup of R has
            orders = {subs[v].order for v in lat.below[ri]}
            orders -= {subs[v].order for v in bits(lat.down[ri] & ~placed)}
            for size in sorted(o for o in orders if 1 < o < R.order):
                bad.append(
                    f"every subgroup of order {size} inside the socle is "
                    "modular or S-quasinormal")
    return not bad, [f"{len(pairs)} primitive decompositions checked"] + bad


# ---------------------------------------------------------------------------
# sharpness narratives

def _sharpness_A_hypothesis(G: Group, lat):
    """The bound n <= |pi(G)| cannot be dropped: on the order-12
    alternating group the only 3-maximal subgroup is trivial (hence
    modular), yet 3 exceeds |pi| = 2 and the group is not even
    supersoluble, so the hypothesis fails only through the bound."""
    n3 = lat.n_maximal_indices(3)
    if (is_soluble(G) and len(n3) == 1 and lat.subgroups[n3[0]].order == 1
            and lat.modular >> n3[0] & 1):
        return HOLDS, ["3-maximal set is exactly the trivial subgroup"]
    return FAILS, ["group does not have the expected 3-maximal shape"]


def _sharpness_A_conclusion(G: Group, lat):
    spectrum = prime_spectrum(G)
    witnesses = []
    bound_blocks = 3 > len(spectrum)
    conclusion_false = not is_supersoluble(G)
    if bound_blocks:
        witnesses.append(f"3 > |pi(G)| = {len(spectrum)}, the bound is what fails")
    if conclusion_false:
        witnesses.append("group is not supersoluble, so the conclusion "
                         "would be false without the bound")
    return bound_blocks and conclusion_false, witnesses


def _sharpness_B_hypothesis(G: Group, lat):
    """The bound n <= |pi(G)|+1 cannot be raised: on the order-24 direct
    product the strongly supersoluble residual has order 4 and is not a
    Hall subgroup, while the least depth at which all n-maximal subgroups
    are modular exceeds |pi|+1 = 3."""
    if G.order == 24 and len(prime_spectrum(G)) == 2 and is_soluble(G):
        return HOLDS, []
    return FAILS, ["group does not have the expected order-24 shape"]


def _sharpness_B_conclusion(G: Group, lat):
    spectrum = prime_spectrum(G)
    r = residual_strongly_supersoluble(G)
    hall = is_nilpotent_hall(G, r)
    min_n = census(G).min_n_all_modular
    ok = (r.order == 4 and not hall
          and (min_n is None or min_n > len(spectrum) + 1))
    return ok, [f"residual order {r.order} in group order {G.order}",
                "residual is not a Hall subgroup" if not hall
                else "residual unexpectedly Hall",
                f"min n with all n-maximal modular: {min_n}"]


# ---------------------------------------------------------------------------
# the check tables

SHARPNESS_TARGETS = {"SharpnessA": "A4", "SharpnessB": "A4xC2"}

# id -> verify(G, n, fast=False); ThmA and Thm2.12 conclude strong
# supersolubility, ThmB and Thm3.4 relax the bound by one and conclude a
# nilpotent Hall residual; the .12 and .4 variants also accept S-quasinormal
_NMAX_RUNNERS = {
    theorem: _nmax_runner(theorem, with_squasi, slack, conclusion)
    for theorem, with_squasi, slack, conclusion in (
        ("ThmA", False, 0, _strongly_supersoluble_conclusion),
        ("Thm2.12", True, 0, _strongly_supersoluble_conclusion),
        ("ThmB", False, 1, _residual_hall_conclusion),
        ("Thm3.4", True, 1, _residual_hall_conclusion),
    )
}

# id -> verify(G, fast=False)
_SINGLE_RUNNERS = {
    theorem: _single_runner(theorem, *parts)
    for theorem, *parts in (
        ("Prop2.9", _prop_2_9_hypothesis, _prop_2_9_conclusion),
        ("Prop2.11", _prop_2_11_hypothesis,
         _is_class("nearly nilpotent",
                   lambda G: is_nearly_nilpotent(G) and is_strongly_supersoluble(G))),
        ("Prop3.2", _every_n_maximal(3, True, True), _three_maximal_conclusion,
         _supersoluble_out_of_scope),
        ("Lem2.1", _holds, _lemma_2_1_conclusion),
        ("Lem2.2", _holds, _lemma_2_2_conclusion),
        ("Lem2.3", _holds, _lemma_2_3_conclusion),
        ("Lem2.10", _holds, _lemma_2_10_conclusion, _lemma_2_10_scope),
        ("Cor4.1", _every_n_maximal(2, True, False),
         _is_class("nearly nilpotent", is_nearly_nilpotent)),
        ("Cor4.2", _every_n_maximal(2, False, True),
         _is_class("nearly nilpotent", is_nearly_nilpotent)),
        ("Cor4.3", _every_n_maximal(2, False, True),
         _is_class("supersoluble", is_supersoluble)),
        ("Cor4.4", _every_n_maximal(3, True, False), _three_maximal_conclusion,
         _supersoluble_out_of_scope),
        ("SharpnessA", _sharpness_A_hypothesis, _sharpness_A_conclusion),
        ("SharpnessB", _sharpness_B_hypothesis, _sharpness_B_conclusion),
    )
}

CHECK_SELECTORS = {
    "all": (*_NMAX_RUNNERS, *_SINGLE_RUNNERS),
    "theorems": tuple(_NMAX_RUNNERS),
    "lemmas": tuple(c for c in _SINGLE_RUNNERS if c.startswith("Lem")),
    "sharpness": tuple(SHARPNESS_TARGETS),
}

verify_theorem_A = _NMAX_RUNNERS["ThmA"]
verify_theorem_B = _NMAX_RUNNERS["ThmB"]
verify_sharpness_A = _SINGLE_RUNNERS["SharpnessA"]
verify_sharpness_B = _SINGLE_RUNNERS["SharpnessB"]


# ---------------------------------------------------------------------------
# the suite runner

def reports_for_group(name: str, checks, fast: bool = False,
                      depth: int | None = None) -> list[VerdictReport]:
    """All requested reports for one catalog group, deterministic order.

    Depth-parameterised checks run at every depth up to the longest maximal
    chain unless ``depth`` pins a single value.  The group is built here,
    and its memo is emptied once the reports are made, so that reference
    counting frees it when they are returned.
    """
    try:
        G = catalog.construct(name)
    except (catalog.UnknownName, catalog.BadParameters) as exc:
        raise UnknownSelector(str(exc)) from exc
    lat = lattice_of(G)
    if depth is None:
        depth_range = range(1, max(1, lat.max_chain_length) + 1)
    else:
        depth_range = (depth,)
    out = []
    for check in checks:
        if check in _NMAX_RUNNERS:
            runner = _NMAX_RUNNERS[check]
            for n in depth_range:
                out.append(runner(G, n, fast))
        elif check in SHARPNESS_TARGETS:
            if SHARPNESS_TARGETS[check] == name:
                out.append(_SINGLE_RUNNERS[check](G, fast))
        elif check in _SINGLE_RUNNERS:
            out.append(_SINGLE_RUNNERS[check](G, fast))
        else:
            raise UnknownSelector(f"unknown check {check!r}")
    _forget(G)
    return out


def _take_groups(todo, work) -> list[VerdictReport]:
    """Reports of every work item whose index is taken from the queue
    ``todo``, up to the first stop mark (None)."""
    return [r for i in iter(todo.get, None) for r in reports_for_group(*work[i])]


_held_queue = None   # in a pool worker: the (todo, work) of its suite run


def _hold_queue(todo, work):
    """Pool initializer: a queue reaches a worker as it starts, not with a
    task."""
    global _held_queue
    _held_queue = todo, work


def _take_held_groups() -> list[VerdictReport]:
    return _take_groups(*_held_queue)


class SuiteResult(NamedTuple):
    reports: tuple[VerdictReport, ...]

    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "vacuous": 0}
        for r in self.reports:
            if r.is_failure():
                counts["fail"] += 1
            elif r.hypothesis == VACUOUS:
                counts["vacuous"] += 1
            else:
                counts["pass"] += 1
        return counts

    def has_failures(self) -> bool:
        return any(r.is_failure() for r in self.reports)

    def failures(self) -> tuple[VerdictReport, ...]:
        return tuple(r for r in self.reports if r.is_failure())

    def to_json_obj(self) -> dict:
        return {
            "reports": [r.to_json_obj() for r in self.reports],
            "summary": self.summary(),
        }

    def to_text(self) -> str:
        lines = []
        for r in self.reports:
            flag = "FAIL" if r.is_failure() else "ok"
            lines.append(
                f"[{flag:>4}] {r.group:<10} {r.theorem:<28} "
                f"hypothesis={r.hypothesis:<8} conclusion={r.conclusion:<13} "
                f"({r.ms:.1f} ms)")
            for w in r.witnesses:
                lines.append(f"         - {w}")
        s = self.summary()
        lines.append(
            f"summary: pass={s['pass']} fail={s['fail']} vacuous={s['vacuous']}")
        return "\n".join(lines) + "\n"


def resolve_group_selector(selector) -> list[str]:
    """"all", "" (empty), or a comma-separated list of catalog names.

    A name given twice is kept once, at its first place.  Each name and
    its order, at the default cap, are checked from the name alone
    (``catalog.order_of``); no group is built.
    """
    if isinstance(selector, (list, tuple)):
        names = list(selector)
    elif selector == "all":
        names = catalog.suite_names()
    else:
        names = [part.strip() for part in selector.split(",") if part.strip()]
    names = list(dict.fromkeys(names))
    for name in names:
        try:
            catalog.order_of(name)
        except (catalog.UnknownName, catalog.BadParameters) as exc:
            raise UnknownSelector(str(exc)) from exc
    return names


def resolve_check_selector(selector) -> tuple[str, ...]:
    if isinstance(selector, (list, tuple)):
        checks = tuple(selector)
    else:
        if selector not in CHECK_SELECTORS:
            raise UnknownSelector(
                f"unknown suite {selector!r}, expected one of "
                f"{sorted(CHECK_SELECTORS)}")
        checks = CHECK_SELECTORS[selector]
    for c in checks:
        if c not in CHECK_SELECTORS["all"]:
            raise UnknownSelector(f"unknown check {c!r}")
    return checks


def run_suite(groups="all", theorems="all", jobs: int = 1,
              fast: bool = False, depth: int | None = None) -> SuiteResult:
    """Run the selected checks over the selected groups.

    Reports are merged in deterministic order (group name, check id, depth
    as a number) regardless of worker scheduling.  Names and orders are
    checked, and the pool's queue ordered, from the names alone: each group
    is built by the process that analyses it, when it starts the group,
    and nothing keeps it after its reports are made.  With ``jobs`` above
    1, at most min(jobs, groups, CPUs) processes analyse groups, this one
    included: it and a pool of one fewer take the groups one at a time,
    largest order first, from one shared queue that ends in a stop mark
    for each of them.  A group leaves the queue once, so each runs exactly
    once.  If a group raises, the other processes finish the queue and the
    pool is shut down before the exception propagates.
    """
    if depth is not None and depth < 1:
        raise BadDepth(f"depth must be >= 1, got {depth}")
    if jobs < 1:
        raise UnknownSelector(f"jobs must be >= 1, got {jobs}")
    names = resolve_group_selector(groups)
    checks = resolve_check_selector(theorems)
    workers = min(jobs, len(names), os.cpu_count() or 1)
    work = [(name, checks, fast, depth) for name in names]
    if workers > 1:
        # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import SimpleQueue
        work.sort(key=lambda w: catalog.order_of(w[0]), reverse=True)
        todo = SimpleQueue()
        pool = ProcessPoolExecutor(max_workers=workers - 1, initializer=_hold_queue,
                                   initargs=(todo, work))
        try:
            futures = [pool.submit(_take_held_groups) for _ in range(workers - 1)]
            # filled after the workers start, which drain the pipe should
            # the list outgrow it
            for i in [*range(len(work)), *[None] * workers]:
                todo.put(i)
            chunks = [_take_groups(todo, work)] + [f.result() for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)
            todo.close()
    else:
        chunks = itertools.starmap(reports_for_group, work)
    return SuiteResult(tuple(sorted(itertools.chain.from_iterable(chunks),
                                    key=_report_order)))


def _report_order(r: VerdictReport):
    # "ThmA(n=10)" -> ("ThmA", 10), so that depth 2 sorts before depth 10
    check, _, depth = r.theorem.partition("(n=")
    return r.group, check, int(depth.rstrip(")") or 0)
