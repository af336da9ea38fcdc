"""Predicates asked inside a section of one lattice against rebuilt groups.

``is_modular`` and ``is_s_quasinormal`` answer "in the subgroup B" on the
interval [1, B] and "in the quotient G/N" on the interval [N, G] of G's own
lattice.  The oracle rebuilds B and G/N as standalone groups, enumerates
their lattices from scratch and asks the same question there: the subgroup
a of B at its local mask, and the subgroup K >= N of G at its image K/N.

The same holds for the questions ``modmax.classify`` answers inside G: the
chief factors of G/N (G's factors H/K with N <= K), the class residuals,
the nilpotency of a section hi/lo and the power-split shape of a subgroup.
This module is the only place where they are asked of rebuilt groups.
"""

from collections import Counter

import pytest

from modmax import catalog
from modmax.classify import (
    all_chief_factors,
    is_nilpotent,
    is_p_group_schmidt,
    is_strongly_supersoluble,
    is_supersoluble,
    normal_subgroups,
    residual_strongly_supersoluble,
    residual_supersoluble,
)
from modmax.groups import SubgroupSet
from modmax.groups import quotient, subgroup_as_group
from modmax.lattice import lattice_of
from oracles import cached_group, image_mask, restrict_mask

GROUPS = [e.name for e in catalog.standard_suite()] + ["S4xC2", "A5"]
PREDICATES = ("modular", "s_quasinormal")


def _asks(lat, i, section=None):
    return tuple(getattr(lat, f"is_{p}")(i, section) for p in PREDICATES)


@pytest.mark.parametrize("name", GROUPS)
def test_subgroup_sections_agree_with_rebuilt_subgroups(name):
    G = cached_group(name)
    lat = lattice_of(G)
    for b, B in enumerate(lat.subgroups):
        sub, elems = subgroup_as_group(G, B)
        sublat = lattice_of(sub)
        for a in lat.below[b]:
            local = sublat.index_of[restrict_mask(elems, lat.subgroups[a].mask)]
            assert _asks(lat, a, (0, b)) == _asks(sublat, local), (name, a, b)


@pytest.mark.parametrize("name", GROUPS)
def test_quotient_sections_agree_with_rebuilt_quotients(name):
    G = cached_group(name)
    lat = lattice_of(G)
    for n in lat.normal_indices():
        Q, proj = quotient(G, lat.subgroups[n])
        qlat = lattice_of(Q)
        for k in lat.above[n]:
            image = qlat.index_of[image_mask(proj, lat.subgroups[k].mask)]
            assert _asks(lat, k, (n, lat.top())) == _asks(qlat, image), (name, n, k)


def test_whole_lattice_is_the_default_section(suite_groups):
    lat = lattice_of(suite_groups["S4"])
    for i in range(lat.size):
        assert _asks(lat, i, (0, lat.top())) == _asks(lat, i)


def test_members_outside_a_section_are_rejected(suite_groups):
    lat = lattice_of(suite_groups["S3"])
    order3 = next(i for i, s in enumerate(lat.subgroups) if s.order == 3)
    order2 = next(i for i, s in enumerate(lat.subgroups) if s.order == 2)
    with pytest.raises(KeyError):
        lat.is_modular(order2, (0, order3))
    with pytest.raises(KeyError):
        lat.is_s_quasinormal(0, (order3, lat.top()))
    with pytest.raises(KeyError):
        lat.column("modular", (order3, order2))


def _factor_key(f):
    return f.factor_order, f.automizer_order, f.is_cyclic, f.is_frattini


@pytest.mark.parametrize("name", GROUPS)
def test_quotient_chief_factors_are_the_factors_above_n(name):
    G = cached_group(name)
    factors = all_chief_factors(G)
    for N in normal_subgroups(G):
        Q, _ = quotient(G, N)
        above = Counter(_factor_key(f) for f in factors
                        if f.below.mask & N.mask == N.mask)
        assert above == Counter(map(_factor_key, all_chief_factors(Q))), (name, N)


def _literal_residual(G, predicate):
    """Intersection of every normal N with predicate(G/N), on rebuilt G/N."""
    mask = (1 << G.order) - 1
    for N in normal_subgroups(G):
        Q, _ = quotient(G, N)
        if predicate(Q):
            mask &= N.mask
    return mask


@pytest.mark.parametrize("name", GROUPS)
def test_residuals_agree_with_the_literal_quotient_loop(name):
    G = cached_group(name)
    assert residual_supersoluble(G).mask == _literal_residual(G, is_supersoluble)
    assert (residual_strongly_supersoluble(G).mask
            == _literal_residual(G, is_strongly_supersoluble))


@pytest.mark.parametrize("name", GROUPS)
def test_section_nilpotency_agrees_with_rebuilt_sections(name):
    """Every subgroup hi and every lo <= hi normal in hi: hi/lo rebuilt."""
    G = cached_group(name)
    lat = lattice_of(G)
    for h, H in enumerate(lat.subgroups):
        sub, elems = subgroup_as_group(G, H)
        sublat = lattice_of(sub)
        for lo in lat.below[h]:
            local = restrict_mask(elems, lat.subgroups[lo].mask)
            if not sublat.normal >> sublat.index_of[local] & 1:
                continue
            Q, _ = quotient(sub, SubgroupSet(sub, local))
            got = is_nilpotent(G, (lat.subgroups[lo].mask, H.mask))
            assert got == is_nilpotent(Q), (name, lo, h)


@pytest.mark.parametrize("name", GROUPS)
def test_subgroup_power_split_test_agrees_with_rebuilt_subgroups(name):
    G = cached_group(name)
    for S in lattice_of(G).subgroups:
        sub, _ = subgroup_as_group(G, S)
        assert is_p_group_schmidt(G, S) == is_p_group_schmidt(sub), (name, S)
