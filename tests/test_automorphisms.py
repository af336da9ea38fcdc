"""Automorphisms found from the generators, and the check that accepts them.

``found_automorphisms`` tries a bounded list of candidate images of the
generators and keeps a candidate only when ``_is_automorphism`` accepts its
extension: a bijection with phi(x*g) = phi(x)*phi(g) for every x and every
generator g.  The oracle here is the definition, phi(x*y) = phi(x)*phi(y)
over every pair.
"""

import math
import random
import time

import pytest

from modmax import catalog
from modmax import groups as groups_module
from modmax.groups import Group, found_automorphisms
from oracles import relabel

GROUPS = [e.name for e in catalog.standard_suite()] + [
    "S4xC2", "A5", "S5", "pq2_3_11", "E2^3xS3", "C2xD8xS3", "E2^5", "E3^3",
    "D60", "C36", "C4xC6"]


def _is_homomorphism_on_every_pair(G, phi) -> bool:
    return all(phi[xy] == G.table[phi[x]][phi[y]]
               for x, row in enumerate(G.table) for y, xy in enumerate(row))


@pytest.mark.parametrize("name", GROUPS)
def test_every_found_automorphism_is_one(name):
    """Each one found is a permutation of the elements that multiplies over
    every pair (not only over the generators), and none is listed twice.
    S4xC2's stated generators have a candidate image whose extension along
    the spanning tree is a bijection but no homomorphism."""
    G = catalog.construct(name)
    autos = found_automorphisms(G)
    assert len(set(autos)) == len(autos)
    for phi in autos:
        assert sorted(phi) == list(range(G.order)), name
        assert _is_homomorphism_on_every_pair(G, phi), name


@pytest.mark.parametrize("name, seed", [("E2^3xS3", 3), ("S4xC2", 4), ("D8xC3", 5)])
def test_found_automorphisms_of_relabelled_tables_are_automorphisms(name, seed):
    G = Group(relabel(catalog.construct(name).table, random.Random(seed)))
    for phi in found_automorphisms(G):
        assert _is_homomorphism_on_every_pair(G, phi), name


@pytest.mark.parametrize("name, a, b", [
    ("E2^3", 3, 5),    # caught at a product of two generators
    ("E2^4", 7, 11),   # every product of two generators is kept
])
def test_acceptance_rejects_two_swapped_elements(name, a, b):
    """The identity with two elements swapped is a bijection, and on E2^4
    it even multiplies over every pair of generators; the check compares
    every x times every generator and rejects it."""
    G = catalog.construct(name)
    identity = list(range(G.order))
    assert groups_module._is_automorphism(G, identity)
    phi = list(identity)
    phi[a], phi[b] = b, a
    gens = G.generator_indices
    assert name != "E2^4" or all(
        phi[G.table[g][h]] == G.table[phi[g]][phi[h]] for g in gens for h in gens)
    assert not groups_module._is_automorphism(G, phi)


def test_acceptance_rejects_a_map_that_is_not_one_to_one():
    G = catalog.construct("C4")
    assert not groups_module._is_automorphism(G, [0, 2, 0, 2])


def _greedy_units(m):
    """Each least unit modulo m outside the subgroup generated by the ones
    taken before it, that subgroup closed by brute force."""
    gens, reached = [], {1}
    for a in range(2, m):
        if math.gcd(a, m) == 1 and a not in reached:
            gens.append(a)
            while True:
                more = {x * y % m for x in reached for y in gens + [1]}
                if more == reached:
                    break
                reached = more
    return gens


@pytest.mark.parametrize("name", GROUPS + ["D2000"])
def test_candidates_tried_are_bounded(name, monkeypatch):
    """The search tries at most 2k + sum_i |unit generators of ord(g_i)|
    candidates for k generators, each extended and checked in O(n*k)."""
    G = catalog.construct(name)
    orders = G.element_orders()
    gens = G.generator_indices
    bound = 2 * len(gens) + sum(len(_greedy_units(orders[g])) for g in gens)
    tried = []
    real = groups_module._automorphism_candidates
    monkeypatch.setattr(groups_module, "_automorphism_candidates",
                        lambda G: (tried.append(c) or c for c in real(G)))
    found_automorphisms(G)
    assert 0 < len(tried) <= bound or not gens, (name, len(tried), bound)


@pytest.mark.parametrize("name, cap", [("D2000", 2000), ("E2^10", 1024)])
def test_found_automorphisms_is_quick_at_the_cap(name, cap):
    """About 20 ms on D2000 and 20-30 ms on E2^10 on a 2-vCPU machine; the
    bound is generous."""
    G = catalog.construct(name, max_order_cap=cap)
    G.element_orders()
    start = time.perf_counter()
    autos = found_automorphisms(G)
    assert time.perf_counter() - start < 10
    assert autos, name


def _generator_images(G):
    return {tuple(phi[g] for g in G.generator_indices) for phi in found_automorphisms(G)}


def test_catalog_generators_give_the_standard_automorphisms():
    """The unit multipliers of C_n, x -> x^a on the rotations of D_n (the
    rotation r^j has index j), and for E_p^k a swap, a transvection and a
    scalar per coordinate."""
    c12, d60, e3 = (catalog.construct(n) for n in ("C12", "D60", "E3^3"))
    assert _generator_images(c12) == {(5,), (7,)}  # the units 5 and 7 mod 12
    assert {(7, 30), (11, 30)} <= _generator_images(d60)  # units 7, 11 mod 30
    assert len(_generator_images(e3)) == 9
