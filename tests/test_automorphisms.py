"""Maps between groups: the walk that extends and checks them, the
isomorphism search and the automorphisms found from the generators.

``_extend_map`` extends images of some generators breadth first along the
right Cayley graph of the subgroup they generate, and returns the map only
when phi(x*g) = phi(x)*phi(g) on every edge and it is one-to-one.
``find_isomorphism`` and ``automorphisms`` call it once per partial
assignment of a backtracking search; ``found_automorphisms`` tries a
bounded list of candidate images of the generators and calls it once per
candidate.  The oracles here are the definition, phi(x*y) = phi(x)*phi(y)
over every pair, and a brute-force search over every permutation.  A
sha256 over the searches' results pins their order as well.
"""

import hashlib
import itertools
import json
import math
import random
import time

import pytest

from modmax import catalog
from modmax import groups as groups_module
from modmax.groups import (
    Group,
    automorphisms,
    find_isomorphism,
    found_automorphisms,
    semidirect_product,
)
from oracles import relabel

GROUPS = [e.name for e in catalog.standard_suite()] + [
    "S4xC2", "A5", "S5", "pq2_3_11", "E2^3xS3", "C2xD8xS3", "E2^5", "E3^3",
    "D60", "C36", "C4xC6"]


def _is_homomorphism_on_every_pair(A, phi, B=None) -> bool:
    """phi(x*y) = phi(x)*phi(y) for every x, y in A, the products on the
    right taken in B (A when not given)."""
    B = A if B is None else B
    return all(phi[xy] == B.table[phi[x]][phi[y]]
               for x, row in enumerate(A.table) for y, xy in enumerate(row))


def _relabelled(name, seed):
    return Group(relabel(catalog.construct(name).table, random.Random(seed)))


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
    G = _relabelled(name, seed)
    for phi in found_automorphisms(G):
        assert _is_homomorphism_on_every_pair(G, phi), name


@pytest.mark.parametrize("name, a, b", [
    ("E2^3", 3, 5),    # caught at a product of two generators
    ("E2^4", 7, 11),   # every product of two generators is kept
])
def test_extend_map_refuses_two_swapped_elements(name, a, b):
    """The identity with two elements swapped, given on the generators and
    on the two swapped elements, is a bijection, and on E2^4 it even
    multiplies over every pair of generators; the walk refuses it."""
    G = catalog.construct(name)
    gens = G.generator_indices
    assert groups_module._extend_map(G, G, gens, gens) == list(range(G.order))
    phi = list(range(G.order))
    phi[a], phi[b] = b, a
    assert name != "E2^4" or all(
        phi[G.table[g][h]] == G.table[phi[g]][phi[h]] for g in gens for h in gens)
    extra = gens + (a, b)
    assert groups_module._extend_map(G, G, extra, [phi[g] for g in extra]) is None


def test_extend_map_refuses_a_homomorphism_that_is_not_one_to_one():
    """1 -> 2 is the squaring map of C4, a homomorphism onto {0, 2}."""
    G = catalog.construct("C4")
    assert groups_module._extend_map(G, G, (1,), (2,)) is None


def test_extend_map_refuses_generator_images_that_break_an_edge():
    """C4 into C8 with 1 -> 1 is one-to-one along the walk; only its
    closing edge, 3*1 = 0 against 3 + 1 = 4, refuses it."""
    c4, c8 = catalog.construct("C4"), catalog.construct("C8")
    assert groups_module._extend_map(c4, c8, (1,), (1,)) is None
    assert groups_module._extend_map(c4, c8, (1,), (2,)) == [0, 2, 4, 6]


def test_extend_map_embeds_a_subgroup():
    """On <2> in C4 the map is given on the subgroup alone."""
    c4, c8 = catalog.construct("C4"), catalog.construct("C8")
    assert groups_module._extend_map(c4, c8, (2,), (4,)) == [0, None, 4, None]


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


def _c4_by_c4():
    """C4 x| C4, the top generator inverting: not abelian, with the element
    orders of C4xC4 (one of order 1, three of order 2, twelve of order 4)."""
    c4 = catalog.construct("C4")
    ident, invert = (0, 1, 2, 3), (0, 3, 2, 1)
    return semidirect_product(c4, c4, [ident, invert, ident, invert], name="C4:C4")


@pytest.mark.parametrize("name", ["1", "C2", "C3", "C4", "C5", "C6", "V4", "S3"])
def test_automorphisms_are_every_permutation_that_multiplies(name):
    G = catalog.construct(name)
    brute = sorted(p for p in itertools.permutations(range(G.order))
                   if _is_homomorphism_on_every_pair(G, p))
    assert automorphisms(G) == brute


@pytest.mark.parametrize("name, seed", [
    ("E2^4", 1), ("D8xC3", 2), ("S4", 3), ("SL23", 4)])
def test_find_isomorphism_to_a_relabelling_is_an_isomorphism(name, seed):
    G = catalog.construct(name)
    H = _relabelled(name, seed)
    assert H.table != G.table
    phi = find_isomorphism(G, H)
    assert sorted(phi) == list(range(H.order))
    assert _is_homomorphism_on_every_pair(G, phi, H)


def test_c4xc4_is_not_c4_by_c4_though_their_element_orders_agree():
    A, B = catalog.construct("C4xC4"), _c4_by_c4()
    assert sorted(A.element_orders()) == sorted(B.element_orders())
    assert any(B.table[x][y] != B.table[y][x] for x in range(16) for y in range(16))
    assert find_isomorphism(A, B) is None and find_isomorphism(B, A) is None
    assert (len(automorphisms(A)), len(automorphisms(B))) == (96, 32)


# sha256 of the results below, taken before the searches shared one walk
SEARCH_DIGEST = "be4ada26fe9cda0aaa5567356424dd57662a0e7dbd7bd72c57c13d2e248d4133"


def test_search_results_are_pinned():
    """The first isomorphism found on fixed pairs (three of them None), the
    sorted automorphisms of the catalog groups of order <= 8 and the
    automorphisms found on E2^5, D60 and three relabellings of E2^3xS3."""
    pairs = [(catalog.construct(a), catalog.construct(b)) for a, b in [
        ("C6", "C2xC3"), ("Q8", "Q8"), ("Q8", "D8"), ("C4", "V4"),
        ("C12", "C3xC4"), ("S3", "D6"), ("A4", "pq2_3_2"),
        ("E2^6", "E2^3xE2^3"), ("D8xC3", "C3xD8")]]
    pairs += [(catalog.construct(name), _relabelled(name, seed)) for name, seed in [
        ("E2^4", 1), ("D8xC3", 2), ("S4", 3), ("SL23", 4)]]
    pairs.append((catalog.construct("C4xC4"), _c4_by_c4()))
    isomorphisms = [find_isomorphism(A, B) for A, B in pairs]
    small = ["1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "V4", "S3", "D8",
             "Q8", "E2^3", "C2xC4"]
    autos = [automorphisms(catalog.construct(name)) for name in small]
    found = [found_automorphisms(G) for G in [
        catalog.construct("E2^5"), catalog.construct("D60"),
        *(_relabelled("E2^3xS3", seed) for seed in (1, 2, 7))]]
    assert isomorphisms.count(None) == 3
    data = json.dumps([isomorphisms, autos, found]).encode()
    assert hashlib.sha256(data).hexdigest() == SEARCH_DIGEST
