"""Seeded inputs for the ``lattice`` and ``load`` workloads.

Everything here is plain Python and imports nothing from modmax: the
benchmark builds Cayley tables and group descriptions itself, so a change
to modmax's own constructors cannot change what the program is fed.  The
same seed always gives byte-identical inputs (:func:`input_digest`).

A relabelling is a random permutation of the non-identity element indices
applied to a whole Cayley table; it changes the table, never the group, so
every isomorphism invariant of a relabelled group is the same for every
seed.
"""

from __future__ import annotations

import hashlib
import json
import random

# Largest lattice first, so a two-process pool starts the critical path at once.
LATTICE_GROUPS = ("E2^5", "E2^3xS3", "S5")

# Valid Cayley tables: their cost is the O(n^3) associativity scan, which
# depends on the order alone, so the orders are fixed and the seed picks the
# family and the labelling.
CAYLEY_ORDERS = (156, 300)
LATIN_RANKS = (7, 8)            # non-associative loops of order 128 and 256
# Over-cap requests cost in proportion to the order they build before
# refusing, so names and caps are fixed; seeding them would move wall time.
OVER_CAP_REQUESTS = (("C2100", 2000), ("E2^10", 500))


# ---------------------------------------------------------------------------
# tables

def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(order: int) -> list[list[int]]:
    """s^f r^i at index f*m + i, with (s^f r^i)(s^g r^j) = s^(f+g) r^(+-i + j)."""
    m = order // 2
    table = []
    for a in range(order):
        f, i = divmod(a, m)
        table.append([((f ^ g) * m) + ((-i if g else i) + j) % m
                      for g, j in (divmod(b, m) for b in range(order))])
    return table


def elementary_abelian_2_table(rank: int) -> list[list[int]]:
    n = 1 << rank
    return [[a ^ b for b in range(n)] for a in range(n)]


def permutation_closure(degree: int, generators) -> list[tuple[int, ...]]:
    """All products of the generators, identity first, breadth first."""
    ident = tuple(range(degree))
    elems, seen, level = [ident], {ident}, [ident]
    while level:
        found = set()
        for x in level:
            for g in generators:
                y = tuple(g[x[i]] for i in range(degree))
                if y not in seen:
                    found.add(y)
        level = sorted(found)
        seen.update(level)
        elems.extend(level)
    return elems


def permutation_group_table(degree: int, generators) -> list[list[int]]:
    elems = permutation_closure(degree, generators)
    index = {p: i for i, p in enumerate(elems)}
    return [[index[tuple(q[p[k]] for k in range(degree))] for q in elems]
            for p in elems]


def symmetric_table(degree: int) -> list[list[int]]:
    cycle = tuple(list(range(1, degree)) + [0])
    swap = tuple([1, 0] + list(range(2, degree)))
    return permutation_group_table(degree, (swap, cycle))


def direct_product_table(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    nb = len(b)
    n = len(a) * nb
    return [[a[x // nb][y // nb] * nb + b[x % nb][y % nb] for y in range(n)]
            for x in range(n)]


def relabel(table: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Apply a random permutation of indices 1..n-1 (0 stays the identity)."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    return [[perm[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]


LATTICE_BUILDERS = {
    "E2^5": lambda: elementary_abelian_2_table(5),
    "E2^3xS3": lambda: direct_product_table(elementary_abelian_2_table(3),
                                            symmetric_table(3)),
    "S5": lambda: symmetric_table(5),
}


def lattice_inputs(seed: int) -> list[tuple[str, list[list[int]]]]:
    """(name, relabelled Cayley table) for each ``lattice`` workload group."""
    return [(name, relabel(LATTICE_BUILDERS[name](), random.Random(f"lattice:{seed}:{name}")))
            for name in LATTICE_GROUPS]


def canonical_lattice_inputs() -> list[tuple[str, list[list[int]]]]:
    """The same groups with their constructed labelling (for references)."""
    return [(name, LATTICE_BUILDERS[name]()) for name in LATTICE_GROUPS]


# ---------------------------------------------------------------------------
# load inputs

def _valid_cayley(order: int, rng: random.Random) -> tuple[str, list[list[int]]]:
    families = [("C", lambda: cyclic_table(order)),
                ("D", lambda: dihedral_table(order)),
                ("C2xC", lambda: direct_product_table(cyclic_table(2),
                                                      cyclic_table(order // 2)))]
    family, build = families[rng.randrange(len(families))]
    suffix = order // 2 if family == "C2xC" else order
    return f"{family}{suffix}", relabel(build(), rng)


def _associativity_witness(table) -> tuple[int, int, int] | None:
    n = len(table)
    for a in range(1, n):
        ta = table[a]
        for b in range(n):
            tab, tb = table[ta[b]], table[b]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    return a, b, c
    return None


def non_associative_loop(rank: int, rng: random.Random) -> list[list[int]]:
    """A Latin square with identity 0 and two-sided inverses that is not
    associative: one intercalate of the elementary abelian 2-group table
    switched, then relabelled."""
    n = 1 << rank
    table = elementary_abelian_2_table(rank)
    while True:
        r1, r2, c1 = rng.sample(range(1, n), 3)
        c2 = r1 ^ r2 ^ c1
        u, v = r1 ^ c1, r1 ^ c2
        if 0 in (c2, u, v) or c2 in (r1, r2, c1):
            continue
        # rows r1, r2 and columns c1, c2 hold u, v in opposite corners
        table[r1][c1], table[r1][c2] = v, u
        table[r2][c1], table[r2][c2] = u, v
        break
    table = relabel(table, rng)
    if _associativity_witness(table) is None:
        raise RuntimeError("switched table is unexpectedly associative")
    return table


def _conjugated_generators(degree: int, cycles_list, rng: random.Random):
    """Generators in cycle notation, conjugated by a random point permutation."""
    sigma = list(range(degree))
    rng.shuffle(sigma)
    return [[[sigma[p] for p in cyc] for cyc in cycles] for cycles in cycles_list]


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def load_inputs(seed: int) -> list[dict]:
    """Items of the ``load`` workload, each with the verdict its generation
    fixes: ``["accept", order]`` or ``["reject", error class, cause class]``.

    ``file`` items carry JSON text that the child writes to disk and feeds
    through ``load_group``; ``json`` items go through ``group_from_json``;
    ``catalog`` items through ``catalog.construct(name, max_order_cap=cap)``.
    """
    rng = random.Random(f"load:{seed}")
    items = []
    for order in CAYLEY_ORDERS:
        name, table = _valid_cayley(order, rng)
        items.append({"id": f"cayley{order}", "via": "file",
                      "text": _dumps({"name": name, "kind": "cayley", "table": table}),
                      "cap": 2000, "expect": ["accept", order]})
    s6 = _conjugated_generators(6, [[[0, 1]], [[0, 1, 2, 3, 4, 5]]], rng)
    items.append({"id": "perm_S6", "via": "file",
                  "text": _dumps({"name": "S6", "kind": "permutation", "degree": 6,
                                  "generators": s6}),
                  "cap": 2000, "expect": ["accept", 720]})
    s7 = _conjugated_generators(7, [[[0, 1]], [[0, 1, 2, 3, 4, 5, 6]]], rng)
    items.append({"id": "perm_S7_over_cap", "via": "file",
                  "text": _dumps({"name": "S7", "kind": "permutation", "degree": 7,
                                  "generators": s7}),
                  "cap": 2000, "expect": ["reject", "LoadError", "ClosureExceedsCap"]})
    for rank in LATIN_RANKS:
        items.append({"id": f"latin{1 << rank}", "via": "json",
                      "data": {"name": f"L{1 << rank}", "kind": "cayley",
                               "table": non_associative_loop(rank, rng)},
                      "cap": 2000, "expect": ["reject", "LoadError", "NotAGroup"]})
    for name, cap in OVER_CAP_REQUESTS:
        items.append({"id": f"catalog_{name}_cap{cap}", "via": "catalog",
                      "name": name, "cap": cap,
                      "expect": ["reject", "ClosureExceedsCap", None]})
    return items


def input_digest(workload: str, seed: int) -> str:
    """sha256 over every input byte a workload feeds the program."""
    h = hashlib.sha256()
    if workload == "lattice":
        for name, table in lattice_inputs(seed):
            h.update(_dumps([name, table]).encode())
    elif workload == "load":
        for item in load_inputs(seed):
            h.update(_dumps(item).encode())
    else:
        raise ValueError(f"workload {workload!r} has no generated inputs")
    return h.hexdigest()
