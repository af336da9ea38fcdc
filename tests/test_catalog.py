"""Golden classification table and construction determinism."""

import hashlib
import json
import time
import tracemalloc

import pytest

from modmax import catalog
from modmax.classify import PROFILE_FIELDS, classify
from modmax.groups import ClosureExceedsCap
from oracles import is_isomorphic


def test_every_expected_field_matches(suite_entries, suite_groups):
    """The golden table: every asserted profile field, exact boolean match."""
    for entry in suite_entries:
        profile = classify(suite_groups[entry.name])
        for field, expected in entry.expected.items():
            got = getattr(profile, field)
            assert got == expected, (
                f"{entry.name}.{field}: expected {expected} "
                f"({entry.provenance[field]}), computed {got}")


def test_expected_fields_are_profile_fields(suite_entries):
    for entry in suite_entries:
        for field in entry.expected:
            assert field in PROFILE_FIELDS
            assert entry.provenance[field] in ("literature", "computed")


def test_suite_orders(suite_entries, suite_groups):
    for entry in suite_entries:
        assert suite_groups[entry.name].order == entry.order


def test_required_members_present(suite_entries):
    names = {e.name for e in suite_entries}
    required = {"1", "C2", "C4", "C6", "C12", "V4", "S3", "D8", "Q8",
                "C3:C4", "A4", "S4", "SL23", "hol_C7", "hol_C13", "A4xC2",
                "E9", "pq2_2_3"}
    assert required <= names


def test_constructions_are_deterministic():
    for name in ("S3", "Q8", "SL23", "hol_C7", "pq2_2_3", "A4"):
        a = catalog.construct(name)
        b = catalog.construct(name)
        assert a.table == b.table
        assert a.generator_indices == b.generator_indices


def test_specific_orders():
    assert catalog.construct("S3").order == 6
    assert catalog.construct("hol_C7").order == 42
    assert catalog.construct("hol_C13").order == 156
    assert catalog.construct("A4xC2").order == 24
    assert catalog.construct("SL23").order == 24
    assert catalog.construct("pq2_2_3").order == 18


def test_unknown_name():
    with pytest.raises(catalog.UnknownName):
        catalog.construct("M11")


def test_bad_parameters():
    with pytest.raises(catalog.BadParameters):
        catalog.construct("D7")  # odd dihedral order
    with pytest.raises(catalog.BadParameters):
        catalog.pq2(3, 3)
    with pytest.raises(catalog.BadParameters):
        catalog.power_split_group(3, 1, 2, 1)  # trivial power


def test_parametric_patterns():
    assert catalog.construct("C9").order == 9
    assert catalog.construct("D12").order == 12
    assert catalog.construct("E5^2").order == 25
    assert catalog.construct("pq2_3_2").order == 12


def test_direct_product_names():
    g = catalog.construct("C2xC2xC2")
    assert g.order == 8
    assert is_isomorphic(g, catalog.construct("E2^3"))
    assert catalog.construct("S3xC5").order == 30
    with pytest.raises(catalog.UnknownName):
        catalog.construct("S3xNope")


# one name per parameter pattern, plus a nested product
_RESOLVED_NAMES = ["C9", "D12", "E2^3", "hol_C7", "pq2_3_2", "pgroup_7^1:3:2",
                   "S3xC2xC2"]


def test_every_pattern_has_a_resolved_name():
    for pattern, _, _ in catalog._PATTERNS:
        assert any(pattern.match(name) for name in _RESOLVED_NAMES)


@pytest.mark.parametrize("name", sorted({*catalog._NAMED, *catalog.suite_names()}
                                         - set(_RESOLVED_NAMES)) + _RESOLVED_NAMES)
def test_resolved_order_is_the_built_order(name):
    assert catalog.order_of(name) == catalog.construct(name).order


@pytest.mark.parametrize("name, error", [
    ("NoSuchGroup", catalog.UnknownName),
    ("C3000", ClosureExceedsCap),
    pytest.param("x".join(["C2"] * 65), catalog.BadParameters, id="65-factors"),
    pytest.param("C" + "1" * 1001, catalog.BadParameters, id="1001-digits"),
])
def test_order_of_raises_what_construct_raises_without_building(monkeypatch, name, error):
    """``order_of`` runs the checks of ``construct`` and stops before the
    builder: the same exception and message, and no table made."""
    for attr in ("group_from_generator_rows", "group_from_permutations",
                 "direct_product", "semidirect_product"):
        monkeypatch.setattr(catalog, attr, lambda *args, **kwargs: pytest.fail("built"))
    messages = []
    for check in (catalog.order_of, catalog.construct):
        with pytest.raises(error) as info:
            check(name)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("name, cap",
                         [("C2100", 2000), ("E2^10", 500), ("S5xD2000", 2000)])
def test_over_cap_names_are_rejected_before_building(name, cap):
    tracemalloc.start()
    try:
        with pytest.raises(ClosureExceedsCap):
            catalog.construct(name, max_order_cap=cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_default_cap_applies_to_every_family():
    for name in ("C2002", "D2002", "E2^11", "hol_C47", "C2xD1002"):
        with pytest.raises(ClosureExceedsCap):
            catalog.construct(name)


def test_cap_is_checked_before_parameters():
    with pytest.raises(ClosureExceedsCap):
        catalog.construct("D2001")  # odd dihedral order, over the cap
    with pytest.raises(catalog.BadParameters):
        catalog.construct("D7xC2")


def test_huge_power_is_rejected_without_computing_it():
    start = time.perf_counter()
    with pytest.raises(ClosureExceedsCap, match="more than"):
        catalog.construct("E3^30000000")
    assert time.perf_counter() - start < 0.5


def test_over_cap_message_stays_short():
    # 2^20000 has 6,021 digits, more than str() converts by default
    with pytest.raises(ClosureExceedsCap) as info:
        catalog.construct("E2^20000")
    assert len(str(info.value)) < 200
    with pytest.raises(catalog.BadParameters) as info:
        catalog.construct("C" + "9" * 5000)  # more digits than int() reads
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("name", ["E10000000000000061^0",
                                  "pgroup_10000000000000061^0:3:2"])
def test_huge_prime_parameter_is_rejected_without_trial_division(name):
    # order 1 and 3, under the cap, but 10^16 + 61 is above the limit
    start = time.perf_counter()
    with pytest.raises(catalog.BadParameters):
        catalog.construct(name)
    assert time.perf_counter() - start < 0.5


def test_power_split_rank_is_checked_before_its_primes():
    start = time.perf_counter()
    with pytest.raises(catalog.BadParameters, match="rank"):
        catalog.power_split_group(10000000000000061, 0, 3, 2)
    assert time.perf_counter() - start < 0.5


def test_rank_zero_elementary_abelian_groups():
    assert catalog.construct("E2^0").order == 1
    assert catalog.construct("E3^0").order == 1
    with pytest.raises(catalog.BadParameters):
        catalog.construct("E4^0")


def test_product_sub_names_are_resolved_once(monkeypatch):
    calls = 0
    resolve = catalog._resolve

    def counting(*args):
        nonlocal calls
        calls += 1
        return resolve(*args)

    monkeypatch.setattr(catalog, "_resolve", counting)
    with pytest.raises(catalog.UnknownName):
        catalog.construct("C2x" * 18 + "M11")
    # 19 factors: at most one resolution per run of factors and one call per
    # split of each, where retrying every split would take 2^18 and more
    assert calls <= 19 ** 3


def test_deep_product_names_are_refused_before_resolving():
    """Resolving and building a product recurse once per factor, so 501
    factors would pass the interpreter's recursion limit; such a name is
    refused first, and 64 factors still resolve and build."""
    with pytest.raises(catalog.BadParameters, match="more than 64 direct factors"):
        catalog.construct("C1x" * 500 + "C2")
    assert catalog.construct("C1x" * 63 + "C2").order == 2


def test_requested_cap_reaches_the_builder():
    assert catalog.construct("D2002", max_order_cap=2002).order == 2002


def test_power_split_constructor_is_split_power_group():
    from modmax.classify import is_p_group_schmidt
    g = catalog.power_split_group(5, 2, 2, 4)  # inversion on 5^2
    assert g.order == 50
    assert is_p_group_schmidt(g)


# sha256 of the split extensions below, taken before they shared one
# linear-action builder
SPLIT_DIGEST = "69f727eb83df55b9c7816567f967f00c4234afbfb8d9c8a09c10071254de03c8"


def test_split_extensions_are_pinned():
    """Holomorphs, C3:C4, pq2 in its scalar (2_3, 3_7) and matrix branches
    and power-split groups of rank 1, 2 and 3, with their refusals."""
    names = ["hol_C2", "hol_C3", "hol_C7", "hol_C13", "hol_C43", "C3:C4",
             "pq2_2_3", "pq2_3_7", "pq2_3_5", "pq2_3_11", "pq2_7_13", "pq2_5_19",
             "pgroup_13^1:3:3", "pgroup_7^2:3:2", "pgroup_3^3:2:2"]
    digest = hashlib.sha256()
    for name in names:
        G = catalog.construct(name)
        digest.update(json.dumps([G.name, G.table, G.generator_indices, G.inverse]).encode())
    assert digest.hexdigest() == SPLIT_DIGEST
    with pytest.raises(catalog.BadParameters, match="no order-5 action on an elementary abelian 7"):
        catalog.construct("pq2_5_7")
    with pytest.raises(catalog.BadParameters, match="power 1 does not have multiplicative order 3"):
        catalog.construct("pgroup_2^4:3:1")


def test_least_primitive_roots():
    # the unit group mod 2 is trivial, so 1 generates it
    assert [catalog._least_primitive_root(p) for p in (2, 3, 7, 13)] == [1, 2, 3, 2]


def test_sl23_matches_quaternion_semidirect():
    # secondary assertion: the structural check target really is this group
    g = catalog.construct("SL23")
    assert is_isomorphic(g, catalog.sl23())


def test_dihedral_and_quaternion_differ():
    assert not is_isomorphic(catalog.construct("D8"), catalog.construct("Q8"))


def test_listing_shape():
    listing = catalog.catalog_listing()
    names = [row["name"] for row in listing]
    assert names == catalog.suite_names()
    for row in listing:
        assert set(row) == {"name", "order", "primes", "description", "expected"}
