import pytest

from modmax import catalog
from oracles import cached_group


@pytest.fixture(scope="session")
def suite_entries():
    return catalog.standard_suite()


@pytest.fixture(scope="session")
def suite_groups(suite_entries):
    """Suite groups built once; analysis caches accumulate on the instances."""
    return {entry.name: cached_group(entry.name) for entry in suite_entries}


# group files that json cannot read: not UTF-8, an integer over Python's
# 4,300-digit conversion limit, and arrays nested past the recursion limit
HOSTILE_FILES = {
    "not-utf8": b"\xff\xfe{}",
    "long-int": b"1" + b"0" * 4999,
    "deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.fixture(params=sorted(HOSTILE_FILES))
def hostile_group_file(request, tmp_path):
    path = tmp_path / f"{request.param}.json"
    path.write_bytes(HOSTILE_FILES[request.param])
    return path
