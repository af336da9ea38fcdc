"""Write ``reference.json``, the expected outputs the benchmark checks.

Run from the repository root: ``PYTHONPATH=src python3 perfbench/make_reference.py``.

- ``suite``: exit code, byte count, sha256, report count and summary of
  ``modmax verify --suite all --format json``;
- ``lattice``: isomorphism invariants of each ``lattice`` workload group,
  computed on the labelling the generator builds, never on a relabelled
  (timed) input.  Every seed's relabelling must reproduce them.

No value here comes from a timed run.  Regenerate only when a change to
modmax is meant to change these outputs, and say so in that change.
"""

from __future__ import annotations

import json
from pathlib import Path

import bench_inputs
from bench_child import SUITE_ARGV, lattice_invariants, suite_op
from modmax.groups import Group

HERE = Path(__file__).resolve().parent


def main() -> None:
    _, _, facts = suite_op(SUITE_ARGV, None)()
    del facts["nonvacuous_holds"]
    reference = {
        "suite": facts,
        "lattice": {name: lattice_invariants(Group(table, name=name))
                    for name, table in bench_inputs.canonical_lattice_inputs()},
    }
    (HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
