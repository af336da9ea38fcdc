"""Run the verification harness and walk through one verdict in detail.

Run: python3 demos/theorem_harness.py

The harness evaluates every numbered check on every catalog group.  The
soundness contract: no report may combine a satisfied hypothesis with a
failed conclusion.  Hypothesis failures are expected and interesting; they
are how the separating examples show the statements are tight.
"""

from modmax import catalog
from modmax.verify import run_suite, verify_theorem_A, verify_theorem_B

result = run_suite("all", "all")
print(f"{len(result.reports)} reports, summary {result.summary()}")
assert not result.has_failures(), "soundness gate violated"

print("\nPer-group verdict counts:")
by_group = {}
for r in result.reports:
    key = (r.hypothesis in ("holds", "vacuous"), r.conclusion)
    by_group.setdefault(r.group, []).append(key)
for name in sorted(by_group):
    rows = by_group[name]
    sat = sum(1 for h, c in rows if h and c == "holds")
    blocked = sum(1 for h, _ in rows if not h)
    print(f"   {name:<10} {len(rows):>3} checks, {sat:>3} fully satisfied, "
          f"{blocked:>3} hypothesis-blocked")

print("\nOne verdict in detail, the n-maximal chain theorem on S3 at n=2:")
r = verify_theorem_A(catalog.construct("S3"), 2)
print(f"   hypothesis {r.hypothesis}, conclusion {r.conclusion}")
for w in r.witnesses:
    print(f"   - {w}")

print("\nAnd the residual theorem on A4 at n=3 (the edge of its bound):")
r = verify_theorem_B(catalog.construct("A4"), 3)
print(f"   hypothesis {r.hypothesis}, conclusion {r.conclusion}")
for w in r.witnesses:
    print(f"   - {w}")
