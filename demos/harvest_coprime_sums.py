#!/usr/bin/env python3
"""Walk through the a + b = c harvest built on small kernel vectors.

Three disjoint prime sets generate three sets of squarefree smooth numbers up
to x.  Every coefficient triple admits a small all-nonzero integer kernel
vector (z1, z2, z3) bounded by sqrt(3x); triples are bucketed by their vector,
and the popular vector turns its whole bucket into coprime solutions of
a + b = c after dividing out common factors.

Run: python demos/harvest_coprime_sums.py
"""

from sunit_harvest import (
    PrimeSet,
    brute_prop1_triples,
    prop1_config,
    prop1_run,
    split_disjoint_prime_sets,
)

X = 600
T1, T2, T3 = split_disjoint_prime_sets(2, 113, 3)
print("round-robin prime split of [2, 113]:")
for name, t in (("T1", T1), ("T2", T2), ("T3", T3)):
    print(f"  {name} = {t.primes}")

report = prop1_run(prop1_config(X, T1, T2, T3))

print("\ncoefficient set sizes:", report.set_sizes)
print("bucket stats:", report.bucket_stats)
print(f"popular kernel vector: {report.popular_key}")
print(f"triples with no in-window kernel vector: {report.audits['skipped_triples']}"
      f" (rate {report.audits['skip_rate']:.4f})")

print(f"\n{len(report.solutions)} distinct coprime solutions; first ten:")
for a, b, c in report.solutions[:10]:
    print(f"  {a} + {b} = {c}")

oracle = brute_prop1_triples(
    PrimeSet(report.s_full), max(c for _, _, c in report.solutions)
)
members = set(oracle.solutions)
print(f"\noracle enumerated {oracle.count} coprime triples over the same primes")
print("all pipeline solutions in oracle list:", all(s in members for s in report.solutions))

bc = report.bound_comparison
print(f"headline formula at s = {bc['s']}: {bc['formula_value']:.2f} "
      f"(observed {bc['observed']}; {bc['note']})")
