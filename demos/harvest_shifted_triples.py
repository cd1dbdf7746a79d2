#!/usr/bin/env python3
"""Walk through the A + B + 1 = C harvest.

Same popular-pair engine as the two-variable equation, with a third smooth set
in the middle: near-solutions a*u + b + 1 = c*w are bucketed by (u, w), and u
may be negative, so harvested A = a*u values are signed.  Hits with u = 0 are
discarded; solutions touching -1 are filtered as degenerate.

Run: python demos/harvest_shifted_triples.py
"""

from math import ceil, floor

from sunit_harvest import (
    PrimeSet,
    config_from_exponents,
    enumerate_squarefree_smooth,
    pair_collision_stats,
    thm2_run,
)

T1 = PrimeSet((37, 41, 43, 47, 53, 59, 61, 1097, 1103, 1109))  # factors of c
T2 = PrimeSet((2, 3, 5, 7, 11, 13, 17, 19, 23, 31))            # factors of b
T3 = PrimeSet((67, 71, 73, 79, 83, 89, 97, 113, 127, 131))     # factors of a

cfg = config_from_exponents("thm2", 10**5, 0.52, "unconditional", 0.1, T1, T2, T3)
print(f"scales: X = {cfg.x}, Y = {cfg.y:.0f}, Z = {cfg.z:.1f}, W = {cfg.w_max}")

report = thm2_run(cfg)

print("\nset sizes:", report.set_sizes)
print("bucket stats:", report.bucket_stats)
print(f"popular pair (u, w) = {report.popular_key}")

audits = report.audits
print(f"u = 0 discards: {audits['u_zero_discards']},"
      f" degenerate filtered: {audits['degenerate_filtered']}")
print(f"observed u range {audits['u_range_observed']}"
      f" inside theoretical {audits['u_range_theoretical']}")
print(f"worst-case coprime-b fraction per modulus: {audits['coprime_b_min_fraction']:.3f}")

# the most pairs of B (or of C) sharing one difference n != 0, with the least such n:
# large multiplicities would already be solutions in disguise, on the error-term side
B = enumerate_squarefree_smooth(T2, ceil(cfg.y ** (1 - cfg.delta)), floor(cfg.y))
C = enumerate_squarefree_smooth(T1, ceil(cfg.x ** (1 - cfg.delta)), cfg.x)
print(f"pair-collision maxima (count, witness): b-set {pair_collision_stats(B)},"
      f" c-set {pair_collision_stats(C)}")

print("\nverified solutions A + B + 1 = C:")
for A, B, C, a, b, c, u, w in report.solution_rows:
    print(f"  {A} + {B} + 1 = {C}   from a={a}, b={b}, c={c}")

bc = report.bound_comparison
print(f"\nheadline formula at s = {bc['s']}: {bc['formula_value']:.2f} "
      f"(observed {bc['observed']}; {bc['note']})")
