#!/usr/bin/env python3
"""The additive-character view: the exact spectrum of a congruence count.

The count of (a, w <= mu*a, c) with c*w == 1 (mod a) decomposes exactly over
frequencies h in the symmetric window (-a/2, a/2]: the h = 0 term is the main
term, everything else is an oscillating spectrum of weighted fraction sums
sum_c e(h c^{-1} / a).  Truncating at lambda*mu*Z (lambda = 1/log Z) keeps the
main term and leaves a tail whose size the report tracks.

Run: python demos/circle_spectrum.py
"""

import random

from sunit_harvest import additive_decomposition, s_mu_weight

rng = random.Random(7)

print("== frequency weights ==")
for h in (1, 2, 5, 100):
    w = s_mu_weight(h, 0.5)
    print(f"  s_mu({h}) = {w:.6f}, |s_mu| = {abs(w):.6f} <= min(mu, 1/(pi h))")

print("\n== exact spectrum decomposition ==")
Z = 400
a_vals = sorted(rng.sample(range(3 * Z // 4, Z + 1), 4))
c_vals = sorted(rng.sample(range(2, 3000), 80))
mu = 0.3
dec = additive_decomposition(a_vals, c_vals, mu)
print(f"  moduli {a_vals}, #C = {len(c_vals)}, mu = {mu}")
print(f"  exact count    = {dec.exact_count}")
print(f"  main term      = {dec.main:.6f}")
print(f"  full recombine = {dec.recombined:.6f}")
print(f"  truncation at |h| <= {dec.cutoff:.1f} (lambda = {dec.lambda_cut:.4f}):"
      f" kept {dec.truncated_sum:.4f}, tail {dec.tail_sum:.4f}")

print("\n  largest spectrum lines:")
top = sorted(dec.spectrum.items(), key=lambda kv: -abs(kv[1]))[:8]
for h, term in top:
    print(f"    h = {h:5}: contribution {term.real:10.6f}")
