#!/usr/bin/env python3
"""Tour of the Dirichlet-character engine and the inequalities it certifies.

Everything the harvest's error analysis leans on is checked numerically here:
orthogonality, Gauss sums against conductors, incomplete character sums against
the conductor-refined bound, the Gauss-weighted large sieve with its explicit
constant, the sieve-type primitive decomposition, and the splitting of a
congruence count into main term plus character remainder.

Run: python demos/character_inequalities.py
"""

import random

import numpy as np

from sunit_harvest import (
    all_characters,
    fourth_moment_ratio,
    large_sieve_check,
    multiplicative_decomposition,
    polya_vinogradov_check,
    primitive_decomposition_check,
)

rng = random.Random(20240601)


print("== character table mod 15 ==")
table = all_characters(15)
V = table.value_matrix()
gram = V @ V.conj().T
print(f"phi(15) = {table.phi} characters; Gram deviation from phi*I:"
      f" {np.abs(gram - table.phi * np.eye(table.phi)).max():.2e}")

print("\n== Gauss sums and conductors mod 15 ==")
for i, (exps, tau, cond) in enumerate(zip(table.exponents(), table.gauss_sums(), table.conductors())):
    print(f"  chi_{i} exponents {tuple(exps.tolist())}: |tau|^2 = {abs(tau)**2:8.4f}, conductor = {cond}")

print("\n== incomplete character sums vs d(q/r) sqrt(r) log(r) ==")
for q in (5, 105, 210):
    rep = polya_vinogradov_check(q)
    print(f"  q = {q:3}: max ratio {rep.max_ratio:.4f} at character {rep.argmax_character},"
          f" window M = {rep.argmax_M}, N = {rep.argmax_N}")

print("\n== Gauss-weighted large sieve, constant 7 ==")
for _ in range(3):
    qs = sorted(rng.sample([q for q in range(3, 40) if all(q % (p * p) for p in (2, 3, 5))], 3))
    Y, Z = 0, 60
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(Z - Y)]
    lhs, rhs, holds = large_sieve_check(qs, Y, Z, coeffs)
    print(f"  moduli {qs}: lhs = {lhs:10.2f} <= rhs = {rhs:12.2f}  ({holds})")

print("\n== fourth moment of incomplete sums (report-only) ==")
for q, N in ((101, 50), (210, 97), (293, 130)):
    print(f"  q = {q:3}, N = {N:3}: ratio {fourth_moment_ratio(q, N):.4f}")

print("\n== sieve-type primitive decomposition ==")
lhs, rhs, equal = primitive_decomposition_check(15, 5, 2, 10)  # character 2 mod 5 is the quadratic one
print(f"  modulus 15 induced from the quadratic mod 5, W = 10:"
      f" lhs = {lhs:.6f}, rhs = {rhs:.6f}, equal = {equal}")

print("\n== congruence count = main term + character remainder ==")
A = [101, 103, 107]
C = rng.sample(range(2, 900), 60)
W = 300
main, remainder, exact = multiplicative_decomposition(A, C, W)
print(f"  main {main:.4f} + remainder {remainder:.4f} = {main + remainder:.4f}"
      f" vs exact count {exact}")
