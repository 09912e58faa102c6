"""Integer helpers shared by the group constructions and the pq theory."""

from __future__ import annotations

import math

from .errors import PreconditionError


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n, primes ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        else:
            d += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    d = 3
    while d * d <= q:
        if q % d == 0:
            return False
        d += 2
    return True


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        if n % d == 0:
            n //= d
        else:
            d += 1
    return True


def multiplicative_order(a: int, m: int) -> int:
    """The least o >= 1 with a^o = 1 mod m; 0 when a is not a unit mod m."""
    if math.gcd(a, m) != 1:
        return 0
    o, x = 1, a % m
    while x != 1 % m:
        x = (x * a) % m
        o += 1
    return o


def crt(a: int, m: int, b: int, k: int) -> int:
    """The x mod m*k with x = a mod m and x = b mod k (m, k coprime)."""
    x = a * k * pow(k, -1, m) + b * m * pow(m, -1, k)
    return x % (m * k)


def primitive_root(p: int) -> int:
    """The least primitive root modulo the prime p (1 for p = 2)."""
    if p == 2:
        return 1
    factors = [q for q, _ in factorize(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise PreconditionError(f"no primitive root mod {p}")
