"""Small number-theory helpers: factorization, totient, primality.

Everything here works on Python ints (arbitrary precision). Primality is
deterministic for inputs below 3.3 * 10^24 via fixed Miller-Rabin bases.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

# Deterministic witness set: correct for all n < 3_317_044_064_679_887_385_961_981,
# comfortably past 2^64. The bases up to 37 alone stop short, at
# 318_665_857_834_031_151_167_461 = 399_165_290_221 * 798_330_580_441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Trial division by the witnesses, then deterministic Miller-Rabin
    for n within the witness-set range."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # a composite with no prime factor up to 41 is at least 43^2
    if n < 1849:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=512)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((prime, exponent), ...) ascending."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    out: list[tuple[int, int]] = []
    m = n
    # trial division by 2, then by every odd f
    f, step = 2, 1
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
        f, step = f + step, 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def totient(n: int) -> int:
    """Euler's totient."""
    t = n
    for p, _ in factorize(n):
        t -= t // p
    return t


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    out.sort()
    return out


def primes_up_to(limit: int) -> list[int]:
    """Sieve of Eratosthenes, inclusive of limit."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]
