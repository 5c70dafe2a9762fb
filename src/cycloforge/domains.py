"""Every search domain that the scans and the verify suites enumerate.

Each generator but `fj_pairs` yields (product, parts) for lo <= product
<= hi, parts ascending, in an order fixed for each window: scan journals
record items in the order they come. A window's cost follows the window,
not hi: the last part starts where the window does, instead of every
tuple up to hi being walked and filtered.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import gcd, isqrt
from operator import itemgetter

from ._numtheory import is_prime, primes_up_to


@lru_cache(maxsize=None)
def _odd_primes_below_pow2(bits: int) -> tuple[int, ...]:
    return tuple(primes_up_to((1 << bits) - 1)[1:])


def odd_primes(cap: int) -> tuple[int, ...]:
    """The odd primes up to cap, ascending. The sieve runs once per power
    of two, so the growing caps of ascending windows seldom sieve again."""
    ps = _odd_primes_below_pow2(max(cap, 1).bit_length())
    return ps[: bisect_right(ps, cap)]


def _heads(m: int, hi: int, cands, coprime: bool, i: int, acc: int, head: tuple):
    # (index, product, parts) of the first parts of ascending tuples of m
    # more candidates from cands[i:], plus a last part, within hi
    if m == 0:
        yield i, acc, head
        return
    for j in range(i, len(cands)):
        p = cands[j]
        if acc * p ** (m + 1) > hi:
            break
        if not coprime or gcd(p, acc) == 1:
            yield from _heads(m - 1, hi, cands, coprime, j + 1, acc * p, head + (p,))


def _ascending(k: int, lo: int, hi: int, cands, coprime: bool):
    # k ascending parts from cands (pairwise coprime when asked), in
    # lexicographic order; the last part is bisected to [lo/head, hi/head].
    # It is chosen here, not in _heads, so that each item passes through
    # one generator frame rather than k.
    for i, acc, head in _heads(k - 1, hi, cands, coprime, 0, 1, ()):
        start = max(i, bisect_left(cands, -(-lo // acc)))
        for p in cands[start : bisect_right(cands, hi // acc)]:
            if not coprime or gcd(p, acc) == 1:
                yield acc * p, head + (p,)


def prime_tuples(k: int, lo: int, hi: int):
    """(product, primes) for k >= 2 distinct odd primes, ascending."""
    # no part exceeds hi / 3^(k - 1)
    return _ascending(k, lo, hi, odd_primes(hi // 3 ** (k - 1)), coprime=False)


def coprime_tuples(k: int | None, lo: int, hi: int, odd_only: bool = False):
    """(product, parts) for ascending pairwise-coprime parts >= 2 (odd
    parts with odd_only): exactly k parts, or with k = None any number of
    parts, in lexicographic order of the parts."""
    if k is None:
        import heapq  # here, so commands that never merge skip it
        # each stream is lexicographic, and k parts >= 2 multiply to >= 2^k
        streams = [coprime_tuples(j, lo, hi, odd_only) for j in range(1, hi.bit_length() + 1)]
        return heapq.merge(*streams, key=itemgetter(1))
    first, step = (3, 2) if odd_only else (2, 1)
    # no part exceeds hi / first^(k - 1)
    cands = list(range(first, hi // first ** (k - 1) + 1, step))
    return _ascending(k, lo, hi, cands, coprime=True)


def squarefree(lo: int, hi: int):
    """(n, primes) for squarefree n >= 2, ascending, by a sieve over the
    window: each prime up to sqrt(hi) is divided out of its multiples, and
    what is left is 1 or the one prime factor above sqrt(hi)."""
    lo = max(lo, 2)
    if lo > hi:
        return
    rest = list(range(lo, hi + 1))
    parts: list[list[int]] = [[] for _ in rest]
    for p in (2, *odd_primes(isqrt(hi))):
        for i in range(-lo % p, len(rest), p):
            rest[i] //= p
            parts[i].append(p)
        for i in range(-lo % (p * p), len(rest), p * p):
            rest[i] = 0
    for n, r, ps in zip(range(lo, hi + 1), rest, parts):
        if r:
            yield n, tuple(ps) if r == 1 else (*ps, r)


def fj_pairs(nmax: int, pmax: int):
    """(n, p) for squarefree n in [2, nmax] and primes p <= pmax that do
    not divide n, n ascending and then p: the fj suite's grid."""
    ps = primes_up_to(pmax)
    for n, _ in squarefree(2, nmax):
        for p in ps:
            if n % p != 0:
                yield n, p


def odd_squarefree3(lo: int, hi: int):
    """(n, primes) for odd squarefree n with at least three prime factors."""
    for n, ps in squarefree(lo, hi):
        if n % 2 and len(ps) >= 3:
            yield n, ps


def _congruent_primes(modulus: int, low: int, high: int):
    # primes = +/-1 (mod modulus) in [low, high], ascending
    k = max(1, (low - 1) // modulus)
    while k * modulus - 1 <= high:
        for c in (k * modulus - 1, k * modulus + 1):
            if low <= c <= high and is_prime(c):
                yield c
        k += 1


def chain4(lo: int, hi: int):
    """(pqrs, (p, q, r, s)) for odd primes p < q with q != -1 (mod p), then
    primes r = +/-1 (mod pq) and s = +/-1 (mod pqr): the pqrs chain."""
    # The least product for a pair is pq(pq - 1)(pq(pq - 1) - 1), so pq
    # stays tiny. Since s >= pqr - 1 > r, r stops once pqr(pqr - 1) > hi.
    tmax = 3
    while tmax * (tmax - 1) * (tmax * (tmax - 1) - 1) <= hi:
        tmax += 1
    top = (isqrt(4 * hi + 1) + 1) // 2  # the largest t with t(t - 1) <= hi
    ps = odd_primes(max(3, tmax // 3))
    for i, p in enumerate(ps):
        for q in ps[i + 1 :]:
            pq = p * q
            if pq >= tmax:
                break
            if q % p == p - 1:
                continue
            for r in _congruent_primes(pq, 1, top // pq):
                pqr = pq * r
                for s in _congruent_primes(pqr, -(-lo // pqr), hi // pqr):
                    yield pqr * s, (p, q, r, s)
