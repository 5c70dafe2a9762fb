"""Independent reference arithmetic for checking cycloforge's output.

Nothing here imports cycloforge: the checks must not share code with the
program they judge. Polynomials are plain coefficient lists, index i
holding [x^i]. Every cyclotomic polynomial is built by the textbook
inclusion-exclusion product over the divisors of the squarefree radical.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import gcd, prod


def factor(n: int) -> dict[int, int]:
    """Prime factorisation by trial division (inputs here stay below 10^7)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(n: int) -> int:
    return prod((p - 1) * p ** (e - 1) for p, e in factor(n).items())


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by a segment sieve."""
    if hi < 2:
        return []
    lo = max(lo, 2)
    mark = bytearray([1]) * (hi - lo + 1)
    d = 2
    while d * d <= hi:
        start = max(d * d, (lo + d - 1) // d * d)
        mark[start - lo :: d] = bytes(len(range(start, hi + 1, d)))
        d += 1
    return [lo + i for i, ok in enumerate(mark) if ok]


def trim(c: list[int]) -> list[int]:
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def mul_binomial(c: list[int], d: int) -> list[int]:
    """c * (x^d - 1)."""
    out = [0] * d + c
    out[: len(c)] = [u - v for u, v in zip(out[: len(c)], c)]
    return out


def div_binomial(c: list[int], d: int) -> list[int]:
    """c / (x^d - 1); raises ArithmeticError unless the division is exact."""
    qlen = len(c) - d
    if qlen < 0:
        raise ArithmeticError("degree too small")
    out = [0] * qlen
    for r in range(d):
        run = list(accumulate(c[r::d]))
        take = len(range(r, qlen, d))
        out[r::d] = [-v for v in run[:take]]
        if any(run[take:]):
            raise ArithmeticError("x^d - 1 does not divide")
    return out


def binomial_quotient(num: list[int], den: list[int]) -> list[int]:
    """prod(x^d - 1 for d in num) / prod(x^d - 1 for d in den), exact."""
    c = [1]
    for d in sorted(num, reverse=True):
        c = mul_binomial(c, d)
    for d in sorted(den):
        c = div_binomial(c, d)
    return c


@lru_cache(maxsize=64)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial."""
    ps = sorted(factor(n))
    m = prod(ps)
    num, den = [], []
    for r in range(len(ps) + 1):
        for combo in combinations(ps, r):
            (num if r % 2 == 0 else den).append(m // prod(combo))
    base = binomial_quotient(num, den)
    k = n // m
    out = [0] * ((len(base) - 1) * k + 1)
    out[::k] = base
    return tuple(out)


def pseudo_binary(p: int, q: int) -> list[int]:
    """(x^pq - 1)(x - 1) / ((x^p - 1)(x^q - 1)) for coprime p, q."""
    return binomial_quotient([p * q, 1], [p, q])


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            seg = out[i : i + len(b)]
            out[i : i + len(b)] = [s + u * v for s, v in zip(seg, b)]
    return out


def poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [u + (b[i] if i < len(b) else 0) for i, u in enumerate(a)]


def poly_rem_monic(a: list[int], b: list[int]) -> list[int]:
    """Remainder of a by the monic polynomial b."""
    rem = list(a)
    db = len(b) - 1
    for top in range(len(rem) - 1, db - 1, -1):
        c = rem[top]
        if c:
            base = top - db
            for j in range(db + 1):
                rem[base + j] -= c * b[j]
    return trim(rem[:db])


def substitute_power(c: tuple[int, ...] | list[int], k: int) -> list[int]:
    out = [0] * ((len(c) - 1) * k + 1)
    out[::k] = c
    return out


def value_at_one(n: int) -> int:
    """Phi_n(1): 0 for n = 1, p for a power of the prime p, else 1."""
    f = factor(n)
    if n == 1:
        return 0
    return next(iter(f)) if len(f) == 1 else 1


def value_at_minus_one(n: int) -> int:
    """Phi_n(-1), from Phi_n(-x) = Phi_2n(x) for odd n and Phi_n(-x) =
    Phi_n(x) when 4 divides n."""
    if n == 1:
        return -2
    if n == 2:
        return 0
    if n % 2:
        return 1
    if n % 4 == 2:
        return value_at_one(n // 2)
    return value_at_one(n)


def coprime(*xs: int) -> bool:
    return all(gcd(a, b) == 1 for a, b in combinations(xs, 2))
