"""Cyclotomic polynomials by four independent algorithms.

phi(n) returns the n-th cyclotomic polynomial, psi(n) its cofactor in
x^n - 1. Every algorithm first reduces to the squarefree radical m of n
(the polynomial for n is the one for m evaluated at x^(n/m)) and the
four algorithms must agree exactly; the test suite diffs them against
each other.

Internal kernels work on plain coefficient lists. Multiplying or exactly
dividing by x^d - 1 is linear time, which makes the inclusion-exclusion
product and the sparse-series route quasi-linear in the degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, combinations
from math import gcd, prod

from . import _numtheory as nt
from .errors import RemainderNonzero
from .intpoly import IntPolynomial, geometric_series, poly_exact_div, substitute_power


@dataclass(frozen=True, slots=True)
class CycloIndex:
    """A positive integer with the data the polynomial computations need."""

    n: int
    prime_factorization: tuple[tuple[int, int], ...]
    radical: int
    odd_part_order: int

    @staticmethod
    def of(n: int) -> "CycloIndex":
        if n < 1:
            raise ValueError("n must be positive")
        fact = nt.factorize(n)
        rad = 1
        order = 0
        for p, _ in fact:
            rad *= p
            if p != 2:
                order += 1
        return CycloIndex(n, fact, rad, order)


class PhiAlgorithm(Enum):
    MobiusProduct = "mobius"
    RecursiveQuotient = "recursive"
    SparseSeries = "sparse"
    GcdOfSparse = "gcd"


GCD_ALG_LIMIT = 5000


def radical_reduce(n: int) -> tuple[int, int]:
    """(m, k) with m the radical of n and k = n/m."""
    if n < 1:
        raise ValueError("n must be positive")
    m = nt.radical(n)
    return m, n // m


# ---------------------------------------------------------------------------
# list-level kernels


def _mul_xd_minus_1(c: list[int], d: int) -> list[int]:
    # c * (x^d - 1)
    out = [0] * d + c
    seg = out[: len(c)]
    out[: len(c)] = [u - v for u, v in zip(seg, c)]
    return out


def _div_xd_minus_1(c: list[int], d: int) -> list[int]:
    # c / (x^d - 1), exact; quotient satisfies q[i] = q[i-d] - c[i], so each
    # residue class of q is the negated running sum of that class of c.
    qlen = len(c) - d
    if qlen <= 0:
        if any(c):
            raise RemainderNonzero("degree too small for exact division")
        return []
    out = [0] * qlen
    for r in range(d):
        acc = list(accumulate(c[r::d]))
        take = len(range(r, qlen, d))
        out[r::d] = [-v for v in acc[:take]]
        if any(acc[take:]):
            raise RemainderNonzero("x^d - 1 does not divide")
    return out


def signed_subset_product(
    parts: tuple[int, ...], include_full: bool = True, flip: bool = False
) -> IntPolynomial:
    """Inclusion-exclusion product over pairwise-coprime parts: one binomial
    x^d - 1 per subset (the full set only with include_full), d the product
    of the subset, signed + when the complement has even size (the other
    way round with flip). Over the primes of m this is phi(m)."""
    # Multiply every positively-signed binomial first, then exact-divide by
    # the negative ones in increasing degree order; the division kernel's
    # remainder check doubles as a self-test.
    k = len(parts)
    plus: list[int] = []
    minus: list[int] = []
    for r in range(k + 1 if include_full else k):
        positive = ((k - r) % 2 == 0) ^ flip
        bucket = plus if positive else minus
        for combo in combinations(parts, r):
            bucket.append(prod(combo))
    out = [1]
    for d in sorted(plus, reverse=True):
        out = _mul_xd_minus_1(out, d)
    for d in sorted(minus):
        out = _div_xd_minus_1(out, d)
    return IntPolynomial(tuple(out))


def _series_accumulate(c: list[int], period: int) -> None:
    # in place: c *= (1 + x^period + x^(2 period) + ...), truncated to len(c)
    for r in range(period):
        c[r::period] = accumulate(c[r::period])


# ---------------------------------------------------------------------------
# the four algorithms (each takes the squarefree radical m >= 2)


def _phi_mobius(m: int) -> IntPolynomial:
    return signed_subset_product(tuple(p for p, _ in nt.factorize(m)))


def _phi_recursive(m: int) -> IntPolynomial:
    # grow an ascending prime chain, dividing phi(x^p) by phi at each step
    primes = [p for p, _ in nt.factorize(m)]
    cur = geometric_series(1, primes[0])
    for p in primes[1:]:
        cur = poly_exact_div(substitute_power(cur, p), cur)
    return cur


def _sparse_step(
    phi: tuple[int, ...], psi: tuple[int, ...], n: int, p: int
) -> tuple[list[int], list[int]]:
    # phi_np agrees with -psi_n(x) * phi_n(x^p) * (1 + x^n + x^(2n) + ...)
    # through degree phi(n)(p-1); psi_np = psi_n(x^p) * phi_n(x).
    deg_new = (len(phi) - 1) * (p - 1)
    width = len(psi)
    acc = [0] * (deg_new + 1)
    for k, v in enumerate(phi):
        if v == 0:
            continue
        off = k * p
        if off > deg_new:
            break
        end = min(off + width, deg_new + 1)
        seg = acc[off:end]
        acc[off:end] = [u - v * w for u, w in zip(seg, psi)]
    _series_accumulate(acc, n)
    assert acc[-1] == 1, "sparse series lost the leading term"

    psi_new = [0] * ((width - 1) * p + len(phi))
    lphi = len(phi)
    for k, v in enumerate(psi):
        if v == 0:
            continue
        off = k * p
        seg = psi_new[off : off + lphi]
        psi_new[off : off + lphi] = [u + v * w for u, w in zip(seg, phi)]
    return acc, psi_new


# Prefix cache for ascending chains: maps a squarefree product to its
# (phi, psi) coefficient tuples. Bounded; concurrent use is safe because
# entries are immutable and a lost write only costs a recompute.
_chain_cache: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}
_CHAIN_CACHE_MAX_PRODUCT = 70000
_CHAIN_CACHE_MAX_ENTRIES = 1500


def _phi_psi_sparse(m: int, use_cache: bool = True) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(phi_m, psi_m) coefficient tuples for squarefree m >= 2."""
    primes = [p for p, _ in nt.factorize(m)]
    prefixes = list(accumulate(primes, lambda a, b: a * b))
    start = 0
    phi: tuple[int, ...] = (1,) * primes[0]
    psi: tuple[int, ...] = (-1, 1)
    if use_cache:
        for i in range(len(prefixes) - 1, -1, -1):
            hit = _chain_cache.get(prefixes[i])
            if hit is not None:
                phi, psi = hit
                start = i + 1
                break
    for i in range(max(start, 1), len(primes)):
        phi_l, psi_l = _sparse_step(phi, psi, prefixes[i - 1], primes[i])
        phi, psi = tuple(phi_l), tuple(psi_l)
        if (
            use_cache
            and prefixes[i] <= _CHAIN_CACHE_MAX_PRODUCT
            and len(_chain_cache) < _CHAIN_CACHE_MAX_ENTRIES
        ):
            _chain_cache[prefixes[i]] = (phi, psi)
    if use_cache and primes[0] <= _CHAIN_CACHE_MAX_PRODUCT and prefixes[0] not in _chain_cache:
        if len(_chain_cache) < _CHAIN_CACHE_MAX_ENTRIES:
            _chain_cache[prefixes[0]] = ((1,) * primes[0], (-1, 1))
    return phi, psi


# ---------------------------------------------------------------------------
# gcd route


def _content(c: list[int]) -> int:
    g = 0
    for v in c:
        if v:
            g = gcd(g, v)
            if g == 1:
                break
    return g or 1


def _primitive(c: list[int]) -> list[int]:
    g = _content(c)
    if c[-1] < 0:
        g = -g
    if g != 1:
        c = [v // g for v in c]
    return c


def _prim_rem(a: list[int], b: list[int]) -> list[int]:
    # primitive part of the pseudo-remainder of a by b
    db = len(b) - 1
    lcb = b[-1]
    rem = list(a)
    while len(rem) - 1 >= db:
        c = rem[-1]
        shift = len(rem) - 1 - db
        if lcb != 1:
            rem = [v * lcb for v in rem]
            c = rem[-1]
        q, r = divmod(c, lcb)
        assert r == 0
        for j in range(db + 1):
            rem[shift + j] -= q * b[j]
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return []
    return _primitive(rem)


def poly_gcd_int(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two coefficient lists over the integers (primitive
    PRS), normalised to a positive leading coefficient."""
    a, b = _primitive(list(a)), _primitive(list(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _prim_rem(a, b)
    return _primitive(a)


def _phi_gcd(m: int, n: int) -> IntPolynomial:
    # gcd of the sparse generators {1 + x^(m/p) + ... + x^(m (p-1)/p)}
    if n > GCD_ALG_LIMIT:
        raise ValueError(f"GcdOfSparse is limited to n <= {GCD_ALG_LIMIT}")
    primes = [p for p, _ in nt.factorize(m)]
    gens = [geometric_series(m // p, p) for p in primes]
    cur = list(gens[0].coeffs)
    for g in gens[1:]:
        cur = poly_gcd_int(cur, list(g.coeffs))
    if cur[-1] != 1:
        raise RemainderNonzero("gcd route produced a non-monic result")
    return IntPolynomial(tuple(cur))


# ---------------------------------------------------------------------------
# public entry points

_X_MINUS_1 = IntPolynomial((-1, 1))


def _default_radical_phi(m: int) -> IntPolynomial:
    order = sum(1 for p, _ in nt.factorize(m) if p != 2)
    if order >= 2:
        return IntPolynomial(_phi_psi_sparse(m)[0])
    return _phi_mobius(m)


@lru_cache(maxsize=512)
def _phi_default(n: int) -> IntPolynomial:
    m, k = radical_reduce(n)
    if m == 1:
        return _X_MINUS_1
    return substitute_power(_default_radical_phi(m), k)


def phi(n: int, alg: PhiAlgorithm | None = None) -> IntPolynomial:
    """The n-th cyclotomic polynomial (monic, degree totient(n)).

    With alg=None a cached default route is used (sparse series for
    squarefree radicals of two or more odd primes, inclusion-exclusion
    product otherwise). Passing an explicit algorithm always recomputes,
    so differential tests compare genuinely independent code paths.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if alg is None:
        return _phi_default(n)
    m, k = radical_reduce(n)
    if m == 1:
        return _X_MINUS_1
    if alg is PhiAlgorithm.MobiusProduct:
        base = _phi_mobius(m)
    elif alg is PhiAlgorithm.RecursiveQuotient:
        base = _phi_recursive(m)
    elif alg is PhiAlgorithm.SparseSeries:
        base = IntPolynomial(_phi_psi_sparse(m, use_cache=False)[0])
    elif alg is PhiAlgorithm.GcdOfSparse:
        base = _phi_gcd(m, n)
    else:
        raise ValueError(f"unknown algorithm {alg!r}")
    return substitute_power(base, k)


@lru_cache(maxsize=512)
def psi(n: int) -> IntPolynomial:
    """The cofactor of phi(n) in x^n - 1 (monic, degree n - totient(n))."""
    if n < 1:
        raise ValueError("n must be positive")
    m, k = radical_reduce(n)
    if m == 1:
        return IntPolynomial((1,))
    if nt.is_prime(m):
        base = _X_MINUS_1
    else:
        base = IntPolynomial(_phi_psi_sparse(m)[1])
    return substitute_power(base, k)
