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

from enum import Enum
from functools import lru_cache
from itertools import accumulate, combinations
from math import gcd, prod
from operator import add, sub

from . import _numtheory as nt
from .errors import RemainderNonzero
from .intpoly import IntPolynomial, geometric_series, poly_exact_div, substitute_power


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
    # c / (x^d - 1), exact: the quotient is -c times 1 + x^d + x^(2d) + ...
    # as a power series, and past the quotient's degree the series vanishes.
    qlen = len(c) - d
    if qlen <= 0:
        if any(c):
            raise RemainderNonzero("degree too small for exact division")
        return []
    out = [-v for v in c]
    _series_accumulate(out, d)
    if any(out[qlen:]):
        raise RemainderNonzero("x^d - 1 does not divide")
    del out[qlen:]
    return out


def signed_subset_product(
    parts: tuple[int, ...], include_full: bool = True, flip: bool = False, half: bool = False
) -> IntPolynomial:
    """Inclusion-exclusion product over pairwise-coprime parts: one binomial
    x^d - 1 per subset (the full set only with include_full), d the product
    of the subset, signed + when the complement has even size (the other
    way round with flip). Over the primes of m this is phi(m).

    With half (for the full set and no flip, a palindromic product), only
    the coefficients through degree deg // 2, which carry its height and
    coefficient set."""
    k = len(parts)
    plus: list[int] = []
    minus: list[int] = []
    for r in range(k + 1 if include_full else k):
        positive = ((k - r) % 2 == 0) ^ flip
        bucket = plus if positive else minus
        for combo in combinations(parts, r):
            bucket.append(prod(combo))
    if half:
        # As power series: times (1 - x^d) for the positive binomials, then
        # over (1 - x^d) for the negative ones. There are as many of each,
        # so the sign flips of the binomials cancel, and the value at 1 is
        # the ratio of their degree products.
        deg = sum(plus) - sum(minus)
        out = [0] * (deg // 2 + 2)
        out[0] = 1
        for d in plus:
            out[d:] = map(sub, out[d:], out[: len(out) - d])
        for d in minus:
            _series_accumulate(out, d)
        return IntPolynomial(_checked_head(out, deg, prod(plus) // prod(minus)))
    # Multiply every positively-signed binomial first, then exact-divide by
    # the negative ones in increasing degree order; the division kernel's
    # remainder check doubles as a self-test.
    out = [1]
    for d in sorted(plus, reverse=True):
        out = _mul_xd_minus_1(out, d)
    for d in sorted(minus):
        out = _div_xd_minus_1(out, d)
    return IntPolynomial(tuple(out))


def _series_accumulate(c: list[int], period: int) -> None:
    # in place: c *= (1 + x^period + x^(2 period) + ...), truncated to len(c).
    # A running sum per residue class, or, when the classes are short, one
    # block of period terms after another. The block pass wins once a class
    # holds fewer than about 30 terms (measured on lists of 10^3 to 10^5).
    if len(c) < 32 * period:
        for lo in range(period, len(c), period):
            c[lo : lo + period] = map(add, c[lo : lo + period], c[lo - period : lo])
        return
    for r in range(period):
        c[r::period] = accumulate(c[r::period])


def _checked_head(c, deg: int, at_one: int) -> tuple[int, ...]:
    # c holds a palindromic polynomial of degree deg through deg // 2 + 1.
    # A truncated series has no leading term or remainder to test, so two
    # exact self-checks stand in: the coefficient past the middle mirrors
    # the one before it, and the head, mirrored, sums to the value at 1.
    h = deg // 2
    head = tuple(c[: h + 1])
    if c[h + 1] != c[deg - h - 1]:
        raise AssertionError("truncated series is not palindromic")
    total = 2 * sum(head) - (head[h] if deg % 2 == 0 else 0)
    if total != at_one:
        raise AssertionError("truncated series has the wrong value at 1")
    return head


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
    phi: tuple[int, ...], psi: tuple[int, ...], n: int, p: int, upto: int | None = None
) -> list[int]:
    # phi_np agrees with -psi_n(x) * phi_n(x^p) * (1 + x^n + x^(2n) + ...)
    # through degree phi(n)(p-1); with upto, only through that degree. Both
    # factors are power series, so truncating them is exact.
    deg_new = (len(phi) - 1) * (p - 1)
    top = deg_new if upto is None else upto
    width = len(psi)
    acc = [0] * (top + 1)
    for k, v in enumerate(phi):
        if v == 0:
            continue
        off = k * p
        if off > top:
            break
        end = min(off + width, top + 1)
        seg = acc[off:end]
        acc[off:end] = [u - v * w for u, w in zip(seg, psi)]
    _series_accumulate(acc, n)
    if upto is None and acc[-1] != 1:
        raise AssertionError("sparse series lost the leading term")
    return acc


def _psi_step(phi: tuple[int, ...], psi: tuple[int, ...], p: int) -> list[int]:
    # psi_np = psi_n(x^p) * phi_n(x)
    lphi = len(phi)
    psi_new = [0] * ((len(psi) - 1) * p + lphi)
    for k, v in enumerate(psi):
        if v == 0:
            continue
        off = k * p
        seg = psi_new[off : off + lphi]
        psi_new[off : off + lphi] = [u + v * w for u, w in zip(seg, phi)]
    return psi_new


@lru_cache(maxsize=512)
def _sparse_pair(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(phi_n, psi_n) coefficient tuples for squarefree n >= 2, one sparse
    step up from the memoised pair of n without its top prime."""
    p = nt.factorize(n)[-1][0]
    if p == n:
        return (1,) * p, (-1, 1)
    phi, psi = _sparse_pair(n // p)
    return tuple(_sparse_step(phi, psi, n // p, p)), tuple(_psi_step(phi, psi, p))


def _sparse_phi(m: int, upto: int | None = None) -> list[int]:
    # phi_m for squarefree m >= 2, with upto only through that degree (a
    # prime m comes whole). The top step is not memoised and builds no psi,
    # so a one-off large m leaves neither behind.
    p = nt.factorize(m)[-1][0]
    if p == m:
        return [1] * p
    phi, psi = _sparse_pair(m // p)
    return _sparse_step(phi, psi, m // p, p, upto)


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
        if r:
            raise AssertionError("pseudo-remainder step is not exact")
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


def _default_radical_phi(m: int, half: bool = False) -> IntPolynomial:
    primes = tuple(p for p, _ in nt.factorize(m))
    if sum(1 for p in primes if p != 2) < 2:
        return signed_subset_product(primes, half=half)
    if not half:
        return IntPolynomial(_sparse_phi(m))
    deg = prod(p - 1 for p in primes)
    return IntPolynomial(_checked_head(_sparse_phi(m, deg // 2 + 1), deg, 1))


@lru_cache(maxsize=512)
def _phi_default(n: int) -> IntPolynomial:
    m, k = radical_reduce(n)
    if m == 1:
        return _X_MINUS_1
    return substitute_power(_default_radical_phi(m), k)


def phi_head(n: int) -> IntPolynomial:
    """phi(n) through degree totient(n) // 2, by the default route with its
    last step truncated there. phi(n) is palindromic for n >= 2, so these
    coefficients carry its height and coefficient set; phi(1) = x - 1 is
    not, and comes whole. Unlike phi's, the result is not cached."""
    m, k = radical_reduce(n)
    if m == 1:
        return _X_MINUS_1
    return substitute_power(_default_radical_phi(m, half=True), k)


def phi(n: int, alg: PhiAlgorithm | None = None) -> IntPolynomial:
    """The n-th cyclotomic polynomial (monic, degree totient(n)).

    With alg=None a cached default route is used (sparse series for
    squarefree radicals of two or more odd primes, inclusion-exclusion
    product otherwise). Passing an explicit algorithm always recomputes,
    so differential tests compare genuinely independent code paths; an
    explicit SparseSeries recomputes the top step but may reuse memoised
    prefixes.
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
        base = IntPolynomial(_sparse_phi(m))
    elif alg is PhiAlgorithm.GcdOfSparse:
        base = _phi_gcd(m, n)
    else:
        raise ValueError(f"unknown algorithm {alg!r}")
    return substitute_power(base, k)


def psi(n: int) -> IntPolynomial:
    """The cofactor of phi(n) in x^n - 1 (monic, degree n - totient(n))."""
    if n < 1:
        raise ValueError("n must be positive")
    m, k = radical_reduce(n)
    if m == 1:
        return IntPolynomial((1,))
    # psi_p = x - 1 needs no p-term phi_p built and memoised, which for a
    # large prime p would cost O(p) memory for a two-term answer
    base = _X_MINUS_1 if nt.is_prime(m) else IntPolynomial(_sparse_pair(m)[1])
    return substitute_power(base, k)
