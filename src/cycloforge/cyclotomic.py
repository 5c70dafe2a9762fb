"""Cyclotomic polynomials: one default route and four independent oracles.

phi(n) returns the n-th cyclotomic polynomial, psi(n) its cofactor in
x^n - 1. Every route first reduces to the primes of the squarefree radical
m of n (the polynomial for n is the one for m evaluated at x^(n/m)).

phi_m for m >= 2 and every inclusion-exclusion product are palindromic,
so the default phi, like pseudo_phi, is the lower half from one packed
kernel that runs on a single Python int (through the packed codec in
intpoly), followed by its mirror image. The four explicit algorithms
must agree with it exactly; the test suite and the verify suites diff
them against it.

Those oracles are plain functions of the radical's primes, with no memo,
on plain coefficient lists. Multiplying or exactly dividing by x^d - 1 is
linear time, which makes the inclusion-exclusion product and the
sparse-series route quasi-linear in the degree. Every psi, the one each
sparse step reads included, is the inclusion-exclusion cofactor, which
also gives the packed kernel's height bound its sizes. The gcd route's
pseudo-remainders go through intpoly's one long-division loop.
"""

from __future__ import annotations

from array import array
from enum import Enum
from functools import lru_cache, reduce
from itertools import accumulate, combinations
from math import comb, gcd, prod
from operator import neg
from typing import NamedTuple, Sequence

from . import _numtheory as nt
from .errors import RemainderNonzero
from .intpoly import (
    IntPolynomial,
    field_ones,
    field_width,
    geometric_series,
    long_divide,
    poly_exact_div,
    substitute_power,
    unpack,
)


class PhiAlgorithm(Enum):
    MobiusProduct = "mobius"
    RecursiveQuotient = "recursive"
    SparseSeries = "sparse"
    GcdOfSparse = "gcd"


GCD_ALG_LIMIT = 5000


def _radical_primes(n: int) -> tuple[tuple[int, ...], int]:
    # the ascending primes of the radical m of n, and k = n/m
    if n < 1:
        raise ValueError("n must be positive")
    primes = tuple(p for p, _ in nt.factorize(n))
    return primes, n // prod(primes)


# ---------------------------------------------------------------------------
# list-level kernels


def _mul_xd_minus_1(c: list[int], d: int) -> list[int]:
    # c * (x^d - 1)
    out = [0] * d + c
    seg = out[: len(c)]
    out[: len(c)] = [u - v for u, v in zip(seg, c)]
    return out


def div_xd_minus_1(c: Sequence[int], d: int) -> list[int]:
    """The coefficient list c divided exactly by x^d - 1. The quotient is -c
    times 1 + x^d + x^(2d) + ... as a power series, and past the quotient's
    degree the series must vanish; else RemainderNonzero."""
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


def _binomials(
    parts: tuple[int, ...], cofactor: bool = False
) -> tuple[list[int], list[int]]:
    # the exponents d of the positively and the negatively signed x^d - 1
    k = len(parts)
    plus: list[int] = []
    minus: list[int] = []
    for r in range(k if cofactor else k + 1):
        positive = ((k - r) % 2 == 0) ^ cofactor
        bucket = plus if positive else minus
        for combo in combinations(parts, r):
            bucket.append(prod(combo))
    return plus, minus


def signed_subset_product(
    parts: tuple[int, ...], cofactor: bool = False
) -> IntPolynomial:
    """Inclusion-exclusion product over pairwise-coprime parts: one binomial
    x^d - 1 per subset, d the product of the subset, signed + when the
    complement has even size. Over the primes of m this is phi(m). With
    cofactor, the full set is left out and every sign is swapped, which
    gives the cofactor: the two products multiply to x^N - 1, N the product
    of all the parts."""
    plus, minus = _binomials(parts, cofactor)
    # Multiply every positively-signed binomial first, then exact-divide by
    # the negative ones in increasing degree order; the division kernel's
    # remainder check doubles as a self-test.
    out = [1]
    for d in sorted(plus, reverse=True):
        out = _mul_xd_minus_1(out, d)
    for d in sorted(minus):
        out = div_xd_minus_1(out, d)
    return IntPolynomial(tuple(out))


def _series_accumulate(c: list[int], period: int) -> None:
    # in place: c *= (1 + x^period + x^(2 period) + ...), truncated to len(c):
    # a running sum per residue class
    for r in range(period):
        c[r::period] = accumulate(c[r::period])


# ---------------------------------------------------------------------------
# packed heads


class Head(NamedTuple):
    """Coefficients 0 .. deg // 2 of a palindromic polynomial of degree
    deg, which carry its height and coefficient set, and its height."""

    coeffs: Sequence[int]
    height: int


def _height_bound(parts: tuple[int, ...], top: int) -> int:
    # A bound on |[x^i]| for i < top of the product of the parts, proved
    # from the parts alone, never read off the answer or taken on trust.
    #
    # Any k parts: the product is prod(1 - x^d) over m = 2^(k-1) binomials,
    # whose absolute coefficients sum to 2^m, times prod 1/(1 - x^d) over m
    # more, whose coefficients are at most those of 1/(1 - x)^m, at most
    # C(i + m - 1, m - 1).
    #
    # Distinct primes, tested here, make the product phi(N) (a factor 2 only
    # flips signs): at most two odd ones give height 1, three odd primes
    # p < q < r Bang's bound A(pqr) <= p - 1. With more, s the top odd prime
    # and n the product of the other odd ones, as power series
    #   phi_ns = phi_n(x^s) / phi_n(x) = -phi_n(x^s) psi_n(x) sum_j x^(jn).
    # [x^j] phi_n(x^s) psi_n(x) sums [x^a]phi_n [x^b]psi_n over a s + b = j,
    # at most one term per b = j (mod s), so it is at most A(phi_n) C, with
    # C the largest sum of |[x^b]psi_n| over one residue class b mod s.
    # The series sums floor(i / n) + 1 of those into [x^i].
    if len(set(parts)) < len(parts) or not all(map(nt.is_prime, parts)):
        m = 2 ** (len(parts) - 1)
        return 2**m * comb(top + m - 1, m - 1)
    odd = sorted(p for p in parts if p != 2)
    if len(odd) <= 2:
        return 1
    if len(odd) == 3:
        return odd[0] - 1
    s, n = odd[-1], prod(odd[:-1])
    height_n, abs_psi = _prefix_sizes(tuple(odd[:-1]))
    c = max(abs_psi) if s >= len(abs_psi) else max(sum(abs_psi[t::s]) for t in range(s))
    return ((top - 1) // n + 1) * height_n * c


@lru_cache(maxsize=512)
def _prefix_sizes(primes: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # A(phi_n) off the packed head and the |[x^b]psi_n| off the cofactor,
    # for n the product of three or more ascending odd primes. The head's own
    # bound recurses on fewer primes and ends at three, whose bound is Bang's.
    psi_n = signed_subset_product(primes, cofactor=True).coeffs
    return signed_subset_head(primes).height, tuple(map(abs, psi_n))


def _over_binomial(x: int, e: int, b: int, top: int, mask: int) -> int:
    # x / (1 - x^e) mod x^top on b-bit fields: x (1 + x^e)(1 + x^2e)(1 + x^4e)...
    while e < top:
        x = (x + (x << b * e)) & mask
        e *= 2
    return x


_UNBIAS = bytes(v ^ 128 for v in range(256))
# the bytes c + 128 with |c| < 2^j, for j = 0 .. 7
_BANDS = tuple(bytes(range(129 - 2**j, 128 + 2**j)) for j in range(8))
# Up to this height a head's sum counts each value in the narrowest rest
# that holds it, above it one pass over u. Each route wins somewhere: on
# heads of orders 3 to 5 the counts took 0.8 times as long as sum(u) at
# height 6, 1.0 at 7 and 1.07 at 8, but on 18 order-4 heads of height 8
# 165 ms against 186 ms. With sum(u) alone four periodicity suites took
# 29.2 ms against 26.2 ms and the five scan tags 241 ms against 230 ms
# (best and median of 9), so the switch stays. Both routes give the same
# sum: flipping it is an equivalent mutant, and its line says so.
_COUNTED = 7


def _byte_scan(u: bytes) -> tuple[int, int]:
    # u holds c + 128 per coefficient: the height and the sum of the c.
    # Pass j drops the band |c| < 2^j in C from what pass j - 1 left, so
    # rests[j] holds the c with |c| >= 2^(j - 1), and membership tests
    # find the top of the last rest. Byte 0, c = -128, outlasts every band.
    rests = [u]
    for band in _BANDS:
        left = rests[-1].translate(None, band)
        if not left:
            break
        rests.append(left)
    else:
        return 128, sum(u) - 128 * len(u)
    top = rests[-1]
    height = next(
        (v for v in range(2 ** (len(rests) - 1) - 1, 0, -1) if 128 + v in top or 128 - v in top),
        0,
    )
    if height > _COUNTED:  # mutant: equivalent
        return height, sum(u) - 128 * len(u)  # twice as fast as over coeffs
    total = 0
    for v in range(1, height + 1):
        rest = rests[v.bit_length()]
        total += v * (rest.count(128 + v) - rest.count(128 - v))
    return height, total


def _head_values(c: Sequence[int], h: int) -> Sequence[int]:
    # the values in c, a slice of a head of height h. Below height 128 the
    # head is an array of signed bytes: a membership test in C per v in
    # [-h, h] instead of a pass over c.
    if h > 127:
        return c
    s = c.tobytes()
    return [v for v in range(-h, h + 1) if v & 255 in s]


def signed_subset_head(parts: tuple[int, ...]) -> Head:
    """The lower half of signed_subset_product(parts), a palindromic
    polynomial, with its height. The field width comes from a height bound
    that _height_bound proves from the parts: phi's when they are distinct
    primes, so the product is phi of theirs, the generic one otherwise."""
    plus, minus = _binomials(parts)
    deg = sum(plus) - sum(minus)
    at_one = prod(plus) // prod(minus)
    top = deg // 2 + 2
    b = field_width(_height_bound(parts, top))
    w = b // 8
    mask = (1 << b * top) - 1
    # Kronecker substitution: x = 2^b maps Z[x]/(x^top) onto Z/2^(b top),
    # one b-bit field per coefficient. There are as many binomials of each
    # sign, so the product is prod(1 - x^d) over plus / prod(1 - x^d) over
    # minus. Fields wrap on the way; only the result's must fit, and the
    # bound sees to that. (1 - x^(de)) / (1 - x^d) = 1 + x^d + ... +
    # x^(d(e-1)) for the least d of minus starts it.
    d = min(minus)
    de = min(e for e in plus if e % d == 0)
    plus.remove(de)
    minus.remove(d)
    x = int.from_bytes((1).to_bytes(w * d, "little") * ((min(de, top) + d - 1) // d), "little")
    for e in plus:
        if e < top:
            x = (x - (x << b * e)) & mask
    for e in minus:
        x = _over_binomial(x, e, b, top, mask)
    # Decode: a bias on every field keeps it from borrowing from the next.
    ones = field_ones(b, top)
    z = (x + (ones << 7)) & mask
    if not z & (mask ^ ones * 255):
        # every coefficient c lies in [-128, 127]: one byte c + 128 each
        u = z.to_bytes(w * top, "little")[::w]
        coeffs = array("b", u.translate(_UNBIAS))
        height, field_sum = _byte_scan(u)
    else:
        coeffs = unpack(x, b, top)
        height, field_sum = max(max(coeffs), -min(coeffs)), sum(coeffs)
    # A truncated series has no leading term or remainder to test, so two
    # exact self-checks stand in: the coefficient past the middle mirrors
    # the one before it, and the head, mirrored, sums to the value at 1.
    h = deg // 2
    if coeffs[h + 1] != coeffs[deg - h - 1]:
        raise AssertionError("truncated series is not palindromic")
    total = 2 * (field_sum - coeffs[h + 1]) - (coeffs[h] if deg % 2 == 0 else 0)
    if total != at_one:
        raise AssertionError("truncated series has the wrong value at 1")
    return Head(coeffs[: h + 1], height)


def head_and_mirror(parts: tuple[int, ...], c: Sequence[int]) -> IntPolynomial:
    """signed_subset_product(parts) for parts > 1: its packed head c
    (signed_subset_head(parts).coeffs) followed by its mirror image (a
    palindrome)."""
    deg = prod(p - 1 for p in parts)
    return IntPolynomial(tuple(c + c[deg - len(c) :: -1]))


@lru_cache(maxsize=512)
def coefficient_set(n: int) -> frozenset[int]:
    """The coefficient set of phi(n), 0 included, read off the packed head
    of the odd primes of n's radical. phi(n) spreads the radical's
    coefficients apart with zeros, and with an odd prime the degree is
    even, so exponents i and deg - i share parity as well as coefficient.
    An even n negates the odd exponents, since phi(2m)(x) = phi(m)(-x)."""
    odd = tuple(p for p in _radical_primes(n)[0] if p != 2)
    even = n % 2 == 0
    if not odd:
        return frozenset((0, 1) if even else (-1, 0, 1))
    c, h = signed_subset_head(odd)
    if even:
        return frozenset((0, *_head_values(c[::2], h), *map(neg, _head_values(c[1::2], h))))
    return frozenset((0, *_head_values(c, h)))


# ---------------------------------------------------------------------------
# the three list-level oracles beside the inclusion-exclusion product (each
# takes the radical's ascending primes, at least one)


def _phi_recursive(primes: tuple[int, ...]) -> IntPolynomial:
    # grow an ascending prime chain, dividing phi(x^p) by phi at each step
    cur = geometric_series(1, primes[0])
    for p in primes[1:]:
        cur = poly_exact_div(substitute_power(cur, p), cur)
    return cur


def _sparse_step(phi: Sequence[int], psi: Sequence[int], n: int, p: int) -> list[int]:
    # phi_np agrees with -psi_n(x) * phi_n(x^p) * (1 + x^n + x^(2n) + ...)
    # through degree phi(n)(p-1)
    top = (len(phi) - 1) * (p - 1)
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
    if acc[-1] != 1:
        raise AssertionError("sparse series lost the leading term")
    return acc


def _sparse_phi(primes: tuple[int, ...]) -> list[int]:
    # one sparse step per prime up the chain, each psi the cofactor
    rest, top = primes[:-1], primes[-1]
    if not rest:
        return [1] * top
    psi = signed_subset_product(rest, cofactor=True).coeffs
    return _sparse_step(_sparse_phi(rest), psi, prod(rest), top)


# ---------------------------------------------------------------------------
# gcd route


def _primitive(c: list[int]) -> list[int]:
    g = gcd(*c) or 1
    if c[-1] < 0:
        g = -g
    if g != 1:
        c = [v // g for v in c]
    return c


def _prim_rem(a: list[int], b: list[int]) -> list[int]:
    # primitive part of the pseudo-remainder of a by b: lc(b)^(deg a - deg b
    # + 1) a divides by b with every quotient term exact over the integers.
    # a is the caller's to discard, so a scale of 1 divides it in place.
    db = len(b) - 1
    scale = b[-1] ** (len(a) - db)
    rem = a if scale == 1 else [v * scale for v in a]
    long_divide(rem, b)
    while db and rem[db - 1] == 0:
        db -= 1
    del rem[db:]
    return _primitive(rem) if rem else []


def poly_gcd_int(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two coefficient lists over the integers (primitive
    PRS), normalised to a positive leading coefficient."""
    a, b = _primitive(list(a)), _primitive(list(b))
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _prim_rem(a, b)
    return _primitive(a)


def generator_gcd(parts: Sequence[int]) -> list[int]:
    """Primitive gcd over the integers of the sparse generators
    1 + x^(m/p) + ... + x^(m (p-1)/p), one per part p of m = prod(parts).
    Over the primes of m this is phi(m), over pairwise-coprime parts the
    inclusion-exclusion product."""
    m = prod(parts)
    return reduce(poly_gcd_int, [list(geometric_series(m // p, p).coeffs) for p in parts])


def _phi_gcd(primes: tuple[int, ...], n: int) -> IntPolynomial:
    if n > GCD_ALG_LIMIT:
        raise ValueError(f"GcdOfSparse is limited to n <= {GCD_ALG_LIMIT}")
    cur = generator_gcd(primes)
    if cur[-1] != 1:
        raise RemainderNonzero("gcd route produced a non-monic result")
    return IntPolynomial(tuple(cur))


# ---------------------------------------------------------------------------
# public entry points

_X_MINUS_1 = IntPolynomial((-1, 1))


@lru_cache(maxsize=512)
def _phi_default(primes: tuple[int, ...]) -> Sequence[int]:
    # the default route's memo: the packed head alone, one byte per lower-half
    # coefficient below height 128, never handed to a caller
    return signed_subset_head(primes).coeffs


def phi(n: int, alg: PhiAlgorithm | None = None) -> IntPolynomial:
    """The n-th cyclotomic polynomial (monic, degree totient(n)).

    With alg=None the default is used: the memoised packed head of the
    inclusion-exclusion product over the radical's primes, followed by its
    mirror image (head_and_mirror), built afresh. An explicit algorithm
    always recomputes from the radical's primes, with no memo, so tests and
    the verify suites compare genuinely independent code paths.
    """
    primes, k = _radical_primes(n)
    if not primes:
        return _X_MINUS_1
    if alg is None:
        base = head_and_mirror(primes, _phi_default(primes))
    elif alg is PhiAlgorithm.MobiusProduct:
        base = signed_subset_product(primes)
    elif alg is PhiAlgorithm.RecursiveQuotient:
        base = _phi_recursive(primes)
    elif alg is PhiAlgorithm.SparseSeries:
        base = IntPolynomial(_sparse_phi(primes))
    elif alg is PhiAlgorithm.GcdOfSparse:
        base = _phi_gcd(primes, n)
    else:
        raise ValueError(f"unknown algorithm {alg!r}")
    return substitute_power(base, k)


def psi(n: int) -> IntPolynomial:
    """The cofactor of phi(n) in x^n - 1 (monic, degree n - totient(n))."""
    primes, k = _radical_primes(n)
    return substitute_power(signed_subset_product(primes, cofactor=True), k)
