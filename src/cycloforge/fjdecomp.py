"""Residue-class decomposition for one extra prime.

Writing f for the cyclotomic polynomial of n*p, the exponents of f are
split by their residue class mod p, giving p member polynomials, the
j-th collecting the coefficients sitting at exponents congruent to j.
The members satisfy a shift law in j, agree modulo phi(n) with the
slices of a*g from the Bezout identity f = a*g + b*h on the two obvious
cofactors of f, and for p > n the first n members already exhaust the
coefficient set of f. The split takes a from one reduction mod phi(n)
and b from one exact division by x^n - 1. A companion comparison
classifies how the coefficient sets for two different primes relate.
"""

from __future__ import annotations

from enum import Enum
from math import gcd, prod
from typing import Iterator, NamedTuple

from ._numtheory import factorize, is_prime, totient
from .cyclotomic import coefficient_set, div_xd_minus_1, phi, psi
from .errors import (
    HypothesisViolated,
    IntegralityFailure,
    NotCoprimeIndex,
    RemainderNonzero,
    RequiresLargeP,
)
from .intpoly import (
    ONE,
    ZERO,
    IntPolynomial,
    extract_residue,
    poly,
    poly_mod_monic,
    poly_mul_power,
    poly_sub,
    substitute_power,
)
from .pseudocyclo import pseudo_phi


class FjFamily(NamedTuple):
    """The p residue-class members of the cyclotomic polynomial of n*p.
    The fj verify suite checks that there are p of them, that they
    reassemble the polynomial and that they keep their degree budgets."""

    n: int
    p: int
    members: tuple[IntPolynomial, ...]


class BezoutSplit(NamedTuple):
    """Cofactor pair (a, b) with f = a*g + b*h, where f is the cyclotomic
    polynomial of n*p, g substitutes x^n into the p-th, and h substitutes
    x^p into the n-th. Minimal-degree solution, hence unique. The fj
    verify suite checks the degree bounds, and the identity member by
    member: slice j of f - a*g - b*h is member j - slice j of a*g - slice j
    of b times phi(n)."""

    n: int
    p: int
    a: IntPolynomial
    b: IntPolynomial

    def g(self) -> IntPolynomial:
        return substitute_power(phi(self.p), self.n)

    def h(self) -> IntPolynomial:
        return substitute_power(phi(self.n), self.p)

    def b_times_h(self) -> IntPolynomial:
        # b * h without building the zeros of h
        return poly_mul_power(self.b, phi(self.n), self.p)


def _check_pair(n: int, p: int, least: int) -> None:
    # the (n, p) hypotheses every family and split builder shares
    if n < least:
        raise ValueError(f"need n >= {least}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n % p == 0:
        raise NotCoprimeIndex(f"{p} divides {n}")


def mod_phi_reduce(t: IntPolynomial, n: int) -> IntPolynomial:
    """Unique representative of degree < deg phi(n) congruent to t. Since
    x^n = 1 holds modulo phi(n), exponents fold mod n first, then one
    monic remainder finishes."""
    if n < 2:
        raise ValueError("modulus index must be at least 2")
    folded = [sum(t.coeffs[r::n]) for r in range(n)]
    return poly_mod_monic(poly(folded), phi(n))


def bezout_split(n: int, p: int) -> BezoutSplit:
    """Unique minimal-degree (a, b). Modulo phi(n) the g factor collapses
    to the constant p and the h factor to 0, so a is the remainder of f
    by phi(n) scaled down by p. Since p does not divide n, h = f*phi(n)
    and g = f*psi(n)(x^p)/psi(n), so f - a*g = b*h gives
    b = (psi(n) - a*psi(n)(x^p)) / (x^n - 1): one product and one linear
    exact division, whose remainder check rejects a wrong a."""
    _check_pair(n, p, 2)
    f = phi(n * p)
    rem = mod_phi_reduce(f, n)
    scaled = []
    for c in rem.coeffs:
        if c % p:
            raise IntegralityFailure(f"coefficient {c} not divisible by {p}")
        scaled.append(c // p)
    a = IntPolynomial(tuple(scaled))
    cofactor = psi(n)
    numerator = poly_sub(cofactor, poly_mul_power(a, cofactor, p))
    try:
        b = div_xd_minus_1(numerator.coeffs, n)
    except RemainderNonzero as exc:
        raise IntegralityFailure("cofactor division left a remainder") from exc
    return BezoutSplit(n, p, a, IntPolynomial(b))


def fj_family(n: int, p: int) -> FjFamily:
    """Members by direct residue extraction from the full polynomial."""
    _check_pair(n, p, 1)
    f = phi(n * p)
    return FjFamily(n, p, tuple(extract_residue(f, p, j) for j in range(p)))


def fj_extended(family: FjFamily, j: int) -> tuple[int, IntPolynomial]:
    """Member for any integer index, as (offset, body) standing for
    x^offset * body. The extension is pinned by keeping x^j * member_j(x^p)
    unchanged under j -> j + p, which shifts the member by one power of x
    per period step. The offset is canonical: the body has a nonzero
    constant term, and the zero member has offset 0."""
    member = family.members[j % family.p].coeffs
    if not member:
        return 0, ZERO
    low = next(i for i, c in enumerate(member) if c)
    return low - j // family.p, IntPolynomial(member[low:])


def f0_fast(parts: tuple[int, ...], p: int) -> IntPolynomial:
    """Member 0 without building the full polynomial of n*p, where n is
    the product of the distinct primes in parts: with w = p mod n, extract
    residue class 0 with step w from the inclusion-exclusion polynomial of
    the parts plus w. Only valid for p beyond n."""
    if len(set(parts)) != len(parts) or not all(is_prime(q) for q in parts):
        raise ValueError("parts must be distinct primes")
    n = prod(parts)
    _check_pair(n, p, 1)
    if p < n:
        raise RequiresLargeP(f"need p > n, got p={p}, n={n}")
    w = p % n
    return extract_residue(pseudo_phi(list(parts) + [w]), w, 0)


def fstar_family(n: int, p: int) -> list[IntPolynomial]:
    """The n reduced shifts of member 0: entry j is the representative of
    x^j * member_0 modulo phi(n) with degree below the totient. As a set
    this equals the first n members of the direct family."""
    return list(fstar_shifts(n, p))


def fstar_shifts(n: int, p: int) -> Iterator[IntPolynomial]:
    """The entries of fstar_family(n, p), one at a time, so a caller that
    folds them holds one entry of phi(n)'s degree rather than all n. Bad
    input raises at the call, before any entry is asked for. With m the
    radical of n, phi(n*p) = phi(m*p)(x^(n/m)) and p does not divide n/m,
    so member 0 is f0_fast's for the primes of m at x^(n/m), or 1 at n = 1."""
    _check_pair(n, p, 1)
    if p < n:
        raise RequiresLargeP(f"need p > n, got p={p}, n={n}")
    primes = tuple(q for q, _ in factorize(n))
    f0 = substitute_power(f0_fast(primes, p), n // prod(primes)) if n > 1 else ONE
    return _shifts(f0, phi(n).coeffs, n)


def _shifts(f0: IntPolynomial, base: tuple[int, ...], n: int) -> Iterator[IntPolynomial]:
    # Each shift is one pass over phi(n)'s coefficients: multiply by x,
    # then cancel the degree-tot term by subtracting lead * phi(n).
    yield f0
    tot = len(base) - 1
    cur = list(f0.coeffs) + [0] * (tot - len(f0.coeffs))
    for _ in range(1, n):
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            cur = [c - lead * b for c, b in zip(cur, base)]
        yield IntPolynomial(tuple(cur))


class PeriodicityRelation(Enum):
    Equal = "equal"
    Negated = "negated"
    SubsetForward = "subset-forward"
    NotComparable = "not-comparable"


class PeriodicityComparison(NamedTuple):
    """Observed relation between the coefficient sets for primes s and t
    (ground truth by direct computation), alongside what the congruence
    hypotheses predict (None when no statement applies)."""

    n: int
    s: int
    t: int
    observed: PeriodicityRelation
    predicted: PeriodicityRelation | None
    vset_s: frozenset[int]
    vset_t: frozenset[int]


def periodicity_compare(n: int, s: int, t: int) -> PeriodicityComparison:
    """Compare the coefficient sets of phi(n*s) and phi(n*t) for primes
    s = +/-t (mod n). Each set is read off the packed head of its own
    index (cyclotomic.coefficient_set), never off the reduced shift
    family: that family depends on s only through s mod n, so a check of
    the periodicity theorem built on it would pass by construction."""
    if n < 2 or s == t or not (is_prime(s) and is_prime(t)):
        raise HypothesisViolated("need distinct primes s, t and n >= 2")
    if gcd(n, s) != 1 or gcd(n, t) != 1:
        raise HypothesisViolated("s and t must be coprime to n")
    unsigned = (s - t) % n == 0
    signed = (s + t) % n == 0
    if not (unsigned or signed):
        raise HypothesisViolated(f"{s} is not congruent to +/-{t} mod {n}")

    vs = coefficient_set(n * s)
    vt = coefficient_set(n * t)
    neg_vt = frozenset(-c for c in vt)
    both = vt | neg_vt

    threshold = n - totient(n)
    if unsigned and min(s, t) > threshold:
        predicted = PeriodicityRelation.Equal
        if vs != vt:
            raise RuntimeError("prediction Equal contradicted by direct computation")
    elif signed and min(s, t) > threshold:
        predicted = PeriodicityRelation.Negated
        if vs != neg_vt:
            raise RuntimeError("prediction Negated contradicted by direct computation")
    elif t > threshold:
        predicted = PeriodicityRelation.SubsetForward
        if not vs <= both:
            raise RuntimeError("prediction Subset contradicted by direct computation")
    else:
        predicted = None

    if vs == vt:
        observed = PeriodicityRelation.Equal
    elif vs == neg_vt:
        observed = PeriodicityRelation.Negated
    elif vs < both:
        observed = PeriodicityRelation.SubsetForward
    else:
        observed = PeriodicityRelation.NotComparable
    return PeriodicityComparison(n, s, t, observed, predicted, vs, vt)
