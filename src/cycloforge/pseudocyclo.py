"""Inclusion-exclusion polynomials over pairwise-coprime parts.

For parts p_1..p_k the polynomial is a signed product of binomials
x^d - 1, one binomial per subset of the parts. It is always an honest
integer polynomial (a product of genuine cyclotomics), and when every
part is prime it coincides with the cyclotomic polynomial of the
product. A part equal to 1 collapses the whole product to 1.
"""

from __future__ import annotations

from itertools import combinations, product as cartesian
from math import gcd, prod
from typing import Iterable

from ._numtheory import divisors
from .cyclotomic import head_and_mirror, signed_subset_head, signed_subset_product
from .errors import NotCoprime
from .intpoly import ONE, IntPolynomial


def _canonical(parts: Iterable[int]) -> tuple[int, ...]:
    # Pairwise-coprime parts >= 1, checked in the caller's order and
    # returned sorted, so order can never leak into a result.
    ps = tuple(parts)
    for p in ps:
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"parts must be integers >= 1, got {p!r}")
    for a, b in combinations(ps, 2):
        if gcd(a, b) != 1:
            raise NotCoprime(f"parts {a} and {b} share a common factor")
    return tuple(sorted(ps))


def pseudo_phi(parts: Iterable[int]) -> IntPolynomial:
    """Signed-subset product, from its packed head and the mirror image;
    degree is the product of (p_i - 1)."""
    ps = _canonical(parts)
    if 1 in ps:
        return ONE
    return head_and_mirror(ps, signed_subset_head(ps).coeffs)


def pseudo_psi(parts: Iterable[int]) -> IntPolynomial:
    """Cofactor: pseudo_phi(parts) * pseudo_psi(parts) = x^(product) - 1."""
    ps = _canonical(parts)
    return signed_subset_product(ps, cofactor=True)


def pseudo_factorization(parts: Iterable[int]) -> list[int]:
    """Cyclotomic indices m_1*...*m_k over divisor choices m_i | p_i with
    m_i > 1, sorted ascending. Parts equal to 1 admit no choice at all,
    so they are rejected rather than silently producing an empty list."""
    ps = _canonical(parts)
    if 1 in ps:
        raise ValueError("pseudo_factorization needs every part > 1")
    choices = [[d for d in divisors(p) if d > 1] for p in ps]
    picks = (prod(pick) for pick in cartesian(*choices))
    return sorted(picks)
