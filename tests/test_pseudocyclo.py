"""Tests for inclusion-exclusion polynomials."""

from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from cycloforge._numtheory import primes_up_to
from cycloforge.cyclotomic import phi
from cycloforge.errors import NotCoprime
from cycloforge.intpoly import (
    geometric_series,
    poly,
    poly_exact_div,
    poly_height,
    poly_mul,
    substitute_power,
)
from cycloforge.pseudocyclo import (
    pseudo_factorization,
    pseudo_phi,
    pseudo_psi,
)


def xn_minus_1(n):
    return poly([-1] + [0] * (n - 1) + [1])


def test_parts_validation():
    for build in (pseudo_phi, pseudo_psi, pseudo_factorization):
        build((2, 9, 5))
        with pytest.raises(NotCoprime, match="parts 6 and 9 share a common factor"):
            build((6, 9))
        with pytest.raises(ValueError, match="parts must be integers >= 1, got 0"):
            build((0, 3))


def test_pseudo_phi_golden():
    assert pseudo_phi([7]) == poly([1] * 7)
    assert pseudo_phi([2]) == poly([1, 1])  # degree 1: the head is the middle
    assert pseudo_phi([4, 1]) == poly([1])
    assert pseudo_phi([2, 9]) == poly_mul(phi(6), phi(18))
    # direct binomial-quotient oracle for the same value
    num = poly_mul(xn_minus_1(18), xn_minus_1(1))
    den = poly_mul(xn_minus_1(2), xn_minus_1(9))
    assert pseudo_phi([2, 9]) == poly_exact_div(num, den)


def test_pseudo_phi_order_blind():
    assert pseudo_phi([9, 2]) == pseudo_phi([2, 9])
    assert pseudo_phi((5, 4, 3)) == pseudo_phi((3, 4, 5))


def test_pseudo_psi_golden():
    assert pseudo_psi([2, 3]) == poly([-1, -1, 0, 1, 1])
    assert pseudo_psi([5]) == poly([-1, 1])
    assert pseudo_psi([2, 9]) == poly_exact_div(xn_minus_1(18), pseudo_phi([2, 9]))


def test_pseudo_psi_part_one():
    assert pseudo_psi([4, 1]) == xn_minus_1(4)


def test_phi_psi_complement():
    for parts in ([3], [4], [2, 9], [4, 9], [3, 4, 5], [2, 3, 25]):
        n = prod(parts)
        assert poly_mul(pseudo_phi(parts), pseudo_psi(parts)) == xn_minus_1(n), parts


def test_prime_parts_recover_cyclotomic():
    primes = primes_up_to(60)
    pairs = [(p, q) for p in primes for q in primes if p < q and p * q <= 3000]
    for p, q in pairs:
        assert pseudo_phi([p, q]) == phi(p * q), (p, q)
    for trip in ((2, 3, 5), (2, 3, 7), (3, 5, 7), (2, 5, 7), (2, 3, 11)):
        assert pseudo_phi(list(trip)) == phi(prod(trip)), trip


def test_factorization_golden():
    assert pseudo_factorization([3, 5]) == [15]
    assert pseudo_factorization([2, 9]) == [6, 18]
    assert pseudo_factorization([4, 9]) == [6, 12, 18, 36]
    with pytest.raises(ValueError):
        pseudo_factorization([4, 1])


def test_factorization_product_identity():
    tuples = [
        [4],
        [9],
        [2, 9],
        [4, 9],
        [8, 3],
        [4, 25],
        [2, 3, 25],
        [3, 4, 5],
        [2, 9, 25],
    ]
    for parts in tuples:
        assert prod(parts) <= 1000
        acc = poly([1])
        for m in pseudo_factorization(parts):
            acc = poly_mul(acc, phi(m))
        assert acc == pseudo_phi(parts), parts


def test_degree_and_values():
    for parts in ([3], [4], [2, 9], [4, 9], [3, 4, 5], [7, 8]):
        f = pseudo_phi(parts)
        assert f.degree == prod(p - 1 for p in parts), parts
        assert f.coeff(0) == 1, parts
        if len(parts) > 1:
            assert f(1) == 1, parts
    assert pseudo_phi([4])(1) == 4
    assert pseudo_phi([7])(1) == 7


def test_gcd_characterization():
    from cycloforge.cyclotomic import generator_gcd, poly_gcd_int

    for parts in ([2, 9], [4, 9], [3, 4, 5], [8, 9], [5, 6]):
        n = prod(parts)
        gens = [
            list(substitute_power(geometric_series(1, p), n // p).coeffs)
            for p in parts
        ]
        g = gens[0]
        for h in gens[1:]:
            g = poly_gcd_int(g, h)
        assert poly(g) == pseudo_phi(parts), parts
        assert generator_gcd(parts) == g, parts


def test_flatness_small_sample():
    # coprime triple with r = +/-1 mod pq stays height 1; the +/-2 case
    # turns on q = 1 mod p
    assert poly_height(pseudo_phi([4, 9, 37])) == 1  # 37 = 36 + 1
    assert poly_height(pseudo_phi([4, 9, 35])) == 1  # 35 = 36 - 1
    assert poly_height(pseudo_phi([9, 25, 227])) == 2  # r = 2 mod 225, 25 != 1 mod 9
    assert poly_height(pseudo_phi([3, 25, 77])) == 1  # r = 2 mod 75, 25 = 1 mod 3


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=40), min_size=1, max_size=3))
def test_complement_property(parts):
    if any(gcd(a, b) != 1 for i, a in enumerate(parts) for b in parts[i + 1 :]):
        with pytest.raises(NotCoprime):
            pseudo_phi(tuple(parts))
        return
    n = prod(parts)
    if n > 4000:
        return
    assert poly_mul(pseudo_phi(parts), pseudo_psi(parts)) == xn_minus_1(n)
