"""Tests for the four cyclotomic algorithms and the classical reductions."""

import pytest
from hypothesis import given, settings, strategies as st

from cycloforge._numtheory import mobius, totient
from cycloforge.cyclotomic import (
    CycloIndex,
    PhiAlgorithm,
    phi,
    psi,
    radical_reduce,
)
from cycloforge.intpoly import (
    is_reciprocal,
    poly,
    poly_height,
    poly_mul,
    substitute_neg,
    substitute_power,
)

PHI35 = poly(
    [1, -1, 0, 0, 0, 1, -1, 1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1, -1, 1, 0, 0, 0, -1, 1]
)

ALL_ALGS = list(PhiAlgorithm)


def test_cyclo_index():
    ix = CycloIndex.of(60)
    assert ix.prime_factorization == ((2, 2), (3, 1), (5, 1))
    assert ix.radical == 30
    assert ix.odd_part_order == 2
    assert CycloIndex.of(1).radical == 1
    with pytest.raises(ValueError):
        CycloIndex.of(0)


def test_radical_reduce():
    assert radical_reduce(12) == (6, 2)
    assert radical_reduce(105) == (105, 1)
    assert radical_reduce(1) == (1, 1)
    assert radical_reduce(8) == (2, 4)


def test_phi_small_golden():
    assert phi(1) == poly([-1, 1])
    assert phi(2) == poly([1, 1])
    assert phi(5) == poly([1, 1, 1, 1, 1])
    assert phi(6) == poly([1, -1, 1])
    assert phi(12) == poly([1, 0, -1, 0, 1])
    assert phi(35) == PHI35


def test_phi_105_coefficient():
    p = phi(105)
    assert p.coeff(7) == -2
    assert poly_height(p) == 2


def test_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        phi(0)
    with pytest.raises(ValueError):
        phi(-3)


def test_psi_golden():
    assert psi(1) == poly([1])
    assert psi(7) == poly([-1, 1])
    assert psi(15) == poly([-1, -1, -1, 0, 0, 1, 1, 1])


def test_phi_times_psi_is_xn_minus_1():
    for n in (1, 2, 9, 15, 24, 105, 128, 210):
        expect = poly([-1] + [0] * (n - 1) + [1])
        assert poly_mul(phi(n), psi(n)) == expect, n


def test_four_algorithms_agree_sample():
    for n in (2, 3, 4, 6, 15, 21, 30, 36, 105, 255, 385, 770, 1001):
        results = {alg: phi(n, alg) for alg in ALL_ALGS}
        vals = list(results.values())
        assert all(v == vals[0] for v in vals), n


def test_mobius_matches_sparse_grid():
    # the inclusion-exclusion route against the sparse series, squarefree
    # or not, up to order 5
    for m in [*range(1, 700), 1155, 2310, 3003, 4199, 5005, 15015, 45045]:
        mobius = phi(m, PhiAlgorithm.MobiusProduct)
        assert mobius == phi(m, PhiAlgorithm.SparseSeries), m


def test_gcd_alg_limit():
    with pytest.raises(ValueError):
        phi(5001, PhiAlgorithm.GcdOfSparse)


def test_degree_and_structure():
    for n in range(1, 200):
        p = phi(n)
        assert p.degree == totient(n), n
        assert p.coeffs[-1] == 1, n
        if n > 1:
            assert p.coeff(0) == 1, n
            assert is_reciprocal(p), n
        q = psi(n)
        assert q.degree == n - totient(n), n
        if n > 1:
            assert q.coeff(0) == -1, n


def test_value_at_one():
    # p at prime powers, 0 at n=1, 1 otherwise
    assert phi(1)(1) == 0
    for n, expect in ((2, 2), (9, 3), (8, 2), (49, 7), (6, 1), (15, 1), (100, 1)):
        assert phi(n)(1) == expect, n


def test_even_doubling_rule():
    for n in range(3, 402, 2):
        if n > 1:
            assert phi(2 * n) == substitute_neg(phi(n)), n


def test_divisor_product_identity():
    # full coefficient identity on a subrange
    from cycloforge._numtheory import divisors

    for n in list(range(1, 120)) + [144, 210, 256, 360]:
        prod = poly([1])
        for d in divisors(n):
            prod = poly_mul(prod, phi(d))
        assert prod == poly([-1] + [0] * (n - 1) + [1]), n


def test_divisor_product_projection():
    # exact bigint projection at x=2 over a wide range
    from cycloforge._numtheory import divisors

    for n in range(1, 1001):
        acc = 1
        for d in divisors(n):
            acc *= phi(d)(2)
        assert acc == 2**n - 1, n


def test_coprime_substitution_chain():
    # phi_m(x^k) equals the product of phi_(m d) over divisors d of k
    from cycloforge._numtheory import divisors
    from math import gcd

    cases = [(m, k) for m in (3, 5, 7, 15) for k in (2, 4, 6, 8, 9) if gcd(m, k) == 1]
    for m, k in cases:
        lhs = substitute_power(phi(m), k)
        rhs = poly([1])
        for d in divisors(k):
            rhs = poly_mul(rhs, phi(m * d))
        assert lhs == rhs, (m, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=600).filter(lambda n: mobius(n) != 0))
def test_three_way_differential(n):
    a = phi(n, PhiAlgorithm.MobiusProduct)
    assert phi(n, PhiAlgorithm.RecursiveQuotient) == a
    assert phi(n, PhiAlgorithm.SparseSeries) == a


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=1000))
def test_default_matches_mobius(n):
    assert phi(n) == phi(n, PhiAlgorithm.MobiusProduct)
