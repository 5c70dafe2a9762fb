"""Tests for the two-part grid machinery."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cycloforge._numtheory import primes_up_to
from cycloforge.binary_structure import (
    StaircaseCorner,
    ldiagram_json,
    ldiagram_render,
    staircase_corner,
    staircase_multiple,
)
from cycloforge.cyclotomic import phi
from cycloforge.errors import LOutOfRange, NotCoprime
from cycloforge.fjdecomp import mod_phi_reduce
from cycloforge.intpoly import geometric_series, poly, poly_height, poly_mod_monic, poly_mul
from cycloforge.pseudocyclo import pseudo_phi


def monomial(k, c=1):
    return poly((0,) * k + (c,))


DIAGRAM_5_7 = """\
28 33  3 |  8 13 18 23
21 26 31 |  1  6 11 16
---------+------------
14 19 24 | 29 34  4  9
 7 12 17 | 22 27 32  2
 0  5 10 | 15 20 25 30"""

DIAGRAM_2_3 = """\
3 5 | 1
----+--
0 2 | 4"""


def test_unit_corner_golden():
    assert staircase_corner(3, 5, 1) == StaircaseCorner(3, 5, 1, 2, 2)
    assert staircase_corner(5, 7, 1) == StaircaseCorner(5, 7, 1, 3, 3)
    assert staircase_corner(2, 3, 1) == StaircaseCorner(2, 3, 1, 2, 1)
    with pytest.raises(NotCoprime):
        staircase_corner(4, 6, 1)
    with pytest.raises(ValueError):
        staircase_corner(1, 5, 1)


def test_unit_staircase_golden():
    assert staircase_multiple(3, 5, 1) == phi(15)
    assert staircase_multiple(5, 7, 1) == phi(35)
    assert staircase_multiple(2, 9, 1) == pseudo_phi([2, 9])


def test_binary_phi_matches_pseudo_widely():
    from math import gcd

    pairs = [(p, q) for p in range(2, 30) for q in range(p + 1, 70)
             if gcd(p, q) == 1 and p * q <= 600]
    for p, q in pairs:
        assert staircase_multiple(p, q, 1) == pseudo_phi([p, q]), (p, q)


def test_sign_alternation():
    for p, q in ((3, 5), (5, 7), (2, 9), (11, 13), (4, 9)):
        signs = [c for c in staircase_multiple(p, q, 1).coeffs if c]
        assert signs[0] == 1 and signs[-1] == 1, (p, q)
        assert all(a == -b for a, b in zip(signs, signs[1:])), (p, q)


def test_staircase_golden():
    assert staircase_multiple(3, 5, 2) == poly([1, 0, -1, 1, 0, 0, 1, -1, 0, 1])
    with pytest.raises(LOutOfRange):
        staircase_multiple(3, 5, 8)
    with pytest.raises(LOutOfRange):
        staircase_multiple(3, 5, 0)


def test_staircase_identity_and_flat():
    from math import gcd

    pairs = [(p, q) for p in range(2, 14) for q in range(p + 1, 40)
             if gcd(p, q) == 1 and p * q <= 300]
    cuts = {(a, b): range(1, a + b) for p, q in pairs for a, b in ((p, q), (q, p))}
    # long strided rows, with either part the longer
    cuts[997, 1009] = (1, 1000)
    cuts[1009, 997] = (2005,)
    for (p, q), ls in cuts.items():
        base = pseudo_phi([p, q])
        for l in ls:
            s = staircase_multiple(p, q, l)
            assert s == poly_mul(geometric_series(1, l), base), (p, q, l)
            assert poly_height(s) == 1, (p, q, l)


def test_staircase_corner_q_equiv_1_mod_p():
    # q = kp + 1 forces corner (q - k*l, l) for 1 <= l <= p
    cases = [(3, 7), (3, 13), (5, 11), (4, 9), (7, 29)]
    for p, q in cases:
        k = (q - 1) // p
        for l in range(1, p + 1):
            c = staircase_corner(p, q, l)
            assert (c.mu, c.lam) == (q - k * l, l), (p, q, l)


def test_ldiagram_render_golden():
    assert ldiagram_render(5, 7) == DIAGRAM_5_7
    assert ldiagram_render(2, 3) == DIAGRAM_2_3
    with pytest.raises(NotCoprime):
        ldiagram_render(4, 6)


def test_ldiagram_json():
    d = ldiagram_json(2, 3)
    assert d == {
        "rows": 2,
        "cols": 3,
        "residues": [[0, 2, 4], [3, 5, 1]],
        "mu": 2,
        "lambda": 1,
    }
    json.dumps(d)
    grid = ldiagram_json(5, 7)
    assert grid["residues"][3][3] == 1  # just above-right of both cuts


def test_mod_phi_reduce_golden():
    assert mod_phi_reduce(monomial(3), 15) == monomial(3)
    assert mod_phi_reduce(monomial(8), 15) == poly([-1, 1, 0, -1, 1, -1, 0, 1])
    # x^-1 is x^14 modulo phi(15), since x^15 = 1 there
    want = poly_mod_monic(monomial(14), phi(15))
    assert mod_phi_reduce(monomial((-1) % 15), 15) == want
    with pytest.raises(ValueError):
        mod_phi_reduce(monomial(1), 1)


def test_mod_phi_reduce_matches_long_division():
    # folding exponents mod n, against the long division of all of phi(np)
    for n in range(2, 61):
        for p in primes_up_to(100):
            if n % p:
                f = phi(n * p)
                assert mod_phi_reduce(f, n) == poly_mod_monic(f, phi(n)), (n, p)


def test_mod_phi_reduce_properties():
    f = poly([3, -2, 0, 0, 5, 1, 0, 0, 0, 0, 0, 7])
    r = mod_phi_reduce(f, 15)
    assert r.degree < phi(15).degree
    assert mod_phi_reduce(r, 15) == r
    # multiplying by x^n changes nothing mod phi(n)
    assert mod_phi_reduce(poly_mul(monomial(15), f), 15) == r
    assert mod_phi_reduce(poly_mul(monomial(30), f), 15) == r


def test_mod_phi_reduce_monomials_flat():
    for p, q in ((3, 5), (3, 7), (5, 7), (5, 11), (7, 13)):
        n = p * q
        for k in range(0, 2 * n, 7):
            r = mod_phi_reduce(monomial(k), n)
            assert poly_height(r) <= 1, (n, k)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_reduce_respects_period(k):
    r1 = mod_phi_reduce(monomial(k), 21)
    r2 = mod_phi_reduce(monomial(k + 21), 21)
    assert r1 == r2
