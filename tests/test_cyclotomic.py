"""Tests for the four cyclotomic algorithms and the classical reductions."""

import os
import subprocess
import sys
from itertools import combinations
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cycloforge import cyclotomic
from cycloforge._numtheory import factorize, is_prime, primes_up_to, totient
from cycloforge.cyclotomic import (
    GCD_ALG_LIMIT,
    PhiAlgorithm,
    coefficient_set,
    div_xd_minus_1,
    phi,
    poly_gcd_int,
    psi,
    signed_subset_head,
    signed_subset_product,
)
from cycloforge.domains import coprime_tuples
from cycloforge.errors import RemainderNonzero
from cycloforge.flatness import height_of, scan
from cycloforge.intpoly import (
    coeff_set,
    long_divide,
    poly,
    poly_height,
    poly_mul,
    substitute_power,
)
from cycloforge.pseudocyclo import pseudo_phi


def _at_neg_x(a):
    # a(-x): the odd coefficients change sign
    return poly(-c if i & 1 else c for i, c in enumerate(a.coeffs))


PHI35 = poly(
    [1, -1, 0, 0, 0, 1, -1, 1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1, -1, 1, 0, 0, 0, -1, 1]
)

ALL_ALGS = list(PhiAlgorithm)


def test_cyclo_index():
    assert factorize(60) == ((2, 2), (3, 1), (5, 1))
    assert factorize(1) == ()
    with pytest.raises(ValueError):
        factorize(0)


def test_is_prime_matches_the_sieve():
    assert [n for n in range(-5, 10**5) if is_prime(n)] == primes_up_to(10**5)
    # 41^2, 41*43, the least strong pseudoprime to base 2, and the least
    # to bases 2, 3, 5 and 7; then a Mersenne prime
    for n in (1681, 1763, 2047, 3_215_031_751):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1)


def test_radical_reduce():
    # every route computes phi(n) as phi of the radical m at x^(n/m)
    for alg in (None, *ALL_ALGS):
        assert phi(12, alg) == substitute_power(phi(6, alg), 2)
        assert phi(8, alg) == substitute_power(phi(2, alg), 4)
        assert phi(315, alg) == substitute_power(phi(105, alg), 3)
        assert phi(60, alg) == substitute_power(phi(30, alg), 2)
        assert phi(1, alg) == poly([-1, 1])
        with pytest.raises(ValueError, match="n must be positive"):
            phi(0, alg)
    assert psi(12) == substitute_power(psi(6), 2)
    assert psi(1) == poly([1])


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
    # a name is none of the four
    with pytest.raises(ValueError, match="unknown algorithm 'sparse'"):
        phi(5, "sparse")


def test_mobius_matches_sparse_grid():
    # the inclusion-exclusion route against the sparse series, squarefree
    # or not, up to order 5, and the gcd route within its limit
    for m in [*range(1, 700), 1155, 2310, 3003, 4199, 5005, 15015, 45045]:
        mobius = phi(m, PhiAlgorithm.MobiusProduct)
        assert mobius == phi(m, PhiAlgorithm.SparseSeries), m
        if m <= GCD_ALG_LIMIT:
            assert mobius == phi(m, PhiAlgorithm.GcdOfSparse), m


@pytest.mark.parametrize(
    "g, u, v, expect",
    [
        ([1, 2], [3, 1], [-1, 1], [1, 2]),  # lc 2
        ([-1, -2], [3, 1], [-1, 1], [1, 2]),  # negated: the gcd's lc is positive
        ([-2, 3], [1, 0, 1], [5, 1], [-2, 3]),  # lc 3
        ([3, 0, 2], [1, 1, 0, 5], [-1, 3], [3, 0, 2]),  # lc 2, degrees 5 and 3
        ([1, 1, 1], [-2, 1], [-1], [1, 1, 1]),  # divisor with lc -1
        ([6, 6], [2, 1], [4], [1, 1]),  # contents 6 and 24 drop out
        ([1], [1, 2], [1, 3], [1]),  # coprime, both non-monic
    ],
)
def test_gcd_of_non_monic_divisors(g, u, v, expect):
    a = list(poly_mul(poly(g), poly(u)).coeffs)
    b = list(poly_mul(poly(g), poly(v)).coeffs)
    assert poly_gcd_int(a, b) == expect
    assert poly_gcd_int(b, a) == expect


def test_inexact_pseudo_division_raises():
    # x^2 + 1 by 2x + 1 needs the dividend scaled by 2^2 first
    with pytest.raises(RemainderNonzero):
        long_divide([1, 0, 1], [1, 2])
    rem = [4, 0, 4]
    assert long_divide(rem, [1, 2]) == [-1, 2]
    assert rem[:1] == [5]


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
            assert p.coeffs == p.coeffs[::-1], n
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
            assert phi(2 * n) == _at_neg_x(phi(n)), n


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


def _squarefree(n):
    return all(e == 1 for _, e in factorize(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=600).filter(_squarefree))
def test_three_way_differential(n):
    a = phi(n, PhiAlgorithm.MobiusProduct)
    assert phi(n, PhiAlgorithm.RecursiveQuotient) == a
    assert phi(n, PhiAlgorithm.SparseSeries) == a


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=1000))
def test_default_matches_mobius(n):
    assert phi(n) == phi(n, PhiAlgorithm.MobiusProduct)


@pytest.fixture
def cold_memos():
    # the default-phi and coefficient-set memos start empty, and a test that
    # breaks a kernel leaves no wrong entry in them for the tests after
    memos = (cyclotomic._phi_default, cyclotomic.coefficient_set)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_phi_head_matches_full_expansion(cold_memos):
    # default phi, the packed head and its mirror, against the sparse series
    # and the inclusion-exclusion product: every n <= 1000 and orders up to
    # 6, with factors of 2 and square parts, from an empty memo
    ns = [*range(1, 1001), 1155, 2310, 3003, 4199, 5005, 15015, 45045, 2 * 3 * 5 * 7 * 11 * 13]
    for n in ns:
        f = phi(n)
        assert f == phi(n, PhiAlgorithm.SparseSeries), n
        assert f == phi(n, PhiAlgorithm.MobiusProduct), n


def test_coefficient_set_matches_full_expansion(cold_memos):
    # the set read off the packed head against the sparse series, for every
    # m <= 1000: even m, square parts, phi(1) and phi(2) included; then
    # even and odd n of order 4 and 5, and 40755 = 3*5*11*13*19, whose
    # height 359 takes the head past one byte per field
    for m in [*range(1, 1001), 15015, 2 * 15015, 4 * 3 * 5 * 7 * 11, 40755, 2 * 40755]:
        assert coefficient_set(m) == coeff_set(phi(m, PhiAlgorithm.SparseSeries)), m
    assert coefficient_set(1) == {-1, 0, 1} and coefficient_set(4) == {0, 1}
    with pytest.raises(ValueError):
        coefficient_set(0)


def _coprime(parts):
    return all(gcd(a, b) == 1 for a, b in combinations(parts, 2))


def test_signed_subset_head_matches_full_expansion():
    # pseudo_phi, the packed head and its mirror, against the list kernel:
    # every coprime tuple with product <= 1000, and tuples with a part 2,
    # prime powers and composite parts, including (3, 4, 275), whose long
    # periods exceed the head's length
    pool = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 275]
    tuples = [parts for _, parts in coprime_tuples(None, 1, 1000)] + [(3, 4, 275)]
    for k in (1, 2, 3):
        tuples += [c for c in combinations(pool, k) if _coprime(c) and prod(c) <= 20000]
    tuples += [(2, 3, 5, 7), (3, 4, 5, 7), (4, 9, 5, 7), (8, 9, 25, 7)]
    for parts in tuples:
        f = signed_subset_product(parts)
        assert pseudo_phi(parts) == f, parts
        assert signed_subset_head(parts).height == poly_height(f), parts
    assert len(tuples) > 2000


def test_series_accumulate_both_passes():
    # c * (1 + x^d + x^2d + ...) truncated, for periods on both sides of the
    # switch between the residue and the block pass
    base = [(7 * i * i + 3 * i) % 11 - 5 for i in range(400)]
    for d in (1, 2, 3, 7, 12, 13, 20, 64, 199, 399, 400, 1000):
        got = list(base)
        cyclotomic._series_accumulate(got, d)
        want = [sum(base[j] for j in range(i % d, i + 1, d)) for i in range(len(base))]
        assert got == want, d


def test_div_xd_minus_1_checks_its_remainder():
    # (x + 2)(x^3 - 1) divides; a dividend below degree d and x^4 + 1 do not
    assert div_xd_minus_1([-2, -1, 0, 2, 1], 3) == [2, 1]
    assert div_xd_minus_1([], 3) == []
    with pytest.raises(RemainderNonzero, match="degree too small"):
        div_xd_minus_1([1], 3)
    with pytest.raises(RemainderNonzero, match="does not divide"):
        div_xd_minus_1([1, 0, 0, 0, 1], 3)


# Broken versions of the packed kernel's step x / (1 - x^e): one that does
# nothing, and one that adds 1 to the field before the last after the real
# step.


def _noop(x, e, b, top, mask):
    return x


def _last_off(x, e, b, top, mask):
    return _REAL_OVER(x, e, b, top, mask) + (1 << b * (top - 2))


_REAL_OVER = cyclotomic._over_binomial


@pytest.mark.parametrize("broken", [_noop, _last_off])
def test_truncated_series_self_check_fires(monkeypatch, cold_memos, broken):
    monkeypatch.setattr(cyclotomic, "_over_binomial", broken)
    for n in (35, 303, 1155):
        with pytest.raises(AssertionError, match="truncated series"):
            phi(n)
    for parts in ((3, 4, 275), (4, 9, 25)):
        with pytest.raises(AssertionError, match="truncated series"):
            signed_subset_head(parts)


def test_truncated_series_mirror_check(monkeypatch, cold_memos):
    # a series step that does nothing leaves phi(15)'s head lopsided
    monkeypatch.setattr(cyclotomic, "_over_binomial", _noop)
    with pytest.raises(AssertionError, match="not palindromic"):
        phi(15)


def test_gcd_route_self_check_fires(monkeypatch):
    # twice phi is a gcd up to a unit of Q[x] but not the monic one
    real = cyclotomic.generator_gcd
    monkeypatch.setattr(cyclotomic, "generator_gcd", lambda parts: [2 * c for c in real(parts)])
    for n in (7, 15, 105, 210):
        with pytest.raises(RemainderNonzero, match="^gcd route produced a non-monic result$"):
            phi(n, PhiAlgorithm.GcdOfSparse)


def test_self_checks_survive_python_O():
    # the self-checks raise AssertionError themselves, so -O keeps them
    script = (
        "import sys\n"
        "from cycloforge import cyclotomic as c\n"
        "real = c._over_binomial\n"
        "def last_off(x, e, b, top, mask):\n"
        "    return real(x, e, b, top, mask) + (1 << b * (top - 2))\n"
        "c._over_binomial = last_off\n"
        "c._series_accumulate = lambda c_, period: None\n"
        "for call in (lambda: c.phi(35), lambda: c.phi(35, c.PhiAlgorithm.SparseSeries)):\n"
        "    try:\n"
        "        call()\n"
        "    except AssertionError as exc:\n"
        "        print(exc)\n"
        "print(sys.flags.optimize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cyclotomic.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    want = "truncated series has the wrong value at 1\nsparse series lost the leading term\n1\n"
    assert (out.returncode, out.stdout, out.stderr) == (0, want, "")


def test_default_routes_never_run_the_sparse_oracle(monkeypatch, cold_memos):
    # default phi at orders 3-6, a scan's heads, a big-top-prime height and
    # psi take their field widths and cofactors from inclusion-exclusion,
    # never from the sparse series they are diffed against
    def no_sparse_step(*args):
        raise AssertionError("a default route ran the sparse series")

    monkeypatch.setattr(cyclotomic, "_sparse_step", no_sparse_step)
    cyclotomic._prefix_sizes.cache_clear()
    for n in (105, 1155, 15015, 255255):
        phi(n)
    scan("pqrsallflat", 3000)
    height_of((3, 5, 7, 28097))
    psi(15015)
    assert cyclotomic._prefix_sizes.cache_info().currsize > 0
    with pytest.raises(AssertionError, match="sparse series"):
        phi(1155, PhiAlgorithm.SparseSeries)


def _cold(f, n):
    cyclotomic._prefix_sizes.cache_clear()
    cyclotomic._phi_default.cache_clear()
    return f(n)


def test_cold_and_warm_memo_agree(cold_memos):
    # orders 4-6, each with and without a factor 2, except that order 6
    # stops at the odd 255255 (psi(510510) alone takes about 15 s) and
    # skips the sparse series (its top step to 255255 takes 3 s)
    ns = [*range(1, 800), 1155, 2310, 15015, 30030, 255255]
    cold = {n: _cold(phi, n) for n in ns}
    cold_psi = {n: _cold(psi, n) for n in ns}
    cyclotomic._phi_default.cache_clear()
    for n in ns:
        assert phi(n) == cold[n], n
        assert psi(n) == cold_psi[n], n
        if n < 255255:
            # the explicit sparse series, on the prefixes the smaller n left
            assert phi(n, PhiAlgorithm.SparseSeries) == cold[n], n
