"""The packed head kernel (one Python int per head, Kronecker substitution)
against full expansions by the list kernels, and the field widths it takes
from proved height bounds."""

from array import array
from collections import Counter
from itertools import permutations
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from cycloforge import cyclotomic, intpoly
from cycloforge._numtheory import is_prime, primes_up_to
from cycloforge.cyclotomic import PhiAlgorithm, phi, signed_subset_head, signed_subset_product
from cycloforge.domains import coprime_tuples, prime_tuples
from cycloforge.flatness import coefficient_set_of, height_of
from cycloforge.intpoly import coeff_set, poly_height
from cycloforge.pseudocyclo import pseudo_phi

# 40755 = 3*5*11*13*19 has height 359, beyond a signed byte
WIDE = (3, 5, 11, 13, 19)


def _grid():
    # every odd squarefree n <= 30000 of orders 3 and 4, every ninth order-5
    # product up to 2*10^5 (the full expansions take a minute), and 40755
    tuples = [fs for k in (3, 4) for _, fs in prime_tuples(k, 1, 30000)]
    tuples += [fs for _, fs in prime_tuples(5, 1, 200000)][::9]
    return tuples + [WIDE]


GRID = _grid()


def _top(parts):
    plus, minus = cyclotomic._binomials(parts)
    return (sum(plus) - sum(minus)) // 2 + 2


def _width(parts):
    bound = cyclotomic._height_bound(parts, _top(parts))
    return bound, intpoly.field_width(bound)


def _sparse(n):
    return phi(n, PhiAlgorithm.SparseSeries)


@pytest.fixture(scope="module")
def full():
    # height and coefficient set of every grid polynomial, expanded in full
    out = {}
    for fs in GRID:
        f = _sparse(prod(fs))
        out[fs] = poly_height(f), coeff_set(f)
    return out


def test_packed_heads_match_full_phi(full):
    for fs in GRID:
        head = signed_subset_head(fs)
        assert (head.height, {0, *head.coeffs}) == full[fs], fs
    assert len(GRID) > 3000


def test_even_and_square_parts_match_full_phi():
    # a factor of 2 or an even multiplier flips the signs at odd exponents;
    # a repeated prime substitutes x^p, which keeps height and set
    for fs in GRID[:: len(GRID) // 150]:
        n = prod(fs)
        assert coefficient_set_of(fs + (2,)) == coeff_set(_sparse(2 * n)), fs
        assert coefficient_set_of(fs, multiplier=4) == coeff_set(_sparse(4 * n)), fs
        assert height_of(fs, multiplier=fs[0]) == poly_height(_sparse(fs[0] * n)), fs
        assert coefficient_set_of(fs, multiplier=fs[0] * 2) == coeff_set(_sparse(2 * fs[0] * n)), fs
    for n in (2 * 105, 4 * 1155, 2 * 9 * 385, 25 * 3003):
        assert phi(n) == _sparse(n), n


def test_packed_pseudo_heads_match_full_expansion():
    tuples = [parts for _, parts in coprime_tuples(3, 1, 4000)] + [(3, 4, 275), (2, 9, 25, 7)]
    for parts in tuples:
        f = signed_subset_product(parts)
        head = signed_subset_head(parts)
        assert (head.height, {0, *head.coeffs}) == (poly_height(f), coeff_set(f)), parts
    assert any(2 in parts for parts in tuples)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from((0, 1, 2, 3, 7, 8, 31, 127)).flatmap(
        lambda h: st.lists(st.integers(-h, h), min_size=1, max_size=400)
    ),
    st.integers(0, 3),
)
def test_byte_decode_matches_per_coefficient_pass(cs, low):
    # height, value at 1 and set read by byte scans against a pass over
    # every coefficient, on both sides of the counting crossover; then
    # with c = -128, byte 0, which no band drops, put in low times
    height = max(map(abs, cs))
    assert cyclotomic._byte_scan(bytes(c + 128 for c in cs)) == (height, sum(cs))
    assert sorted(cyclotomic._head_values(array("b", cs), height)) == sorted(set(cs))
    cs = [-128] * low + cs[::2] + [-128] * low + cs[1::2]
    want = (max(map(abs, cs)), sum(cs))
    assert cyclotomic._byte_scan(bytes(c + 128 for c in cs)) == want


def test_widths_come_from_the_parts_and_cover_the_height(full):
    seen = {}
    for fs in GRID:
        bound, b = _width(fs)
        assert full[fs][0] <= bound < 1 << (b - 1), fs
        seen[fs] = b
    # the same widths from cold memos and from the parts in any order
    cyclotomic._prefix_sizes.cache_clear()
    for fs in GRID[::97]:
        assert {_width(p)[1] for p in permutations(fs)} == {seen[fs]}, fs
    # Bang's bound keeps every ternary head with p < 128 at one byte
    assert all(b == 8 for fs, b in seen.items() if len(fs) == 3 and fs[0] < 128)
    assert seen[WIDE] == 16
    for _, parts in coprime_tuples(3, 1, 2000):
        bound, b = _width(parts)
        assert poly_height(signed_subset_product(parts)) <= bound < 1 << (b - 1), parts


def test_height_bound_keeps_phis_bounds_below_the_old_majorant():
    # prime parts keep phi's bounds, with or without 2. Every other set of
    # pairwise-coprime parts takes the same rules (height 1 for at most two
    # odd parts, the series bound beyond, a triple of them included) and
    # sits strictly below the any-parts majorant it once took
    def majorant(parts):
        m = 2 ** (len(parts) - 1)
        return 2**m * comb(_top(parts) + m - 1, m - 1)

    phis = {(3, 5): 1, (2, 3, 5): 1, (3, 5, 7): 2, (2, 3, 5, 7): 2, (7, 3, 5): 2}
    for parts, bound in phis.items():
        assert cyclotomic._height_bound(parts, _top(parts)) == bound, parts
    for parts in ((3, 5, 7, 11), (2, 3, 5, 7, 11), WIDE):
        assert cyclotomic._height_bound(parts, _top(parts)) < majorant(parts), parts
    pseudo = {
        (9,): 1, (4, 9): 1, (2, 9, 25): 1, (3, 5, 49): 13, (4, 3, 5): 4,
        (5, 7, 16): 6, (9, 25, 7): 10, (8, 9, 25, 7): 90, (7, 8, 9, 11, 25): 8568,
    }
    for parts, bound in pseudo.items():
        assert cyclotomic._height_bound(parts, _top(parts)) == bound < majorant(parts), parts


def test_every_small_coprime_tuple_takes_a_proved_byte_width():
    # the bound covers the prefix the kernel computes, expanded in full by
    # the list kernel, and every such head fits a byte per field
    count = 0
    for _, parts in coprime_tuples(None, 1, 1000):
        top = _top(parts)
        prefix = signed_subset_product(parts).coeffs[:top]
        assert max(map(abs, prefix)) <= cyclotomic._height_bound(parts, top) < 128, parts
        count += 1
    assert count == 2929


def test_three_odd_primes_take_bangs_bound_alone(monkeypatch):
    # a triple's width comes from Bang's p - 1 alone: its head builds no
    # second head and no cofactor, from cold memos too
    triples = [(3, 5, 7), (7, 5, 3), (2, 3, 5, 7), (101, 103, 107), (3, 5, 28097)]
    full = {parts: signed_subset_product(parts) for parts in triples}

    def raises(*args):
        raise AssertionError("a triple's head built another product")

    cyclotomic._prefix_sizes.cache_clear()
    cyclotomic._phi_default.cache_clear()
    monkeypatch.setattr(cyclotomic, "signed_subset_product", raises)
    monkeypatch.setattr(cyclotomic, "_prefix_sizes", raises)
    for parts in triples:
        assert signed_subset_head(parts).height == poly_height(full[parts]), parts
    assert phi(210) == full[2, 3, 5, 7]


def test_bangs_width_is_the_width_of_the_old_two_bound_minimum():
    # Every prime triple p < q < r with p >= 101 and pqr <= 10^7 once took
    # the smaller of Bang's p - 1 and the residue-class bound, whose C comes
    # from the (p, q) cofactor and A(pq) = 1. Bang's bound alone gives the
    # same width: below 129 both fit a byte, above it the series bound is
    # at least 128.
    limit = 10**7
    primes = [p for p in primes_up_to(limit // (101 * 103)) if p >= 101]
    count = 0
    for i, p in enumerate(primes):
        for j in range(i + 1, len(primes)):
            q = primes[j]
            if p * q * q > limit:
                break
            abs_psi = [abs(v) for v in signed_subset_product((p, q), cofactor=True).coeffs]
            for r in primes[j + 1 :]:
                if p * q * r > limit:
                    break
                top = _top((p, q, r))
                if r >= len(abs_psi):
                    c = max(abs_psi)
                else:
                    c = max(sum(abs_psi[t::r]) for t in range(r))
                series = ((top - 1) // (p * q) + 1) * c
                bang = cyclotomic._height_bound((p, q, r), top)
                assert bang == p - 1
                assert intpoly.field_width(bang) == intpoly.field_width(min(series, bang))
                count += 1
    assert count == 13324


def test_every_pseudo_triple_takes_byte_fields(monkeypatch):
    # the pseudonotflat domain up to 3300: the 209 all-prime triples take
    # Bang's bound, the 144 others the series bound, and all of them one
    # byte per field. The width of each expansion is the last one
    # field_width gave.
    widths = []
    real = cyclotomic.field_width

    def width(bound):
        widths.append(real(bound))
        return widths[-1]

    monkeypatch.setattr(cyclotomic, "field_width", width)
    seen = Counter()
    for _, parts in coprime_tuples(3, 1, 3300, odd_only=True):
        pseudo_phi(parts)
        seen[all(map(is_prime, parts)), widths[-1]] += 1
    assert seen == {(True, 8): 209, (False, 8): 144}


@pytest.fixture
def cold_prefix_sizes():
    # _prefix_sizes caches the heights of packed heads, so a test that
    # patches field_width must leave none of its entries behind
    cyclotomic._prefix_sizes.cache_clear()
    yield
    cyclotomic._prefix_sizes.cache_clear()


def test_field_width_steps():
    assert [intpoly.field_width(v) for v in (0, 127, 128, 2**15, 2**31, 2**63, 2**64)] == [
        8, 8, 16, 32, 64, 128, 128
    ]


def test_wider_than_64_bits_decodes(monkeypatch, cold_prefix_sizes):
    # no proved bound this small needs more than 64 bits, so a forced
    # wider field must leave every head as it was
    f = signed_subset_product((8, 9, 25, 7))
    monkeypatch.setattr(cyclotomic, "field_width", lambda bound: 192)
    assert signed_subset_head((8, 9, 25, 7)).height == poly_height(f) == 13
    assert signed_subset_head(WIDE).height == 359


def test_proved_width_is_load_bearing(monkeypatch, cold_prefix_sizes):
    # one byte per field cannot hold the coefficients of 40755, nor those
    # of the pseudo product over (7, 8, 9, 11, 25), height 196, whose proved
    # width is 16 bits: each wrapped head fails a self-check or reads a
    # different height
    assert _width((7, 8, 9, 11, 25))[1] == 16
    monkeypatch.setattr(cyclotomic, "field_width", lambda bound: 8)
    for parts, height in ((WIDE, 359), ((7, 8, 9, 11, 25), 196)):
        try:
            got = signed_subset_head(parts).height
        except AssertionError:
            continue
        assert got != height, parts
