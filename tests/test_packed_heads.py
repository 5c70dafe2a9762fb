"""The packed head kernel (one Python int per head, Kronecker substitution)
against full expansions by the list kernels, and the field widths it takes
from proved height bounds."""

from array import array
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from cycloforge import cyclotomic, intpoly
from cycloforge.cyclotomic import PhiAlgorithm, phi, signed_subset_head, signed_subset_product
from cycloforge.domains import coprime_tuples, prime_tuples
from cycloforge.flatness import coefficient_set_of, height_of
from cycloforge.intpoly import coeff_set, poly_height

# 40755 = 3*5*11*13*19 has height 359, beyond a signed byte
WIDE = (3, 5, 11, 13, 19)


def _grid():
    # every odd squarefree n <= 30000 of orders 3 and 4, every ninth order-5
    # product up to 2*10^5 (the full expansions take a minute), and 40755
    tuples = [fs for k in (3, 4) for _, fs in prime_tuples(k, 1, 30000)]
    tuples += [fs for _, fs in prime_tuples(5, 1, 200000)][::9]
    return tuples + [WIDE]


GRID = _grid()


def _width(parts, primes):
    plus, minus = cyclotomic._binomials(parts)
    top = (sum(plus) - sum(minus)) // 2 + 2
    bound = cyclotomic._height_bound(parts, primes, top)
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
        head = signed_subset_head(fs, primes=True)
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
        bound, b = _width(fs, True)
        assert full[fs][0] <= bound < 1 << (b - 1), fs
        seen[fs] = b
    # the same widths from cold memos and from the parts in any order
    cyclotomic._prefix_sizes.cache_clear()
    for fs in GRID[::97]:
        assert {_width(p, True)[1] for p in permutations(fs)} == {seen[fs]}, fs
    # Bang's bound keeps every ternary head with p < 128 at one byte
    assert all(b == 8 for fs, b in seen.items() if len(fs) == 3 and fs[0] < 128)
    assert seen[WIDE] == 16
    for _, parts in coprime_tuples(3, 1, 2000):
        bound, b = _width(parts, False)
        assert poly_height(signed_subset_product(parts)) <= bound < 1 << (b - 1), parts


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
    # four coprime parts take the generic bound past 64 bits; a forced
    # wider field must not change any head either
    f = signed_subset_product((8, 9, 25, 7))
    assert _width((8, 9, 25, 7), False)[1] > 64
    assert signed_subset_head((8, 9, 25, 7)).height == poly_height(f)
    monkeypatch.setattr(cyclotomic, "field_width", lambda bound: 192)
    head = signed_subset_head(WIDE, primes=True)
    assert head.height == 359


def test_proved_width_is_load_bearing(monkeypatch, cold_prefix_sizes):
    # one byte per field cannot hold 40755's coefficients: the wrapped head
    # fails a self-check or reads a different height
    monkeypatch.setattr(cyclotomic, "field_width", lambda bound: 8)
    try:
        height = signed_subset_head(WIDE, primes=True).height
    except AssertionError:
        return
    assert height != 359
