"""Unit tests for the dense integer polynomial substrate.

Expected values below are frozen by hand (small products and quotients
worked out independently) before the implementation was written.
"""

import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from cycloforge import intpoly
from cycloforge.errors import DivisionByZero, IndexOutOfRange, RemainderNonzero
from cycloforge.intpoly import (
    NEG_INF,
    ONE,
    ZERO,
    IntPolynomial,
    coeff_set,
    extract_residue,
    field_width,
    geometric_series,
    poly,
    poly_add,
    poly_exact_div,
    poly_height,
    poly_mod_monic,
    poly_mul,
    poly_mul_power,
    poly_mul_scalar,
    poly_sub,
    substitute_power,
    to_json_coeffs,
    to_text,
    write_text,
)

# Hand-checked reference polynomials used across the suite.
PHI15 = poly([1, -1, 0, 1, -1, 1, 0, -1, 1])
PSI15 = poly([-1, -1, -1, 0, 0, 1, 1, 1])
PHI35 = poly(
    [1, -1, 0, 0, 0, 1, -1, 1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1, -1, 1, 0, 0, 0, -1, 1]
)


def monomial(k, c=1):
    return poly((0,) * k + (c,))


def test_trimming_and_degree():
    assert poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert poly([]).degree == NEG_INF
    assert poly([0, 0]).degree == NEG_INF
    assert poly([5]).degree == 0
    assert PHI15.degree == 8
    assert NEG_INF < -(10**30)


_TRAILING = st.tuples(
    st.lists(st.integers(-(10**20), 10**20), max_size=8), st.integers(0, 3)
).map(lambda t: t[0] + [0] * t[1])


def _trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@given(_TRAILING, _TRAILING)
def test_value_semantics(xs, ys):
    want = _trimmed(xs)
    built = [IntPolynomial(xs), IntPolynomial(tuple(xs)), IntPolynomial(c for c in xs)]
    assert [type(p.coeffs) for p in built] == [tuple] * 3
    assert [p.coeffs for p in built] == [want] * 3
    p, q = built[0], IntPolynomial(ys)
    assert {hash(b) for b in built} == {hash((want,))}
    assert (p == q) == ((want,) == (_trimmed(ys),))
    assert (p != q) == (not p == q)
    assert p != want and want != p and p.__eq__(want) is NotImplemented
    assert repr(p) == f"IntPolynomial({list(want)})"
    for name in ("coeffs", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())
        with pytest.raises(AttributeError):
            delattr(p, name)
    for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert type(twin) is IntPolynomial
        assert twin == p and twin.coeffs == want


def test_zero_and_one():
    assert (ZERO.coeffs, ONE.coeffs) == ((), (1,))
    assert (repr(ZERO), repr(ONE)) == ("IntPolynomial([])", "IntPolynomial([1])")
    assert IntPolynomial() == ZERO and not ZERO and ONE
    assert not hasattr(IntPolynomial((1,)), "__dict__")


def test_add():
    assert poly_add(poly([1, 1]), poly([1, -1])) == poly([2])
    assert poly_add(ZERO, PHI15) == PHI15
    assert poly_add(poly([-1, 0, 0, 1]), poly([1])) == monomial(3)


def test_sub():
    assert poly_sub(poly([1, 1]), poly([1, 1])) == ZERO
    assert poly_sub(poly([1]), poly([0, 1])) == poly([1, -1])


def test_mul():
    assert poly_mul(poly([-1, 1]), poly([1, 1, 1])) == poly([-1, 0, 0, 1])
    assert poly_mul(poly([1, 1]), poly([1, -1])) == poly([1, 0, -1])
    x15_minus_1 = poly([-1] + [0] * 14 + [1])
    assert poly_mul(PHI15, PSI15) == x15_minus_1
    assert poly_mul(ZERO, PHI15) == ZERO


def _convolve(xs, ys):
    # the schoolbook double loop, the reference the packed product must equal
    out = [0] * max(0, len(xs) + len(ys) - 1)
    ys_nonzero = [(j, v) for j, v in enumerate(ys) if v]
    for i, c in enumerate(xs):
        if c:
            for j, v in ys_nonzero:
                out[i + j] += c * v
    return poly(out)


def _mul_cases():
    rng = random.Random(10)
    cases = []
    # random dense operands of every field width, up to coefficients past 2^64
    for height in (1, 9, 127, 2**10, 2**20, 2**40, 2**62, 2**64 + 3, 2**100):
        for la, lb in ((1, 1), (3, 40), (25, 25), (1, 60), (300, 2)):
            xs = [rng.randint(-height, height) for _ in range(la)]
            ys = [rng.randint(-height, height) for _ in range(lb)]
            cases.append((poly(xs), poly(ys)))
    # t equal terms times t ones: the middle coefficient is the proved bound,
    # exactly +-(2^(b-1) - 1), the edge of a b-bit field, for b = 8, 16, 64
    for b, t in ((8, 127), (16, 7), (64, 7)):
        edge = 2 ** (b - 1) - 1
        for c in (edge // t, -(edge // t)):
            cases.append((poly([c] * t), poly([1] * t)))
    # coefficients at the edge of a field and one past, in sparse operands
    for b in (8, 16, 32, 64, 128):
        edge = 2 ** (b - 1) - 1
        for c in (edge, -edge, edge + 1, -edge - 1):
            cases.append((monomial(2, c), poly([1, 0, -1])))
            cases.append((poly([c, 0, 0, c]), poly([-1])))
    # zero, length-1 and sparse operands, and very unequal lengths
    cases += [(ZERO, PHI35), (PHI35, ZERO), (ONE, PHI35), (poly([-3]), poly([5]))]
    cases += [(monomial(1), PHI35), (PHI35, monomial(1)), (monomial(0, -1), monomial(7, 2))]
    cases += [
        (geometric_series(p, mu), geometric_series(q, lam))
        for p, q, mu, lam in ((3, 5, 2, 4), (7, 11, 6, 1), (13, 17, 9, 12), (101, 103, 50, 77))
    ]
    cases += [(geometric_series(1, 40), geometric_series(1, 40)), (poly([1, 0, -1]), PHI35)]
    # geometric series with coprime steps: far fewer pairs of terms than
    # product coefficients, so most fields of the packed product are zero
    cases.append((geometric_series(997, 500), geometric_series(1009, 495)))
    cases.append((poly([rng.randint(-5, 5) for _ in range(2000)]), poly([1, -2, 1])))
    cases.append((poly([1, -1]), poly([rng.randint(-(2**70), 2**70) for _ in range(500)])))
    return cases


def _packed_width(a, b):
    # the field width poly_mul packs at
    ta, tb = len(a.coeffs) - a.coeffs.count(0), len(b.coeffs) - b.coeffs.count(0)
    return field_width(min(ta, tb) * poly_height(a) * poly_height(b))


def test_mul_matches_schoolbook_convolution():
    widths = set()
    for a, b in _mul_cases():
        assert poly_mul(a, b) == _convolve(a.coeffs, b.coeffs), (a, b)
        if a and b:
            widths.add(_packed_width(a, b))
    # the packed product runs at every width step
    assert {8, 16, 32, 64, 128, 192} <= widths


def test_codec_round_trips_field_edges():
    for b in (8, 16, 32, 64, 128, 192):
        edge = 2 ** (b - 1) - 1
        xs = [edge, -edge, -edge - 1, 0, 1, -1, edge]
        assert list(intpoly.unpack(intpoly._pack(xs, b), b, len(xs))) == xs


def test_mul_width_is_load_bearing(monkeypatch):
    # one byte per field cannot hold 300: the value at 1 catches the wrap
    monkeypatch.setattr(intpoly, "field_width", lambda bound: 8)
    assert poly_mul(poly([1, 100]), poly([1, 1])) == poly([1, 101, 100])
    with pytest.raises(AssertionError):
        poly_mul(poly([1, 100]), poly([1, 3]))


def test_exact_div():
    assert poly_exact_div(poly([-1, 0, 0, 0, 0, 0, 1]), poly([-1, 0, 1])) == poly(
        [1, 0, 1, 0, 1]
    )
    num = poly_mul(poly([-1] + [0] * 14 + [1]), poly([-1, 1]))
    den = poly_mul(poly([-1, 0, 0, 1]), poly([-1, 0, 0, 0, 0, 1]))
    assert poly_exact_div(num, den) == PHI15
    with pytest.raises(RemainderNonzero):
        poly_exact_div(poly([1, 0, 1]), poly([1, 1]))
    with pytest.raises(RemainderNonzero):
        poly_exact_div(poly([0, 1]), poly([2]))


def test_mod_monic():
    # x^8 mod PHI15 has degree < 8 and differs from x^8 by one multiple.
    r = poly_mod_monic(monomial(8), PHI15)
    assert r == poly([-1, 1, 0, -1, 1, -1, 0, 1])
    assert poly_mod_monic(monomial(3), PHI15) == monomial(3)


def test_division_front_ends_errors():
    for divide in (poly_exact_div, poly_mod_monic):
        with pytest.raises(DivisionByZero):
            divide(poly([1, 1]), ZERO)
    with pytest.raises(RemainderNonzero):
        poly_exact_div(poly([1, 1]), poly([1, 1, 1]))
    with pytest.raises(ValueError):
        poly_mod_monic(poly([1, 2, 3]), poly([1, 2]))
    with pytest.raises(ValueError):
        poly_mod_monic(poly([1]), poly([1, 0, 2]))


def test_division_front_ends_agree():
    # a = q*b + r with deg r < deg b: exact division of a - r recovers q and
    # the monic remainder of a recovers r, for dense and sparse divisors
    sparse = [poly([-1] + [0] * 9 + [1]), poly([5, 0, 0, 0, 0, 0, 1])]
    quotients = [poly([3, -1, 0, 2]), PSI15, monomial(20, -7), ONE]
    for b in [PHI15, PHI35, *sparse, ONE]:
        b3 = poly_mul_scalar(b, 3)
        for q in quotients:
            r = poly(range(1, len(b.coeffs)))
            a = poly_add(poly_mul(q, b), r)
            assert poly_mod_monic(a, b) == r, (b, q)
            assert poly_exact_div(poly_sub(a, r), b) == q, (b, q)
            # a non-monic divisor goes through the same loop
            assert poly_exact_div(poly_mul(q, b3), b3) == q, (b, q)


def test_height():
    assert poly_height(PHI35) == 1
    assert poly_height(ZERO) == 0
    assert poly_height(poly([1, -3, 2])) == 3


def test_coeff_set():
    assert coeff_set(poly([1, 1])) == {0, 1}
    assert coeff_set(PHI15) == {-1, 0, 1}
    assert coeff_set(poly([3])) == {0, 3}


def test_substitute_power():
    assert substitute_power(poly([1, 1, 1]), 2) == poly([1, 0, 1, 0, 1])
    assert substitute_power(PHI15, 1) == PHI15
    phi6 = poly([1, -1, 1])
    assert substitute_power(phi6, 2) == poly([1, 0, -1, 0, 1])
    with pytest.raises(ValueError, match="power must be >= 1"):
        substitute_power(phi6, 0)


def test_extract_residue():
    assert extract_residue(poly([1, 1, 1, 1]), 2, 0) == poly([1, 1])
    assert extract_residue(PHI15, 2, 0) == poly([1, 0, -1, 0, 1])
    assert extract_residue(PHI15, 2, 1) == poly([-1, 1, 1, -1])
    with pytest.raises(IndexOutOfRange):
        extract_residue(PHI15, 2, 2)
    with pytest.raises(IndexOutOfRange):
        extract_residue(PHI15, 2, -1)
    with pytest.raises(IndexOutOfRange, match="modulus must be positive"):
        extract_residue(PHI15, 0, 0)


def test_geometric_series():
    assert geometric_series(3, 2) == poly([1, 0, 0, 1])
    assert geometric_series(1, 5) == poly([1, 1, 1, 1, 1])
    assert geometric_series(2, 0) == ZERO
    with pytest.raises(ValueError, match="step must be positive"):
        geometric_series(0, 3)


def test_evaluate():
    assert PHI15(1) == 1
    assert poly([-1, 1])(5) == 4
    assert ZERO(7) == 0


def test_text_roundtrip():
    assert to_text(poly([1, -1, 1])) == "1 -1 1"
    assert to_text(ZERO) == "0"


_CHUNK = intpoly._CHUNK


@pytest.mark.parametrize("size", [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 5])
def test_text_pieces_are_one_per_chunk(size):
    a = poly([(-1) ** i * (i % 7) * 10 ** (i % 25) for i in range(size - 1)] + [3])
    pieces = []
    write_text(a, pieces.append)
    assert len(pieces) == -(-size // _CHUNK)
    assert all(len(p.split()) <= _CHUNK for p in pieces)
    assert "".join(pieces) == to_text(a) == " ".join(str(c) for c in a.coeffs)
    pieces = []
    write_text(ZERO, pieces.append)
    assert pieces == ["0"]


def test_json_coeffs():
    big = 2**80
    encoded = to_json_coeffs(poly([1, big]))
    assert encoded == [1, str(big)]


small_polys = st.lists(st.integers(min_value=-9, max_value=9), max_size=12).map(poly)
nonzero_polys = small_polys.filter(bool)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert poly_add(a, b) == poly_add(b, a)
    assert poly_mul(a, b) == poly_mul(b, a)
    left = poly_mul(a, poly_add(b, c))
    right = poly_add(poly_mul(a, b), poly_mul(a, c))
    assert left == right


@given(small_polys, nonzero_polys)
def test_div_mul_roundtrip(a, b):
    assert poly_exact_div(poly_mul(a, b), b) == a


@given(small_polys, st.integers(min_value=1, max_value=6))
def test_reassembly(a, m):
    total = ZERO
    for j in range(m):
        part = substitute_power(extract_residue(a, m, j), m)
        total = poly_add(total, poly_mul(monomial(j), part))
    assert total == a


# zeros, small values and values near +-2^70, whose products need fields
# wider than 64 bits
wide_polys = st.lists(
    st.one_of(
        st.just(0),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=2**70 - 9, max_value=2**70 + 9),
        st.integers(min_value=-(2**70) - 9, max_value=-(2**70) + 9),
    ),
    max_size=12,
).map(poly)


@given(wide_polys, wide_polys, st.integers(min_value=1, max_value=7))
def test_mul_power_matches_mul_by_substituted(a, h, k):
    assert poly_mul_power(a, h, k) == poly_mul(a, substitute_power(h, k))


def test_mul_power_edges(monkeypatch):
    assert poly_mul_power(ZERO, PHI15, 3) == poly_mul_power(PHI15, ZERO, 3) == ZERO
    assert poly_mul_power(PSI15, PHI15, 1) == poly_mul(PSI15, PHI15)
    assert poly_mul_power(poly([1, 2**70]), poly([-(2**70), 0, 1]), 2) == poly(
        [-(2**70), -(2**140), 0, 0, 1, 2**70]
    )
    with pytest.raises(ValueError):
        poly_mul_power(PHI15, PHI15, 0)
    # one byte per field cannot hold 300: the value at 1 catches the wrap
    monkeypatch.setattr(intpoly, "field_width", lambda bound: 8)
    assert poly_mul_power(poly([1, 100]), poly([1, 1]), 2) == poly([1, 100, 1, 100])
    with pytest.raises(AssertionError):
        poly_mul_power(poly([100, 100]), poly([3, 0, 1]), 1)


@given(small_polys, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_power_composition(a, k1, k2):
    assert substitute_power(substitute_power(a, k1), k2) == substitute_power(a, k1 * k2)


@given(small_polys)
def test_height_matches_coeff_set(a):
    s = coeff_set(a)
    assert 0 in s
    assert poly_height(a) == max(s | {-v for v in s})
