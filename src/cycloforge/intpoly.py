"""Dense exact-integer polynomial arithmetic.

The universal value type for the whole package. Coefficients are Python
ints (arbitrary precision), stored dense from degree 0 upward with
trailing zeros trimmed; the zero polynomial is the empty tuple and its
degree is the NEG_INF sentinel, which compares below every integer.

The canonical text form is the space-separated coefficient list from
degree 0 upward, e.g. "1 -1 1" for x^2 - x + 1.

Two kernels carry the arithmetic. Every product, poly_mul_power (a times
h(x^k), so poly_mul at k = 1), goes through the packed codec (Kronecker
substitution: a polynomial evaluated at x = 2^b is one Python int, one
signed b-bit field per coefficient), which the packed head kernel in
cyclotomic shares. Quotients and
remainders, exact or pseudo, go through the one long-division loop,
long_divide.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress
from operator import add, sub
from typing import Iterable, Sequence, Union

from .errors import DivisionByZero, IndexOutOfRange, RemainderNonzero

NEG_INF = float("-inf")


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPolynomial:
    """Immutable dense polynomial; index i of coeffs holds [x^i]."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        c = coeffs if isinstance(coeffs, tuple) else tuple(coeffs)
        if c and c[-1] == 0:
            c = _trim(c)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    def __reduce__(self) -> tuple:
        return IntPolynomial, (self.coeffs,)

    @property
    def degree(self) -> Union[int, float]:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, k: int) -> int:
        """[x^k]; zero outside the stored range."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __call__(self, value: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))


def poly(coeffs: Iterable[int]) -> IntPolynomial:
    """Build a polynomial from any iterable of degree-0-first coefficients."""
    return IntPolynomial(tuple(coeffs))


def geometric_series(step: int, terms: int) -> IntPolynomial:
    """1 + x^step + x^(2 step) + ... with the given number of terms."""
    if terms <= 0:
        return ZERO
    if step <= 0:
        raise ValueError("step must be positive")
    out = [0] * (step * (terms - 1) + 1)
    out[::step] = [1] * terms
    return IntPolynomial(tuple(out))


def poly_add(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    if len(a.coeffs) < len(b.coeffs):
        a, b = b, a
    out = list(a.coeffs)
    k = len(b.coeffs)
    out[:k] = map(add, out[:k], b.coeffs)
    return IntPolynomial(out)


def poly_sub(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    out = list(a.coeffs) + [0] * max(0, len(b.coeffs) - len(a.coeffs))
    k = len(b.coeffs)
    out[:k] = map(sub, out[:k], b.coeffs)
    return IntPolynomial(out)


# ---------------------------------------------------------------------------
# packed codec: sum c_i 2^(b i), one signed b-bit field per coefficient

_ARRAY_CODES = {array(c).itemsize: c for c in "qlihb"}


def field_width(bound: int) -> int:
    """The narrowest of 8, 16, 32 and 64 bits, else a multiple of 64, whose
    signed fields hold every value of size at most bound."""
    b = 8
    while bound >= 1 << (b - 1):
        b = 2 * b if b < 64 else b + 64
    return b


def field_ones(b: int, count: int) -> int:
    """A 1 in the low bit of each of count b-bit fields."""
    return int.from_bytes((1).to_bytes(b // 8, "little") * count, "little")


def _pack(coeffs: Sequence[int], b: int) -> int:
    # sum c_i 2^(b i), for coefficients of size below 2^(b - 1)
    w = b // 8
    code = _ARRAY_CODES.get(w)
    if code is None:
        raw = b"".join(c.to_bytes(w, "little", signed=True) for c in coeffs)
    else:
        fields = array(code, coeffs)
        if sys.byteorder == "big":
            fields.byteswap()
        raw = fields.tobytes()
    u = int.from_bytes(raw, "little")
    # a negative c reads as c + 2^b, its sign bit set: take 2^b back off
    return u - ((u & (field_ones(b, len(coeffs)) << (b - 1))) << 1)


def unpack(x: int, b: int, count: int) -> Sequence[int]:
    """The count coefficients c_i of x = sum c_i 2^(b i) mod 2^(b count),
    each of them in [-2^(b - 1), 2^(b - 1))."""
    w = b // 8
    bias = field_ones(b, count) << (b - 1)
    # the bias keeps a negative field from borrowing from the next one, and
    # flipping it back off leaves each field in two's complement
    raw = (((x + bias) & ((1 << b * count) - 1)) ^ bias).to_bytes(w * count, "little")
    code = _ARRAY_CODES.get(w)
    if code is None:
        return tuple(
            int.from_bytes(raw[i : i + w], "little", signed=True) for i in range(0, len(raw), w)
        )
    fields = array(code, raw)
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact product, poly_mul_power at k = 1."""
    return poly_mul_power(a, b, 1)


def poly_mul_power(a: IntPolynomial, h: IntPolynomial, k: int) -> IntPolynomial:
    """a * h(x^k) for k >= 1, through the packed codec (Kronecker
    substitution): a is packed at x = 2^bits and h at 2^(bits k), which is
    h(x^k) at 2^bits with its zeros never built, the two ints are
    multiplied, and the product's fields decoded."""
    if k < 1:
        raise ValueError("substitution power must be >= 1")
    xs, hs = a.coeffs, h.coeffs
    if not xs or not hs:
        return ZERO
    size = len(xs) + (len(hs) - 1) * k
    # [x^i] sums c_j [x^(i - j k)]a over the nonzero c_j, at most min(nonzeros)
    # products, so this bound, proved from the operands and never read off
    # the product, holds every field of the product and of both operands
    terms = min(len(xs) - xs.count(0), len(hs) - hs.count(0))
    bits = field_width(terms * max(map(abs, xs)) * max(map(abs, hs)))
    out = unpack(_pack(xs, bits) * _pack(hs, bits * k), bits, size)
    if sum(xs) * sum(hs) != sum(out):
        raise AssertionError("packed product has the wrong value at 1")
    return IntPolynomial(tuple(out))


def poly_mul_scalar(a: IntPolynomial, c: int) -> IntPolynomial:
    if c == 0:
        return ZERO
    return IntPolynomial(tuple(v * c for v in a.coeffs))


def long_divide(rem: list[int], bl: Sequence[int]) -> list[int]:
    """Divide the coefficient list rem by the nonzero divisor bl in place,
    leaving the remainder in rem[:len(bl) - 1], and return the quotient.
    Raises RemainderNonzero when the divisor's leading coefficient does not
    divide a term."""
    # only the divisor's nonzero lower terms update rem, dense divisor or not
    db = len(bl) - 1
    blead = bl[-1]
    pairs = list(compress(enumerate(bl), bl[:db]))
    q = [0] * max(0, len(rem) - db)
    for i in range(len(q) - 1, -1, -1):
        c = rem[i + db]
        if c == 0:
            continue
        if blead != 1:
            if c % blead:
                raise RemainderNonzero("leading coefficient does not divide")
            c //= blead
        q[i] = c
        rem[i + db] = 0
        for j, v in pairs:
            rem[i + j] -= c * v
    return q


def poly_exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Quotient q with a = q*b exactly over the integers."""
    if not b.coeffs:
        raise DivisionByZero("division by the zero polynomial")
    if not a.coeffs:
        return ZERO
    db = len(b.coeffs) - 1
    if len(a.coeffs) - 1 < db:
        raise RemainderNonzero("divisor degree exceeds dividend degree")
    rem = list(a.coeffs)
    q = long_divide(rem, b.coeffs)
    if any(rem[:db]):
        raise RemainderNonzero("nonzero remainder")
    return IntPolynomial(q)


def poly_mod_monic(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Remainder of a modulo monic b; exact integer arithmetic throughout."""
    bl = b.coeffs
    if not bl:
        raise DivisionByZero("division by the zero polynomial")
    if bl[-1] != 1:
        raise ValueError("poly_mod_monic requires a monic divisor")
    rem = list(a.coeffs)
    long_divide(rem, bl)
    return IntPolynomial(rem[: len(bl) - 1])


def poly_height(a: IntPolynomial) -> int:
    return max(map(abs, a.coeffs), default=0)


def coeff_set(a: IntPolynomial) -> set[int]:
    """All coefficients of a, always including 0."""
    return set(a.coeffs) | {0}


def substitute_power(a: IntPolynomial, k: int) -> IntPolynomial:
    """a(x^k) for k >= 1."""
    if k < 1:
        raise ValueError("substitution power must be >= 1")
    if k == 1 or not a.coeffs:
        return a
    out = [0] * ((len(a.coeffs) - 1) * k + 1)
    out[::k] = a.coeffs
    return IntPolynomial(tuple(out))


def extract_residue(a: IntPolynomial, m: int, j: int) -> IntPolynomial:
    """The slice r with [x^i]r = [x^(i m + j)]a, for 0 <= j < m."""
    if m < 1:
        raise IndexOutOfRange(f"modulus must be positive, got {m}")
    if not 0 <= j < m:
        raise IndexOutOfRange(f"residue index {j} outside [0, {m})")
    return IntPolynomial(a.coeffs[j::m])


_CHUNK = 8192  # coefficients per piece of write_text


def write_text(a: IntPolynomial, write) -> None:
    """The canonical text, passed to write in one piece per _CHUNK
    coefficients, so that no more than one piece is held at a time."""
    c = a.coeffs
    if not c:
        write("0")
    for i in range(0, len(c), _CHUNK):
        write((" " if i else "") + " ".join(map(str, c[i : i + _CHUNK])))


def to_text(a: IntPolynomial) -> str:
    """Canonical text: space-separated coefficients, degree 0 first."""
    pieces: list[str] = []
    write_text(a, pieces.append)
    return "".join(pieces)


_I64_MAX = 2**63


def to_json_coeffs(a: IntPolynomial) -> list:
    """JSON array form; values outside 64-bit range become decimal strings."""
    return [c if -_I64_MAX <= c < _I64_MAX else str(c) for c in a.coeffs]
