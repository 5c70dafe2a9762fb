"""Dense exact-integer polynomial arithmetic.

The universal value type for the whole package. Coefficients are Python
ints (arbitrary precision), stored dense from degree 0 upward with
trailing zeros trimmed; the zero polynomial is the empty tuple and its
degree is the NEG_INF sentinel, which compares below every integer.

The canonical text form is the space-separated coefficient list from
degree 0 upward, e.g. "1 -1 1" for x^2 - x + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .errors import DivisionByZero, IndexOutOfRange, RemainderNonzero

NEG_INF = float("-inf")


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True, slots=True)
class IntPolynomial:
    """Immutable dense polynomial; index i of coeffs holds [x^i]."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = self.coeffs
        if not isinstance(c, tuple):
            c = tuple(c)
        if c and c[-1] == 0:
            c = _trim(list(c))
        object.__setattr__(self, "coeffs", c)

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

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"


ZERO = IntPolynomial()
ONE = IntPolynomial((1,))


def poly(coeffs: Iterable[int]) -> IntPolynomial:
    """Build a polynomial from any iterable of degree-0-first coefficients."""
    return IntPolynomial(tuple(coeffs))


def monomial(k: int, c: int = 1) -> IntPolynomial:
    if k < 0:
        raise ValueError("monomial exponent must be nonnegative")
    return IntPolynomial((0,) * k + (c,))


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
    for i, c in enumerate(b.coeffs):
        out[i] += c
    return IntPolynomial(_trim(out))


def poly_sub(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    out = list(a.coeffs) + [0] * max(0, len(b.coeffs) - len(a.coeffs))
    for i, c in enumerate(b.coeffs):
        out[i] -= c
    return IntPolynomial(_trim(out))


def _nonzeros(coeffs: tuple[int, ...]) -> list[tuple[int, int]]:
    return [(i, c) for i, c in enumerate(coeffs) if c]


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact convolution; iterates over the operand with fewer nonzeros."""
    if not a.coeffs or not b.coeffs:
        return ZERO
    xs, ys = a.coeffs, b.coeffs
    nx = _nonzeros(xs)
    ny = _nonzeros(ys)
    if len(ny) < len(nx):
        nx, ny = ny, nx
        xs, ys = ys, xs
    out = [0] * (len(xs) + len(ys) - 1)
    if 2 * len(ny) < len(ys):
        # both operands sparse by density: pair products beat slice updates
        for i, c in nx:
            for j, v in ny:
                out[i + j] += c * v
    else:
        width = len(ys)
        for i, c in nx:
            seg = out[i : i + width]
            out[i : i + width] = [u + c * v for u, v in zip(seg, ys)]
    return IntPolynomial(_trim(out))


def poly_mul_scalar(a: IntPolynomial, c: int) -> IntPolynomial:
    if c == 0:
        return ZERO
    return IntPolynomial(tuple(v * c for v in a.coeffs))


def _long_divide(rem: list[int], bl: tuple[int, ...]) -> list[int]:
    # Divides rem by the nonzero divisor bl in place, leaving the remainder
    # in rem[:len(bl) - 1], and returns the quotient. Raises RemainderNonzero
    # when the divisor's leading coefficient does not divide a term. Dense
    # divisors update by slices, sparse ones by their nonzero pairs.
    db = len(bl) - 1
    blead = bl[-1]
    lower = bl[:db]
    pairs = [(j, v) for j, v in enumerate(lower) if v]
    dense = db and len(pairs) * 3 >= db
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
        if dense:
            seg = rem[i : i + db]
            rem[i : i + db] = [u - c * v for u, v in zip(seg, lower)]
        else:
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
    q = _long_divide(rem, b.coeffs)
    if any(rem[:db]):
        raise RemainderNonzero("nonzero remainder")
    return IntPolynomial(_trim(q))


def poly_mod_monic(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Remainder of a modulo monic b; exact integer arithmetic throughout."""
    bl = b.coeffs
    if not bl:
        raise DivisionByZero("division by the zero polynomial")
    if bl[-1] != 1:
        raise ValueError("poly_mod_monic requires a monic divisor")
    db = len(bl) - 1
    if len(a.coeffs) - 1 < db:
        return a
    rem = list(a.coeffs)
    _long_divide(rem, bl)
    return IntPolynomial(_trim(rem[:db]))


def poly_height(a: IntPolynomial) -> int:
    return max(map(abs, a.coeffs), default=0)


def coeff_set(a: IntPolynomial) -> set[int]:
    """All coefficients of a, always including 0."""
    return set(a.coeffs) | {0}


def is_reciprocal(a: IntPolynomial) -> bool:
    return a.coeffs == a.coeffs[::-1]


def substitute_power(a: IntPolynomial, k: int) -> IntPolynomial:
    """a(x^k) for k >= 1."""
    if k < 1:
        raise ValueError("substitution power must be >= 1")
    if k == 1 or not a.coeffs:
        return a
    out = [0] * ((len(a.coeffs) - 1) * k + 1)
    out[::k] = a.coeffs
    return IntPolynomial(tuple(out))


def substitute_neg(a: IntPolynomial) -> IntPolynomial:
    """a(-x)."""
    return IntPolynomial(tuple(-c if i & 1 else c for i, c in enumerate(a.coeffs)))


def extract_residue(a: IntPolynomial, m: int, j: int) -> IntPolynomial:
    """The slice r with [x^i]r = [x^(i m + j)]a, for 0 <= j < m."""
    if m < 1:
        raise IndexOutOfRange(f"modulus must be positive, got {m}")
    if not 0 <= j < m:
        raise IndexOutOfRange(f"residue index {j} outside [0, {m})")
    return IntPolynomial(_trim(list(a.coeffs[j::m])))


def to_text(a: IntPolynomial) -> str:
    """Canonical text: space-separated coefficients, degree 0 first."""
    if not a.coeffs:
        return "0"
    return " ".join(str(c) for c in a.coeffs)


def from_text(text: str) -> IntPolynomial:
    parts = text.split()
    if not parts or parts == ["0"]:
        return ZERO
    return IntPolynomial(tuple(int(p) for p in parts))


_I64_MAX = 2**63


def to_json_coeffs(a: IntPolynomial) -> list:
    """JSON array form; values outside 64-bit range become decimal strings."""
    return [c if -_I64_MAX <= c < _I64_MAX else str(c) for c in a.coeffs]


def from_json_coeffs(values: list) -> IntPolynomial:
    return IntPolynomial(tuple(int(v) for v in values))
