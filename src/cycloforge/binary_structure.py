"""Two-part structure: staircase corners and the explicit grid-block
products they assemble (level 1 gives the two-part polynomial itself).

The central picture is a p-by-q grid holding the residues of a*p + b*q
modulo pq. One vertical and one horizontal cut, placed by the modular
inverses mu = p^-1 (mod q) and lam = q^-1 (mod p), split the grid into
the four blocks that the explicit product formula reads off.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import LOutOfRange, NotCoprime
from .intpoly import IntPolynomial


class StaircaseCorner(NamedTuple):
    """Corner of the level-l cut: p*mu + q*lam = p*q + l, with mu and lam
    allowed to reach q and p respectively."""

    p: int
    q: int
    l: int
    mu: int
    lam: int


def staircase_corner(p: int, q: int, l: int) -> StaircaseCorner:
    """Unique (mu, lam) with p*mu + q*lam = p*q + l in the wide ranges.
    At l = 1 these are the inverses mu = p^-1 (mod q), lam = q^-1 (mod p)."""
    if p < 2 or q < 2:
        raise ValueError("both parts must exceed 1")
    if gcd(p, q) != 1:
        raise NotCoprime(f"{p} and {q} share a common factor")
    if not (1 <= l <= p + q - 1):
        raise LOutOfRange(f"l must lie in [1, {p + q - 1}]")
    mu = (pow(p, -1, q) * l) % q
    if mu == 0:
        mu = q
    # p*mu = l (mod q), so lam is exact, and 1 <= mu <= q with
    # 1 <= l <= p + q - 1 puts it in [1, p]
    lam = (p * q + l - p * mu) // q
    return StaircaseCorner(p, q, l, mu, lam)


def staircase_multiple(p: int, q: int, l: int) -> IntPolynomial:
    """(1 + x + ... + x^(l-1)) times the two-part polynomial, assembled
    from the level-l corner; always flat. At l = 1 this is the two-part
    polynomial itself: one block of full rows times full columns, minus
    x times the complementary block. A block's exponents i*p + j*q
    (i < q, j < p) are distinct, so each of its rows is a strided run."""
    c = staircase_corner(p, q, l)
    # p*mu + q*lam = p*q + l puts the block's top term above the complement's
    out = [0] * (p * q + l - p - q + 1)
    for j in range(c.lam):
        out[j * q : j * q + c.mu * p : p] = [1] * c.mu
    for j in range(p - c.lam):
        # the shifted complement may land on the block's ones: read first
        row = slice(l + j * q, l + j * q + (q - c.mu) * p, p)
        out[row] = [v - 1 for v in out[row]]
    return IntPolynomial(tuple(out))


def ldiagram_render(p: int, q: int) -> str:
    """Text grid of the residues a*p + b*q (mod pq), p rows by q columns,
    bottom row b = 0, with the vertical cut before column mu and the
    horizontal cut above row lam - 1; '+' marks the crossing."""
    c = staircase_corner(p, q, 1)
    n = p * q
    width = len(str(n - 1))
    lines = []
    for b in range(p - 1, -1, -1):
        cells = [str((a * p + b * q) % n).rjust(width) for a in range(q)]
        cells.insert(c.mu, "|")
        lines.append(" ".join(cells))
    rule = "".join("+" if ch == "|" else "-" for ch in lines[0])
    lines.insert(p - c.lam, rule)
    return "\n".join(lines)


def ldiagram_json(p: int, q: int) -> dict:
    """Same grid as structured data; residues[b][a] with b = 0 the bottom
    row."""
    c = staircase_corner(p, q, 1)
    n = p * q
    residues = [[(a * p + b * q) % n for a in range(q)] for b in range(p)]
    return {"rows": p, "cols": q, "residues": residues, "mu": c.mu, "lambda": c.lam}
