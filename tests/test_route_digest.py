"""One digest over values that the library computes by a route of its own
choosing: the reduced shift family, the Bezout split, the cofactor psi,
heights and coefficient sets by factor list, and the coprime tuples of any
length. A change that replaces or merges one of those routes must leave
every byte of these values as it was; the expected digest was recorded
from the routes before such a change, and any differing byte changes it."""

import hashlib

from cycloforge._numtheory import primes_up_to
from cycloforge.cyclotomic import psi
from cycloforge.domains import coprime_tuples
from cycloforge.fjdecomp import bezout_split, fstar_shifts
from cycloforge.flatness import coefficient_set_of, height_of
from cycloforge.intpoly import to_text

FACTOR_LISTS = [
    (),
    (2,),
    (3,),
    (101,),
    (2, 3, 5, 7),
    (3, 5, 7, 11),
    (3, 5, 151),
    (3, 5, 461),
    (2, 3, 5, 461),
    (5, 3, 7, 1061),
]

DIGEST = "4a96045e8b0e93905be2d39e381d085de07fe20ec5ae89e3f17d354fdcd3d3f1"


def _lines():
    for n in range(1, 61):
        for p in (61, 67, 71, 127, 131):
            for f in fstar_shifts(n, p):
                yield f"fstar {n} {p}: {to_text(f)}"
    for n in range(2, 80):
        for p in primes_up_to(13):
            if n % p:
                split = bezout_split(n, p)
                yield f"bezout {n} {p}: {to_text(split.a)} / {to_text(split.b)}"
    for n in range(1, 2001):
        yield f"psi {n}: {to_text(psi(n))}"
    for factors in FACTOR_LISTS:
        values = sorted(coefficient_set_of(factors))
        yield f"by factors {factors!r}: {height_of(factors)} {values!r}"
    yield repr(list(coprime_tuples(None, 1, 1000)))
    yield repr(list(coprime_tuples(None, 300, 3000, odd_only=True)))


def test_routed_values_keep_their_bytes():
    h = hashlib.sha256()
    for line in _lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == DIGEST
