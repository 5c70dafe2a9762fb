"""Digests over values that the library computes by a route of its own
choosing: the reduced shift family, the Bezout split, the cofactor psi,
heights and coefficient sets by factor list, and the coprime tuples of any
length; and over the expansions and scan records whose packed heads take
a field width that the parts prove. A change that replaces or merges one
of those routes, or narrows those widths, must leave every byte of these
values as it was; each expected digest was recorded before such a change,
and any differing byte changes it."""

import hashlib
import json

from cycloforge._numtheory import primes_up_to
from cycloforge.cyclotomic import psi, signed_subset_head
from cycloforge.domains import coprime_tuples, prime_tuples
from cycloforge.fjdecomp import bezout_split, fstar_shifts
from cycloforge.flatness import coefficient_set_of, height_of, height_record
from cycloforge.intpoly import to_text
from cycloforge.pseudocyclo import pseudo_phi

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
WIDTH_DIGEST = "40557dbd3e51918cc59ced4d97f99f68c969d247c3496f974a6180ced1467165"


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


def _width_lines():
    # coprime triples, all-prime ones among them, and the pseudonotflat
    # domain up to 3300, whose 209 all-prime triples take one-byte fields
    for _, parts in coprime_tuples(3, 1, 1500, odd_only=True):
        yield f"pseudo_phi {parts!r}: {to_text(pseudo_phi(parts))}"
    for _, parts in coprime_tuples(3, 1, 600):
        yield f"pseudo_phi {parts!r}: {to_text(pseudo_phi(parts))}"
    for _, fs in prime_tuples(3, 1, 8000):
        yield json.dumps(height_record(fs, signed_subset_head(fs).height))
    for _, fs in coprime_tuples(3, 1, 3300, odd_only=True):
        yield json.dumps(height_record(fs, signed_subset_head(fs).height))


def test_proved_widths_keep_their_bytes():
    h = hashlib.sha256()
    for line in _width_lines():
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == WIDTH_DIGEST
