"""Search domains against brute-force definitions, window by window, and
every scan tag scanned in one window and in many."""

import random
from math import gcd, prod

import pytest

from cycloforge import _numtheory, domains, flatness
from cycloforge._numtheory import factorize, is_prime
from cycloforge.cyclotomic import PhiAlgorithm, phi, signed_subset_product
from cycloforge.domains import (
    chain4,
    coprime_tuples,
    fj_pairs,
    odd_squarefree3,
    prime_tuples,
    squarefree,
)
from cycloforge.flatness import SCAN_TAGS, HeightCache, scan
from cycloforge.intpoly import poly_height

CHAIN4_TO_2E7 = [
    (3, 7, 41, 1721), (3, 7, 41, 1723), (3, 7, 41, 5167), (3, 7, 41, 8609),
    (3, 7, 41, 10331), (3, 7, 41, 10333), (3, 7, 41, 15497), (3, 7, 41, 20663),
    (3, 7, 43, 3613), (3, 7, 43, 5417), (3, 7, 43, 5419), (3, 7, 43, 9029),
    (3, 7, 43, 10837), (3, 7, 43, 12641), (3, 7, 43, 14447), (3, 7, 43, 14449),
    (3, 7, 43, 16253), (3, 7, 43, 18059), (3, 7, 43, 18061), (3, 7, 43, 19867),
    (3, 7, 43, 21673), (3, 7, 83, 6971), (3, 7, 83, 10457), (3, 7, 83, 10459),
    (3, 7, 127, 5333), (3, 13, 79, 6163), (5, 7, 71, 4969),
]


def _splits(n: int, k: int | None, least: int, step: int):
    # every ascending tuple of pairwise-coprime parts >= least (of the
    # parity step allows) with product n: k parts, or any number for None
    if k == 1 or k is None:
        if n >= least and (step == 1 or n % 2):
            yield (n,)
        if k == 1:
            return
    for d in range(least, n):
        if d * d >= n:
            break
        if n % d == 0 and (step == 1 or d % 2) and gcd(d, n // d) == 1:
            for rest in _splits(n // d, None if k is None else k - 1, d + 1, step):
                yield (d, *rest)


def _brute(name: str, lo: int, hi: int) -> list:
    # the domain's items by filtering every integer of [lo, hi]
    out = []
    for n in range(max(lo, 1), hi + 1):
        fac = factorize(n)
        primes = tuple(p for p, _ in fac)
        sqfree = n > 1 and all(e == 1 for _, e in fac)
        if name.startswith("prime"):
            k = int(name[-1])
            if sqfree and len(fac) == k and 2 not in primes:
                out.append((n, primes))
        elif name == "squarefree":
            if sqfree:
                out.append((n, primes))
        elif name == "odd_squarefree3":
            if sqfree and n % 2 and len(fac) >= 3:
                out.append((n, primes))
        elif name == "chain4":
            if sqfree and len(fac) == 4 and 2 not in primes:
                p, q, r, s = primes
                pq, pqr = p * q, p * q * r
                if q % p != p - 1 and r % pq in (1, pq - 1) and s % pqr in (1, pqr - 1):
                    out.append((n, primes))
        else:
            k = {"coprime2": 2, "coprime3": 3, "coprime3odd": 3, "coprimeany": None}[name]
            step = 2 if name == "coprime3odd" else 1
            least = 3 if step == 2 else 2
            out += [(n, parts) for parts in _splits(n, k, least, step)]
    return out


GENERATORS = {
    "prime2": lambda lo, hi: prime_tuples(2, lo, hi),
    "prime3": lambda lo, hi: prime_tuples(3, lo, hi),
    "prime4": lambda lo, hi: prime_tuples(4, lo, hi),
    "prime5": lambda lo, hi: prime_tuples(5, lo, hi),
    "coprime2": lambda lo, hi: coprime_tuples(2, lo, hi),
    "coprime3": lambda lo, hi: coprime_tuples(3, lo, hi),
    "coprime3odd": lambda lo, hi: coprime_tuples(3, lo, hi, odd_only=True),
    "coprimeany": lambda lo, hi: coprime_tuples(None, lo, hi),
    "squarefree": squarefree,
    "odd_squarefree3": odd_squarefree3,
    "chain4": chain4,
}

# where each domain gets going: random windows are drawn below this
SPAN = {"prime4": 30000, "prime5": 60000, "chain4": 3_000_000}


def _by_parts(items: list) -> list:
    return sorted(items, key=lambda item: item[1])


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_domain_matches_brute_force_on_random_windows(name):
    gen = GENERATORS[name]
    span = SPAN.get(name, 6000)
    rng = random.Random(name)
    windows = [(1, 1), (1, 2), (1, 104), (1, 1154), (1, 1000)]
    windows += [(n, n) for n in (30, 105, 1155, 4745)]
    if name == "chain4":
        windows += [(1481781, 1481781), (1_481_000, 1_483_503)]
    for _ in range(6):
        lo = rng.randint(1, span)
        windows.append((lo, lo + rng.randint(0, 1500)))
    # squarefree n come ascending, tuples in lexicographic order of parts
    order = 0 if "squarefree" in name else 1
    for lo, hi in windows:
        got = list(gen(lo, hi))
        assert got == sorted(got, key=lambda item: item[order]), (name, lo, hi)
        assert _by_parts(got) == _by_parts(_brute(name, lo, hi)), (name, lo, hi)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_windows_concatenate_to_one_pass(name):
    gen = GENERATORS[name]
    bound = SPAN.get(name, 6000)
    rng = random.Random(f"concat-{name}")
    pieces, lo = [], 1
    while lo <= bound:
        hi = min(bound, lo + rng.randint(0, bound // 7))
        pieces += gen(lo, hi)
        lo = hi + 1
    one = list(gen(1, bound))
    assert len(one) == len(set(one)) > 0
    assert _by_parts(pieces) == _by_parts(one)
    if name in ("squarefree", "odd_squarefree3"):
        assert pieces == one


def test_domain_counts_and_the_chain_to_2e7():
    assert sum(1 for _ in coprime_tuples(None, 1, 1000)) == 2929
    assert list(chain4(1, 2 * 10**7)) == [(prod(fs), fs) for fs in CHAIN4_TO_2E7]
    assert list(chain4(1, 1_481_780)) == []


@pytest.mark.parametrize(
    "nmax, pmax", [(0, 100), (1, 100), (2, 2), (30, 1), (30, 3), (52, 100), (210, 37)]
)
def test_fj_pairs_match_brute_force(nmax, pmax):
    # squarefree n ascending, then the primes p <= pmax that do not divide n
    want = [
        (n, p)
        for n in range(2, nmax + 1)
        if all(e == 1 for _, e in factorize(n))
        for p in range(2, pmax + 1)
        if is_prime(p) and n % p
    ]
    assert list(fj_pairs(nmax, pmax)) == want


def test_window_cost_follows_the_window(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(domains, "is_prime", counting_is_prime)
    assert list(chain4(1_998_001, 2_000_000)) == []
    assert len(calls) < 100

    def no_factorize(n):
        raise AssertionError("squarefree must sieve, not factorize")

    monkeypatch.setattr(_numtheory, "factorize", no_factorize)
    monkeypatch.setattr(domains, "factorize", no_factorize, raising=False)
    assert sum(1 for _ in squarefree(1_000_001, 1_003_000)) > 0


SMALL_BOUND = {
    "notflat": 4000,
    "broadhurst3": 4000,
    "pseudonotflat": 1500,
    "pseudobroadhurst3": 1500,
    "pqrsallflat": 15000,
    "pqrs2": 1_500_000,
    "pqrstnotflat": 40000,
    "np_stays_nonflat": 3000,
    "height_drop_p3": 5000,
    "np_monotonic_p5": 4000,
}


@pytest.mark.parametrize("tag", SCAN_TAGS)
def test_every_tag_scans_the_same_in_one_window_and_many(tag, tmp_path):
    bound = SMALL_BOUND[tag]
    one_path, many_path = str(tmp_path / "one.jsonl"), str(tmp_path / "many.jsonl")
    rep_one = scan(tag, bound, cache=one_path, chunk_width=bound)
    rep_many = scan(tag, bound, cache=many_path, chunk_width=bound // 11)
    one, many = HeightCache(one_path), HeightCache(many_path)
    assert len(one.hits) == 1 and len(many.hits) == 12
    assert rep_many.counterexamples == rep_one.counterexamples
    assert many.heights == one.heights
    assert one.heights and all(len(set(fs)) == len(fs) for fs in one.heights)
    # the records hold the heights of the tag's polynomials, checked here
    # by full expansion through the list kernels
    pseudo = tag.startswith("pseudo")
    for fs in list(one.heights)[:40]:
        f = signed_subset_product(fs) if pseudo else phi(prod(fs), PhiAlgorithm.SparseSeries)
        assert one.heights[fs] == poly_height(f), (tag, fs)


def test_registry_gives_the_pseudo_broadhurst_test_its_own_conclusion():
    # w = 4, p = 3, q = 11 = -1 (mod wp), r = 37 = 4 (mod pq): a flat phi
    # breaks a stated conclusion, a flat pseudo-phi does not
    flat = lambda fs: 1  # noqa: E731
    n, fs = 3 * 11 * 37, (3, 11, 37)
    assert len(list(flatness._TAGS["broadhurst3"].test(n, fs, flat, n))) == 1
    assert list(flatness._TAGS["pseudobroadhurst3"].test(n, fs, flat, n)) == []


def test_pqrsallflat_spares_only_the_chain_with_q_minus_1():
    # both quadruples satisfy the chain; only 3*5*31*929 has q = -1 (mod p),
    # so a flat 3*7*41*1721 is a hit. Both lie past the scanned bounds.
    flat = lambda fs: 1  # noqa: E731
    test = flatness._TAGS["pqrsallflat"].test
    assert list(test(431985, (3, 5, 31, 929), flat, 431985)) == []
    assert len(list(test(1481781, (3, 7, 41, 1721), flat, 1481781))) == 1
