"""Heights, the theorem-backed flatness classifier, and conjecture scans.

The classifier applies congruence tests only; it never computes a height
behind the caller's back, and it reports TheoremSilent when no rule
covers the input. Scanners enumerate a search domain, compute heights
for real, journal everything to a JSON-lines cache, and return the
violations (or hits, for existence questions).
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from math import gcd, prod
from typing import Iterator

from ._numtheory import factorize, is_prime, primes_up_to
from .cyclotomic import phi, phi_head, signed_subset_product
from .errors import NotSortedDistinctOddPrimes, UnknownConjecture
from .fjdecomp import fstar_shifts
from .intpoly import IntPolynomial, coeff_set, poly_height, substitute_neg
from .pseudocyclo import pseudo_phi


def _odd_part_factors(factors) -> tuple[int, ...]:
    fs = tuple(factors)
    if len(set(fs)) != len(fs) or not all(is_prime(p) for p in fs):
        raise ValueError("factors must be distinct primes")
    return tuple(p for p in fs if p != 2)


def _check_multiplier(multiplier: int, factors) -> None:
    if multiplier < 1:
        raise ValueError("multiplier must be positive")
    m = multiplier
    while m % 2 == 0:
        m //= 2
    for p in factors:
        while m % p == 0:
            m //= p
    if m != 1:
        raise ValueError("multiplier may only repeat given primes or powers of 2")


def _shift_family(odd: tuple[int, ...]) -> Iterator[IntPolynomial] | None:
    """The reduced shift family of the top prime p over the product n of
    the other primes, streamed entry by entry, when p > n and building it
    is estimated cheaper than expanding phi(n*p); None otherwise. The
    union of the coefficient sets of its n entries, plus 0, is the
    coefficient set of phi(n*p)."""
    if not odd:
        return None
    p = max(odd)
    rest = [q for q in odd if q != p]
    n = prod(rest)
    if p < n:
        return None
    tot = prod(q - 1 for q in rest)
    # Route: f0_fast's inclusion-exclusion makes 2^(k+1) passes over about
    # n*w terms (w = p mod n, k primes in n), then n shifts of tot terms.
    # Direct: the expansion of phi(n*p) has tot*(p - 1) terms.
    route_cost = 2 ** (len(rest) + 1) * n * (p % n) + n * tot
    direct_cost = tot * (p - 1)
    if route_cost >= direct_cost:
        return None
    return fstar_shifts(n, p)


def height_of(factors, multiplier: int = 1) -> int:
    """Largest absolute coefficient. Square parts and factors of 2 never
    change it, so only the odd radical counts; a top prime beyond the
    product of the others is read off the reduced shift family when that
    is cheaper than the expansion, and otherwise half the expansion
    suffices, since phi is palindromic."""
    odd = _odd_part_factors(factors)
    _check_multiplier(multiplier, factors)
    family = _shift_family(odd)
    if family is not None:
        return max(map(poly_height, family))
    return poly_height(phi_head(prod(odd)))


def coefficient_set_of(factors, multiplier: int = 1) -> set[int]:
    """Exact coefficient set (always includes 0). A factor of 2 flips the
    signs at odd exponents, which can change the set, so it is honored.
    The lower half of phi suffices: the degree is even, so exponents i and
    deg - i have the same parity and the same coefficient."""
    odd = _odd_part_factors(factors)
    _check_multiplier(multiplier, factors)
    even = 2 in tuple(factors) or multiplier % 2 == 0
    m = prod(odd)
    if even:
        if m == 1:
            return {0, 1}
        return coeff_set(substitute_neg(phi_head(m)))
    family = _shift_family(odd)
    if family is not None:
        out = {0}
        for f in family:
            out.update(f.coeffs)
        return out
    return coeff_set(phi_head(m))


class VerdictStatus(Enum):
    Flat = "Flat"
    NotFlat = "NotFlat"
    HeightExactly2 = "HeightExactly2"
    BoundOnly = "BoundOnly"
    TheoremSilent = "TheoremSilent"


@dataclass(frozen=True, slots=True)
class Verdict:
    status: VerdictStatus
    citation: str
    bound: int | None
    detail: str


def _validate_classify_input(factors) -> tuple[int, ...]:
    fs = tuple(factors)
    if any(p < 3 or p % 2 == 0 or not is_prime(p) for p in fs):
        raise NotSortedDistinctOddPrimes(f"{list(fs)} must be odd primes")
    if any(a >= b for a, b in zip(fs, fs[1:])):
        raise NotSortedDistinctOddPrimes(f"{list(fs)} must be strictly ascending")
    if len(fs) > 5:
        raise ValueError("only orders up to 5 are covered")
    return fs


def _least_abs_residue(r: int, modulus: int) -> int:
    w = r % modulus
    return w if w <= modulus // 2 else w - modulus


def _broadhurst_w(p: int, q: int, r: int) -> int | None:
    # smallest w >= 3 with p = 1 (mod w), q = 1 (mod pw), r = +/-w (mod pq)
    pq = p * q
    for w in range(3, p):
        if (p - 1) % w == 0 and q % (p * w) == 1 and r % pq in (w, pq - w):
            return w
    return None


def classify(factors) -> Verdict:
    """Congruence-only verdict with a deterministic citation. Flat-proving
    rules run before not-flat rules so overlapping hypotheses always cite
    the cheapest theorem."""
    fs = _validate_classify_input(factors)
    if len(fs) <= 2:
        return Verdict(
            VerdictStatus.Flat,
            "order<=2",
            None,
            "products of at most two distinct odd primes always have height 1",
        )
    if len(fs) == 3:
        p, q, r = fs
        pq = p * q
        w = _least_abs_residue(r, pq)
        aw = abs(w)
        if aw == 1:
            return Verdict(
                VerdictStatus.Flat, "r±1", None, f"r = {w:+d} (mod {pq}) forces height 1"
            )
        if aw == 2:
            if q % p == 1:
                return Verdict(
                    VerdictStatus.Flat,
                    "r±2",
                    None,
                    f"r = {w:+d} (mod {pq}) and q = 1 (mod {p})",
                )
            return Verdict(
                VerdictStatus.HeightExactly2,
                "r±2",
                None,
                f"r = {w:+d} (mod {pq}) and q != 1 (mod {p}) pin the height at 2",
            )
        wb = _broadhurst_w(p, q, r)
        if wb is not None:
            return Verdict(
                VerdictStatus.Flat,
                "broadhurst-II",
                None,
                f"w={wb}: p = 1 (mod {wb}), q = 1 (mod {p * wb}), r = +/-{wb} (mod {pq})",
            )
        if r > pq and q - p < aw < q + p:
            return Verdict(
                VerdictStatus.NotFlat,
                "q-p<|w|<q+p",
                None,
                f"|w|={aw} falls in ({q - p}, {q + p}) with r > {pq}, so height exceeds 1",
            )
        return Verdict(
            VerdictStatus.BoundOnly,
            "A<=|w|",
            aw,
            f"height is at most |w| = {aw}; no covered rule decides flatness",
        )
    if len(fs) == 4:
        p, q, r, s = fs
        pq, pqr = p * q, p * q * r
        if r % pq in (1, pq - 1) and s % pqr in (1, pqr - 1):
            if q % p == p - 1:
                return Verdict(
                    VerdictStatus.Flat,
                    "pqrs-chain",
                    None,
                    f"chain congruences hold and q = -1 (mod {p})",
                )
            return Verdict(
                VerdictStatus.NotFlat,
                "pqrs-chain",
                None,
                f"chain congruences hold but q != -1 (mod {p})",
            )
        return Verdict(
            VerdictStatus.TheoremSilent,
            "none",
            None,
            "no covered quaternary rule applies",
        )
    p, q, r, s, t = fs
    pq, pqr, pqrs = p * q, p * q * r, p * q * r * s
    if (
        r % pq in (1, pq - 1)
        and s % pqr in (1, pqr - 1)
        and t % pqrs in (1, pqrs - 1)
    ):
        return Verdict(
            VerdictStatus.NotFlat,
            "pqrst-chain",
            None,
            "the three chain congruences force height above 1",
        )
    return Verdict(
        VerdictStatus.TheoremSilent, "none", None, "no covered quinary rule applies"
    )


# ---------------------------------------------------------------------------
# conjecture scans


SCAN_TAGS = (
    "notflat",
    "broadhurst3",
    "pseudonotflat",
    "pseudobroadhurst3",
    "pqrsallflat",
    "pqrs2",
    "pqrstnotflat",
    "np_stays_nonflat",
    "height_drop_p3",
    "np_monotonic_p5",
)

_COFACTOR = {3: 15, 4: 105, 5: 1155}


def prime_tuples(k: int, lo: int, hi: int):
    """(product, primes) for k distinct odd primes, lo <= product <= hi,
    for k in 3..5."""
    cap = hi // _COFACTOR[k]
    if cap < 3:
        return
    ps = [p for p in primes_up_to(cap) if p != 2]

    def rec(start: int, chosen: tuple, acc: int):
        remaining = k - len(chosen)
        if remaining == 0:
            if acc >= lo:
                yield acc, chosen
            return
        for i in range(start, len(ps)):
            p = ps[i]
            nxt = acc * p
            if nxt * p ** (remaining - 1) > hi:
                break
            yield from rec(i + 1, chosen + (p,), nxt)

    yield from rec(0, (), 1)


def coprime_tuples3(lo: int, hi: int, odd_only: bool = False):
    """(pqr, (p, q, r)) for pairwise coprime p < q < r with lo <= pqr <= hi."""
    # The ternary scans use odd parts only: a part of 2 turns the polynomial
    # into a sign flip of a flat binary one while every mod-2 congruence
    # degenerates.
    step = 2 if odd_only else 1
    p = 3 if odd_only else 2
    while p * (p + step) * (p + 2 * step) <= hi:
        for q in range(p + step, hi // (p * (p + step)) + 1, step):
            if gcd(p, q) != 1:
                continue
            if p * q * (q + step) > hi:
                break
            for r in range(q + step, hi // (p * q) + 1, step):
                n = p * q * r
                if n > hi:
                    break
                if n >= lo and gcd(r, p) == 1 and gcd(r, q) == 1:
                    yield n, (p, q, r)
        p += step


def _order3plus_targets(lo: int, hi: int, avoid: int):
    # squarefree odd n with at least three prime factors, coprime to avoid
    start = max(lo, 3)
    if start % 2 == 0:
        start += 1
    for n in range(start, hi + 1, 2):
        if avoid > 1 and n % avoid == 0:
            continue
        fac = factorize(n)
        if len(fac) >= 3 and all(e == 1 for _, e in fac):
            yield n, tuple(p for p, _ in fac)


def _chain4_targets(lo: int, hi: int):
    # p < q odd primes with q != -1 (mod p), then primes r = +/-1 (mod pq)
    # and s = +/-1 (mod pqr), product within [lo, hi]. The smallest legal
    # product for a pair is pq*(pq-1)*(pq*(pq-1)-1), so pq stays tiny.
    tmax = 3
    while tmax * (tmax - 1) * (tmax * (tmax - 1) - 1) <= hi:
        tmax += 1
    ps = [x for x in primes_up_to(max(3, tmax // 3)) if x != 2]
    for i, p in enumerate(ps):
        for q in ps[i + 1 :]:
            pq = p * q
            if pq >= tmax:
                break
            if q % p == p - 1:
                continue
            for r in _congruent_primes(pq, hi // pq):
                pqr = pq * r
                for s in _congruent_primes(pqr, hi // pqr):
                    n = pqr * s
                    if lo <= n <= hi and s > r:
                        yield n, (p, q, r, s)


def _congruent_primes(modulus: int, limit: int):
    # primes = +/-1 (mod modulus), at most limit, ascending
    k = 1
    while True:
        below, above = k * modulus - 1, k * modulus + 1
        if below > limit:
            return
        if is_prime(below):
            yield below
        if above <= limit and is_prime(above):
            yield above
        k += 1


def height_record(factors: tuple, pseudo: bool) -> dict:
    """The journal record of one scanned polynomial: phi of the product of
    the primes, or the inclusion-exclusion polynomial of the ascending
    parts (all > 1). Both are palindromic, so the height is read off the
    lower half of the expansion."""
    if pseudo:
        head = signed_subset_product(tuple(factors), half=True)
    else:
        head = phi_head(prod(factors))
    return {
        "n": prod(factors),
        "factors": list(factors),
        "degree": prod(q - 1 for q in factors),
        "height": poly_height(head),
    }


def _scan_chunk(desc: tuple) -> tuple:
    tag, lo, hi, bound = desc
    pseudo = tag.startswith("pseudo")
    records: dict[tuple, dict] = {}
    hits: list[dict] = []

    def height(factors: tuple) -> int:
        key = tuple(factors)
        if key not in records:
            records[key] = height_record(key, pseudo)
        return records[key]["height"]

    def congruence_ok(p: int, q: int, r: int) -> bool:
        pq = p * q
        return q % p in (1, p - 1) or r % pq in (1, pq - 1)

    if tag in ("notflat", "pseudonotflat"):
        source = (
            coprime_tuples3(lo, hi, odd_only=True)
            if pseudo
            else prime_tuples(3, lo, hi)
        )
        for n, (p, q, r) in source:
            if height((p, q, r)) == 1 and not congruence_ok(p, q, r):
                hits.append(
                    {
                        "n": n,
                        "factors": [p, q, r],
                        "heights": [1],
                        "verdict": "flat without q=+/-1 (mod p) or r=+/-1 (mod pq)",
                    }
                )
    elif tag in ("broadhurst3", "pseudobroadhurst3"):
        source = (
            coprime_tuples3(lo, hi, odd_only=True)
            if pseudo
            else prime_tuples(3, lo, hi)
        )
        for n, (p, q, r) in source:
            if height((p, q, r)) != 1:
                continue
            pq = p * q
            wr = r % pq
            w = min(wr, pq - wr)
            if w == 0 or (p - 1) % w == 0:
                continue
            ok = (
                w > p
                and q > p * p - p
                and q % p in (1, p - 1)
                and w % p in (1, p - 1)
            )
            if ok and w % p == 1:
                bad = q % (w * p) == 1 if pseudo else q % (w * p) in (1, w * p - 1)
                ok = not bad
            if not ok:
                hits.append(
                    {
                        "n": n,
                        "factors": [p, q, r],
                        "heights": [1],
                        "verdict": f"flat with w={w}, p!=1 (mod w), but a stated conclusion fails",
                    }
                )
    elif tag == "pqrsallflat":
        for n, (p, q, r, s) in prime_tuples(4, lo, hi):
            if height((p, q, r, s)) != 1:
                continue
            pq, pqr = p * q, p * q * r
            chain = (
                q % p == p - 1
                and r % pq in (1, pq - 1)
                and s % pqr in (1, pqr - 1)
            )
            if not chain:
                hits.append(
                    {
                        "n": n,
                        "factors": [p, q, r, s],
                        "heights": [1],
                        "verdict": "flat quaternary without the full congruence chain",
                    }
                )
    elif tag == "pqrs2":
        for n, (p, q, r, s) in _chain4_targets(lo, hi):
            h = height((p, q, r, s))
            if h != 2:
                hits.append(
                    {
                        "n": n,
                        "factors": [p, q, r, s],
                        "heights": [h],
                        "verdict": f"chain with q!=-1 (mod p) but height {h} != 2",
                    }
                )
    elif tag == "pqrstnotflat":
        for n, quint in prime_tuples(5, lo, hi):
            if height(quint) == 1:
                hits.append(
                    {
                        "n": n,
                        "factors": list(quint),
                        "heights": [1],
                        "verdict": "flat quinary",
                    }
                )
    elif tag == "np_stays_nonflat":
        for n, fac in _order3plus_targets(lo, hi, avoid=1):
            h = height(fac)
            if h == 1:
                continue
            top = bound // n
            for p in primes_up_to(top) if top >= 3 else ():
                if p == 2 or n % p == 0:
                    continue
                h2 = height(tuple(sorted(fac + (p,))))
                if h2 == 1:
                    hits.append(
                        {
                            "n": n,
                            "factors": list(fac),
                            "p": p,
                            "heights": [h, h2],
                            "verdict": f"A({n})={h} but A({n * p})=1",
                        }
                    )
    elif tag in ("height_drop_p3", "np_monotonic_p5"):
        mult = 3 if tag == "height_drop_p3" else 5
        for n, fac in _order3plus_targets(lo, hi, avoid=mult):
            h = height(fac)
            h2 = height(tuple(sorted(fac + (mult,))))
            if h2 < h:
                hits.append(
                    {
                        "n": n,
                        "factors": list(fac),
                        "p": mult,
                        "heights": [h, h2],
                        "verdict": f"A({n})={h} drops to A({mult * n})={h2}",
                    }
                )
    return lo, hi, list(records.values()), hits


def _chunk_key(tag: str, bound: int, lo: int, hi: int) -> tuple:
    # Only np_stays_nonflat looks past its window (for p up to bound // n);
    # every other tag's chunk answers the same under any bound.
    if tag == "np_stays_nonflat":
        return (tag, bound, lo, hi)
    return (tag, lo, hi)


class HeightCache:
    """JSON-lines journal: one record per polynomial plus chunk markers
    and recorded hits. Only the scan driver writes; workers stay pure.
    Chunks are keyed by _chunk_key, so a larger bound reuses the windows
    a smaller one finished."""

    def __init__(self, path: str | None):
        self.path = path
        self.heights: dict[tuple, dict] = {}
        self.chunks: set[tuple] = set()
        self.hits: dict[tuple, list[dict]] = {}
        if path and os.path.exists(path):
            self._load()

    def _load(self) -> None:
        # Hits are grouped under the bound they were written with, so a
        # window finished under several bounds contributes one set of hits.
        pending: dict[tuple, list[dict]] = {}
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue  # torn tail line after a crash
                if "chunk_done" in obj:
                    lo, hi = obj["chunk_done"]
                    key = _chunk_key(obj["conjecture"], obj["bound"], lo, hi)
                    self.chunks.add(key)
                    self.hits[key] = pending.pop((obj["conjecture"], obj["bound"], lo, hi), [])
                elif "hit" in obj:
                    lo, hi = obj["chunk"]
                    key = (obj["conjecture"], obj["bound"], lo, hi)
                    pending.setdefault(key, []).append(obj["hit"])
                elif "n" in obj:
                    self.heights[tuple(obj["factors"])] = obj

    def writable(self) -> bool:
        if self.path is None:
            return False
        try:
            with open(self.path, "a", encoding="utf-8"):
                return True
        except OSError:
            return False

    def record_chunk(
        self, tag: str, bound: int, lo: int, hi: int, records: list, hits: list
    ) -> None:
        fresh = [r for r in records if tuple(r["factors"]) not in self.heights]
        for r in fresh:
            self.heights[tuple(r["factors"])] = r
        key = _chunk_key(tag, bound, lo, hi)
        self.chunks.add(key)
        self.hits[key] = hits
        if self.path is None:
            return
        lines = [json.dumps(r) for r in fresh]
        lines += [
            json.dumps({"hit": h, "conjecture": tag, "bound": bound, "chunk": [lo, hi]})
            for h in hits
        ]
        lines.append(
            json.dumps({"chunk_done": [lo, hi], "conjecture": tag, "bound": bound})
        )
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        # One write per chunk, so a crash tears at most the chunk in flight.
        # A torn last line from an earlier crash is terminated first, so the
        # chunk's first record is not glued onto it and lost.
        with open(self.path, "a+b") as fh:
            end = fh.seek(0, os.SEEK_END)
            if end:
                fh.seek(end - 1)
                if fh.read(1) != b"\n":
                    payload = b"\n" + payload
            fh.write(payload)


@dataclass
class ScanReport:
    conjecture: str
    range_checked: tuple[int, int]
    counterexamples: list[dict]
    elapsed: float
    complete: bool

    def replay_ok(self) -> bool:
        return all(
            _recomputed_heights(self.conjecture, rec) == rec["heights"]
            for rec in self.counterexamples
        )

    def to_json(self) -> dict:
        return {
            "conjecture": self.conjecture,
            "range_checked": list(self.range_checked),
            "counterexamples": self.counterexamples,
            "elapsed": self.elapsed,
            "complete": self.complete,
        }


def _recomputed_heights(tag: str, rec: dict) -> list[int]:
    pseudo = tag.startswith("pseudo")
    factors = tuple(rec["factors"])

    def h(fs: tuple) -> int:
        f = pseudo_phi(list(fs)) if pseudo else phi(prod(fs))
        return poly_height(f)

    if "p" in rec:
        return [h(factors), h(tuple(sorted(factors + (rec["p"],))))]
    return [h(factors)]


def _windows(bound: int, width: int):
    lo = 1
    while lo <= bound:
        hi = min(lo + width - 1, bound)
        yield lo, hi
        lo = hi + 1


def scan(
    conjecture: str,
    bound: int,
    workers: int = 1,
    cache: "HeightCache | str | None" = None,
    chunk_width: int = 2000,
) -> ScanReport:
    """Enumerate the conjecture's domain up to bound, journal every height
    computed, and return the violations. Chunks already marked done in the
    journal are skipped, so interrupted scans resume for free."""
    if conjecture not in SCAN_TAGS:
        raise UnknownConjecture(f"unknown conjecture {conjecture!r}")
    if bound < 1:
        raise ValueError("bound must be positive")
    store = cache if isinstance(cache, HeightCache) else HeightCache(cache)
    t0 = time.monotonic()
    descs = []
    hits: list[dict] = []
    for lo, hi in _windows(bound, chunk_width):
        key = _chunk_key(conjecture, bound, lo, hi)
        if key in store.chunks:
            hits.extend(store.hits.get(key, []))
        else:
            descs.append((conjecture, lo, hi, bound))
    if workers <= 1:
        outcomes = map(_scan_chunk, descs)
        for lo, hi, records, chunk_hits in outcomes:
            store.record_chunk(conjecture, bound, lo, hi, records, chunk_hits)
            hits.extend(chunk_hits)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for lo, hi, records, chunk_hits in pool.map(_scan_chunk, descs):
                store.record_chunk(conjecture, bound, lo, hi, records, chunk_hits)
                hits.extend(chunk_hits)
    hits.sort(key=lambda rec: (rec["n"], rec.get("p", 0), rec["factors"]))
    return ScanReport(conjecture, (1, bound), hits, time.monotonic() - t0, True)


def report_csv_rows(report: ScanReport) -> list[list[str]]:
    rows = [["id", "n_or_tuple", "height_values", "verdict"]]
    pseudo = report.conjecture.startswith("pseudo")
    for i, rec in enumerate(report.counterexamples, start=1):
        if pseudo:
            label = "(" + ",".join(str(f) for f in rec["factors"]) + ")"
        elif "p" in rec:
            label = f"{rec['n']}->{rec['n'] * rec['p']}"
        else:
            label = str(rec["n"])
        rows.append(
            [str(i), label, ";".join(str(h) for h in rec["heights"]), rec["verdict"]]
        )
    return rows
