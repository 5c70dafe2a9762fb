"""Heights, the theorem-backed flatness classifier, and conjecture scans.

The classifier applies congruence tests only; it never computes a height
behind the caller's back, and it reports TheoremSilent when no rule
covers the input. Scanners enumerate a search domain, compute heights
for real, journal everything to a JSON-lines cache, and return the
violations (or hits, for existence questions).
"""

from __future__ import annotations

import os
import time
from enum import Enum
from functools import partial
from math import prod
from typing import Callable, Iterable, Iterator, NamedTuple

from ._numtheory import is_prime
from .cyclotomic import (
    PhiAlgorithm,
    coefficient_set,
    phi,
    signed_subset_head,
    signed_subset_product,
)
from .domains import chain4, coprime_tuples, odd_primes, odd_squarefree3, prime_tuples
from .errors import NotSortedDistinctOddPrimes, UnknownConjecture
from .fjdecomp import fstar_shifts
from .intpoly import IntPolynomial, poly_height


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
    if not odd:
        return 1  # phi(1) = x - 1, phi(2) = x + 1
    family = _shift_family(odd)
    if family is not None:
        return max(map(poly_height, family))
    return signed_subset_head(odd, primes=True).height


def coefficient_set_of(factors, multiplier: int = 1) -> frozenset[int]:
    """Exact coefficient set (always includes 0). A factor of 2 flips the
    signs at odd exponents, which can change the set, so it is honored.
    An odd top prime beyond the product of the others is read off the
    reduced shift family when that is cheaper than the expansion, and
    otherwise the packed head suffices (cyclotomic.coefficient_set)."""
    odd = _odd_part_factors(factors)
    _check_multiplier(multiplier, factors)
    even = 2 in tuple(factors) or multiplier % 2 == 0
    family = None if even else _shift_family(odd)
    if family is None:
        return coefficient_set(prod(odd) * (2 if even else 1))
    out = {0}
    for f in family:
        out.update(f.coeffs)
    return frozenset(out)


class VerdictStatus(Enum):
    Flat = "Flat"
    NotFlat = "NotFlat"
    HeightExactly2 = "HeightExactly2"
    BoundOnly = "BoundOnly"
    TheoremSilent = "TheoremSilent"


class Verdict(NamedTuple):
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


def height_record(factors: tuple, pseudo: bool) -> dict:
    """The journal record of one scanned polynomial: phi of the product of
    the primes, or the inclusion-exclusion polynomial of the ascending
    parts (all > 1). Both are palindromic, so the height is read off the
    lower half of the expansion."""
    return {
        "n": prod(factors),
        "factors": list(factors),
        "degree": prod(q - 1 for q in factors),
        "height": signed_subset_head(tuple(factors), primes=not pseudo).height,
    }


def _hit(
    n: int, factors: tuple, heights: list, verdict: str, p: int | None = None
) -> dict:
    rec = {"n": n, "factors": list(factors)}
    if p is not None:
        rec["p"] = p
    rec["heights"] = heights
    rec["verdict"] = verdict
    return rec


# Each test takes a domain item (n, factors), the chunk's memoised height
# function and the scan bound, and yields the item's hits.


def _flat_off_congruence(n, fs, height, bound):
    p, q, r = fs
    pq = p * q
    if height(fs) == 1 and not (q % p in (1, p - 1) or r % pq in (1, pq - 1)):
        yield _hit(n, fs, [1], "flat without q=+/-1 (mod p) or r=+/-1 (mod pq)")


def _broadhurst_fails(n, fs, height, bound, pseudo: bool):
    p, q, r = fs
    if height(fs) != 1:
        return
    pq = p * q
    wr = r % pq
    w = min(wr, pq - wr)
    if w == 0 or (p - 1) % w == 0:
        return
    ok = w > p and q > p * p - p and q % p in (1, p - 1) and w % p in (1, p - 1)
    if ok and w % p == 1:
        bad = q % (w * p) == 1 if pseudo else q % (w * p) in (1, w * p - 1)
        ok = not bad
    if not ok:
        verdict = f"flat with w={w}, p!=1 (mod w), but a stated conclusion fails"
        yield _hit(n, fs, [1], verdict)


def _flat_off_chain(n, fs, height, bound):
    p, q, r, s = fs
    pq, pqr = p * q, p * q * r
    chain = q % p == p - 1 and r % pq in (1, pq - 1) and s % pqr in (1, pqr - 1)
    if height(fs) == 1 and not chain:
        yield _hit(n, fs, [1], "flat quaternary without the full congruence chain")


def _chain_height_not_2(n, fs, height, bound):
    h = height(fs)
    if h != 2:
        yield _hit(n, fs, [h], f"chain with q!=-1 (mod p) but height {h} != 2")


def _flat_quinary(n, fs, height, bound):
    if height(fs) == 1:
        yield _hit(n, fs, [1], "flat quinary")


def _np_turns_flat(n, fs, height, bound):
    # every odd prime p <= bound / n outside n, so the answer needs the bound
    h = height(fs)
    if h == 1:
        return
    for p in odd_primes(bound // n):
        if n % p and height(tuple(sorted(fs + (p,)))) == 1:
            yield _hit(n, fs, [h, 1], f"A({n})={h} but A({n * p})=1", p)


def _height_drops(n, fs, height, bound, mult: int):
    if n % mult == 0:
        return  # mult * n must stay squarefree
    h = height(fs)
    h2 = height(tuple(sorted(fs + (mult,))))
    if h2 < h:
        yield _hit(n, fs, [h, h2], f"A({n})={h} drops to A({mult * n})={h2}", mult)


class _Tag(NamedTuple):
    domain: Callable  # (lo, hi) -> (n, factors), from .domains
    test: Callable  # (n, factors, height, bound) -> hits
    pseudo: bool = False  # heights of inclusion-exclusion polynomials
    bound_keyed: bool = False  # a window's answer depends on the bound


# The pseudo tags use odd parts only: a part of 2 turns the polynomial into
# a sign flip of a flat binary one while every mod-2 congruence degenerates.
_TAGS = {
    "notflat": _Tag(partial(prime_tuples, 3), _flat_off_congruence),
    "broadhurst3": _Tag(
        partial(prime_tuples, 3), partial(_broadhurst_fails, pseudo=False)
    ),
    "pseudonotflat": _Tag(
        partial(coprime_tuples, 3, odd_only=True), _flat_off_congruence, pseudo=True
    ),
    "pseudobroadhurst3": _Tag(
        partial(coprime_tuples, 3, odd_only=True),
        partial(_broadhurst_fails, pseudo=True),
        pseudo=True,
    ),
    "pqrsallflat": _Tag(partial(prime_tuples, 4), _flat_off_chain),
    "pqrs2": _Tag(chain4, _chain_height_not_2),
    "pqrstnotflat": _Tag(partial(prime_tuples, 5), _flat_quinary),
    "np_stays_nonflat": _Tag(odd_squarefree3, _np_turns_flat, bound_keyed=True),
    "height_drop_p3": _Tag(odd_squarefree3, partial(_height_drops, mult=3)),
    "np_monotonic_p5": _Tag(odd_squarefree3, partial(_height_drops, mult=5)),
}

SCAN_TAGS = tuple(_TAGS)


def _scan_chunk(desc: tuple) -> tuple:
    tag, lo, hi, bound = desc
    spec = _TAGS[tag]
    records: dict[tuple, dict] = {}

    def height(factors: tuple) -> int:
        if factors not in records:
            records[factors] = height_record(factors, spec.pseudo)
        return records[factors]["height"]

    hits = [
        hit for n, fs in spec.domain(lo, hi) for hit in spec.test(n, fs, height, bound)
    ]
    return lo, hi, list(records.values()), hits


def _chunk_key(tag: str, bound: int, lo: int, hi: int) -> tuple:
    # A bound-keyed tag looks past its window, up to the bound. Any other
    # tag's chunk, or one of a tag a journal names but this version does
    # not know, answers the same under any bound.
    spec = _TAGS.get(tag)
    if spec is not None and spec.bound_keyed:
        return (tag, bound, lo, hi)
    return (tag, lo, hi)


class HeightCache:
    """JSON-lines journal: one record per polynomial plus chunk markers
    and recorded hits. Only the scan driver writes; workers stay pure.
    hits maps each finished chunk, keyed by _chunk_key, to its hits, so a
    larger bound reuses the windows a smaller one finished."""

    def __init__(self, path: str | None):
        self.path = path
        self.heights: dict[tuple, dict] = {}
        self.hits: dict[tuple, list[dict]] = {}
        if path and os.path.exists(path):
            self._load()

    def _load(self) -> None:
        # Hits are grouped under the bound they were written with, so a
        # window finished under several bounds contributes one set of hits.
        # A line that parses but is no entry is an error, not skipped: a
        # dropped hit under an intact chunk_done would lose that hit.
        import json

        pending: dict[tuple, list[dict]] = {}
        with open(self.path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError:
                    continue  # torn tail line after a crash
                try:
                    if "chunk_done" in obj:
                        lo, hi = obj["chunk_done"]
                        key = _chunk_key(obj["conjecture"], obj["bound"], lo, hi)
                        self.hits[key] = pending.pop((obj["conjecture"], obj["bound"], lo, hi), [])
                    elif "hit" in obj:
                        lo, hi = obj["chunk"]
                        key = (obj["conjecture"], obj["bound"], lo, hi)
                        pending.setdefault(key, []).append(obj["hit"])
                    elif "n" in obj:
                        self.heights[tuple(obj["factors"])] = obj
                    else:
                        raise KeyError(line)
                except (KeyError, TypeError, ValueError):
                    raise ValueError(f"{self.path}, line {number}: not a journal entry") from None

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
        self.hits[_chunk_key(tag, bound, lo, hi)] = hits
        if self.path is None:
            return
        import json

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


class ScanReport(NamedTuple):
    conjecture: str
    range_checked: tuple[int, int]
    counterexamples: list[dict]
    elapsed: float

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
            "complete": True,
        }


def _recomputed_heights(tag: str, rec: dict) -> list[int]:
    pseudo = _TAGS[tag].pseudo
    factors = tuple(rec["factors"])

    # expanded by the list kernels, independent of the packed head that
    # wrote the records
    def h(fs: tuple) -> int:
        f = signed_subset_product(fs) if pseudo else phi(prod(fs), PhiAlgorithm.SparseSeries)
        return poly_height(f)

    if "p" in rec:
        return [h(factors), h(tuple(sorted(factors + (rec["p"],))))]
    return [h(factors)]


def _run_share(fn: Callable, share: list, fd: int):
    # a forked child: each outcome goes to the pipe as one pickle as soon as
    # it is computed, so a full pipe holds the child back until the caller
    # reads, and the first error ends the share. os._exit skips the
    # inherited stdio buffers and the exit handlers; exit code 0 means
    # every pickle was written
    import pickle

    code = 1
    try:
        with open(fd, "wb") as out:
            for x in share:
                try:
                    ok, result = True, fn(x)
                except Exception as exc:
                    ok, result = False, exc
                out.write(pickle.dumps((ok, result)))
                out.flush()
                if not ok:
                    break
        code = 0
    finally:
        os._exit(code)


def fork_map(fn: Callable, items: Iterable, workers: int) -> Iterator:
    """Yield fn over items, in order. With w = min(workers, len(items)) of
    2 or more, child i of w forked children computes items[i::w] back to
    back and streams each result, or the exception it raised, through a
    pipe; the caller only reads, item j from child j % w. An exception is
    raised again in item order, after every earlier result, as a serial
    map would. Every child is reaped, and killed first if the map stops
    early, when the generator finishes, raises or is closed. One worker or
    item, or a platform without os.fork, forks nothing."""
    items = list(items)
    w = min(workers, len(items)) if hasattr(os, "fork") else 1
    if w < 2:
        yield from map(fn, items)
        return
    import pickle  # here, so start-up and one-worker maps skip them
    import signal

    children: dict[int, tuple] = {}  # share -> (pid, pipe reader), until reaped
    try:
        for i in range(w):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wr)
                raise
            if pid == 0:
                _run_share(fn, items[i::w], wr)
            os.close(wr)
            children[i] = (pid, open(r, "rb"))
        for j in range(len(items)):
            pid, reader = children[j % w]
            try:
                ok, result = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                del children[j % w]
                reader.close()
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(
                    f"worker process {pid} ended with exit code {code}"
                ) from None
            if not ok:
                raise result
            yield result
    finally:
        for pid, reader in children.values():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


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
    if chunk_width < 1:
        raise ValueError("chunk_width must be positive")
    store = cache if isinstance(cache, HeightCache) else HeightCache(cache)
    t0 = time.monotonic()
    descs = []
    hits: list[dict] = []
    for lo, hi in _windows(bound, chunk_width):
        key = _chunk_key(conjecture, bound, lo, hi)
        if key in store.hits:
            hits.extend(store.hits[key])
        else:
            descs.append((conjecture, lo, hi, bound))
    for lo, hi, records, chunk_hits in fork_map(_scan_chunk, descs, workers):
        store.record_chunk(conjecture, bound, lo, hi, records, chunk_hits)
        hits.extend(chunk_hits)
    hits.sort(key=lambda rec: (rec["n"], rec.get("p", 0), rec["factors"]))
    return ScanReport(conjecture, (1, bound), hits, time.monotonic() - t0)


def report_csv_rows(report: ScanReport) -> list[list[str]]:
    rows = [["id", "n_or_tuple", "height_values", "verdict"]]
    pseudo = _TAGS[report.conjecture].pseudo
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
