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


def _odd_value_set(odd: tuple[int, ...]) -> frozenset[int]:
    # the coefficient set of phi(prod(odd)), routed as coefficient_set_of says
    family = _shift_family(odd)
    if family is None:
        return coefficient_set(prod(odd))
    out = {0}
    for f in family:
        out.update(f.coeffs)
    return frozenset(out)


def height_of(factors, multiplier: int = 1) -> int:
    """Largest absolute coefficient. Square parts and factors of 2 never
    change it, so it is the largest |v| in the odd radical's coefficient
    set, read as coefficient_set_of reads an odd input's."""
    odd = _odd_part_factors(factors)
    _check_multiplier(multiplier, factors)
    return max(map(abs, _odd_value_set(odd)))


def coefficient_set_of(factors, multiplier: int = 1) -> frozenset[int]:
    """Exact coefficient set (always includes 0). A factor of 2 flips the
    signs at odd exponents, which can change the set, so it is honored,
    on the packed head (cyclotomic.coefficient_set). An odd top prime
    beyond the product of the others is read off the reduced shift family
    when that is cheaper than the expansion, any other input off the head."""
    odd = _odd_part_factors(factors)
    _check_multiplier(multiplier, factors)
    if 2 in tuple(factors) or multiplier % 2 == 0:
        return coefficient_set(2 * prod(odd))
    return _odd_value_set(odd)


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


def _pm1(a: int, m: int) -> bool:
    # a = +/-1 (mod m)
    return a % m in (1, m - 1)


def _chain(fs: tuple) -> bool:
    # every prime after the second is +/-1 modulo the product of those before it
    return all(_pm1(fs[i], prod(fs[:i])) for i in range(2, len(fs)))


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
        # Broadhurst II: r = +/-w (mod pq), p = 1 (mod w), q = 1 (mod pw).
        # w divides p - 1, so w < pq/2 and |w| is the only candidate.
        if (p - 1) % aw == 0 and q % (p * aw) == 1:
            return Verdict(
                VerdictStatus.Flat,
                "broadhurst-II",
                None,
                f"w={aw}: p = 1 (mod {aw}), q = 1 (mod {p * aw}), r = +/-{aw} (mod {pq})",
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
    order = "quaternary" if len(fs) == 4 else "quinary"
    if not _chain(fs):
        return Verdict(
            VerdictStatus.TheoremSilent, "none", None, f"no covered {order} rule applies"
        )
    if len(fs) == 5:
        return Verdict(
            VerdictStatus.NotFlat,
            "pqrst-chain",
            None,
            "the three chain congruences force height above 1",
        )
    p, q = fs[:2]
    if q % p == p - 1:
        return Verdict(
            VerdictStatus.Flat, "pqrs-chain", None, f"chain congruences hold and q = -1 (mod {p})"
        )
    return Verdict(
        VerdictStatus.NotFlat, "pqrs-chain", None, f"chain congruences hold but q != -1 (mod {p})"
    )


# ---------------------------------------------------------------------------
# conjecture scans


def height_record(factors: tuple, height: int) -> dict:
    """The journal record of the inclusion-exclusion polynomial of the
    ascending parts (all > 1), phi of their product for distinct primes."""
    return {
        "n": prod(factors),
        "factors": list(factors),
        "degree": prod(q - 1 for q in factors),
        "height": height,
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
    if height(fs) == 1 and not (_pm1(q, p) or _pm1(r, p * q)):
        yield _hit(n, fs, [1], "flat without q=+/-1 (mod p) or r=+/-1 (mod pq)")


def _broadhurst_fails(n, fs, height, bound, pseudo: bool):
    p, q, r = fs
    if height(fs) != 1:
        return
    w = abs(_least_abs_residue(r, p * q))
    if (p - 1) % w == 0:
        return
    ok = w > p and q > p * p - p and _pm1(q, p) and _pm1(w, p)
    if ok and w % p == 1:
        bad = q % (w * p) == 1 if pseudo else _pm1(q, w * p)
        ok = not bad
    if not ok:
        verdict = f"flat with w={w}, p!=1 (mod w), but a stated conclusion fails"
        yield _hit(n, fs, [1], verdict)


def _flat_off_chain(n, fs, height, bound):
    p, q = fs[:2]
    chain = q % p == p - 1 and _chain(fs)
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


def _scan_chunk(desc: tuple, known: dict) -> tuple:
    tag, lo, hi, bound = desc
    spec = _TAGS[tag]
    fresh: dict[tuple, int] = {}

    def height(factors: tuple) -> int:
        h = known.get(factors) or fresh.get(factors)
        if h is None:
            h = fresh[factors] = signed_subset_head(factors).height
        return h

    hits = [
        hit for n, fs in spec.domain(lo, hi) for hit in spec.test(n, fs, height, bound)
    ]
    return lo, hi, fresh, hits


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
    and recorded hits. One scan call owns a store; workers stay pure.
    heights maps each record's factors to its height, which later chunks
    read; hits maps each done chunk, keyed by _chunk_key, to its hits, so
    a larger bound reuses the windows a smaller one finished."""

    def __init__(self, path: str | None):
        self.path = path
        self.heights: dict[tuple, int] = {}
        self.hits: dict[tuple, list[dict]] = {}
        if path:
            self._load()

    def _load(self) -> None:
        # Hits are grouped under the bound they were written with, and by line:
        # a window done under several bounds, or a torn chunk's hit and its
        # rerun's, count once. A line that parses but is no entry is an error,
        # not skipped: a dropped hit under an intact chunk_done would lose it. A
        # hit needs the keys the report, CSV and replay read; a record, an int height > 0.
        import json

        pending: dict[tuple, dict[str, dict]] = {}
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
                        done = pending.pop((obj["conjecture"], obj["bound"], lo, hi), {})
                        self.hits[key] = list(done.values())
                    elif "hit" in obj:
                        lo, hi = obj["chunk"]
                        key = (obj["conjecture"], obj["bound"], lo, hi)
                        if not {"n", "factors", "heights", "verdict"} <= obj["hit"].keys():
                            raise KeyError(line)
                        pending.setdefault(key, {})[line] = obj["hit"]
                    elif "n" in obj:
                        if type(h := obj["height"]) is not int or h < 1:
                            raise ValueError(line)
                        self.heights[tuple(obj["factors"])] = h
                    else:
                        raise KeyError(line)
                except (AttributeError, KeyError, TypeError, ValueError):
                    raise ValueError(f"{self.path}, line {number}: not a journal entry") from None

    def record_chunk(
        self, tag: str, bound: int, lo: int, hi: int, heights: dict, hits: list
    ) -> None:
        if self.path is None:
            return
        import json

        # two forked chunks can compute the same height; it is written once
        fresh = {fs: h for fs, h in heights.items() if fs not in self.heights}
        self.heights.update(fresh)
        lines = [json.dumps(height_record(fs, h)) for fs, h in fresh.items()]
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


def scan(
    conjecture: str,
    bound: int,
    workers: int = 1,
    cache: str | None = None,
    chunk_width: int = 2000,
) -> ScanReport:
    """Enumerate the conjecture's domain up to bound, journal every height
    computed, and return the violations. Chunks already marked done in the
    journal are skipped, so interrupted scans resume for free. cache is the
    journal's path, or None; it is touched only once the arguments pass."""
    if conjecture not in SCAN_TAGS:
        raise UnknownConjecture(f"unknown conjecture {conjecture!r}")
    if bound < 1:
        raise ValueError("bound must be positive")
    if chunk_width < 1:
        raise ValueError("chunk_width must be positive")
    if cache is not None:
        try:
            open(cache, "a", encoding="utf-8").close()
        except OSError:
            raise ValueError(
                f"cache {cache!r} is not writable; pass --no-cache to run anyway"
            ) from None
    store = HeightCache(cache)
    t0 = time.monotonic()
    descs = []
    hits: list[dict] = []
    for lo in range(1, bound + 1, chunk_width):
        hi = min(lo + chunk_width - 1, bound)
        key = _chunk_key(conjecture, bound, lo, hi)
        if key in store.hits:
            hits.extend(store.hits[key])
        else:
            descs.append((conjecture, lo, hi, bound))
    # one worker maps lazily, so each chunk reads the heights journalled before it
    chunk = partial(_scan_chunk, known=store.heights)
    for lo, hi, heights, chunk_hits in fork_map(chunk, descs, workers):
        store.record_chunk(conjecture, bound, lo, hi, heights, chunk_hits)
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
