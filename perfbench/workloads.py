"""Seeded workloads: the argv of every invocation and how to check its stdout.

A workload builds a *cycle* of one or more rounds: fixed lists of CLI
invocations drawn from the workload's stated input ranges by a seeded
generator. The runner repeats the cycle as often as the run length allows.
The program only ever sees the generated argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Callable

import oracle

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Call:
    """One CLI invocation. `check` returns None for a correct stdout or a
    one-line reason. Calls sharing a `same_as` key must print identical
    stdout. `journal` names a per-round scan journal that the runner
    substitutes for the JOURNAL placeholder in argv. Calls with
    `traceable` False run untraced even in a traced round (worker pools
    are out of the tracer's reach)."""

    argv: tuple[str, ...]
    group: str
    check: Check
    same_as: str | None = None
    journal: str | None = None
    traceable: bool = True


JOURNAL = "{journal}"


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split()]


def _text(c: list[int]) -> str:
    c = oracle.trim(list(c))
    return " ".join(str(v) for v in c) if c else "0"


def _expect_lines(want: list[str]) -> Check:
    expected = "\n".join(want) + "\n"

    def check(out: str) -> str | None:
        if out == expected:
            return None
        return f"stdout differs: want {expected[:60]!r}, got {out[:60]!r}"

    return check


# ---------------------------------------------------------------------------
# reference answers


@lru_cache(maxsize=None)
def _odd_squarefree(lo: int, hi: int) -> dict[int, list[tuple[int, ...]]]:
    """Odd squarefree n in [lo, hi] bucketed by their number of primes."""
    out: dict[int, list[tuple[int, ...]]] = {}
    for n in range(lo | 1, hi + 1, 2):
        f = oracle.factor(n)
        if all(e == 1 for e in f.values()):
            out.setdefault(len(f), []).append(tuple(sorted(f)))
    return out


@lru_cache(maxsize=None)
def reference_set(factors: tuple[int, ...]) -> frozenset[int]:
    """Coefficient set (with 0) of the cyclotomic polynomial of the product.
    A top prime p beyond the product n of the others is first moved to the
    smallest prime p' > n with p' = +/-p (mod n): the set for n*p equals
    the set for n*p' (negated when p' = -p), as Kaplan's periodicity gives."""
    n, p = prod(factors[:-1]), factors[-1]
    sign = 1
    if p > n > 1 and prod(factors) > 10**6:
        p2 = p
        for q in oracle.primes_between(n + 1, 50 * n):
            if (q - p) % n == 0 or (q + p) % n == 0:
                p2, sign = q, (1 if (q - p) % n == 0 else -1)
                break
        p = p2
    coeffs = oracle.cyclotomic(n * p)
    return frozenset(sign * c for c in coeffs) | {0}


def reference_height(factors: tuple[int, ...]) -> int:
    return max(abs(c) for c in reference_set(factors))


def check_phi(n: int) -> Check:
    def check(out: str) -> str | None:
        c = _ints(out)
        if len(c) - 1 != oracle.totient(n):
            return f"degree {len(c) - 1} != totient({n})"
        if c != c[::-1]:
            return "coefficients are not palindromic"
        if sum(c) != oracle.value_at_one(n):
            return "value at 1 is wrong"
        if sum(v if i % 2 == 0 else -v for i, v in enumerate(c)) != oracle.value_at_minus_one(n):
            return "value at -1 is wrong"
        return None

    return check


def check_height(factors: tuple[int, ...]) -> Check:
    return lambda out: _expect_lines([str(reference_height(factors))])(out)


def check_vset(factors: tuple[int, ...]) -> Check:
    return lambda out: _expect_lines(
        [" ".join(str(v) for v in sorted(reference_set(factors)))]
    )(out)


def check_classify(factors: tuple[int, ...]) -> Check:
    def check(out: str) -> str | None:
        words = out.split()
        fields = dict(w.split("=", 1) for w in words[1:] if "=" in w)
        if "theorem" not in fields or "height" not in fields:
            return f"malformed verdict {out!r}"
        h, want = int(fields["height"]), reference_height(factors)
        if h != want:
            return f"height {h} != {want}"
        status = words[0]
        ok = {
            "Flat": h == 1,
            "HeightExactly2": h == 2,
            "NotFlat": h >= 2,
            "BoundOnly": "bound" in fields and h <= int(fields["bound"]),
            "TheoremSilent": True,
        }.get(status, False)
        return None if ok else f"verdict {status} contradicts height {h}"

    return check


def check_bezout(n: int, p: int) -> Check:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != 2 or not lines[0].startswith("a: ") or not lines[1].startswith("b: "):
            return "expected lines 'a: ...' and 'b: ...'"
        a, b = oracle.trim(_ints(lines[0][3:])), oracle.trim(_ints(lines[1][3:]))
        tot = oracle.totient(n)
        if len(a) > tot or len(b) > (n - tot) * (p - 1):
            return "cofactor degree bound broken"
        g = oracle.substitute_power(oracle.cyclotomic(p), n)
        h = oracle.substitute_power(oracle.cyclotomic(n), p)
        lhs = oracle.trim(oracle.poly_add(oracle.poly_mul(a, g), oracle.poly_mul(b, h)))
        if lhs != list(oracle.cyclotomic(n * p)):
            return "a*g + b*h != phi(n*p)"
        return None

    return check


def check_fj(n: int, p: int, j: int) -> Check:
    return lambda out: _expect_lines([_text(oracle.cyclotomic(n * p)[j::p])])(out)


def check_fstar(n: int, p: int, j: int) -> Check:
    def check(out: str) -> str | None:
        member0 = oracle.trim(list(oracle.cyclotomic(n * p)[0::p]))
        shifted = [0] * j + member0
        rem = oracle.poly_rem_monic(shifted, list(oracle.cyclotomic(n)))
        return _expect_lines([_text(rem)])(out)

    return check


def check_staircase(p: int, q: int, l: int) -> Check:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != 2:
            return "expected a corner line and a coefficient line"
        try:
            fields = dict(w.split("=", 1) for w in lines[0].split())
            mu, lam = int(fields["mu"]), int(fields["lambda"])
        except (KeyError, ValueError):
            return f"malformed corner {lines[0]!r}"
        if not (1 <= mu <= q and 1 <= lam <= p and p * mu + q * lam == p * q + l):
            return f"corner mu={mu} lambda={lam} breaks p*mu + q*lambda = pq + l"
        want = oracle.poly_mul([1] * l, oracle.pseudo_binary(p, q))
        if _ints(lines[1]) != oracle.trim(want):
            return "staircase multiple differs from (1 + ... + x^(l-1)) * phi_{p,q}"
        return None

    return check


def check_ldiagram(p: int, q: int) -> Check:
    def check(out: str) -> str | None:
        rows = [line.split() for line in out.splitlines()]
        rules = [r for r in rows if len(r) == 1 and set(r[0]) <= {"-", "+"}]
        grid = [[int(t) for t in r if t != "|"] for r in rows if r not in rules]
        if len(rules) != 1 or len(grid) != p:
            return "expected p residue rows and one rule line"
        want = [[(a * p + b * q) % (p * q) for a in range(q)] for b in range(p - 1, -1, -1)]
        return None if grid == want else "residue grid differs"

    return check


# ---------------------------------------------------------------------------
# oneshot


def _heavy_pool() -> list[tuple[int, ...]]:
    # Order-5 indices in [1e5, 3e5] whose last sparse step is of middling
    # size: m * totient(m) in [1.6e7, 2.2e7] for m the product of the four
    # smaller primes, which keeps each expansion near one second today.
    # The band is narrow because these few calls are a sixth of the
    # workload's time, so their cost sets how much it depends on the seed.
    ps = oracle.primes_between(3, 800)
    out = []

    def rec(start: int, chosen: tuple[int, ...], acc: int) -> None:
        if len(chosen) == 5:
            m = acc // chosen[-1]
            if 10**5 <= acc and 1.6e7 <= m * oracle.totient(m) <= 2.2e7:
                out.append(chosen)
            return
        for i in range(start, len(ps)):
            if acc * ps[i] ** (5 - len(chosen)) > 3 * 10**5:
                break
            rec(i + 1, chosen + (ps[i],), acc * ps[i])

    rec(0, (), 1)
    return out


def _squarefree_upto(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if all(e == 1 for e in oracle.factor(n).values())]


def oneshot_rounds(rng: random.Random) -> list[list[Call]]:
    """One round of 100 single commands with cold caches, in seeded order;
    the mix fixes how many of each kind, the seed picks the inputs."""
    small = _odd_squarefree(3000, 30000)
    ternary = _odd_squarefree(1000, 30000)[3]
    heavy = _heavy_pool()
    mid_n = _squarefree_upto(30, 200)
    primes = oracle.primes_between(2, 2000)
    calls: list[Call] = []

    def add(group: str, args: list, check: Check) -> None:
        calls.append(Call(tuple(str(a) for a in args), group, check))

    for order, count in ((2, 8), (3, 8), (4, 4)):
        for fs in rng.sample(small[order], count):
            n = prod(fs)
            add("phi", ["phi", "--n", n], check_phi(n))
    for fs in rng.sample(heavy, 4):
        n = prod(fs)
        add("phi.heavy", ["phi", "--n", n], check_phi(n))
    for fs in rng.sample(ternary, 8):
        add("height", ["height", "--factors", ",".join(map(str, fs))], check_height(fs))
    for fs in rng.sample(ternary, 8):
        add("vset", ["vset", "--factors", ",".join(map(str, fs))], check_vset(fs))
    for fs in rng.sample(small[4], 4):
        add("height", ["height", "--factors", ",".join(map(str, fs))], check_height(fs))
    # A top prime beyond the product of the others, with n*p near 3e6 so
    # every pick expands a polynomial of about the same size. These sixteen
    # are the slowest calls after the four heavy phi, so p90 falls inside
    # one group of like calls instead of on the edge between two kinds.
    for cmd, check in (("height", check_height), ("vset", check_vset)):
        for _ in range(8):
            base = rng.choice(((3, 5, 7), (3, 5, 11)))
            lo, hi = 2_900_000 // prod(base), 3_100_000 // prod(base)
            fs = base + (rng.choice(oracle.primes_between(lo, hi)),)
            add(cmd + ".bigtop", [cmd, "--factors", ",".join(map(str, fs))], check(fs))
    for fs in rng.sample(ternary, 8):
        add(
            "classify",
            ["classify", "--factors", ",".join(map(str, fs)), "--brute"],
            check_classify(fs),
        )
    for _ in range(8):
        n = rng.choice(mid_n)
        p = rng.choice([q for q in primes if q <= 60 and n % q])
        add("bezout", ["bezout", "--n", n, "--p", p], check_bezout(n, p))
    for _ in range(8):
        n = rng.choice(mid_n)
        p = rng.choice([q for q in primes if q <= 100 and n % q])
        j = rng.randrange(p)
        add("fj", ["fj", "--n", n, "--p", p, "--j", j], check_fj(n, p, j))
    for _ in range(8):
        n = rng.choice(mid_n)
        p = rng.choice([q for q in primes if n < q <= 3 * n])
        j = rng.randrange(n)
        add("fstar", ["fstar", "--n", n, "--p", p, "--j", j], check_fstar(n, p, j))
    for _ in range(4):
        p, q = _coprime_pair(rng, 60)
        l = rng.randint(1, p + q - 1)
        add("staircase", ["staircase", "--p", p, "--q", q, "--l", l], check_staircase(p, q, l))
    for _ in range(4):
        p, q = _coprime_pair(rng, 40)
        add("ldiagram", ["ldiagram", "--p", p, "--q", q], check_ldiagram(p, q))
    rng.shuffle(calls)
    return [calls]


def _coprime_pair(rng: random.Random, top: int) -> tuple[int, int]:
    while True:
        p, q = sorted(rng.sample(range(2, top + 1), 2))
        if oracle.coprime(p, q):
            return p, q


# ---------------------------------------------------------------------------
# scan

# (tag, typical bound B): each tag scans to B/2 cold, extends to B, resumes
# at B, reruns at B on two workers and asks again for B/2, which the
# journal answers. The bounds give every tag about the same scan time today
# (near 1 s), so the slowest tenth of invocations is the extend passes of
# all tags rather than whichever tag the seed made largest. The two journal
# answers per tag put the median among the cold passes, inside one group of
# like calls instead of on the edge between two kinds.
SCAN_TAGS = (
    ("notflat", 14000),
    ("pseudonotflat", 3300),
    ("pqrsallflat", 23000),
    ("height_drop_p3", 7800),
    ("np_monotonic_p5", 4800),
)

# The eleven drops A(n) > A(3n) below 20000 from the paper's table.
DROP_ROWS = (
    (4745, 3, 2),
    (7469, 4, 3),
    (10439, 6, 4),
    (14231, 4, 3),
    (14443, 5, 4),
    (14707, 4, 3),
    (16027, 5, 4),
    (16523, 6, 4),
    (18791, 5, 4),
    (19129, 6, 5),
    (19499, 8, 7),
)


def scan_expected(tag: str, bound: int) -> list[str]:
    """Known stdout: the paper's drop rows, and no counterexample for the
    other tags at the bounds used here."""
    if bound > 25000:
        raise ValueError("known answers cover bounds up to 25000 only")
    rows = []
    if tag == "height_drop_p3":
        rows = [f"  A({n})={a} drops to A({3 * n})={b}" for n, a, b in DROP_ROWS if n <= bound]
    head = f"{tag}: checked 1..{bound}, {len(rows)} counterexamples, complete"
    return [head] + rows


def scan_rounds(rng: random.Random) -> list[list[Call]]:
    """One round per tag, in seeded order; each has a fresh journal."""
    rounds = []
    tags = list(SCAN_TAGS)
    rng.shuffle(tags)
    for tag, typical in tags:
        bound = round(typical * rng.uniform(0.96, 1.0))
        full = _expect_lines(scan_expected(tag, bound))
        scan = ("scan", "--conjecture", tag)
        journal = ("--cache", JOURNAL)
        key = f"{tag}@{bound}"
        half = _expect_lines(scan_expected(tag, bound // 2))
        rounds.append([
            Call(scan + ("--bound", str(bound // 2)) + journal, "scan.cold", half,
                 same_as=f"{tag}@{bound // 2}", journal=tag),
            Call(scan + ("--bound", str(bound)) + journal, "scan.extend", full,
                 same_as=key, journal=tag),
            Call(scan + ("--bound", str(bound)) + journal, "scan.resume", full,
                 same_as=key, journal=tag),
            Call(scan + ("--bound", str(bound), "--jobs", "2", "--no-cache"), "scan.jobs2",
                 full, same_as=key, traceable=False),
            Call(scan + ("--bound", str(bound // 2)) + journal, "scan.resume", half,
                 same_as=f"{tag}@{bound // 2}", journal=tag),
        ])
    return rounds


# ---------------------------------------------------------------------------
# verify

def _check_suite(suite: str, infos: dict[str, str]) -> Check:
    """Every property passes, in order, and reports exactly the amount of
    work derived here, so a suite that skips work cannot pass."""
    return _expect_lines([f"PASS {suite}/{prop}: {info}" for prop, info in infos.items()])


def _fj_infos(nmax: int) -> dict[str, str]:
    primes = oracle.primes_between(2, 100)
    pairs = [(n, p) for n in _squarefree_upto(2, nmax) for p in primes if n % p]
    large = f"{sum(1 for n, p in pairs if p > n)} pairs with p > n"
    return {
        "family-invariants": f"{len(pairs)} (n,p) pairs",
        "f-equals-g": f"{len(pairs)} (n,p) pairs, every member",
        "exact-periodicity": large,
        "f0-fast": large,
        "fstar-recursion": large,
    }


def _coprime_tuple_count(limit: int, start: int = 2, chosen: tuple[int, ...] = (), acc: int = 1) -> int:
    # ascending pairwise-coprime tuples of parts >= 2 with product <= limit
    total = 0
    for q in range(start, limit // acc + 1):
        if oracle.coprime(q, *chosen):
            total += 1 + _coprime_tuple_count(limit, q + 1, chosen + (q,), acc * q)
    return total


def _pseudo_infos(r2_limit: int) -> dict[str, str]:
    tuples = f"{_coprime_tuple_count(1000)} tuples, n <= 1000"
    r2 = 0
    for p in range(2, r2_limit):
        for q in range(p + 1, r2_limit // p + 1):
            for r in range(q + 1, r2_limit // (p * q) + 1):
                if r % (p * q) in (2, p * q - 2) and oracle.coprime(p, q, r):
                    r2 += 1
    return {
        "factorization-product": tuples,
        "gcd-identity": tuples,
        "r2-biconditional": f"{r2} coprime triples with r=+/-2 (mod pq), n <= {r2_limit}",
    }


def _periodicity_infos(ns: tuple[int, ...], smax: int) -> dict[str, str]:
    compared = 0
    for n in ns:
        floor = n - oracle.totient(n)
        ps = [s for s in oracle.primes_between(2, smax) if s > floor and n % s]
        compared += sum(
            1
            for i, s in enumerate(ps)
            for t in ps[i + 1 :]
            if (s - t) % n == 0 or (s + t) % n == 0
        )
    return {
        "predicted-sign-holds": f"{compared} prime pairs over n in {list(ns)}",
        "below-threshold-subset": "n=15 s=2 t=17 gives a strict coefficient-set inclusion",
    }


def verify_rounds(rng: random.Random) -> list[list[Call]]:
    calls: list[Call] = []
    m = rng.randint(50, 54)
    calls.append(Call(("verify", "--suite", "fj", "--max", str(m)), "verify.fj",
                      _check_suite("fj", _fj_infos(m))))
    r2 = rng.randint(2000, 3000)
    calls.append(Call(("verify", "--suite", "pseudo", "--max", str(r2)), "verify.pseudo",
                      _check_suite("pseudo", _pseudo_infos(r2))))
    # Many small periodicity runs: the median and p90 fall among them, and
    # their summed time outweighs the host's swings during the one long
    # pseudo run, which would otherwise set most of the round's time.
    odd = [n for n in _squarefree_upto(15, 60) if n % 2 and len(oracle.factor(n)) >= 2]
    for _ in range(40):
        ns = tuple(sorted(rng.sample(odd, 3)))
        smax = rng.randint(250, 300)
        argv = ["verify", "--suite", "periodicity", "--smax", str(smax)]
        for n in ns:
            argv += ["--n", str(n)]
        calls.append(Call(tuple(argv), "verify.periodicity",
                          _check_suite("periodicity", _periodicity_infos(ns, smax))))
    rng.shuffle(calls)
    return [calls]


ROUNDS = {"oneshot": oneshot_rounds, "scan": scan_rounds, "verify": verify_rounds}

# About how long one cycle of each workload takes, in seconds of calls and
# samples between them on the machine the benchmark was tuned on. A run does
# round(--seconds / CYCLE_S) whole cycles, at least one, so every run of a
# workload does the same work however fast the host is that day.
CYCLE_S = {"oneshot": 30, "scan": 15, "verify": 30}
