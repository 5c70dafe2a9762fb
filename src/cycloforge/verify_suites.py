"""Named property bundles behind the CLI verify subcommand.

Each suite re-checks a family of identities at a default range that a
desk machine handles in minutes. Results come back as PropertyResult
rows; the CLI renders one PASS/FAIL line per property.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from math import gcd
from typing import NamedTuple

from ._numtheory import primes_up_to, totient
from .binary_structure import staircase_multiple
from .cyclotomic import (
    PhiAlgorithm,
    generator_gcd,
    phi,
    signed_subset_head,
    signed_subset_product,
)
from .domains import coprime_tuples, fj_pairs, prime_tuples
from .errors import UnknownSuite
from .fjdecomp import (
    BezoutSplit,
    FjFamily,
    PeriodicityRelation,
    bezout_split,
    fj_family,
    fstar_family,
    periodicity_compare,
)
from .flatness import (
    VerdictStatus,
    classify,
    coefficient_set_of,
    fork_map,
    height_of,
    height_record,
    scan,
)
from .intpoly import (
    IntPolynomial,
    coeff_set,
    geometric_series,
    poly,
    poly_add,
    poly_height,
    poly_mul,
    poly_mul_power,
    poly_mul_scalar,
    poly_sub,
)
from .pseudocyclo import pseudo_factorization, pseudo_phi

SUITE_NAMES = (
    "binary",
    "fj",
    "periodicity",
    "pseudo",
    "classifier-soundness",
    "paper-table",
)

EXPECTED_DROP_ROWS = (
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


class PropertyResult(NamedTuple):
    suite: str
    prop: str
    ok: bool
    info: str


def _result(suite: str, prop: str, failures: list, info: str) -> PropertyResult:
    if failures:
        return PropertyResult(
            suite, prop, False, f"{len(failures)} counterexamples, first: {failures[0]}"
        )
    return PropertyResult(suite, prop, True, info)


def _alternating_units(f) -> bool:
    signs = [c for c in f.coeffs if c]
    if any(abs(c) != 1 for c in signs) or not signs or signs[0] != 1:
        return False
    return all(a == -b for a, b in zip(signs, signs[1:]))


def _run_binary(limit: int) -> list[PropertyResult]:
    out = []
    flat_bad, alt_bad = [], []
    pairs = 0
    for _, (p, q) in prime_tuples(2, 1, limit):
        f = phi(p * q)
        pairs += 1
        if poly_height(f) != 1:
            flat_bad.append((p, q))
        if not _alternating_units(f):
            alt_bad.append((p, q))
    out.append(_result("binary", "flat-height", flat_bad, f"{pairs} prime pairs"))
    out.append(_result("binary", "sign-alternation", alt_bad, f"{pairs} prime pairs"))

    expl_bad = []
    count = 0
    for _, (p, q) in coprime_tuples(2, 1, min(limit, 5000)):
        count += 1
        if staircase_multiple(p, q, 1) != pseudo_phi([p, q]):
            expl_bad.append((p, q))
    out.append(_result("binary", "explicit-form", expl_bad, f"{count} coprime pairs"))

    stair_bad = []
    count = 0
    for _, (p, q) in coprime_tuples(2, 1, 300):
        base = pseudo_phi([p, q])
        for l in range(1, p + q):
            count += 1
            if staircase_multiple(p, q, l) != poly_mul(geometric_series(1, l), base):
                stair_bad.append((p, q, l))
    out.append(
        _result("binary", "staircase-identity", stair_bad, f"{count} (p,q,l) cuts")
    )
    return out


FJ_PROPERTIES = (
    "family-invariants",
    "f-equals-g",
    "exact-periodicity",
    "f0-fast",
    "fstar-recursion",
)


def check_fj_invariants(fam: FjFamily, split: BezoutSplit) -> IntPolynomial:
    """Raise ValueError unless there are p members, every member keeps its
    degree budget, member 0 has constant term 1, the members reassemble
    phi(np), and a and b keep their degree bounds. Return phi(np), which
    the members were just shown to reassemble; the caller compares it with
    a*g + b*h for the f-equals-g property."""
    n, p = fam.n, fam.p
    if len(fam.members) != p:
        raise ValueError("need exactly p members")
    tot = totient(n)
    for j, m in enumerate(fam.members):
        ceil_share = -(-(tot + j) // p)
        if m and m.degree > tot - ceil_share:
            raise ValueError(f"member {j} exceeds its degree budget")
    if fam.members[0].coeff(0) != 1:
        raise ValueError("member 0 must have constant term 1")
    f = phi(n * p)
    top = f.degree
    rebuilt = [0] * (top + 1)
    for j, m in enumerate(fam.members):
        # members are trimmed, so one overflows exactly when its last term does
        if j + p * m.degree > top:
            raise ValueError("members overflow the source polynomial")
        # the residue classes mod p are disjoint: each slot is written once
        rebuilt[j : j + p * len(m.coeffs) : p] = m.coeffs
    if tuple(rebuilt) != f.coeffs:
        raise ValueError("members do not reassemble the source polynomial")
    if split.a and split.a.degree >= tot:
        raise ValueError("a breaks its degree bound")
    if split.b and split.b.degree >= (n - tot) * (p - 1):
        raise ValueError("b breaks its degree bound")
    return f


def _fj_check_chunk(pairs: list[tuple[int, int]]) -> dict[str, list]:
    fails: dict[str, list] = {prop: [] for prop in FJ_PROPERTIES}
    for n, p in pairs:
        try:
            fam = fj_family(n, p)
            split = bezout_split(n, p)
            f = check_fj_invariants(fam, split)
            base = phi(n)
        except Exception as exc:
            fails["family-invariants"].append((n, p, str(exc)))
            continue
        # h = phi(n)(x^p), so slice j of f - a*g - b*h is
        # member_j - slice_j(a*g) - slice_j(b)*phi(n): the identity read at
        # exponents i = j (mod p) is member_j = slice_j(a*g) mod phi(n),
        # with slice_j(b) as its witness. g = phi(p)(x^n) is p unit terms n
        # apart and deg a < phi(n) < n (checked above), so a*g is p
        # disjoint copies of a at stride n
        a = split.a.coeffs
        ag = [0] * (n * (p - 1) + len(a))
        for k in range(0, n * p, n):
            ag[k : k + len(a)] = a
        rebuilt = poly_add(IntPolynomial(ag), poly_mul_power(split.b, base, p))
        if rebuilt != f:
            diff = poly_sub(f, rebuilt).coeffs
            fails["f-equals-g"].append((n, p, min(i % p for i, c in enumerate(diff) if c)))
        if p > n:
            if any(fam.members[j] != fam.members[j + n] for j in range(p - n)):
                fails["exact-periodicity"].append((n, p))
            # fstar_family's entry 0 is f0_fast's member 0
            stars = fstar_family(n, p)
            if stars[0] != fam.members[0]:
                fails["f0-fast"].append((n, p))
            for j in range(n):
                want = poly_add(
                    poly((0,) + stars[(j - 1) % n].coeffs),
                    poly_mul_scalar(base, stars[j].coeff(0)),
                )
                if stars[j] != want:
                    fails["fstar-recursion"].append((n, p, j))
                    break
    return fails


def _forked_failures(check, items: list, size: int, jobs: int) -> defaultdict:
    # each property's failures over chunks of size items, in item order;
    # fork_map deals chunks round robin, so small ones even out the shares
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    merged = defaultdict(list)
    for fails in fork_map(check, chunks, jobs):
        for prop, rows in fails.items():
            merged[prop] += rows
    return merged


def _run_fj(nmax: int, pmax: int, jobs: int) -> list[PropertyResult]:
    pairs = list(fj_pairs(nmax, pmax))
    fails = _forked_failures(_fj_check_chunk, pairs, 50, jobs)
    large = sum(1 for n, p in pairs if p > n)
    infos = (
        f"{len(pairs)} (n,p) pairs",
        f"{len(pairs)} (n,p) pairs, every member",
        f"{large} pairs with p > n",
        f"{large} pairs with p > n",
        f"{large} pairs with p > n",
    )
    return [_result("fj", prop, fails[prop], info) for prop, info in zip(FJ_PROPERTIES, infos)]


def _run_periodicity(n_values: tuple[int, ...], smax: int) -> list[PropertyResult]:
    out = []
    bad = []
    compared = 0
    for n in n_values:
        threshold = n - totient(n)
        ps = [
            s for s in primes_up_to(smax) if s > threshold and gcd(s, n) == 1
        ]
        for i, s in enumerate(ps):
            for t in ps[i + 1 :]:
                if (s - t) % n != 0 and (s + t) % n != 0:
                    continue
                compared += 1
                # both primes exceed the threshold, so the comparison
                # predicts Equal or Negated and raises unless that set
                # identity holds
                try:
                    periodicity_compare(n, s, t)
                except RuntimeError as exc:
                    bad.append((n, s, t, str(exc)))
    out.append(
        _result(
            "periodicity",
            "predicted-sign-holds",
            bad,
            f"{compared} prime pairs over n in {list(n_values)}",
        )
    )

    rel = periodicity_compare(15, 2, 17)
    ok = (
        rel.observed is PeriodicityRelation.SubsetForward
        and rel.predicted is PeriodicityRelation.SubsetForward
        and rel.vset_s < rel.vset_t | {-c for c in rel.vset_t}
    )
    out.append(
        PropertyResult(
            "periodicity",
            "below-threshold-subset",
            ok,
            "n=15 s=2 t=17 gives a strict coefficient-set inclusion",
        )
    )
    return out


def _pseudo_check_chunk(chunk: list[tuple[int, ...]]) -> dict[str, list]:
    prod_bad, gcd_bad = [], []
    for parts in chunk:
        f = pseudo_phi(parts)
        if reduce(poly_mul, map(phi, pseudo_factorization(parts))) != f:
            prod_bad.append(parts)
        if poly(generator_gcd(parts)) != f:
            gcd_bad.append(parts)
    return {"factorization-product": prod_bad, "gcd-identity": gcd_bad}


def _run_pseudo(r2_limit: int, jobs: int) -> list[PropertyResult]:
    tuples = [parts for _, parts in coprime_tuples(None, 1, 1000)]
    fails = _forked_failures(_pseudo_check_chunk, tuples, 100, jobs)
    count = 0
    for _, (p, q, r) in coprime_tuples(3, 1, r2_limit):
        pq = p * q
        if r % pq not in (2, pq - 2):
            continue
        count += 1
        flat = signed_subset_head((p, q, r)).height == 1
        if flat != (q % p == 1):
            fails["r2-biconditional"].append((p, q, r))
    table = (
        ("factorization-product", f"{len(tuples)} tuples, n <= 1000"),
        ("gcd-identity", f"{len(tuples)} tuples, n <= 1000"),
        ("r2-biconditional", f"{count} coprime triples with r=+/-2 (mod pq), n <= {r2_limit}"),
    )
    return [_result("pseudo", prop, fails[prop], info) for prop, info in table]


def _head_record_ok(factors: tuple, f) -> bool:
    rec = height_record(factors, signed_subset_head(factors).height)
    return rec["height"] == poly_height(f) and rec["degree"] == f.degree


def _run_classifier_soundness(limit: int) -> list[PropertyResult]:
    definite_bad, bound_bad, route_bad, head_bad = [], [], [], []
    triples = 0
    definite = 0
    bigtop = 0
    for n, (p, q, r) in prime_tuples(3, 1, limit):
        triples += 1
        # the sparse series, not the packed head that default phi shares
        # with the scans
        f = phi(n, PhiAlgorithm.SparseSeries)
        h = poly_height(f)
        if not _head_record_ok((p, q, r), f):
            head_bad.append((p, q, r))
        if r > p * q:
            bigtop += 1
            if height_of((p, q, r)) != h or coefficient_set_of((p, q, r)) != coeff_set(f):
                route_bad.append((p, q, r))
        v = classify((p, q, r))
        if v.status is VerdictStatus.Flat:
            definite += 1
            if h != 1:
                definite_bad.append((p, q, r, h))
        elif v.status is VerdictStatus.HeightExactly2:
            definite += 1
            if h != 2:
                definite_bad.append((p, q, r, h))
        elif v.status is VerdictStatus.NotFlat:
            definite += 1
            if h < 2:
                definite_bad.append((p, q, r, h))
        pq = p * q
        w = r % pq
        aw = min(w, pq - w)
        if h > aw:
            bound_bad.append((p, q, r, h, aw))
    # The pseudo scans' heads, on coprime triples with a part 2 and prime
    # powers too, against the full inclusion-exclusion product.
    pseudo = 0
    for _, parts in coprime_tuples(3, 1, limit // 15):
        pseudo += 1
        if not _head_record_ok(parts, signed_subset_product(parts)):
            head_bad.append(parts)
    return [
        _result(
            "classifier-soundness",
            "definite-verdicts-match-brute",
            definite_bad,
            f"{definite} definite verdicts among {triples} ternary n <= {limit}",
        ),
        _result(
            "classifier-soundness",
            "height-bounded-by-w",
            bound_bad,
            f"{triples} ternary n <= {limit}",
        ),
        _result(
            "classifier-soundness",
            "bigtop-route-matches-expansion",
            route_bad,
            f"{bigtop} ternary n <= {limit} with r > pq",
        ),
        _result(
            "classifier-soundness",
            "scan-heads-match-expansion",
            head_bad,
            f"{triples} ternary n <= {limit}, {pseudo} coprime triples <= {limit // 15}",
        ),
    ]


def _run_paper_table(bound: int, jobs: int) -> list[PropertyResult]:
    rep = scan("height_drop_p3", bound, workers=jobs)
    rows = [(r["n"], r["heights"][0], r["heights"][1]) for r in rep.counterexamples]
    expected = [row for row in EXPECTED_DROP_ROWS if row[0] <= bound]
    known = [row for row in rows if row[0] <= 20000]
    fails = []
    if known != expected:
        fails.append({"expected": expected, "got": known})
    if not rep.replay_ok():
        fails.append("replay mismatch")
    table = "; ".join(f"n={n} {a}->{b}" for n, a, b in rows)
    return [
        _result(
            "paper-table",
            "eleven-drop-rows",
            fails,
            f"{len(rows)} rows up to {bound}: {table}",
        )
    ]


def run_suite(
    name: str,
    max_value: int | None = None,
    n_values: tuple[int, ...] | None = None,
    smax: int | None = None,
    jobs: int = 1,
) -> list[PropertyResult]:
    """Run one named suite and return its property results. For pseudo,
    max_value sets only the r2-biconditional range: factorization-product
    and gcd-identity always cover the coprime tuples with n <= 1000. jobs
    forked workers share paper-table's scan, and the chunks of fj's pairs
    and of pseudo's factorization-product and gcd-identity tuples: each
    chunk hands back its failures by property, joined in item order, so
    the results are those of jobs=1. The other suites run in this
    process."""
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if name == "binary":
        return _run_binary(5000 if max_value is None else max_value)
    if name == "fj":
        return _run_fj(200 if max_value is None else max_value, 100, jobs)
    if name == "periodicity":
        n_values = tuple(n_values or (15, 21, 33, 35))
        return _run_periodicity(n_values, 300 if smax is None else smax)
    if name == "pseudo":
        return _run_pseudo(20000 if max_value is None else max_value, jobs)
    if name == "classifier-soundness":
        return _run_classifier_soundness(30000 if max_value is None else max_value)
    if name == "paper-table":
        return _run_paper_table(20000 if max_value is None else max_value, jobs)
    raise UnknownSuite(f"unknown verification suite {name!r}")
