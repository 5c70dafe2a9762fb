"""Classifier, height helpers, and conjecture scan tests.

Frozen values here were produced by brute-force height computation
through the polynomial layer, which the classifier never calls.
"""

import json
import os
import signal
import time
import tracemalloc
from collections import Counter
from math import prod

import pytest

from cycloforge import flatness
from cycloforge._numtheory import factorize, is_prime, primes_up_to
from cycloforge.cyclotomic import PhiAlgorithm, phi, signed_subset_head, signed_subset_product
from cycloforge.domains import chain4, coprime_tuples, prime_tuples
from cycloforge.errors import (
    NotSortedDistinctOddPrimes,
    RemainderNonzero,
    UnknownConjecture,
)
from cycloforge.flatness import (
    HeightCache,
    VerdictStatus,
    classify,
    coefficient_set_of,
    fork_map,
    height_of,
    height_record,
    report_csv_rows,
    scan,
)
from cycloforge.intpoly import coeff_set, poly, poly_height


def _at_neg_x(a):
    # a(-x): the odd coefficients change sign
    return poly(-c if i & 1 else c for i, c in enumerate(a.coeffs))


# (n, A(n), A(3n)) rows that the p=3 height-drop scan must reproduce
DROP_ROWS_BELOW_20000 = [
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
]


def test_height_of_golden():
    assert height_of([3, 5, 7]) == 2
    assert height_of([5, 7]) == 1
    assert height_of([5, 13, 73]) == 3
    assert height_of([3, 5, 31, 929]) == 1
    assert height_of([3]) == 1
    assert height_of([]) == 1
    assert height_of([2, 3, 5]) == 1
    assert height_of([3, 5, 7], multiplier=9) == 2
    assert height_of([5, 13, 73], multiplier=8) == 3


def test_height_of_validation():
    with pytest.raises(ValueError):
        height_of([3, 5, 6])
    with pytest.raises(ValueError):
        height_of([3, 3, 5])
    with pytest.raises(ValueError):
        height_of([3, 5], multiplier=7)
    with pytest.raises(ValueError):
        height_of([3, 5], multiplier=0)


def test_coefficient_set_golden():
    assert coefficient_set_of([3, 5, 17]) == {-1, 0, 1, 2}
    assert coefficient_set_of([3, 5, 2]) == {-1, 0, 1}
    assert coefficient_set_of([7]) == {0, 1}
    assert coefficient_set_of([3, 5, 7]) == {-2, -1, 0, 1}
    assert coefficient_set_of([2]) == {0, 1}
    assert coefficient_set_of([]) == {-1, 0, 1}
    # the factor 2 genuinely changes the set for 3*5*17, not just its sign
    assert coefficient_set_of([3, 5, 17, 2]) == {-2, -1, 0, 1}


def test_bigtop_route_matches_expansion_grid():
    # every odd squarefree n < 60 with a prime p > n and n*p <= 10000, and
    # the order-3 n of the oneshot workload's big-top calls, 3*5*7 and
    # 3*5*11, with 3*5*13 and 3*7*11, for n*p <= 60000, whichever way the
    # router sends each
    grid = [(n, 10000) for n in range(1, 60, 2)] + [(n, 60000) for n in (105, 165, 195, 231)]
    ps = [p for p in primes_up_to(10000 // 3) if p > 2]
    checked = 0
    for n, limit in grid:
        fac = factorize(n)
        if any(e > 1 for _, e in fac):
            continue
        rest = tuple(q for q, _ in fac)
        for p in ps:
            if p <= n or n * p > limit:
                continue
            f = phi(n * p, PhiAlgorithm.SparseSeries)
            assert height_of(rest + (p,)) == poly_height(f), (n, p)
            assert coefficient_set_of(rest + (p,)) == coeff_set(f), (n, p)
            checked += 1
    assert checked == 2874


def test_heights_are_constant_on_periodicity_classes():
    # The extended periodicity theorem on the scans' own domains: every
    # prime tuple of 3 to 5 primes with product <= 25000, split into its
    # top prime t and the product n of the rest. Where t > n - phi(n), the
    # head at t has the height of the head at t', the least prime above
    # n - phi(n) with t' = +/-t (mod n)
    moved = tuples = 0
    for k in (3, 4, 5):
        for _, parts in prime_tuples(k, 1, 25000):
            tuples += 1
            *rest, t = parts
            n = prod(rest)
            threshold = n - prod(q - 1 for q in rest)
            if t <= threshold:
                continue
            t2 = next(
                s
                for s in range(threshold + 1, t + 1)
                if ((s - t) % n == 0 or (s + t) % n == 0) and is_prime(s)
            )
            if t2 != t:
                moved += 1
                want = signed_subset_head(parts).height
                assert signed_subset_head(tuple(sorted((*rest, t2)))).height == want, parts
    assert (moved, tuples) == (1220, 2635)


def test_bigtop_route_edge_cases(monkeypatch):
    calls = []
    real = flatness.fstar_shifts
    monkeypatch.setattr(
        flatness, "fstar_shifts", lambda n, p: calls.append((n, p)) or real(n, p)
    )
    cases = [
        ((3, 5, 151), {-1, 0, 1}),  # w = 1
        ((3, 5, 461), {-1, 0, 1, 2}),  # w = 11
        ((3, 101), {-1, 0, 1}),  # binary
        ((101,), {0, 1}),  # single prime: n = 1
        ((5, 3, 7, 1061), set(range(-3, 4))),  # unsorted factors
    ]
    for factors, want in cases:
        f = phi(prod(factors), PhiAlgorithm.SparseSeries)
        assert coefficient_set_of(factors) == want == coeff_set(f)
        assert height_of(factors) == max(map(abs, want))
    # an even input's height is its odd radical's, off the same family
    assert height_of((2, 3, 5, 461)) == 2
    assert calls == [(15, 151), (15, 151), (15, 461), (15, 461), (3, 101), (3, 101),
                     (1, 101), (1, 101), (105, 1061), (105, 1061), (15, 461)]
    # the multiplier repeats given primes and changes neither answer
    assert height_of([3, 5, 7, 1061], multiplier=9 * 1061) == 3
    assert coefficient_set_of([3, 5, 7, 1061], multiplier=25) == set(range(-3, 4))
    # a factor of 2 flips signs at odd exponents, so it stays on expansion
    assert coefficient_set_of([3, 5, 461, 2]) == {-2, -1, 0, 1, 2}


def test_bigtop_router_keeps_costly_route_off(monkeypatch):
    # w = 9007 mod 1001 = 999: inclusion-exclusion over n*w terms costs
    # more than expanding phi(1001 * 9007) directly
    def refuse(n, p):
        raise AssertionError("routed")

    monkeypatch.setattr(flatness, "fstar_shifts", refuse)
    assert height_of((7, 11, 13, 9007)) == 7


def test_bigtop_route_beyond_expansion_reach():
    # phi(1155 * 1000033) has degree 4.8e8; its periodicity partner
    # 2113 = 1000033 (mod 1155) is small enough to expand
    assert height_of((3, 5, 7, 11, 1000033)) == 46 == poly_height(phi(1155 * 2113))


def test_bigtop_route_streams_the_shifts():
    # the 1155 shifts of (3*5*7*11, 25411) hold 554 400 coefficients; kept
    # as a list they peak above 3.5 MB
    tracemalloc.start()
    try:
        h = height_of((3, 5, 7, 11, 25411))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == 9
    assert peak < 1_000_000


def test_even_coefficient_set_from_head():
    # a factor of 2 negates odd exponents; the lower half still gives the
    # set, because i and deg - i have the same parity
    checked = 0
    for m in range(3, 4000, 2):
        fac = factorize(m)
        if any(e > 1 for _, e in fac):
            continue
        rest = tuple(q for q, _ in fac)
        want = coeff_set(_at_neg_x(phi(m, PhiAlgorithm.SparseSeries)))
        assert coefficient_set_of(rest + (2,)) == want, m
        assert coefficient_set_of(rest, multiplier=2) == want, m
        checked += 1
    assert checked > 1000


def _full_record(factors, pseudo):
    # the scan record as full expansion by the list kernels wrote it
    if pseudo:
        f = signed_subset_product(tuple(factors))
    else:
        f = phi(prod(factors), PhiAlgorithm.SparseSeries)
    return {
        "n": prod(factors),
        "factors": list(factors),
        "degree": f.degree,
        "height": poly_height(f),
    }


def test_height_record_matches_full_expansion():
    cases = [(fs, False) for _, fs in prime_tuples(3, 1, 8000)]
    cases += [(fs, False) for _, fs in prime_tuples(4, 1, 30000)]
    cases += [(fs, False) for _, fs in prime_tuples(5, 1, 60000)]
    # the drop scans' partners: 3 or 5 joins the factors
    cases += [((3, 5, 7, 11), False), ((3, 7, 11, 13), False), ((5, 7, 11, 13), False)]
    cases += [(fs, True) for _, fs in coprime_tuples(3, 1, 1500, odd_only=True)]
    cases += [(fs, True) for _, fs in coprime_tuples(3, 1, 600)]
    for factors, pseudo in cases:
        got = height_record(factors, signed_subset_head(factors).height)
        assert json.dumps(got) == json.dumps(_full_record(factors, pseudo)), factors
    assert len(cases) > 1300


def test_classify_golden_verdicts():
    cases = [
        ((3, 5, 31), VerdictStatus.Flat, "r±1", None),
        ((3, 5, 17), VerdictStatus.HeightExactly2, "r±2", None),
        ((7, 43, 599), VerdictStatus.Flat, "broadhurst-II", None),
        ((3, 5, 31, 929), VerdictStatus.Flat, "pqrs-chain", None),
        ((5, 7, 71, 4969), VerdictStatus.NotFlat, "pqrs-chain", None),
        ((3, 11, 41), VerdictStatus.BoundOnly, "A<=|w|", 8),
    ]
    for factors, status, citation, bound in cases:
        v = classify(factors)
        assert v.status is status, factors
        assert v.citation == citation, factors
        assert v.bound == bound, factors
    assert "w=3" in classify((7, 43, 599)).detail
    assert classify(()).status is VerdictStatus.Flat
    assert classify((7,)).citation == "order<=2"
    assert classify((11, 13)).status is VerdictStatus.Flat


def test_classify_cites_broadhurst_ii_on_its_whole_small_domain():
    # enumerated by the theorem's congruences, not by classify: w >= 3,
    # p = 1 (mod w), q = 1 (mod pw), r = +/-w (mod pq), all prime, n <= 3e6;
    # n > p*q*q > p^3*w^2 > (w+1)^3*w^2 ends each loop
    bound = 3 * 10**6
    members = set()
    w = 3
    while (w + 1) ** 3 * w * w <= bound:
        for p in range(w + 1, bound, w):
            if p**3 * w * w > bound:
                break
            if not is_prime(p):
                continue
            for q in range(p * w + 1, bound, p * w):
                if p * q * q > bound:
                    break
                if not is_prime(q):
                    continue
                pq = p * q
                for k in range(1, bound // (pq * pq) + 2):
                    for r in (k * pq - w, k * pq + w):
                        if q < r and pq * r <= bound and is_prime(r):
                            members.add((w, p, q, r))
        w += 1
    assert len(members) == 68
    assert min(members, key=lambda m: (m[1], prod(m[1:]))) == (4, 5, 41, 619)
    assert min(members, key=lambda m: prod(m[1:])) == (6, 7, 43, 307)
    for w, *fs in members:
        v = classify(fs)
        assert v.citation == "broadhurst-II", fs
        assert v.status is VerdictStatus.Flat, fs
        assert v.detail.startswith(f"w={w}:"), fs


def test_classify_brute_confirms_spot_cases():
    # the classifier's congruence-only verdicts against real heights
    assert poly_height(phi(7 * 43 * 599)) == 1
    assert poly_height(phi(3 * 11 * 41)) == 1  # BoundOnly but actually flat
    assert poly_height(phi(3 * 5 * 17)) == 2


def test_classify_silent_and_bound_cases():
    # ternary always gets at least the |w| bound, never TheoremSilent
    v3 = classify((3, 5, 7))
    assert v3.status is VerdictStatus.BoundOnly and v3.bound == 7
    v = classify((3, 5, 7, 11))
    assert v.status is VerdictStatus.TheoremSilent
    assert v.citation == "none"
    assert classify((3, 5, 7, 11, 13)).status is VerdictStatus.TheoremSilent


def test_classify_quinary_chain():
    # 29=2*15-1 and 1741=4*435+1 form a chain, and 5=-1 (mod 3): flat
    assert classify((3, 5, 29, 1741)).status is VerdictStatus.Flat
    # extending the chain by 1514671=2*757335+1 forces non-flatness
    v = classify((3, 5, 29, 1741, 1514671))
    assert v.status is VerdictStatus.NotFlat
    assert v.citation == "pqrst-chain"
    # a quinary tail off the chain stays silent
    assert classify((3, 5, 29, 1741, 3089)).status is VerdictStatus.TheoremSilent


def test_classify_validation():
    for bad in [(2, 3, 5), (5, 3), (3, 3, 5), (3, 5, 9), (3, 5, 15)]:
        with pytest.raises(NotSortedDistinctOddPrimes):
            classify(bad)
    with pytest.raises(ValueError):
        classify((3, 5, 7, 11, 13, 17))


def test_regression_609_not_flat():
    # 609 = 3*7*29 has w=8 with every flat-side congruence of the w-based
    # conjecture satisfied except w=+/-1 (mod p), yet height exactly 2
    v = classify((3, 7, 29))
    assert v.status is VerdictStatus.NotFlat
    assert v.citation == "q-p<|w|<q+p"
    assert poly_height(phi(609)) == 2


def test_classifier_agrees_with_brute_below_6000():
    seen = Counter()
    for n, (p, q, r) in prime_tuples(3, 1, 6000):
        v = classify((p, q, r))
        h = poly_height(phi(n))
        seen[v.status] += 1
        if v.status is VerdictStatus.Flat:
            assert h == 1, (p, q, r)
        elif v.status is VerdictStatus.HeightExactly2:
            assert h == 2, (p, q, r)
        elif v.status is VerdictStatus.NotFlat:
            assert h >= 2, (p, q, r)
        else:
            assert v.status is VerdictStatus.BoundOnly
            assert 1 <= h <= v.bound, (p, q, r)
    assert seen[VerdictStatus.Flat] > 0
    assert seen[VerdictStatus.HeightExactly2] > 0
    assert seen[VerdictStatus.NotFlat] > 0
    assert seen[VerdictStatus.BoundOnly] > 0


def test_drop_scan_finds_4745():
    rep = scan("height_drop_p3", 5000)
    assert rep.conjecture == "height_drop_p3"
    assert rep.range_checked == (1, 5000)
    assert [(r["n"], *r["heights"]) for r in rep.counterexamples] == [(4745, 3, 2)]
    assert rep.counterexamples[0]["factors"] == [5, 13, 73]
    assert rep.counterexamples[0]["p"] == 3
    assert rep.replay_ok()


def test_drop_scan_to_20000_keeps_factorize_memo_bounded():
    # the scan factorizes one index per polynomial it expands; a long scan
    # must not grow the memo for the life of the process
    rep = scan("height_drop_p3", 20000)
    assert [(r["n"], *r["heights"]) for r in rep.counterexamples] == DROP_ROWS_BELOW_20000
    assert factorize.cache_info().currsize <= 512


def test_notflat_scan_empty_below_10000():
    rep = scan("notflat", 10000)
    assert rep.counterexamples == []
    assert rep.replay_ok()


def test_pseudo_scans_empty_below_3000(tmp_path):
    journal = str(tmp_path / "scan.jsonl")
    for tag in ("pseudonotflat", "pseudobroadhurst3"):
        rep = scan(tag, 3000, cache=journal)
        assert rep.counterexamples == []
    # composite parts really were enumerated, e.g. (3, 5, 49)
    assert (3, 5, 49) in HeightCache(journal).heights


def test_quaternary_and_quinary_scans_small():
    assert scan("pqrsallflat", 30000).counterexamples == []
    assert scan("pqrstnotflat", 50000).counterexamples == []


def test_pqrs2_scan_and_chain_domain():
    assert list(chain4(1, 2_000_000)) == [
        (1481781, (3, 7, 41, 1721)),
        (1483503, (3, 7, 41, 1723)),
    ]
    # classifier agrees these are chain cases decided by q mod p
    v = classify((3, 7, 41, 1721))
    assert v.citation == "pqrs-chain" and v.status is VerdictStatus.NotFlat
    assert scan("pqrs2", 100000).counterexamples == []


def test_np_scans_empty_small(tmp_path):
    journal = str(tmp_path / "scan.jsonl")
    rep = scan("np_stays_nonflat", 4000, cache=journal)
    assert rep.counterexamples == []
    assert HeightCache(journal).heights[(3, 5, 7)] == 2
    with open(journal, encoding="utf-8") as fh:
        records = [obj for obj in map(json.loads, fh) if obj.get("factors") == [3, 5, 7]]
    assert records == [{"n": 105, "factors": [3, 5, 7], "degree": 48, "height": 2}]
    assert scan("np_monotonic_p5", 6000).counterexamples == []


def test_scan_validation(monkeypatch, tmp_path):
    # arguments are checked before the journal is touched, and a scan
    # without a journal writes no file
    monkeypatch.chdir(tmp_path)
    journal = str(tmp_path / "cache.jsonl")
    with pytest.raises(UnknownConjecture):
        scan("nosuch", 1000, cache=journal)
    with pytest.raises(ValueError, match="bound must be positive"):
        scan("notflat", 0, cache=journal)
    for width in (0, -5):
        with pytest.raises(ValueError, match="chunk_width must be positive"):
            scan("notflat", 1000, cache=journal, chunk_width=width)
    assert scan("notflat", 1000, cache=None).counterexamples == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("where", ["missing/j", "."], ids=["no-directory", "a-directory"])
def test_scan_refuses_a_journal_it_cannot_write(tmp_path, where):
    journal = str(tmp_path / where)
    with pytest.raises(ValueError) as err:
        scan("notflat", 100, cache=journal)
    assert str(err.value) == (
        f"cache {journal!r} is not writable; pass --no-cache to run anyway"
    )


def test_scan_journal_blank_lines_load_the_same(tmp_path):
    journal = tmp_path / "cache.jsonl"
    scan("height_drop_p3", 5000, cache=str(journal), chunk_width=1000)
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n\n".join(journal.read_text().splitlines()) + "\n  \n")
    plain, loose = HeightCache(str(journal)), HeightCache(str(spaced))
    assert len(plain.hits) == 5 and any(plain.hits.values())
    assert (loose.hits, loose.heights) == (plain.hits, plain.heights)


def test_scan_journal_resume(tmp_path):
    journal = tmp_path / "cache.jsonl"
    rep1 = scan("height_drop_p3", 5000, cache=str(journal), chunk_width=1000)
    lines = journal.read_text().splitlines()
    marker_at = [i for i, line in enumerate(lines) if "chunk_done" in line]
    assert len(marker_at) == 5
    assert any('"hit"' in line for line in lines)

    # replaying against an intact journal does no new work
    before = journal.stat().st_size
    rep2 = scan("height_drop_p3", 5000, cache=str(journal), chunk_width=1000)
    assert journal.stat().st_size == before
    assert rep2.counterexamples == rep1.counterexamples

    # simulate a crash after two completed chunks, then resume
    journal.write_text("\n".join(lines[: marker_at[1] + 1]) + "\n")
    rep3 = scan("height_drop_p3", 5000, cache=str(journal), chunk_width=1000)
    assert rep3.counterexamples == rep1.counterexamples
    assert sum("chunk_done" in line for line in journal.read_text().splitlines()) == 5

    # a different conjecture or bound never reuses those chunk markers
    rep4 = scan("notflat", 5000, cache=str(journal), chunk_width=1000)
    assert rep4.counterexamples == []
    assert journal.stat().st_size > before


def test_scan_journal_torn_tail_keeps_hits(tmp_path):
    # a crash mid-write leaves a torn last line; the next chunk must not be
    # glued onto it, or its hit is lost while its chunk marker survives
    journal = str(tmp_path / "cache.jsonl")
    scan("height_drop_p3", 5000, cache=journal)
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write('{"n": 99, "factors": [3')
    first = scan("height_drop_p3", 4999, cache=journal, chunk_width=5000)
    again = scan("height_drop_p3", 4999, cache=journal, chunk_width=5000)
    assert [r["n"] for r in first.counterexamples] == [4745]
    assert again.counterexamples == first.counterexamples


def test_scan_journal_torn_marker_counts_its_hit_once(tmp_path):
    # a crash after a chunk's hit line but before its marker: the rerun
    # writes the same hit under a whole marker, and every later load must
    # count the two copies once
    journal = tmp_path / "cache.jsonl"
    scan("height_drop_p3", 6000, cache=str(journal))
    marker = '{"chunk_done": [4001, 6000], "conjecture": "height_drop_p3", "bound": 6000}'
    lines = journal.read_text().splitlines()
    assert marker in lines
    kept = [line for line in lines if line != marker]
    journal.write_text("\n".join(kept) + '\n{"chunk_done": [4001, 60')
    resumed = scan("height_drop_p3", 6000, cache=str(journal))
    assert [r["n"] for r in resumed.counterexamples] == [4745]
    assert sum('"hit"' in line for line in journal.read_text().splitlines()) == 2
    again = scan("height_drop_p3", 6000, cache=str(journal))
    assert again.counterexamples == resumed.counterexamples


_MARKER = '{"chunk_done": [1, 100], "conjecture": "notflat", "bound": 100}'


def _hit_line(hit):
    return f'{{"hit": {hit}, "conjecture": "notflat", "bound": 100, "chunk": [1, 100]}}'


@pytest.mark.parametrize(
    "line",
    [
        "7",
        '{"chunk_done": [1, 2000], "bound": 5}',
        '"n"',
        "[]",
        _hit_line(5) + "\n" + _MARKER,
        _hit_line('{"n": 5}') + "\n" + _MARKER,
        '{"n": 105, "factors": [3, 5, 7], "degree": 48, "height": "2"}',
        '{"n": 105, "factors": [3, 5, 7], "degree": 48, "height": true}',
        '{"n": 105, "factors": [3, 5, 7], "degree": 48, "height": 0}',
        '{"n": 105, "factors": [3, 5, 7], "degree": 48}',
    ],
    ids=[
        "number",
        "marker-without-tag",
        "string",
        "list",
        "hit-number",
        "hit-without-keys",
        "height-string",
        "height-true",
        "height-zero",
        "height-missing",
    ],
)
def test_scan_journal_line_that_is_no_entry_is_an_error(tmp_path, line):
    # a line that parses but is no journal entry stops the load with one
    # error line: skipped, a dropped hit under an intact chunk marker would
    # be lost. A hit that is no record of the keys the report reads is no
    # entry either, even with its chunk marker after it, and a record needs
    # the positive int height that later chunks read.
    from click.testing import CliRunner

    from cycloforge.cli import main

    journal = tmp_path / "cache.jsonl"
    scan("notflat", 100, cache=str(journal))
    number = len(journal.read_text(encoding="utf-8").splitlines()) + 1
    with open(journal, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    message = f"{journal}, line {number}: not a journal entry"
    with pytest.raises(ValueError) as err:
        HeightCache(str(journal))
    assert str(err.value) == message
    argv = ["scan", "--conjecture", "notflat", "--bound", "100", "--cache", str(journal)]
    r = CliRunner().invoke(main, argv)
    assert (r.exit_code, r.stdout) == (1, "")
    assert r.stderr == f"error: {message}\n"


def test_journalled_heights_are_read_not_recomputed(monkeypatch, tmp_path):
    computed = []
    real = flatness.signed_subset_head
    monkeypatch.setattr(
        flatness, "signed_subset_head", lambda fs: computed.append(fs) or real(fs)
    )
    # broadhurst3 enumerates the prime triples that notflat journalled
    journal = str(tmp_path / "shared.jsonl")
    scan("notflat", 5000, cache=journal)
    computed.clear()
    rep = scan("broadhurst3", 5000, cache=journal)
    assert computed == []
    assert rep.counterexamples == scan("broadhurst3", 5000).counterexamples
    # the extend reads the heights of the half scan's partial last window
    cold = str(tmp_path / "cold.jsonl")
    computed.clear()
    scan("height_drop_p3", 5000, cache=cold)
    heads = set(computed)
    assert len(heads) == len(computed)
    half = str(tmp_path / "half.jsonl")
    scan("height_drop_p3", 2500, cache=half)
    journalled = set(HeightCache(half).heights)
    computed.clear()
    scan("height_drop_p3", 5000, cache=half)
    assert sorted(computed) == sorted(heads - journalled)


def test_scan_workers_pool_matches_inline(tmp_path):
    inline = scan("height_drop_p3", 6000, workers=1)
    pooled = scan("height_drop_p3", 6000, workers=2, chunk_width=1500)
    assert pooled.counterexamples == inline.counterexamples
    # the driver journals every chunk in window order, whoever computed it
    journals = [tmp_path / "one.jsonl", tmp_path / "two.jsonl"]
    for workers, journal in enumerate(journals, start=1):
        scan("height_drop_p3", 6000, workers=workers, cache=str(journal), chunk_width=1500)
    assert journals[0].read_bytes() == journals[1].read_bytes()


def test_fork_map_forks_one_child_per_extra_item(monkeypatch):
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    assert list(fork_map(lambda x: x * x, [2, 3, 4], workers=64)) == [4, 9, 16]
    assert len(forks) == 3
    forks.clear()
    assert list(fork_map(lambda x: x * x, [5], workers=64)) == [25]
    assert list(fork_map(lambda x: x * x, [2, 3], workers=1)) == [4, 9]
    assert forks == []


def test_fork_map_caller_computes_no_item():
    # when the map forks, every item runs on a child; otherwise on the caller
    pids = list(fork_map(lambda x: os.getpid(), range(4), workers=2))
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert list(fork_map(lambda x: os.getpid(), range(4), workers=1)) == [os.getpid()] * 4


def test_fork_map_reports_a_worker_that_dies():
    # item 1 is child 1's share; it dies without sending anything back
    def die(x):
        if x == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(RuntimeError, match="exit code -9"):
        list(fork_map(die, [0, 1], workers=2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _wait_for(marker, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not marker.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return marker.exists()


def test_fork_map_caller_works_ahead_of_a_busy_child(tmp_path):
    # item 1 is child 1's and waits for item 2, child 0's next one, so it
    # finishes in time only if child 0 starts item 2 before item 1 is read
    def f(x):
        if x == 2:
            (tmp_path / "two").touch()
        return _wait_for(tmp_path / "two") if x == 1 else x

    assert list(fork_map(f, [0, 1, 2], workers=2)) == [0, True, 2]

    # an item computed before its turn that fails still fails after the
    # earlier ones
    def g(x):
        if x == 2:
            (tmp_path / "two-failed").touch()
            raise RemainderNonzero("item 2")
        return _wait_for(tmp_path / "two-failed") if x == 1 else x

    results = fork_map(g, [0, 1, 2], workers=2)
    assert (next(results), next(results)) == (0, True)
    with pytest.raises(RemainderNonzero, match="item 2"):
        next(results)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_closed_early_reaps_its_children():
    # a caller that stops reading, as scan does when record_chunk raises
    results = fork_map(lambda x: x * x, range(6), workers=3)
    assert next(results) == 0
    results.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_children_leave_the_stdout_buffer_alone():
    # stdout is a pipe, so the line printed before the fork sits in the
    # buffer every child inherits; a child that flushed it on its way out
    # would print it twice
    import subprocess
    import sys

    script = (
        "from cycloforge.flatness import fork_map\n"
        "print('before')\n"
        "print(list(fork_map(abs, [-1, -2, -3], workers=3)))\n"
    )
    pkg_root = os.path.dirname(os.path.dirname(flatness.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30, env=env
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "before\n[1, 2, 3]\n", "")


@pytest.mark.parametrize("failing_lo", [5001, 4001], ids=["child-share", "own-share"])
def test_scan_worker_error_is_raised_and_children_reaped(monkeypatch, tmp_path, failing_lo):
    # on two workers child 0 scans windows 0, 2, 4 and child 1 windows 1, 3,
    # 5; the windows before the failing one are journalled as they arrive
    real = flatness._scan_chunk

    def chunk(desc, known):
        if desc[1] == failing_lo:
            raise RemainderNonzero(f"window at {failing_lo}")
        return real(desc, known)

    monkeypatch.setattr(flatness, "_scan_chunk", chunk)
    journal = tmp_path / "scan.jsonl"
    with pytest.raises(RemainderNonzero, match=f"window at {failing_lo}"):
        scan("height_drop_p3", 6000, workers=2, cache=str(journal), chunk_width=1000)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    done = sorted(key[-2:] for key in HeightCache(str(journal)).hits)
    assert done == [(lo, lo + 999) for lo in range(1, failing_lo, 1000)]


def test_report_csv_and_json():
    rep = scan("height_drop_p3", 5000)
    rows = report_csv_rows(rep)
    assert rows[0] == ["id", "n_or_tuple", "height_values", "verdict"]
    assert rows[1][:3] == ["1", "4745->14235", "3;2"]
    blob = json.dumps(rep.to_json())
    back = json.loads(blob)
    assert back["conjecture"] == "height_drop_p3"
    assert back["range_checked"] == [1, 5000]
    assert back["counterexamples"][0]["n"] == 4745
    assert back["complete"] is True


_OFF_CONGRUENCE = "flat without q=+/-1 (mod p) or r=+/-1 (mod pq)"

# Each tag's bound, the height forged for one item and the hit it makes.
# No tested range holds a counterexample: each forged height is off by at
# least one. The one window is [1, bound].
FORGED_HITS = {
    "notflat": (
        400,
        1,
        {"n": 385, "factors": [5, 7, 11], "heights": [1], "verdict": _OFF_CONGRUENCE},
    ),
    "pseudonotflat": (
        400,
        1,
        {"n": 315, "factors": [5, 7, 9], "heights": [1], "verdict": _OFF_CONGRUENCE},
    ),
    "pqrsallflat": (
        1155,
        1,
        {
            "n": 1155,
            "factors": [3, 5, 7, 11],
            "heights": [1],
            "verdict": "flat quaternary without the full congruence chain",
        },
    ),
    # the least pqrs chain with q != -1 (mod p) has height 2
    "pqrs2": (
        1481781,
        3,
        {
            "n": 1481781,
            "factors": [3, 7, 41, 1721],
            "heights": [3],
            "verdict": "chain with q!=-1 (mod p) but height 3 != 2",
        },
    ),
    "pqrstnotflat": (
        15015,
        1,
        {"n": 15015, "factors": [3, 5, 7, 11, 13], "heights": [1], "verdict": "flat quinary"},
    ),
    # 9177 = 3 * 3059 is the least product of four odd primes with exactly
    # one non-flat ternary divisor, A(3059) = 3; A(9177) is 6
    "np_stays_nonflat": (
        9177,
        1,
        {
            "n": 3059,
            "factors": [7, 19, 23],
            "p": 3,
            "heights": [3, 1],
            "verdict": "A(3059)=3 but A(9177)=1",
        },
    ),
}


@pytest.mark.parametrize(
    "tag, forged, label",
    [
        ("notflat", (5, 7, 11), "385"),
        ("pseudonotflat", (5, 7, 9), "(5,7,9)"),
        ("pqrsallflat", (3, 5, 7, 11), "1155"),
        ("pqrs2", (3, 7, 41, 1721), "1481781"),
        ("pqrstnotflat", (3, 5, 7, 11, 13), "15015"),
        ("np_stays_nonflat", (3, 7, 19, 23), "3059->9177"),
    ],
)
def test_scan_hit_is_reported_journalled_and_labelled(monkeypatch, tmp_path, tag, forged, label):
    # one item's height is forged so that it breaks the tag; the hit must
    # reach the report, the journal and the CSV, and replay must catch it
    bound, height, hit = FORGED_HITS[tag]
    real = flatness.signed_subset_head

    def head(factors):
        got = real(factors)
        return got._replace(height=height) if factors == forged else got

    monkeypatch.setattr(flatness, "signed_subset_head", head)
    journal = tmp_path / "scan.jsonl"
    rep = scan(tag, bound, cache=str(journal), chunk_width=bound)
    assert rep.counterexamples == [hit]
    lines = [json.loads(line) for line in journal.read_text().splitlines()]
    assert [obj for obj in lines if "hit" in obj] == [
        {"hit": hit, "conjecture": tag, "bound": bound, "chunk": [1, bound]}
    ]
    key = (tag, bound, 1, bound) if tag == "np_stays_nonflat" else (tag, 1, bound)
    assert HeightCache(str(journal)).hits == {key: [hit]}
    heights = ";".join(map(str, hit["heights"]))
    assert report_csv_rows(rep)[1:] == [["1", label, heights, hit["verdict"]]]
    assert not rep.replay_ok()


def test_scan_reuses_windows_of_a_smaller_bound(monkeypatch, tmp_path):
    computed = []
    real = flatness._scan_chunk
    monkeypatch.setattr(
        flatness,
        "_scan_chunk",
        lambda desc, known: computed.append(desc[1:3]) or real(desc, known),
    )
    journal = str(tmp_path / "cache.jsonl")
    scan("pqrstnotflat", 20000, cache=journal)
    computed.clear()
    scan("pqrstnotflat", 40000, cache=journal)
    assert computed == [(lo, lo + 1999) for lo in range(20001, 40000, 2000)]
    # np_stays_nonflat looks beyond its window, up to the bound, so a
    # larger bound redoes every window
    scan("np_stays_nonflat", 2000, cache=journal, chunk_width=500)
    computed.clear()
    scan("np_stays_nonflat", 4000, cache=journal, chunk_width=500)
    assert computed == [(lo, lo + 499) for lo in range(1, 4000, 500)]


def test_scan_journal_window_done_under_two_bounds(tmp_path):
    # journals written before chunks were keyed without the bound hold a
    # window once per bound; its hits must still count once
    journal = tmp_path / "cache.jsonl"
    scan("height_drop_p3", 5000, cache=str(journal), chunk_width=5000)
    lines = journal.read_text().splitlines()
    again = [
        json.dumps({**obj, "bound": 6000})
        for obj in map(json.loads, lines)
        if "hit" in obj or "chunk_done" in obj
    ]
    journal.write_text("\n".join(lines + again) + "\n")
    size = journal.stat().st_size
    rep = scan("height_drop_p3", 5000, cache=str(journal), chunk_width=5000)
    assert [r["n"] for r in rep.counterexamples] == [4745]
    assert journal.stat().st_size == size
