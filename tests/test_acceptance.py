"""Acceptance suite: one test per performance criterion, each asserting the
stated result at the stated tolerance and runtime budget.

Budgets are generous on purpose (they bound a desk machine, not this one),
so a failure here means a real regression, not jitter. The two reduced-bound
scan tests at the end stand in for census-scale evidence that is out of
desk range.
"""

import time

from click.testing import CliRunner

from cycloforge._numtheory import factorize
from cycloforge.cli import main
from cycloforge.cyclotomic import PhiAlgorithm, phi
from cycloforge.domains import prime_tuples
from cycloforge.flatness import VerdictStatus, classify, height_of, scan
from cycloforge.intpoly import poly_height
from cycloforge.verify_suites import (
    EXPECTED_DROP_ROWS,
    _alternating_units,
    run_suite,
)

PRETTY_35 = (
    "x²⁴ - x²³ + x¹⁹ - x¹⁸ + x¹⁷ - x¹⁶ + x¹⁴ - x¹³ + x¹² - x¹¹ + x¹⁰"
    " - x⁸ + x⁷ - x⁶ + x⁵ - x + 1"
)


def _report(num, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} - {desc}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


def _best_of(fn, repeats=5):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_criterion_01_golden_pretty_phi35():
    r = CliRunner().invoke(main, ["phi", "--n", "35", "--format", "pretty"])
    bytes_ok = r.exit_code == 0 and r.stdout == PRETTY_35 + "\n"
    _, dt = _best_of(lambda: phi(35, alg=PhiAlgorithm.MobiusProduct))
    _report(1, "pretty form of index 35 is byte-exact", bytes_ok and dt < 0.001,
            f"{dt * 1000:.3f} ms")


def test_criterion_02_height_105():
    def compute():
        f = phi(105, alg=PhiAlgorithm.SparseSeries)
        return poly_height(f), f.coeff(7)

    (height, c7), dt = _best_of(compute)
    _report(2, "height of index 105 is 2 with coefficient -2 at degree 7",
            height == 2 and c7 == -2 and dt < 0.001, f"{dt * 1000:.3f} ms")


def test_criterion_03_binary_flat_alternating():
    t0 = time.perf_counter()
    pairs = 0
    ok = True
    for _, (p, q) in prime_tuples(2, 1, 5000):
        f = phi(p * q)
        pairs += 1
        ok = ok and poly_height(f) == 1 and _alternating_units(f)
    dt = time.perf_counter() - t0
    _report(3, "all odd prime pairs to 5000 are flat with alternating signs",
            ok and pairs == 980 and dt < 5, f"{pairs} pairs, {dt:.2f}s")


def test_criterion_04_four_algorithm_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    checked = 0
    for n in range(1, 5001):
        if any(e > 1 for _, e in factorize(n)):
            continue
        checked += 1
        a = phi(n, alg=PhiAlgorithm.MobiusProduct)
        if a != phi(n, alg=PhiAlgorithm.RecursiveQuotient):
            mismatches += 1
        if a != phi(n, alg=PhiAlgorithm.SparseSeries):
            mismatches += 1
        if n <= 1000 and a != phi(n, alg=PhiAlgorithm.GcdOfSparse):
            mismatches += 1
    dt = time.perf_counter() - t0
    _report(4, "four computation routes agree on squarefree indices to 5000",
            mismatches == 0 and dt < 60, f"{checked} indices, {dt:.2f}s")


def test_criterion_05_drop_table_20000():
    t0 = time.perf_counter()
    rep1 = scan("height_drop_p3", 20000, workers=1)
    dt1 = time.perf_counter() - t0
    rows1 = [(r["n"], r["heights"][0], r["heights"][1]) for r in rep1.counterexamples]

    t0 = time.perf_counter()
    rep4 = scan("height_drop_p3", 20000, workers=4)
    dt4 = time.perf_counter() - t0
    rows4 = [(r["n"], r["heights"][0], r["heights"][1]) for r in rep4.counterexamples]

    ok = (
        rows1 == list(EXPECTED_DROP_ROWS)
        and rows4 == rows1
        and (19499, 8, 7) in rows1
        and dt1 < 600
        and dt4 < 180
    )
    _report(5, "multiplier-3 height-drop table below 20000 has exactly 11 rows",
            ok, f"single {dt1:.1f}s, 4 workers {dt4:.1f}s")


def test_criterion_06_smallest_flat_quaternary():
    t0 = time.perf_counter()
    f = phi(3 * 5 * 31 * 929, alg=PhiAlgorithm.SparseSeries)
    dt = time.perf_counter() - t0
    _report(6, "index 3*5*31*929 is flat via the sparse series route",
            poly_height(f) == 1 and dt < 30, f"degree {f.degree}, {dt:.2f}s")


def test_criterion_07_classifier_soundness_sweep():
    t0 = time.perf_counter()
    results = run_suite("classifier-soundness", jobs=4)
    dt = time.perf_counter() - t0
    ok = all(r.ok for r in results) and dt < 900
    _report(7, "classifier verdicts sound on all ternary indices to 30000",
            ok, "; ".join(r.info for r in results) + f", {dt:.1f}s")


def test_criterion_08_periodicity_suite():
    t0 = time.perf_counter()
    results = run_suite("periodicity")
    dt = time.perf_counter() - t0
    ok = all(r.ok for r in results) and len(results) == 2 and dt < 120
    _report(8, "coefficient-set periodicity holds with the predicted sign",
            ok, f"{results[0].info}, {dt:.2f}s")


def test_criterion_09_fj_suite():
    t0 = time.perf_counter()
    results = run_suite("fj")
    dt = time.perf_counter() - t0
    ok = all(r.ok for r in results) and len(results) == 5 and dt < 120
    _report(9, "residue-class family identities hold on the (n, p) grid",
            ok, f"{results[0].info}, {dt:.1f}s")


def test_criterion_10_pseudo_suite():
    t0 = time.perf_counter()
    results = run_suite("pseudo")
    dt = time.perf_counter() - t0
    ok = all(r.ok for r in results) and len(results) == 3 and dt < 300
    _report(10, "pseudo product, gcd and residue-2 identities hold",
            ok, "; ".join(r.info for r in results) + f", {dt:.1f}s")


def test_criterion_11_broadhurst_spot_check():
    t0 = time.perf_counter()
    height = height_of((7, 43, 599))
    verdict = classify((7, 43, 599))
    dt = time.perf_counter() - t0
    ok = (
        height == 1
        and verdict.status is VerdictStatus.Flat
        and verdict.citation == "broadhurst-II"
        and "w=3" in verdict.detail
        and dt < 10
    )
    _report(11, "index 7*43*599 is flat and cited with w=3", ok, f"{dt:.2f}s")


def test_reduced_bound_census_substitutes():
    # census-scale evidence is out of desk range; these are the agreed
    # stand-ins: a bounded quaternary-flat scan plus the congruence-chain
    # route for the quinary non-flat result
    t0 = time.perf_counter()
    rep = scan("pqrsallflat", 100000, workers=1)
    dt = time.perf_counter() - t0
    quaternary_ok = rep.counterexamples == [] and rep.replay_ok()

    chain = classify((3, 5, 29, 1741, 1514671))
    quinary_ok = (
        chain.status is VerdictStatus.NotFlat and chain.citation == "pqrst-chain"
    )
    _report("C1", "reduced-bound quaternary scan and quinary chain check",
            quaternary_ok and quinary_ok, f"scan to 100000 in {dt:.1f}s")


def test_scan_examples_from_contract():
    rep = scan("notflat", 10000, workers=1)
    ternary_ok = rep.counterexamples == []
    rep = scan("np_monotonic_p5", 20000, workers=1)
    p5_ok = rep.counterexamples == []
    _report("C2", "ternary conjecture and multiplier-5 monotonicity scans are clean",
            ternary_ok and p5_ok)
