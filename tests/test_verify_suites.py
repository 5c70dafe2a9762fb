from math import gcd

import pytest

from cycloforge import flatness, verify_suites
from cycloforge._numtheory import is_prime, totient
from cycloforge.cyclotomic import phi
from cycloforge.errors import UnknownSuite
from cycloforge.fjdecomp import BezoutSplit, FjFamily
from cycloforge.flatness import VerdictStatus
from cycloforge.intpoly import poly, poly_add
from cycloforge.verify_suites import SUITE_NAMES, PropertyResult, run_suite


def monomial(k, c=1):
    return poly((0,) * k + (c,))


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuite):
        run_suite("nosuch")


def test_suite_names_are_dispatchable():
    assert len(SUITE_NAMES) == 6
    assert len(set(SUITE_NAMES)) == 6


def test_binary_suite_small():
    results = run_suite("binary", max_value=300)
    assert [r.prop for r in results] == [
        "flat-height",
        "sign-alternation",
        "explicit-form",
        "staircase-identity",
    ]
    assert all(isinstance(r, PropertyResult) and r.ok for r in results)


def _bump_constant(f, by=1):
    return poly((f.coeffs[0] + by,) + f.coeffs[1:])


def _flip_flatness(head):
    return head._replace(height=2 if head.height == 1 else 1)


@pytest.mark.parametrize(
    "target, key, failing",
    [
        ("phi", (15,), {"flat-height": "(3, 5)", "sign-alternation": "(3, 5)"}),
        (
            "staircase_multiple",
            (3, 5, 1),
            {"explicit-form": "(3, 5)", "staircase-identity": "(3, 5, 1)"},
        ),
        ("staircase_multiple", (3, 5, 2), {"staircase-identity": "(3, 5, 2)"}),
    ],
    ids=["phi-15", "staircase-l1", "staircase-l2"],
)
def test_binary_suite_catches_forgeries(monkeypatch, target, key, failing):
    # one corrupted coefficient of one input fails exactly the properties
    # that read it, and each names that input
    real = getattr(verify_suites, target)

    def forged(*args):
        f = real(*args)
        return _bump_constant(f) if args == key else f

    monkeypatch.setattr(verify_suites, target, forged)
    results = run_suite("binary", max_value=300)
    assert {r.prop: r.info for r in results if not r.ok} == {
        prop: f"1 counterexamples, first: {bad}" for prop, bad in failing.items()
    }


@pytest.mark.parametrize(
    "target, key, forge, failing",
    [
        (
            "pseudo_phi",
            (3, 5, 7),
            _bump_constant,
            {"factorization-product": "(3, 5, 7)", "gcd-identity": "(3, 5, 7)"},
        ),
        ("signed_subset_head", (3, 5, 13), _flip_flatness, {"r2-biconditional": "(3, 5, 13)"}),
    ],
    ids=["pseudo-phi-105", "head-195"],
)
def test_pseudo_suite_catches_forgeries(monkeypatch, target, key, forge, failing):
    # a corrupted expansion of one tuple, or a wrong height for one
    # r = +/-2 (mod pq) triple, fails exactly the properties that read it
    real = getattr(verify_suites, target)

    def forged(parts):
        f = real(parts)
        return forge(f) if tuple(parts) == key else f

    monkeypatch.setattr(verify_suites, target, forged)
    results = run_suite("pseudo", max_value=300)
    assert {r.prop: r.info for r in results if not r.ok} == {
        prop: f"1 counterexamples, first: {bad}" for prop, bad in failing.items()
    }
    # --max sets the r2 range only; the other two always cover n <= 1000
    passed = {
        "factorization-product": "2929 tuples, n <= 1000",
        "gcd-identity": "2929 tuples, n <= 1000",
        "r2-biconditional": "2 coprime triples with r=+/-2 (mod pq), n <= 300",
    }
    assert {r.prop: r.info for r in results if r.ok} == {
        prop: info for prop, info in passed.items() if prop not in failing
    }


def test_pseudo_suite_names_the_earlier_of_two_forged_chunks(monkeypatch):
    # (2, 399) is tuple 399 and (3, 5, 7) tuple 481: chunks 3 and 4 of 100,
    # which two workers compute apart. The failures merge in tuple order
    real = verify_suites.pseudo_phi
    keys = {(2, 399), (3, 5, 7)}
    monkeypatch.setattr(
        verify_suites, "pseudo_phi",
        lambda parts: _bump_constant(real(parts)) if tuple(parts) in keys else real(parts),
    )
    results = run_suite("pseudo", max_value=300, jobs=2)
    assert {r.prop: r.info for r in results if not r.ok} == {
        "factorization-product": "2 counterexamples, first: (2, 399)",
        "gcd-identity": "2 counterexamples, first: (2, 399)",
    }


def test_classifier_suite_catches_a_forged_expansion(monkeypatch):
    # the sparse expansion of the flat (3, 5, 31), r = 1 (mod pq) and r > pq,
    # with its constant term raised by 10: each property reads it and names it
    real = verify_suites.phi

    def forged(n, alg=None):
        f = real(n, alg)
        return _bump_constant(f, 10) if n == 3 * 5 * 31 else f

    monkeypatch.setattr(verify_suites, "phi", forged)
    results = run_suite("classifier-soundness", max_value=3000)
    assert {r.prop: r.info for r in results if not r.ok} == {
        "definite-verdicts-match-brute": "1 counterexamples, first: (3, 5, 31, 11)",
        "height-bounded-by-w": "1 counterexamples, first: (3, 5, 31, 11, 1)",
        "bigtop-route-matches-expansion": "1 counterexamples, first: (3, 5, 31)",
        "scan-heads-match-expansion": "1 counterexamples, first: (3, 5, 31)",
    }


def test_zero_range_runs_no_pairs():
    binary = run_suite("binary", max_value=0)
    assert binary[0].info == "0 prime pairs"
    periodicity = run_suite("periodicity", n_values=(15,), smax=0)
    assert periodicity[0].info == "0 prime pairs over n in [15]"


@pytest.mark.parametrize("forged", [(2, 3, 7), (3, 4, 5)], ids=["part-2", "prime-power"])
def test_classifier_suite_catches_a_forged_coprime_head(monkeypatch, forged):
    # the scan head of one coprime triple that is no prime triple, its
    # height raised by 1: only the head property reads it, and names it
    real = verify_suites.signed_subset_head

    def head(factors):
        got = real(factors)
        return got._replace(height=got.height + 1) if factors == forged else got

    monkeypatch.setattr(verify_suites, "signed_subset_head", head)
    results = run_suite("classifier-soundness", max_value=1000)
    assert {r.prop: r.info for r in results if not r.ok} == {
        "scan-heads-match-expansion": f"1 counterexamples, first: {forged}",
    }


def test_fj_suite_jobs_equivalence():
    inline = run_suite("fj", max_value=20)
    pooled = run_suite("fj", max_value=20, jobs=2)
    assert inline == pooled
    assert all(r.ok for r in inline)


def test_pseudo_suite_jobs_equivalence():
    inline = run_suite("pseudo", max_value=300)
    pooled = run_suite("pseudo", max_value=300, jobs=2)
    assert inline == pooled
    assert all(r.ok for r in inline)


def test_periodicity_suite_narrow():
    results = run_suite("periodicity", n_values=(15,), smax=60)
    assert all(r.ok for r in results)
    assert "n in [15]" in results[0].info


@pytest.mark.parametrize(
    "n_values, pairs",
    [
        ((105, 165, 195, 231), 286),
        ((9, 25, 45, 75, 175), 2987),
        ((12, 30, 60, 210), 4535),
    ],
    ids=["order-3", "square-parts", "even"],
)
def test_periodicity_suite_at_the_full_hypothesis(n_values, pairs):
    # the theorem holds for any n, with s and t anywhere above n - phi(n):
    # odd n of order 3, n with square parts and even n, each pair counted
    # here by brute force
    brute = 0
    for n in n_values:
        threshold = n - totient(n)
        ps = [s for s in range(threshold + 1, 601) if is_prime(s) and gcd(s, n) == 1]
        brute += sum(1 for s in ps for t in ps if s < t and ((t - s) % n == 0 or (t + s) % n == 0))
    assert brute == pairs
    results = run_suite("periodicity", n_values=n_values, smax=600)
    assert all(r.ok for r in results)
    assert results[0].info == f"{pairs} prime pairs over n in {list(n_values)}"


def test_paper_table_reduced_bound():
    results = run_suite("paper-table", max_value=5000)
    assert len(results) == 1
    assert results[0].ok
    assert "n=4745 3->2" in results[0].info


def test_classifier_suite_small():
    results = run_suite("classifier-soundness", max_value=2000)
    assert all(r.ok for r in results)
    assert "definite verdicts" in results[0].info


def _forge_members(fam, j, coeffs):
    members = list(fam.members)
    members[j] = poly(coeffs)
    return FjFamily(fam.n, fam.p, members)


def _swap_members(fam):
    members = list(fam.members)
    members[1], members[2] = members[2], members[1]
    return FjFamily(fam.n, fam.p, members)


def _forge_a(split, a):
    return BezoutSplit(split.n, split.p, a, split.b)


# phi(15) sliced mod 3 gives members 1 + x, -1 - x - x^2 and x + x^2; the
# totient of 5 is 4, so every member's degree budget is 2, a stays below
# degree 4 and b below degree (5 - 4)(3 - 1) = 2. Each forgery names the
# one property it fails and what that row reports. a + 1 leaves
# f - a*g - b*h = -g = -(1 + x^5 + x^10), so member 0 breaks first; b + x
# leaves -x*h, so member 1 does.
FORGERIES = {
    "swapped-members": (_swap_members, None, "family-invariants", "do not reassemble"),
    "member-over-budget": (
        lambda fam: _forge_members(fam, 1, [-1, -1, -1, 1]),
        None,
        "family-invariants",
        "member 1 exceeds its degree budget",
    ),
    "member-0-constant": (
        lambda fam: _forge_members(fam, 0, [2, 1]),
        None,
        "family-invariants",
        "member 0 must have constant term 1",
    ),
    "a-over-bound": (
        None,
        lambda split: _forge_a(split, poly_add(split.a, monomial(4))),
        "family-invariants",
        "a breaks its degree bound",
    ),
    "b-over-bound": (
        None,
        lambda split: split._replace(b=poly_add(split.b, monomial(2))),
        "family-invariants",
        "b breaks its degree bound",
    ),
    "a-breaks-identity": (
        None,
        lambda split: _forge_a(split, poly_add(split.a, monomial(0))),
        "f-equals-g",
        "(5, 3, 0)",
    ),
    "b-breaks-identity": (
        None,
        lambda split: split._replace(b=poly_add(split.b, monomial(1))),
        "f-equals-g",
        "(5, 3, 1)",
    ),
}


@pytest.mark.parametrize("name", sorted(FORGERIES))
def test_fj_suite_catches_forgeries(monkeypatch, name):
    forge_family, forge_split, failing, message = FORGERIES[name]

    def forged(real, forge):
        def build(n, p):
            value = real(n, p)
            return forge(value) if forge and (n, p) == (5, 3) else value

        return build

    monkeypatch.setattr(
        verify_suites, "fj_family", forged(verify_suites.fj_family, forge_family)
    )
    monkeypatch.setattr(
        verify_suites, "bezout_split", forged(verify_suites.bezout_split, forge_split)
    )
    results = run_suite("fj", max_value=6)
    assert [r.prop for r in results] == list(verify_suites.FJ_PROPERTIES)
    for r in results:
        if r.prop == failing:
            assert not r.ok
            assert r.info.startswith("1 counterexamples, first: (5, 3, ")
            assert message in r.info
        else:
            assert r.ok, r


def test_fj_suite_catches_a_source_polynomial_too_short(monkeypatch):
    # phi(15) without its top term: the members of both pairs with n*p = 15
    # keep their degree budgets, yet the last of them reaches past it
    real = verify_suites.phi

    def forged(n, alg=None):
        f = real(n, alg)
        return poly(f.coeffs[:-1]) if n == 15 else f

    monkeypatch.setattr(verify_suites, "phi", forged)
    results = run_suite("fj", max_value=6)
    assert {r.prop: r.info for r in results if not r.ok} == {
        "family-invariants": "2 counterexamples, first: "
        "(3, 5, 'members overflow the source polynomial')",
    }


def test_fj_suite_catches_a_broken_shift_recursion(monkeypatch):
    # entry 2 of the reduced shift family of (5, 7), raised by 1: entry 0,
    # which f0-fast reads, still matches member 0, but entry 2 is no longer
    # x * entry 1 plus a multiple of phi(5)
    real = verify_suites.fstar_family

    def forged(n, p):
        stars = real(n, p)
        if (n, p) == (5, 7):
            stars[2] = _bump_constant(stars[2])
        return stars

    monkeypatch.setattr(verify_suites, "fstar_family", forged)
    results = run_suite("fj", max_value=6)
    assert {r.prop: r.info for r in results if not r.ok} == {
        "fstar-recursion": "1 counterexamples, first: (5, 7, 2)",
    }


def test_paper_table_catches_wrong_drop_rows(monkeypatch):
    # A(4745) = A(5 * 13 * 73) forged from 3 down to 2, A(3 * 4745): the
    # drop is gone, so the scan returns no row and replays nothing
    real = flatness.signed_subset_head

    def head(factors):
        got = real(factors)
        return got._replace(height=2) if factors == (5, 13, 73) else got

    monkeypatch.setattr(flatness, "signed_subset_head", head)
    results = run_suite("paper-table", max_value=5000)
    assert [(r.ok, r.info) for r in results] == [
        (False, "1 counterexamples, first: {'expected': [(4745, 3, 2)], 'got': []}")
    ]


def test_paper_table_catches_a_replay_mismatch(monkeypatch):
    # the rows come from the packed heads and are right; the replay's
    # sparse expansion of 3 * 4745, with its constant term raised by 10,
    # reads a height of 11 instead of 2
    real = flatness.phi

    def forged(n, alg=None):
        f = real(n, alg)
        return _bump_constant(f, 10) if n == 3 * 4745 else f

    monkeypatch.setattr(flatness, "phi", forged)
    results = run_suite("paper-table", max_value=5000)
    assert [(r.ok, r.info) for r in results] == [
        (False, "1 counterexamples, first: replay mismatch")
    ]


@pytest.mark.parametrize("status", [VerdictStatus.HeightExactly2, VerdictStatus.NotFlat])
def test_classifier_suite_catches_a_forged_verdict(monkeypatch, status):
    # (3, 5, 31) has height 1, so a verdict of height 2, or of not flat,
    # fails the one property that compares verdicts with heights
    real = verify_suites.classify

    def forged(factors):
        v = real(factors)
        return v._replace(status=status) if factors == (3, 5, 31) else v

    monkeypatch.setattr(verify_suites, "classify", forged)
    results = run_suite("classifier-soundness", max_value=1000)
    assert {r.prop: r.info for r in results if not r.ok} == {
        "definite-verdicts-match-brute": "1 counterexamples, first: (3, 5, 31, 1)",
    }


def _reassembled(fam, split):
    # stands in for check_fj_invariants: the members reassembled, unchecked
    p = fam.p
    out = [0] * (p * max(len(m.coeffs) for m in fam.members))
    for k, m in enumerate(fam.members):
        out[k : k + p * len(m.coeffs) : p] = m.coeffs
    return poly(out)


@pytest.mark.parametrize("j, off_by_phi", [(2, False), (0, False), (6, False), (2, True)])
def test_fj_check_chunk_names_the_member_that_breaks_f_equals_g(monkeypatch, j, off_by_phi):
    # One comparison of f with a*g + b*h checks every member of a pair at
    # once, and names the member that breaks it, also when the member moved
    # by a multiple of phi(n): b is fixed, so slice j of b stops being a
    # witness. The forged families skip the invariant check, which would
    # flag them as not reassembling the polynomial first; its stand-in
    # returns the forged members reassembled.
    real = verify_suites.fj_family

    def forged(n, p):
        fam = real(n, p)
        extra = phi(n) if off_by_phi else monomial(0)
        return _forge_members(fam, j, poly_add(fam.members[j], extra).coeffs)

    monkeypatch.setattr(verify_suites, "fj_family", forged)
    monkeypatch.setattr(verify_suites, "check_fj_invariants", _reassembled)
    fails = verify_suites._fj_check_chunk([(15, 7), (5, 17)])
    assert fails["family-invariants"] == []
    assert fails["f-equals-g"] == [(15, 7, j), (5, 17, j)]


def test_fj_check_chunk_catches_a_member_off_its_period(monkeypatch):
    # for p > n, member j + n equals member j; member 7 of (5, 17) is forged
    # to member 2 plus 1, and the invariant check's stand-in lets it through
    real = verify_suites.fj_family

    def forged(n, p):
        fam = real(n, p)
        return _forge_members(fam, 7, poly_add(fam.members[2], monomial(0)).coeffs)

    monkeypatch.setattr(verify_suites, "fj_family", forged)
    monkeypatch.setattr(verify_suites, "check_fj_invariants", _reassembled)
    fails = verify_suites._fj_check_chunk([(5, 17)])
    assert fails == {
        "family-invariants": [],
        "f-equals-g": [(5, 17, 7)],
        "exact-periodicity": [(5, 17)],
        "f0-fast": [],
        "fstar-recursion": [],
    }


def test_fj_suite_catches_a_rotated_shift_family(monkeypatch):
    # the reduced shift family of (5, 7) rotated by one: each entry is still
    # x times the one before modulo phi(5), so the recursion holds, but
    # entry 0 is no longer member 0
    real = verify_suites.fstar_family

    def forged(n, p):
        stars = real(n, p)
        return stars[1:] + stars[:1] if (n, p) == (5, 7) else stars

    monkeypatch.setattr(verify_suites, "fstar_family", forged)
    results = run_suite("fj", max_value=6)
    assert [(r.prop, r.ok, r.info) for r in results] == [
        ("family-invariants", True, "95 (n,p) pairs"),
        ("f-equals-g", True, "95 (n,p) pairs, every member"),
        ("exact-periodicity", True, "91 pairs with p > n"),
        ("f0-fast", False, "1 counterexamples, first: (5, 7)"),
        ("fstar-recursion", True, "91 pairs with p > n"),
    ]
