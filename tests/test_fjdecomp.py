"""Tests for the residue-class decomposition machinery."""

import hashlib
from math import gcd, prod

import pytest

from cycloforge import cyclotomic, fjdecomp, flatness
from cycloforge._numtheory import primes_up_to, totient
from cycloforge.cyclotomic import PhiAlgorithm, phi, psi
from cycloforge.errors import (
    HypothesisViolated,
    IntegralityFailure,
    NotCoprimeIndex,
    RequiresLargeP,
)
from cycloforge.fjdecomp import (
    BezoutSplit,
    FjFamily,
    PeriodicityRelation,
    bezout_split,
    f0_fast,
    fj_extended,
    fj_family,
    fstar_family,
    mod_phi_reduce,
    periodicity_compare,
)
from cycloforge.intpoly import (
    ZERO,
    IntPolynomial,
    coeff_set,
    extract_residue,
    poly,
    poly_add,
    poly_exact_div,
    poly_mod_monic,
    poly_mul,
    poly_mul_scalar,
    poly_sub,
    substitute_power,
    to_text,
)
from cycloforge.pseudocyclo import pseudo_phi
from cycloforge.verify_suites import check_fj_invariants, run_suite


def monomial(k, c=1):
    return poly((0,) * k + (c,))


# An (offset, poly) pair stands for x^offset * poly; offsets may be negative.


def lifted(e: tuple, p: int, j: int) -> tuple:
    # x^j * e(x^p) for a canonical e, kept canonical
    off, body = e
    return off * p + j if body else 0, substitute_power(body, p)


def gj_family(split: BezoutSplit) -> list[IntPolynomial]:
    # residue-class members of a*g; congruent to the direct members
    # modulo phi(n)
    ag = poly_mul(split.a, split.g())
    return [extract_residue(ag, split.p, j) for j in range(split.p)]


def fold_xn(e: tuple, n: int) -> tuple:
    # residue of x^offset * poly modulo x^n - 1, as a coefficient tuple of
    # length n
    off, body = e
    out = [0] * n
    for i, c in enumerate(body.coeffs):
        out[(off + i) % n] += c
    return tuple(out)


def g_extended(gs: list, p: int, j: int) -> tuple:
    return -(j // p), gs[j % p]


def reduced(e: tuple, n: int) -> IntPolynomial:
    # x^offset * poly modulo phi(n), through x^n = 1
    off, body = e
    return mod_phi_reduce(poly_mul(monomial(off % n), body), n)


def split_invariants(fam):
    split = bezout_split(fam.n, fam.p)
    check_fj_invariants(fam, split)


def test_bezout_golden_3_2():
    s = bezout_split(3, 2)
    assert s.a == poly([0, -1])
    assert s.b == poly([1])
    with pytest.raises(NotCoprimeIndex):
        bezout_split(4, 2)


def test_bezout_5_2():
    s = bezout_split(5, 2)
    assert s.a.degree < 4
    f = poly_add(poly_mul(s.a, s.g()), poly_mul(s.b, s.h()))
    assert f == phi(10)


def test_bezout_identity_and_bounds_sampled():
    cases = [(3, 2), (5, 2), (15, 2), (15, 7), (21, 2), (10, 3), (33, 5), (15, 17)]
    for n, p in cases:
        s = bezout_split(n, p)
        assert poly_add(poly_mul(s.a, s.g()), poly_mul(s.b, s.h())) == phi(n * p)
        assert s.b_times_h() == poly_mul(s.b, s.h())
        assert not s.a or s.a.degree < totient(n)
        assert not s.b or s.b.degree < (n - totient(n)) * (p - 1)


def test_bezout_b_matches_long_division_by_h():
    # b comes from one linear division through psi(n); long division of
    # f - a*g by h = phi(n)(x^p) is the independent slow path
    pairs = 0
    for n in range(2, 60):
        for p in primes_up_to(61):
            if n % p:
                s = bezout_split(n, p)
                want = poly_exact_div(poly_sub(phi(n * p), poly_mul(s.a, s.g())), s.h())
                assert s.b == want, (n, p)
                pairs += 1
    assert pairs == 951


def test_bezout_split_keeps_its_bytes():
    # every (a, b) with 2 <= n <= 60 and a prime p <= 100 not dividing n, by
    # one SHA-256 taken when a*psi(n)(x^p) was built with its zeros
    h = hashlib.sha256()
    pairs = 0
    for n in range(2, 61):
        for p in primes_up_to(100):
            if n % p:
                s = bezout_split(n, p)
                h.update(f"{n} {p}: {to_text(s.a)} / {to_text(s.b)}\n".encode())
                pairs += 1
    assert pairs == 1379
    assert h.hexdigest() == "8f7ffa97ba2105f2ba4de83748ecc512019b8a568cac221ac3c8a8dc369c8ce7"


@pytest.mark.parametrize(
    "bump, message",
    [(1, "not divisible by 7"), (7, "cofactor division left a remainder")],
    ids=["remainder-not-divisible", "a-plus-one"],
)
def test_bezout_split_rejects_a_forged_remainder(monkeypatch, bump, message):
    # a remainder that p does not divide has no a; a + 1 leaves a remainder
    # in the division by x^n - 1
    real = fjdecomp.mod_phi_reduce
    monkeypatch.setattr(
        fjdecomp, "mod_phi_reduce", lambda t, n: poly_add(real(t, n), poly([bump]))
    )
    with pytest.raises(IntegralityFailure, match=message):
        bezout_split(15, 7)


def test_bezout_split_rejects_bad_input():
    with pytest.raises(ValueError):
        bezout_split(1, 2)
    with pytest.raises(ValueError):
        bezout_split(5, 6)


def test_fj_family_golden_15_2():
    fam = fj_family(15, 2)
    assert fam.members[0] == poly([1, 0, -1, 0, 1])
    assert fam.members[1] == poly([1, -1, -1, 1])


def test_fj_family_residue_one():
    assert fj_family(15, 31).members[0] == poly([1])


def test_fj_family_residue_minus_one():
    fam = fj_family(15, 29)
    for j in range(29):
        want = mod_phi_reduce(poly_mul_scalar(monomial(j + 8), -1), 15)
        assert mod_phi_reduce(fam.members[j], 15) == want, j


def test_fj_family_rejects():
    with pytest.raises(NotCoprimeIndex):
        fj_family(15, 3)
    with pytest.raises(ValueError):
        fj_family(15, 4)


def test_family_invariants_sampled():
    # reassembly, degree budget, constant term and the split's bounds and
    # identity, on both constructions
    ns = (3, 10, 15, 21, 30, 70, 105, 165)
    ps = (2, 3, 5, 7, 11, 13, 17, 29)
    built = 0
    for n in ns:
        for p in ps:
            if n % p:
                split_invariants(fj_family(n, p))
                built += 1
    assert built > 40


def test_split_invariants_reject_forged_families():
    fam = fj_family(15, 2)
    with pytest.raises(ValueError, match="need exactly p members"):
        split_invariants(FjFamily(15, 2, (fam.members[0],)))
    with pytest.raises(ValueError):
        split_invariants(FjFamily(15, 2, (fam.members[1], fam.members[0])))


def test_fj_extended():
    fam = fj_family(15, 2)
    assert fj_extended(fam, 0) == (0, fam.members[0])
    assert fj_extended(fam, -2) == (1, poly([1, 0, -1, 0, 1]))
    for j in (-7, -2, -1, 0, 1, 2, 5, 9):
        a = lifted(fj_extended(fam, j), 2, j)
        b = lifted(fj_extended(fam, j + 2), 2, j + 2)
        assert a == b, j


def test_fj_extended_canonical_offset():
    # leading zeros of a member go into the offset; the zero member has
    # offset 0
    fam = FjFamily(7, 2, (poly([0, 0, 3, 1]), ZERO))
    assert fj_extended(fam, 0) == (2, poly([3, 1]))
    assert fj_extended(fam, -4) == (4, poly([3, 1]))
    assert fj_extended(fam, 8) == (-2, poly([3, 1]))
    assert fj_extended(fam, 1) == (0, ZERO)
    assert fj_extended(fam, -9) == (0, ZERO)


def test_gj_family_golden_3_2():
    s = bezout_split(3, 2)
    gs = gj_family(s)
    assert gs[0] == poly([0, 0, -1])
    assert gs[1] == poly([-1])


def test_f_congruent_g():
    for n, p in ((3, 2), (5, 2), (15, 2), (15, 7), (21, 2), (10, 3), (15, 17)):
        fam = fj_family(n, p)
        gs = gj_family(bezout_split(n, p))
        for j in range(p):
            assert mod_phi_reduce(fam.members[j], n) == mod_phi_reduce(gs[j], n), (n, p, j)


def test_g_exact_periodicity_small_index():
    # p > n: the first p - n members of the Bezout route repeat exactly
    for n, p in ((3, 7), (3, 13), (5, 17)):
        gs = gj_family(bezout_split(n, p))
        for j in range(p - n):
            assert gs[j] == gs[n + j], (n, p, j)


def test_f_exact_periodicity_small_index():
    for n, p in ((3, 7), (15, 17), (15, 19), (7, 11)):
        fam = fj_family(n, p)
        for j in range(p - n):
            assert fam.members[j] == fam.members[n + j], (n, p, j)


def test_fg_periodicity_with_negatives():
    n, p = 3, 7
    fam = fj_family(n, p)
    gs = gj_family(bezout_split(n, p))
    for j in range(-5, p - n):
        f_lo, f_hi = fj_extended(fam, j), fj_extended(fam, n + j)
        assert reduced(f_lo, n) == reduced(f_hi, n), j
        g_lo, g_hi = g_extended(gs, p, j), g_extended(gs, p, n + j)
        assert fold_xn(g_lo, n) == fold_xn(g_hi, n), j


def test_first_n_members_carry_whole_coefficient_set():
    for n, p in ((15, 17), (15, 19), (7, 11), (21, 23)):
        fam = fj_family(n, p)
        first = set().union(*(coeff_set(m) for m in fam.members[:n]))
        last = set().union(*(coeff_set(m) for m in fam.members[p - n :]))
        assert first == last == coeff_set(phi(n * p)), (n, p)


def test_f0_fast_golden():
    assert f0_fast((3, 5), 31) == poly([1])
    assert f0_fast((3, 5), 17) == poly([1, 0, -1, 0, 1])
    assert f0_fast((3, 5), 19) == extract_residue(phi(285), 19, 0)
    with pytest.raises(RequiresLargeP):
        f0_fast((3, 5), 7)
    with pytest.raises(ValueError):
        f0_fast((3, 3), 17)  # not squarefree


def test_f0_fast_matches_brute():
    cases = (((3, 5), 17), ((3, 5), 23), ((3, 7), 29), ((3, 5), 31), ((5, 7), 37), ((2, 3), 7))
    for parts, p in cases:
        assert f0_fast(parts, p) == fj_family(prod(parts), p).members[0], (parts, p)


def test_fstar_reduce_of_monomials_when_residue_one():
    fam = fstar_family(15, 31)
    for j in range(15):
        assert fam[j] == mod_phi_reduce(monomial(j), 15), j


def test_fstar_recursion():
    for n, p in ((15, 17), (15, 31), (21, 23)):
        fs = fstar_family(n, p)
        base = phi(n)
        for j in range(n):
            prev = fs[(j - 1) % n]
            want = poly_add(
                poly_mul(monomial(1), prev), poly_mul_scalar(base, fs[j].coeff(0))
            )
            assert fs[j] == want, (n, p, j)


def test_fstar_set_equality():
    for n, p in ((15, 17), (15, 19), (7, 11)):
        fs = {f.coeffs for f in fstar_family(n, p)}
        direct = {m.coeffs for m in fj_family(n, p).members[:n]}
        assert fs == direct, (n, p)


def test_fstar_partial_sum_identity():
    n, p = 15, 17
    fs = fstar_family(n, p)
    base = phi(n)
    for j in (0, 3, 7, 14):
        for k in range(8):
            total = sum(
                fs[(j - i) % n].coeff(0) * base.coeff(k - i) for i in range(k + 1)
            )
            assert fs[j].coeff(k) == total, (j, k)


@pytest.mark.parametrize("n, p", [(4, 5), (9, 11), (12, 13), (18, 19), (50, 53)])
def test_fstar_shifts_of_a_non_squarefree_index(n, p):
    # each shift is x^j * member_0 mod phi(n), member_0 sliced off phi(n*p)
    member0 = extract_residue(phi(n * p), p, 0)
    shifts = list(fjdecomp.fstar_shifts(n, p))
    assert len(shifts) == n
    for j, got in enumerate(shifts):
        assert got == poly_mod_monic(poly_mul(monomial(j), member0), phi(n)), j
        assert got.degree < totient(n)


@pytest.mark.parametrize("n, p", [(1, 5), (4, 5), (9, 11), (12, 13), (50, 53)])
def test_fstar_shifts_never_expand_phi_np(monkeypatch, n, p):
    # member 0 comes from f0_fast over the primes of n's radical, whatever
    # n is, so no cyclotomic polynomial of an index that p divides is built
    member0 = fj_family(n, p).members[0]
    real = fjdecomp.phi

    def guarded(k, *args):
        if k % p == 0:
            raise AssertionError(f"expanded phi({k})")
        return real(k, *args)

    monkeypatch.setattr(fjdecomp, "phi", guarded)
    shifts = list(fjdecomp.fstar_shifts(n, p))
    assert len(shifts) == n
    assert shifts[0] == member0


def test_fstar_rejects_small_p():
    with pytest.raises(RequiresLargeP):
        fstar_family(15, 13)


def test_constant_terms():
    # for any prime beyond n, the constant terms of the first n members are
    # the negated low coefficients of psi(n)
    want15 = [1, 1, 1, 0, 0, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0]
    assert [-psi(15).coeff(j) for j in range(15)] == want15
    for p in (17, 19, 31):
        members = fj_family(15, p).members
        assert [m.coeff(0) for m in members[:15]] == want15, p


def _reciprocity_partner(n, p, j):
    # members j and z - j (mod p), where z = -phi(n) mod p, share a
    # coefficient set
    return (-totient(n) - j) % p


def test_reciprocity():
    assert _reciprocity_partner(15, 17, 0) == 9
    assert _reciprocity_partner(15, 17, 10) == 16
    fam = fj_family(15, 17)
    for j in range(17):
        k = _reciprocity_partner(15, 17, j)
        assert _reciprocity_partner(15, 17, k) == j
        assert coeff_set(fam.members[j]) == coeff_set(fam.members[k]), j


def test_periodicity_compare_golden():
    r = periodicity_compare(15, 17, 47)
    assert r.observed == PeriodicityRelation.Equal
    assert r.predicted == PeriodicityRelation.Equal

    r = periodicity_compare(15, 13, 17)
    assert r.observed == PeriodicityRelation.Negated
    assert r.predicted == PeriodicityRelation.Negated

    r = periodicity_compare(15, 2, 17)
    assert r.observed == PeriodicityRelation.SubsetForward
    assert r.predicted == PeriodicityRelation.SubsetForward
    assert r.vset_s == frozenset({-1, 0, 1})
    assert r.vset_t == frozenset({-1, 0, 1, 2})

    with pytest.raises(HypothesisViolated):
        periodicity_compare(15, 2, 19)
    with pytest.raises(HypothesisViolated):
        periodicity_compare(15, 3, 17)
    # n < 2, s = t and a composite s break the hypotheses before any set is read
    for n, s, t in ((1, 2, 17), (15, 17, 17), (15, 77, 17)):
        with pytest.raises(HypothesisViolated, match="distinct primes"):
            periodicity_compare(n, s, t)


def test_unsigned_periodicity_members_match():
    s, t = 17, 47
    fam_s, fam_t = fj_family(15, s), fj_family(15, t)
    for j in range(s):
        assert fam_s.members[j] == fam_t.members[j], j


def test_signed_periodicity_three_cases():
    n, s, t = 15, 17, 43
    assert (s + t) % n == 0
    tot = 8
    fam_s, fam_t = fj_family(n, s), fj_family(n, t)
    for j in range(s):
        if j <= s - n - 1:
            assert fam_s.members[j] == fam_s.members[j + n], j
        elif j <= s - tot:
            want = poly_mul_scalar(fam_t.members[t - n + s - tot - j], -1)
            assert fam_s.members[j] == want, j
        else:
            want = poly_mul_scalar(fam_t.members[t + s - tot - j], -1)
            assert fam_s.members[j] == want, j


def test_pseudo_residue_one_and_minus_one():
    # composite extra part w with w = +/-1 mod 15 obeys the same
    # congruences as a prime
    f16 = pseudo_phi([3, 5, 16])
    for j in range(16):
        fj = extract_residue(f16, 16, j)
        assert mod_phi_reduce(fj, 15) == mod_phi_reduce(monomial((-j) % 15), 15), j
    f14 = pseudo_phi([3, 5, 14])
    for j in range(14):
        fj = extract_residue(f14, 14, j)
        want = mod_phi_reduce(poly_mul_scalar(monomial(j + 8), -1), 15)
        assert mod_phi_reduce(fj, 15) == want, j


def test_periodicity_sets_do_not_come_from_the_shift_family(monkeypatch):
    # The shift family of 263 and 293 over 15 is the same (both are 8 mod
    # 15), so a comparison read off it would hold by construction; each set
    # must come from its own polynomial.
    def refuse(*args):
        raise AssertionError("periodicity read the shift family")

    monkeypatch.setattr(fjdecomp, "f0_fast", refuse)
    monkeypatch.setattr(fjdecomp, "fstar_shifts", refuse)
    monkeypatch.setattr(flatness, "fstar_shifts", refuse)
    cyclotomic.coefficient_set.cache_clear()
    r = periodicity_compare(15, 263, 293)
    assert r.observed == r.predicted == PeriodicityRelation.Equal
    assert r.vset_s == coeff_set(phi(15 * 263, PhiAlgorithm.SparseSeries))


def _forge_sets(monkeypatch, forged):
    # the coefficient sets of the indices in forged replaced, the rest computed
    real = fjdecomp.coefficient_set
    monkeypatch.setattr(
        fjdecomp, "coefficient_set", lambda m: forged[m] if m in forged else real(m)
    )


@pytest.mark.parametrize(
    "s, t, forged_index, message",
    [
        (17, 47, 15 * 47, "prediction Equal contradicted by direct computation"),
        (13, 17, 15 * 17, "prediction Negated contradicted by direct computation"),
        (2, 17, 15 * 2, "prediction Subset contradicted by direct computation"),
    ],
)
def test_periodicity_compare_raises_on_a_contradicted_prediction(
    monkeypatch, s, t, forged_index, message
):
    # n = 15 has threshold 15 - 8 = 7: (17, 47) predicts Equal, (13, 17)
    # Negated, and (2, 17), with only t past the threshold, Subset; a set
    # holding 7 fits none of them
    _forge_sets(monkeypatch, {forged_index: frozenset({0, 7})})
    with pytest.raises(RuntimeError) as exc:
        periodicity_compare(15, s, t)
    assert str(exc.value) == message


def test_periodicity_compare_not_comparable(monkeypatch):
    # with t = 2 below the threshold nothing is predicted, so a set that is
    # neither equal, negated nor contained is reported, not raised
    _forge_sets(monkeypatch, {15 * 17: frozenset({0, 7})})
    r = periodicity_compare(15, 17, 2)
    assert r.predicted is None
    assert r.observed == PeriodicityRelation.NotComparable
    assert (r.vset_s, r.vset_t) == (frozenset({0, 7}), frozenset({-1, 0, 1}))


def test_periodicity_suite_reports_a_contradicted_prediction(monkeypatch):
    # 47 = 2 (mod 15) meets 13 and 43 with the sign flipped and 17 without;
    # every comparison against its forged set fails, in the suite's order
    _forge_sets(monkeypatch, {15 * 47: frozenset({0, 7})})
    rows = run_suite("periodicity", n_values=(15,), smax=60)
    assert [r.prop for r in rows] == ["predicted-sign-holds", "below-threshold-subset"]
    assert not rows[0].ok
    assert rows[0].info == (
        "3 counterexamples, first: "
        "(15, 13, 47, 'prediction Negated contradicted by direct computation')"
    )
    assert rows[1].ok
