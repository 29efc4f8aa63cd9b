"""Slot substitution coefficients, ordered solution sets, eigen comparison."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from gadet import (
    ConsistencyError,
    Multivector,
    NotGenericError,
    Signature,
    SignatureMismatchError,
    coefficients_from_roots,
    default_bar_family,
    det_fl,
    eigen_compare,
    eigenvalues,
    f_function,
    fl_coefficients,
    gelfand_retakh_ys,
    random_multivector,
    vieta_all,
    vieta_coefficient,
)
from helpers import (SIGNATURES, elementary_descending, forbid, random_mvs, same_typed,
                     subset_masks, vieta_by_masks)


def test_f_function_bodies_on_distinct_arguments():
    s = Signature(1, 0)
    u, v = random_mvs(s, 2, 50)
    f1 = f_function(1)
    assert f1.evaluate((u, v)) == u * v.grade_involution()

    s3 = Signature(2, 1)
    xs = random_mvs(s3, 4, 51)
    f3 = f_function(3)
    expected = (xs[0] * xs[1].grade_involution() * xs[2].reversion()
                * xs[3].reversion().grade_involution())
    assert f3.evaluate(xs) == expected


def test_f_function_normalization():
    for sig in SIGNATURES:
        for family in ("triangle", default_bar_family(sig.n)):
            f = f_function(sig.n, family)
            e = sig.identity
            assert f.evaluate((e,) * f.arity) == 1
            u = random_mvs(sig, 1, 52)[0]
            det = fl_coefficients(u).det
            assert f.evaluate((u,) * f.arity) == Multivector.scalar(sig, det)


def test_f_function_arity_checked():
    f = f_function(2)
    with pytest.raises(ValueError):
        f.evaluate((Signature(2, 0).identity,))
    with pytest.raises(SignatureMismatchError):
        f.evaluate((Signature(2, 0).identity, Signature(1, 1).identity))


def test_subset_mask_counts():
    for N in (2, 4, 8):
        for k in range(N + 1):
            assert len(subset_masks(N, k)) == math.comb(N, k)


def test_highest_coefficient_is_single_tuple():
    for sig in [Signature(2, 0), Signature(3, 1), Signature(0, 5)]:
        u = random_mvs(sig, 1, 53)[0]
        f = f_function(sig.n)
        cn = vieta_coefficient(f, u, f.arity)
        assert cn == -fl_coefficients(u).det


def test_n3_first_coefficient_is_sum_of_conjugates():
    s = Signature(3, 0)
    u = random_mvs(s, 1, 54)[0]
    f = f_function(3)
    assert vieta_coefficient(f, u, 1) == 4 * u.scalar_part()


def test_n6_second_coefficient_matches_fl():
    s = Signature(3, 3)
    u = random_mvs(s, 1, 55)[0]
    f = f_function(6)
    assert vieta_coefficient(f, u, 2) == fl_coefficients(u).coeffs[1]


def test_vieta_all_trivial_inputs():
    for sig in [Signature(2, 0), Signature(4, 0)]:
        f = f_function(sig.n)
        assert vieta_all(f, sig.identity) == fl_coefficients(sig.identity)
        assert vieta_all(f, sig.zero).coeffs == (0,) * sig.N


def test_vieta_all_matches_fl_both_families():
    for sig in SIGNATURES:
        if sig.n >= 5 and (sig.p, sig.q) not in ((5, 0), (0, 5), (3, 3)):
            continue  # full sweep lives in the acceptance suite
        u = random_mvs(sig, 1, 56)[0]
        cp = fl_coefficients(u)
        for family in ("triangle", default_bar_family(sig.n)):
            assert vieta_all(f_function(sig.n, family), u) == cp


def test_vieta_all_matches_per_k_enumeration():
    # vieta_all and vieta_coefficient accumulate the X(k) sums per subtree
    # weight; the literal tuple-by-tuple oracle must give the same rationals.
    rng = random.Random(59)
    for sig in [Signature(2, 0), Signature(3, 1), Signature(0, 4)]:
        u = random_mvs(sig, 1, 59)[0]
        for family in ("triangle", default_bar_family(sig.n)):
            f = f_function(sig.n, family)
            ks = range(1, f.arity + 1)
            per_k = tuple(vieta_by_masks(f, u, k, rng) for k in ks)
            assert per_k == vieta_all(f, u).coeffs
            assert per_k == tuple(vieta_coefficient(f, u, k) for k in ks)


def test_enumeration_order_is_irrelevant():
    s = Signature(2, 1)
    u = random_mvs(s, 1, 57)[0]
    f = f_function(3)
    expected = vieta_by_masks(f, u, 2)
    assert expected == vieta_coefficient(f, u, 2)
    for seed in range(3):
        assert vieta_by_masks(f, u, 2, random.Random(seed)) == expected


def test_vieta_rejects_bad_k_and_dimension():
    f = f_function(2)
    u = Signature(2, 0).identity
    with pytest.raises(ValueError):
        vieta_coefficient(f, u, 0)
    with pytest.raises(ValueError):
        vieta_coefficient(f, u, 3)
    for k in (1.5, True, 2.0):  # k is an int, never a float or a bool
        with pytest.raises(ValueError):
            vieta_coefficient(f, u, k)
    with pytest.raises(ValueError):
        vieta_all(f, Signature(3, 0).identity)


def test_broken_f_function_fails_scalarity():
    from gadet.formulas import DetFormula, FormulaTerm, Prod, Slot

    broken = DetFormula(2, "triangle", "broken",
                        (FormulaTerm(Fraction(1), Prod((Slot(1), Slot(2)))),))
    s = Signature(2, 0)
    u = Multivector.from_terms(s, {0: 1, 1: 3, 3: 2})
    with pytest.raises(ConsistencyError):
        vieta_coefficient(broken, u, 2)


# -- ordered solution sets ---------------------------------------------------


def test_gr_n1():
    s = Signature(1, 0)
    u = Multivector(s, (3, 4))  # a + b e1, b != 0
    roots = gelfand_retakh_ys(u)
    assert roots.xs == (u, u.grade_involution())
    assert roots.vs[0] == s.identity
    assert roots.vs[1] == Multivector(s, (0, -8))  # -2 <U>_1
    assert roots.ys == (u, u.grade_involution())
    aks = coefficients_from_roots(roots.ys)
    assert tuple(a.scalar_part() for a in aks) == fl_coefficients(u).coeffs


def test_gr_n1_not_generic():
    s = Signature(1, 0)
    with pytest.raises(NotGenericError) as err:
        gelfand_retakh_ys(Multivector(s, (5, 0)))
    assert err.value.k == 2


def test_gr_n2():
    s = Signature(2, 0)
    u = Multivector.from_terms(s, {0: 5, 2: Fraction(1, 2), 3: Fraction(1, 2)})
    roots = gelfand_retakh_ys(u)
    assert roots.ys[1] == u.reversion().grade_involution()
    aks = coefficients_from_roots(roots.ys)
    assert tuple(a.scalar_part() for a in aks) == (10, -25)


def test_gr_n2_not_generic_when_no_bivector():
    s = Signature(1, 1)
    u = Multivector.from_terms(s, {0: 2, 1: 3})  # <U>_2 = 0
    with pytest.raises(NotGenericError) as err:
        gelfand_retakh_ys(u)
    assert err.value.k == 2


def test_gr_n3_roots_are_the_conjugates():
    for sig in [Signature(3, 0), Signature(1, 2)]:
        produced = 0
        rng = random.Random(58)
        while produced < 5:
            u = random_multivector(sig, rng)
            try:
                roots = gelfand_retakh_ys(u)
            except NotGenericError:
                continue
            produced += 1
            assert roots.ys == roots.xs
            assert roots.xs == (u, u.reversion().grade_involution(),
                                u.grade_involution(), u.reversion())
            aks = coefficients_from_roots(roots.ys)
            cp = fl_coefficients(u)
            for ak, ck in zip(aks, cp.coeffs):
                assert ak == ck


def test_gr_n3_not_generic():
    s = Signature(3, 0)
    u = Multivector.from_terms(s, {0: 1, 7: 5})  # 1 + 5 e123: v2 = 0
    with pytest.raises(NotGenericError) as err:
        gelfand_retakh_ys(u)
    assert err.value.k == 2


def test_gr_runs_the_recursion_once_per_k(monkeypatch):
    # inverse(v_k) raises NotInvertibleError with the determinant, so no
    # separate det_fl(v_k) is needed to tell a non-generic set.
    forbid(monkeypatch, (det_fl,), "gelfand_retakh_ys must not call det_fl")
    u = Multivector.from_terms(Signature(2, 0), {0: 5, 2: Fraction(1, 2), 3: Fraction(1, 2)})
    assert gelfand_retakh_ys(u).ys == (u, u.reversion().grade_involution())
    for u in (Multivector(Signature(1, 0), (3, 4)), *random_mvs(Signature(3, 0), 2, 58),
              *random_mvs(Signature(1, 2), 2, 58)):
        roots = gelfand_retakh_ys(u)
        assert roots.ys == roots.xs
    for u in (Multivector(Signature(1, 0), (5, 0)),
              Multivector.from_terms(Signature(1, 1), {0: 2, 1: 3}),
              Multivector.from_terms(Signature(3, 0), {0: 1, 7: 5})):
        with pytest.raises(NotGenericError) as err:
            gelfand_retakh_ys(u)
        assert (err.value.k, err.value.det) == (2, 0)


def test_gr_rejects_large_n():
    with pytest.raises(ValueError):
        gelfand_retakh_ys(Signature(4, 0).identity)


def test_coefficients_from_roots_match_descending_sums():
    # Arbitrary non-commuting ys, not roots: a_k must still be the signed sum
    # of descending products y_ij ... y_i1 over every index combination.
    for sig in [Signature(3, 0), Signature(2, 2), Signature(6, 0)]:
        for length in range(1, 5):
            ys = random_mvs(sig, length, 60 + length)
            expected = tuple(
                elementary_descending(ys, k) * (1 if k % 2 == 1 else -1)
                for k in range(1, length + 1)
            )
            assert coefficients_from_roots(ys) == expected
            if length >= 2:
                # Descending, not ascending: the order of the ys matters.
                assert coefficients_from_roots(ys[::-1])[1] != expected[1]


def test_coefficients_from_roots_with_different_denominators():
    # Each factor is (D_i e + t Y_i) / D_i; the product of the integer
    # factors is divided by D_1 * ... * D_N once.  2**70 leaves int64 at once.
    r = random.Random(62)
    dens = (1, 3, 2 ** 70, 7 * 11 * 13)
    for sig in [Signature(2, 1), Signature(6, 0)]:
        ys = [Multivector(sig, (Fraction(r.randint(-9, 9), d) for _ in range(sig.dim)))
              for d in dens]
        expected = tuple(
            elementary_descending(ys, k) * (1 if k % 2 == 1 else -1)
            for k in range(1, len(ys) + 1)
        )
        got = coefficients_from_roots(ys)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert same_typed(a.coeffs, b.coeffs)


# -- eigenvalue comparison ----------------------------------------------------


def test_eigen_compare_worked_example():
    s = Signature(2, 0)
    u = Multivector.from_terms(s, {0: 5, 2: Fraction(1, 2), 3: Fraction(1, 2)})
    report = eigen_compare(u)
    assert abs(report.lambdas[0] - 5) < 1e-12
    assert abs(report.lambdas[1] - 5) < 1e-12
    assert report.radicand == 0
    assert report.ys[0] == u.to_float()
    assert report.ys[1] == (u.grade(0) - u.grade(1) - u.grade(2)).to_float()
    assert report.sum_matches and report.product_matches
    assert not report.lambdas_match_ys


def test_eigen_compare_scalar_degenerate_case():
    s = Signature(1, 0)
    report = eigen_compare(Multivector(s, (4, 0)))
    assert report.lambdas == (4 + 0j, 4 + 0j)
    assert report.lambdas_match_ys
    assert report.ys[0] == report.ys[1]


def test_eigen_compare_n1_real_split():
    s = Signature(1, 0)
    report = eigen_compare(Multivector(s, (2, -3)))
    # lambda = a +- |b| since e1 squares to +1
    assert abs(report.lambdas[0] - 5) < 1e-12
    assert abs(report.lambdas[1] + 1) < 1e-12
    eig = eigenvalues(Multivector(s, (2, -3)))
    assert abs(eig[0] - (-1)) < 1e-9 and abs(eig[1] - 5) < 1e-9


def test_eigen_compare_complex_pair():
    s = Signature(0, 1)
    report = eigen_compare(Multivector(s, (2, 3)))
    assert abs(report.lambdas[0] - (2 + 3j)) < 1e-12
    assert abs(report.lambdas[1] - (2 - 3j)) < 1e-12
    assert report.sum_matches and report.product_matches


def test_eigen_compare_rejects_n3():
    with pytest.raises(ValueError):
        eigen_compare(Signature(3, 0).identity)
