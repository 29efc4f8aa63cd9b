"""Blade arithmetic, grade structure, and conjugation laws."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadet import (
    Multivector,
    Signature,
    SignatureMismatchError,
    close,
    delta,
    random_multivector,
)
from helpers import SIGNATURES, random_mvs


def test_signature_derived_quantities():
    expected_N = {1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 6: 8}
    expected_m = {1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3}
    for sig in SIGNATURES:
        assert sig.N == expected_N[sig.n]
        assert sig.m == expected_m[sig.n]
        assert sig.dim == 2 ** sig.n
    assert len(SIGNATURES) == 27


def test_signature_interned_and_validated():
    assert Signature(2, 1) is Signature(2, 1)
    with pytest.raises(ValueError):
        Signature(0, 0)
    with pytest.raises(ValueError):
        Signature(4, 3)
    with pytest.raises(ValueError):
        Signature(-1, 2)


def test_generator_squares():
    e = Signature(1, 0).identity
    e1 = Multivector.blade(Signature(1, 0), 1)
    assert e1 * e1 == e

    f1 = Multivector.blade(Signature(0, 1), 1)
    assert f1 * f1 == -Signature(0, 1).identity


def test_bivector_square_by_swap_counting():
    s = Signature(2, 0)
    e12 = Multivector.blade(s, 1, 2)
    assert e12 * e12 == -s.identity


def test_identity_is_two_sided():
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 1)[0]
        assert sig.identity * u == u
        assert u * sig.identity == u


def test_signature_mismatch_raises():
    a = Signature(2, 0).identity
    b = Signature(1, 1).identity
    with pytest.raises(SignatureMismatchError):
        a * b
    with pytest.raises(SignatureMismatchError):
        a + b
    with pytest.raises(SignatureMismatchError):
        a == b


def test_grade_projection_examples():
    s = Signature(2, 0)
    assert s.identity.grade(0) == s.identity
    u = Multivector.from_terms(s, {0: 2, 1: 3, 3: 5})
    assert u.grade(1) == Multivector.blade(s, 1, coeff=3)
    with pytest.raises(ValueError):
        u.grade(3)


def test_grade_projections_sum_to_input():
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 2)[0]
        total = sig.zero
        for k in range(sig.n + 1):
            total = total + u.grade(k)
        assert total == u


def test_scalar_projection_from_delta_compositions():
    # <U>_0 equals the 2**m-term average of U under all compositions of the
    # delta conjugations.
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 3)[0]
        total = sig.zero
        for r in range(sig.m + 1):
            for subset in combinations(range(1, sig.m + 1), r):
                v = u
                for j in subset:
                    v = v.delta(j)
                total = total + v
        assert total / 2 ** sig.m == u.grade(0)


def test_grade_involution_example():
    s = Signature(2, 0)
    u = Multivector.from_terms(s, {0: 3, 1: 4, 3: 7})
    assert u.grade_involution() == Multivector.from_terms(s, {0: 3, 1: -4, 3: 7})


def test_delta_splits_grades_mod_eight():
    # For n <= 6 the third delta fixes grades 0..3 and negates grades 4..6.
    for sig in [Signature(4, 0), Signature(2, 3), Signature(0, 6)]:
        u = random_mvs(sig, 1, 4)[0]
        v = u.delta(3)
        for k in range(sig.n + 1):
            expected = u.grade(k) if k <= 3 else -u.grade(k)
            assert v.grade(k) == expected


def test_bar_worked_example():
    s = Signature(2, 0)
    u = Multivector.from_terms(s, {0: 5, 2: Fraction(1, 2), 3: Fraction(1, 2)})
    assert u.bar() == Multivector.from_terms(
        s, {0: 5, 2: Fraction(-1, 2), 3: Fraction(-1, 2)}
    )


def test_delta_one_two_match_involution_reversion():
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 5)[0]
        assert u.delta(1) == u.grade_involution()
        if sig.m >= 2:
            assert u.delta(2) == u.reversion()


def test_delta_out_of_range():
    u = Signature(1, 0).identity
    with pytest.raises(ValueError):
        u.delta(2)
    with pytest.raises(ValueError):
        Signature(3, 0).identity.delta(3)


def test_conjugations_are_involutions_linear_and_fix_identity():
    for sig in SIGNATURES:
        u, v = random_mvs(sig, 2, 6)
        for conj in sig.available_conjugations():
            assert u.conjugate(conj).conjugate(conj) == u
            assert (u + v).conjugate(conj) == u.conjugate(conj) + v.conjugate(conj)
            assert (3 * u).conjugate(conj) == 3 * u.conjugate(conj)
            assert sig.identity.conjugate(conj) == sig.identity


def test_involution_morphisms():
    for sig in SIGNATURES:
        u, v = random_mvs(sig, 2, 7)
        assert (u * v).grade_involution() == u.grade_involution() * v.grade_involution()
        assert (u * v).reversion() == v.reversion() * u.reversion()


def test_delta_is_not_multiplicative():
    s = Signature(4, 0)
    u = Multivector.blade(s, 1)
    v = Multivector.blade(s, 2, 3, 4)
    assert (u * v).delta(3) != u.delta(3) * v.delta(3)


def test_bar_recovers_scalar_part():
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 8)[0]
        assert (u + u.bar()) / 2 == u.grade(0)


def test_n2_element_commutes_with_its_clifford_conjugate():
    for sig in [Signature(2, 0), Signature(1, 1), Signature(0, 2)]:
        u = random_mvs(sig, 1, 9)[0]
        w = u.reversion().grade_involution()
        assert u * w == w * u


def test_n3_center_is_grade_zero_plus_three():
    for sig in [Signature(3, 0), Signature(2, 1), Signature(1, 2), Signature(0, 3)]:
        u, v = random_mvs(sig, 2, 10)
        ht = u.reversion().grade_involution()
        for central in (u + ht, ht * u):
            assert central * v == v * central


def test_trace_examples():
    s = Signature(1, 1)
    assert s.identity.trace() == 2
    assert Multivector.blade(s, 1).trace() == 0


def test_componentwise_operations():
    s = Signature(2, 1)
    u, v = random_mvs(s, 2, 11)
    assert u + s.zero == u
    assert u - u == s.zero
    e1, e2 = Multivector.blade(s, 1), Multivector.blade(s, 2)
    assert 2 * (e1 + e2) == Multivector.from_terms(s, {1: 2, 2: 2})
    assert -(-u) == u
    assert u - v == u + (-v)
    assert (u + 3).scalar_part() == u.scalar_part() + 3


def test_float_equality_tolerances():
    s = Signature(2, 0)
    u = random_multivector(s, random.Random(0), float_backend=True)
    bumped = Multivector(s, [c + 1e-13 for c in u.coeffs])
    assert u == bumped
    off = Multivector(s, [c + 1e-6 for c in u.coeffs])
    assert not (u == off)
    # The scalar rule behind it: tolerance when either side is a float,
    # literal equality when both are exact.
    assert close(1.0, 1.0 + 1e-10) and not close(1.0, 1.0 + 1e-8)
    assert close(Fraction(1, 3), 1 / 3)
    assert not close(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30))


def test_random_multivector_ranges():
    r = random.Random(0)
    u = random_multivector(Signature(3, 0), r)
    assert all(isinstance(c, int) and -9 <= c <= 9 for c in u.coeffs)
    v = random_multivector(Signature(3, 0), r, float_backend=True)
    assert v.is_float and all(-9.0 <= c <= 9.0 for c in v.coeffs)


def test_to_float_and_back():
    s = Signature(2, 1)
    u = Multivector.from_terms(s, {0: 1, 3: Fraction(3, 4)})
    uf = u.to_float()
    assert uf.is_float
    assert uf.to_exact() == u  # 3/4 is exact in binary


# -- algebraic laws on randomly generated coefficients ----------------------

_coeff = st.integers(min_value=-9, max_value=9)


def _mv(sig):
    return st.lists(_coeff, min_size=sig.dim, max_size=sig.dim).map(
        lambda cs: Multivector(sig, cs)
    )


@settings(max_examples=60, deadline=None)
@given(_mv(Signature(2, 1)), _mv(Signature(2, 1)), _mv(Signature(2, 1)))
def test_product_is_associative_and_distributive(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert (u + v) * w == u * w + v * w


@settings(max_examples=60, deadline=None)
@given(_mv(Signature(1, 2)), _mv(Signature(1, 2)))
def test_reversion_antihomomorphism_property(u, v):
    assert (u * v).reversion() == v.reversion() * u.reversion()


@settings(max_examples=60, deadline=None)
@given(_mv(Signature(0, 3)))
def test_conjugation_signs_square_to_identity(u):
    sig = u.sig
    for conj in sig.available_conjugations():
        assert u.conjugate(conj).conjugate(conj) == u
