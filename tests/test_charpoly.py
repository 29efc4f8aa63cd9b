"""Trace recursion, adjugate, inverse, and interpolation reconstruction."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from gadet import (
    CharPoly,
    ConsistencyError,
    FloatRangeError,
    Multivector,
    NotInvertibleError,
    Signature,
    adjugate,
    charpoly_interp,
    det_fl,
    det_matrix,
    fl_coefficients,
    inverse,
)
from gadet import charpoly, matrix_rep
from helpers import SIGNATURES, random_mvs


def test_identity_coefficients_are_binomial():
    # phi_e(x) = (x - 1)**N
    for sig in SIGNATURES:
        cp = fl_coefficients(sig.identity)
        expected = tuple(
            -math.comb(sig.N, k) * (-1) ** k for k in range(1, sig.N + 1)
        )
        assert cp.coeffs == expected
        assert cp.det == 1
        assert cp.trace == sig.N


def test_n1_symbolic_coefficients():
    s = Signature(1, 0)
    for a, b in [(3, 4), (-2, 7), (0, 5), (Fraction(1, 2), Fraction(1, 3))]:
        u = Multivector(s, (a, b))
        cp = fl_coefficients(u)
        assert cp.coeffs == (2 * a, b * b - a * a)
        assert adjugate(u) == u.grade_involution()


def test_worked_example_n2():
    s = Signature(2, 0)
    u = Multivector.from_terms(s, {0: 5, 2: Fraction(1, 2), 3: Fraction(1, 2)})
    cp = fl_coefficients(u)
    assert cp.coeffs == (10, -25)
    # phi(x) = (x - 5)**2
    assert cp.evaluate(5) == 0
    assert cp.evaluate(0) == 25


def test_det_basics():
    for sig in [Signature(1, 0), Signature(3, 0), Signature(2, 2)]:
        assert det_fl(sig.identity) == 1
        assert det_fl(sig.zero) == 0


def test_det_homogeneity():
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 20)[0]
        for lam in (2, -3, Fraction(1, 2)):
            assert det_fl(u * lam) == lam ** sig.N * det_fl(u)


def test_c1_is_trace():
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 21)[0]
        assert fl_coefficients(u).coeffs[0] == sig.N * u.scalar_part()


def test_adjugate_relation():
    assert adjugate(Signature(2, 1).identity) == Signature(2, 1).identity
    for sig in [Signature(3, 0), Signature(1, 3), Signature(5, 0)]:
        for u in random_mvs(sig, 3, 22):
            adj = adjugate(u)
            d = det_fl(u)
            assert u * adj == Multivector.scalar(sig, d)
            assert adj * u == Multivector.scalar(sig, d)


def test_inverse():
    s = Signature(1, 0)
    assert inverse(s.identity) == s.identity
    assert inverse(2 * s.identity) == s.identity / 2
    e1 = Multivector.blade(s, 1)
    assert inverse(e1) == e1
    for sig in [Signature(2, 1), Signature(4, 0)]:
        for u in random_mvs(sig, 3, 23):
            if det_fl(u) == 0:
                continue
            v = inverse(u)
            assert u * v == sig.identity
            assert v * u == sig.identity


def test_not_invertible_carries_det():
    s = Signature(1, 0)
    u = Multivector(s, (1, 1))  # det = 1 - 1 = 0
    with pytest.raises(NotInvertibleError) as err:
        inverse(u)
    assert err.value.det == 0


def test_cayley_hamilton_with_conjugate_roots():
    for sig in SIGNATURES:
        for u in random_mvs(sig, 2, 24):
            cp = fl_coefficients(u)
            assert cp.evaluate(u).is_zero()
            assert cp.evaluate(u.grade_involution()).is_zero()
            assert cp.evaluate(u.reversion()).is_zero()
            assert cp.evaluate(u.reversion().grade_involution()).is_zero()


def test_det_invariant_under_conjugations():
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 25)[0]
        d = det_fl(u)
        assert det_fl(u.grade_involution()) == d
        assert det_fl(u.reversion()) == d
        assert det_fl(u.reversion().grade_involution()) == d


def test_delta_breaks_det_invariance():
    # Frozen witness in G(4, 0): the third delta changes the determinant and
    # its image is not a root of the characteristic polynomial.
    s = Signature(4, 0)
    u = Multivector.from_terms(s, {0: 1, 0b0011: 1, 0b1100: 1, 0b1111: 1})
    ud = u.delta(3)
    assert det_fl(u) == 16
    assert det_fl(ud) == 0
    assert det_fl(u) != det_fl(ud)
    assert not fl_coefficients(u).evaluate(ud).is_zero()


def test_det_multiplicative():
    for sig in SIGNATURES:
        u, v = random_mvs(sig, 2, 26)
        assert det_fl(u * v) == det_fl(u) * det_fl(v)


def test_charpoly_interp_matches_fl():
    for sig in SIGNATURES:
        zero = sig.zero
        assert charpoly_interp(zero).coeffs == (0,) * sig.N
        assert charpoly_interp(sig.identity) == fl_coefficients(sig.identity)
        u = random_mvs(sig, 1, 27)[0]
        assert charpoly_interp(u) == fl_coefficients(u)


def test_charpoly_interp_with_matrix_determinant():
    for sig in [Signature(2, 1), Signature(1, 1)]:
        u = random_mvs(sig, 1, 28)[0]
        assert charpoly_interp(u, det_fn=det_matrix) == fl_coefficients(u)


def test_charpoly_interp_float_backend():
    for sig in [Signature(2, 0), Signature(3, 1), Signature(5, 0), Signature(3, 3)]:
        u = random_mvs(sig, 1, 29)[0]
        expected = fl_coefficients(u).to_float()
        approx = charpoly_interp(u.to_float())
        assert approx == expected
        # Interpolated exactly on the input's binary value, rounded once.
        assert approx.coeffs == expected.coeffs


def test_charpoly_interp_is_independent_of_fl_coefficients_and_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("charpoly_interp must not call this")

    monkeypatch.setattr(charpoly, "fl_coefficients", forbidden)
    monkeypatch.setattr(matrix_rep, "represent", forbidden)
    u = random_mvs(Signature(3, 1), 1, 31)[0]
    assert charpoly_interp(u.to_float()).coeffs == charpoly_interp(u).to_float().coeffs


def test_charpoly_interp_float_range():
    s = Signature(2, 0)
    for bad in (math.inf, math.nan):
        with pytest.raises(FloatRangeError):
            charpoly_interp(Multivector(s, (1.0, bad, 0.0, 0.0)))
    with pytest.raises(FloatRangeError):
        charpoly_interp(Multivector(s, (1e200, 1.0, 0.0, 0.0)))


def test_charpoly_equality_follows_multivector_rule():
    s = Signature(1, 1)
    exact = fl_coefficients(Multivector(s, (1, 2, 3, Fraction(1, 3))))
    assert exact == CharPoly(s, exact.coeffs)
    assert exact != CharPoly(s, (exact.coeffs[0] + Fraction(1, 10**30), exact.coeffs[1]))
    approx = exact.to_float()
    assert approx == CharPoly(s, tuple(c * (1 + 1e-12) for c in approx.coeffs))
    assert approx != CharPoly(s, tuple(c * (1 + 1e-6) for c in approx.coeffs))
    assert approx == exact
    assert CharPoly(Signature(2, 0), approx.coeffs) != approx
    with pytest.raises(TypeError):
        hash(exact)


def test_charpoly_interp_flags_bad_determinant_function():
    # A determinant routine that is not a degree-N polynomial in lambda
    # cannot interpolate to a monic result.
    u = random_mvs(Signature(2, 0), 1, 30)[0]
    with pytest.raises(ConsistencyError):
        charpoly_interp(u, det_fn=lambda mv: det_fl(mv) ** 2)


def test_charpoly_evaluate_scalars():
    s = Signature(1, 1)
    u = Multivector(s, (1, 2, 3, 4))
    cp = fl_coefficients(u)
    # phi(x) = x**2 - C1 x - C2 for scalar arguments
    for x in (0, 1, Fraction(-5, 2)):
        assert cp.evaluate(x) == x * x - cp.coeffs[0] * x - cp.coeffs[1]
