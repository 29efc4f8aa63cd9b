"""Trace recursion, adjugate, inverse, and interpolation reconstruction."""

from __future__ import annotations

import math
import random
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
    charpoly_matrix,
    det_fl,
    det_matrix,
    eigen_compare,
    fl_coefficients,
    inverse,
)
from gadet import charpoly
from gadet.cli import METHODS
from helpers import MATRIX_ORACLE, SIGNATURES, forbid, random_mvs, same_typed


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


def test_charpoly_interp_float_backend():
    for sig in [Signature(2, 0), Signature(3, 1), Signature(5, 0), Signature(3, 3)]:
        u = random_mvs(sig, 1, 29)[0]
        expected = fl_coefficients(u).to_float()
        approx = charpoly_interp(u.to_float())
        assert approx == expected
        # Interpolated exactly on the input's binary value, rounded once.
        assert approx.coeffs == expected.coeffs


def test_charpoly_interp_is_independent_of_fl_coefficients_and_matrix(monkeypatch):
    forbid(monkeypatch, (charpoly.fl_coefficients,) + MATRIX_ORACLE,
           "charpoly_interp must not call fl_coefficients or the matrix oracle")
    u = random_mvs(Signature(3, 1), 1, 31)[0]
    assert charpoly_interp(u.to_float()).coeffs == charpoly_interp(u).to_float().coeffs


def test_charpoly_interp_float_range():
    s = Signature(2, 0)
    for bad in (math.inf, math.nan):
        # _raw skips the constructor's own check, so interp's guard is hit.
        u = Multivector._raw(s, (1.0, bad, 0.0, 0.0), True)
        with pytest.raises(FloatRangeError):
            charpoly_interp(u)
    # 1e200 + e1 has Det 1e400: every route leaves the double range.
    u = Multivector(s, (1e200, 1.0, 0.0, 0.0))
    for method in (charpoly_interp, det_fl, det_matrix, charpoly_matrix):
        with pytest.raises(FloatRangeError, match="float.*range"):
            method(u)
    # Coefficients of 1e160 leave the double range in the recursion's first
    # matrix product, not in its last step, a dot product.
    for sig in (Signature(3, 0), Signature(6, 0)):
        u = Multivector(sig, [1e160] * sig.dim)
        for method in (det_fl, fl_coefficients, adjugate, inverse):
            with pytest.raises(FloatRangeError, match="float.*range"):
                method(u)
    with pytest.raises(FloatRangeError, match="float.*range"):
        eigen_compare(Multivector.scalar(Signature(1, 0), 10**400))
    with pytest.raises(FloatRangeError, match="float.*range"):
        fl_coefficients(Multivector(s, (1.0, 2.0, 0.0, 0.0))).evaluate(1e200)


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


def test_charpoly_interp_flags_bad_determinant_function(monkeypatch):
    # A determinant routine that is not a degree-N polynomial in lambda
    # cannot interpolate to a monic result.  Every sample goes through
    # charpoly._sample_dets; squaring its values breaks the degree.
    u = random_mvs(Signature(2, 0), 1, 30)[0]
    sample_dets = charpoly._sample_dets
    monkeypatch.setattr(charpoly, "_sample_dets",
                        lambda sig, rows: [d ** 2 for d in sample_dets(sig, rows)])
    with pytest.raises(ConsistencyError):
        charpoly_interp(u)


def test_charpoly_evaluate_scalars():
    s = Signature(1, 1)
    u = Multivector(s, (1, 2, 3, 4))
    cp = fl_coefficients(u)
    # phi(x) = x**2 - C1 x - C2 for scalar arguments
    for x in (0, 1, Fraction(-5, 2)):
        assert cp.evaluate(x) == x * x - cp.coeffs[0] * x - cp.coeffs[1]


def test_exact_coefficients_are_in_normal_form():
    # An exact coefficient is an int when it is whole, else a Fraction; the
    # Newton expansion in charpoly_interp once returned Fraction(0, 1) here.
    s = Signature(1, 0)
    pinned = charpoly_interp(Multivector(s, (Fraction(-1, 3), Fraction(-1, 3))))
    assert [type(c) for c in pinned.coeffs] == [Fraction, int]
    assert pinned.coeffs == (Fraction(-2, 3), 0)
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 61)[0] / 3
        for method in ("fl", "vieta-triangle", "vieta-bar", "matrix", "interp"):
            for c in METHODS[method].charpoly(u).coeffs:
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (sig, method, c)


def test_scaled_recursion_is_exact_across_the_int64_guard():
    # u = V / D runs on the integer row V and divides once at the end.  The
    # inputs below start inside the int64 bound and leave it partway through
    # the recursion (12-bit numerators), or start outside it (three mixed
    # denominators make V exceed 2**63), so both dtypes and the switch
    # between them are compared with the matrix oracle.
    r = random.Random(11)
    dens = (2 ** 40, 3 * 7 * 11 * 13, 10 ** 18 + 9)
    for sig in (Signature(6, 0), Signature(3, 3), Signature(0, 6), Signature(2, 1)):
        e = sig.identity
        inputs = [Multivector(sig, (Fraction(r.randint(-2 ** 12, 2 ** 12), den)
                                    for _ in range(sig.dim))) for den in dens]
        inputs.append(Multivector(sig, (Fraction(r.choice((-1, 1)) * r.randint(1, 9),
                                                 dens[j % 3] if j < 3 else r.choice(dens))
                                        for j in range(sig.dim))))
        inputs.append(Multivector(sig, (Fraction(r.randint(-9, 9), r.randint(1, 9))
                                        for _ in range(sig.dim))))
        for i, u in enumerate(inputs):
            v, d = charpoly._integer_row(u)
            v_max = max(map(abs, v))
            if i < 3 and sig.n == 6:
                assert v_max ** 2 << sig.n < 2 ** 63 <= abs(det_fl(u)) * d ** sig.N
            if i == 3:
                assert v_max >= 2 ** 63
            det = det_fl(u)
            assert same_typed([det], [det_matrix(u)])
            cp = charpoly_matrix(u)
            assert same_typed(fl_coefficients(u).coeffs, cp.coeffs)
            assert same_typed(charpoly_interp(u).coeffs, cp.coeffs)
            assert u * adjugate(u) == det * e
            assert u * inverse(u) == e
    # Integer rows that fit int64 while beta(u) does not (every |V_i| below
    # 2**63 <= max|V| * 2**n), so only the oracle's contraction guard keeps
    # it exact; and rows of 10**12, whose oracle recursion leaves int64.
    r = random.Random(17)
    for sig in (Signature(6, 0), Signature(0, 6)):
        for top in (2 ** 62, 10 ** 12):
            u = Multivector(sig, (r.randint(-top, top) for _ in range(sig.dim)))
            assert same_typed([det_fl(u)], [det_matrix(u)])
            assert same_typed(fl_coefficients(u).coeffs, charpoly_matrix(u).coeffs)


def test_stack_int64_guard_is_exact_at_its_boundary():
    # The recursion's bound is max|W| * max|V| * 2**n < 2**63.  G(0,1)'s
    # last step attains it: V = c + c*e1 gives CN = <(V - 2c) * V>_0 = -2c**2,
    # which is -2**63 at c = 2**31 and beyond int64 at c = 3 * 2**30.  In
    # G(0,3), V below has a first product of 6c**2 against a bound of 8c**2;
    # the c chosen puts 2**63 < 6c**2 < 8c**2 < 2**64.
    for c in (2 ** 31 - 1, 2 ** 31, 3 * 2 ** 30):
        u = Multivector(Signature(0, 1), (c, c))
        assert det_fl(u) == det_matrix(u) == 2 * c * c
    c = 5 * 2 ** 28
    u = Multivector(Signature(0, 3), (0, c, c, c, c, -c, c, c))
    assert 2 ** 63 < 6 * c * c < 8 * c * c < 2 ** 64
    assert det_fl(u) == det_matrix(u)
    assert fl_coefficients(u) == charpoly_matrix(u)


def test_interp_stack_with_rows_of_different_dtypes():
    # One stack through the recursion: a row that stays in int64, one that
    # leaves it partway and one that starts beyond it.  Each sample must be
    # the row's own determinant.
    sig = Signature(3, 2)
    r = random.Random(12)
    rows = [[r.randint(-9, 9) for _ in range(sig.dim)],
            [r.randint(-2 ** 20, 2 ** 20) for _ in range(sig.dim)],
            [r.randint(-2 ** 70, 2 ** 70) for _ in range(sig.dim)]]
    dets = charpoly._sample_dets(sig, rows)
    assert dets == [det_matrix(Multivector(sig, row)) for row in rows]
    assert all(type(d) is int for d in dets)


def test_recursion_refuses_a_non_integer_coefficient(monkeypatch):
    # For an integer row every C(k) is an integer; a broken product table
    # must raise, not fall back to fractions.
    right_factors = Signature._right_factors
    monkeypatch.setattr(Signature, "_right_factors",
                        lambda self, b: right_factors(self, b) + 1)
    u = Multivector(Signature(3, 0), range(1, 9))
    with pytest.raises(ConsistencyError, match="not an integer"):
        det_fl(u)
