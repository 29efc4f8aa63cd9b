"""Blade arithmetic, grade structure, and conjugation laws."""

from __future__ import annotations

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadet import (
    FloatRangeError,
    Multivector,
    Signature,
    SignatureMismatchError,
    charpoly_interp,
    charpoly_matrix,
    close,
    delta,
    det_fl,
    det_matrix,
    fl_coefficients,
    inverse,
    random_multivector,
)
from gadet.algebra import _grade_sign
from gadet.cli import parse_multivector
from helpers import SIGNATURES, product_by_definition, random_mvs, same_typed


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


def test_product_matches_its_definition_on_every_signature():
    r = random.Random(3)
    for sig in SIGNATURES:
        u, v = random_mvs(sig, 2, 3)
        x, y = random_mvs(sig, 2, 3, float_backend=True)
        rational = [Multivector(sig, (Fraction(r.randint(-9, 9), r.randint(1, 7))
                                      for _ in range(sig.dim))) for _ in range(2)]
        sparse = Multivector.from_terms(
            sig, {r.randrange(sig.dim): r.randint(-9, 9) for _ in range(2)})
        third = Multivector.scalar(sig, Fraction(-1, 3))
        exact_pairs = [(u, v), tuple(rational), (u, rational[0]), (sparse, u),
                       (v, sparse), (third, u), (rational[1], third)]
        for a, b in exact_pairs:
            assert (a * b).coeffs == product_by_definition(a, b).coeffs
        float_pairs = [(x, y), (x, u), (rational[0], y), (sparse, x),
                       (Multivector.scalar(sig, 2.5), y), (x, third)]
        for a, b in float_pairs:
            got = a * b
            assert got.is_float
            assert all(map(close, got.coeffs, product_by_definition(a, b).coeffs))


def test_int64_guard_is_exact_at_its_boundary():
    # a = c * (1, ..., 1) and b_A = sign(A, A) * c give <a * b>_0 = 2**n * c**2,
    # the guard's bound max|a| * max|b| * 2**n itself.  c = 2**28 reaches
    # 2**62 in int64; c = 3 * 2**27 reaches 9 * 2**60 > 2**63, so the guard
    # must send it to object dtype.  The rational operand, with denominator 5,
    # scales back to the same integer magnitudes.
    for sig in (Signature(6, 0), Signature(3, 3), Signature(0, 6)):
        squares = [sig._blade_product(i, i)[1] for i in range(sig.dim)]
        for c in (2 ** 28, 3 * 2 ** 27):
            a = Multivector(sig, [c] * sig.dim)
            b = Multivector(sig, [s * c for s in squares])
            rational = Multivector(sig, [Fraction(c, 5)] * sig.dim)
            for x, y in ((a, b), (b, a), (rational, b), (b, rational)):
                assert (x * y).coeffs == product_by_definition(x, y).coeffs
            assert (a * b).scalar_part() == sig.dim * c * c


def test_float_carrier_is_exact_at_its_boundary():
    # A contraction of at least 4096 multiplies runs on float64 when its
    # bound is below 2**53.  a = (c - 1, c, ..., c) and b_A = sign(A, A) * d
    # give the bound 2**n * c * d and <a * b>_0 = d * (2**n * c - 1), odd.
    # (c, d) = (2**24 - 1, 2**23 - 1) puts the bound just below 2**53;
    # (2**24 + 1, 2**23 + 1) just above it, where <a * b>_0 is odd and above
    # 2**53, so float64 would round it.
    for sig in (Signature(6, 0), Signature(3, 3), Signature(0, 6)):
        squares = [sig._blade_product(i, i)[1] for i in range(sig.dim)]
        for c, d in ((2 ** 24 - 1, 2 ** 23 - 1), (2 ** 24 + 1, 2 ** 23 + 1)):
            a = Multivector(sig, [c - 1] + [c] * (sig.dim - 1))
            b = Multivector(sig, [s * d for s in squares])
            rational = Multivector(sig, [Fraction(c - 1, 5)] + [Fraction(c, 5)] * (sig.dim - 1))
            for x, y in ((a, b), (b, a), (rational, b), (b, rational)):
                assert (x * y).coeffs == product_by_definition(x, y).coeffs
            assert (a * b).scalar_part() == d * (sig.dim * c - 1)
    # A recursion step: V = c times the 35 non-scalar blades that square to
    # +1 in G(3, 3) has C1 = 0, so the first step is V * V with the bound
    # 2**6 * c**2 and <V * V>_0 = 35 * c**2, odd.  c = 11863283 puts the
    # bound just below 2**53; c = 2**24 - 1 just above it, where 35 * c**2
    # is above 2**53.  Interp's nine rows x*e - V take the same bound.
    sig = Signature(3, 3)
    plus = [i for i in range(1, sig.dim) if sig._blade_product(i, i)[1] > 0]
    assert len(plus) == 35
    for c in (11863283, 2 ** 24 - 1):
        assert (64 * c * c < 2 ** 53) == (c < 2 ** 24 - 1) and 35 * c * c % 2 == 1
        u = Multivector.from_terms(sig, dict.fromkeys(plus, c))
        expected = charpoly_matrix(u)
        assert fl_coefficients(u) == expected
        assert charpoly_interp(u) == expected
        assert det_fl(u) == det_matrix(u)


def test_exact_arithmetic_keeps_normal_form():
    r = random.Random(4)
    for sig in SIGNATURES:
        halves = Multivector(sig, (Fraction(2 * r.randint(-9, 9) + 1, 2)
                                   for _ in range(sig.dim)))
        third = Multivector(sig, (Fraction(1, 3),) + (1,) * (sig.dim - 1))
        u = random_mvs(sig, 1, 4)[0]
        whole = [halves + halves, halves - (-halves), 2 * halves, halves * 2,
                 3 * third, third * 3, halves.grade(0) + Fraction(1, 2),
                 u + u * Fraction(1, 2) - u * Fraction(3, 2)]
        for value in whole:
            assert all(type(c) is int for c in value.coeffs), value.coeffs
        assert (halves + halves).coeffs == tuple(2 * c for c in halves.coeffs)
        assert (3 * third).coeffs == (1,) + (3,) * (sig.dim - 1)


def _assert_lowest_terms(value):
    row, den = value._row, value._den
    assert den > 0 and math.gcd(den, *row) == 1, (row, den)
    if not any(row):
        assert den == 1


def test_exact_storage_is_one_row_over_one_denominator_in_lowest_terms():
    s = Signature(2, 0)
    e1, e2 = Multivector.blade(s, 1), Multivector.blade(s, 2)
    half_e1 = Multivector(s, (0, Fraction(1, 2), 0, 0))
    u = Multivector(s, (0, Fraction(1, 2), Fraction(1, 3), 0))
    v = Multivector(s, (Fraction(2, 4), Fraction(-1, 6), 3, Fraction(5, 10)))
    inv = inverse(u)
    assert inv == Multivector(s, (0, Fraction(18, 13), Fraction(12, 13), 0))  # Det = -13/36
    values = [
        v, inv,
        Multivector(s, (0, Fraction(1, 6), 0, 0)) + Multivector(s, (0, Fraction(1, 3), 0, 0)),
        (half_e1 + Fraction(1, 2)) + (Fraction(1, 2) - half_e1),
        half_e1 - (-half_e1),
        Multivector(s, (0, Fraction(3, 2), 0, 0)) * Fraction(-2, 3),
        Fraction(-4, 6) * Multivector(s, (0, Fraction(3, 2), Fraction(3, 4), 0)),
        half_e1 / Fraction(-1, 2), u / -2, u / Fraction(1, 6),
        # (1/2 e1 + 1/2 e2)(2 e1 - 2 e2) = -2 e12: the kernel's row over 2 reduces.
        Multivector(s, (0, Fraction(1, 2), Fraction(1, 2), 0)) * Multivector(s, (0, 2, -2, 0)),
        u * u, u * v, v * u, u - u, u * 0, v.grade(2) - v.grade(2),
        Multivector(s, (Fraction(0, 3),) * 4), s.zero,
    ]
    for value in values:
        _assert_lowest_terms(value)
    assert values[2] == half_e1 and values[3] == 1 and values[4] == e1
    assert values[10] == Multivector.blade(s, 1, 2, coeff=-2)
    # The same value spelled with unreduced and reduced fractions.
    assert parse_multivector("2/4 + 3/6*e1 + 4/8*e12", s) == Multivector(
        s, (Fraction(1, 2), Fraction(1, 2), 0, Fraction(1, 2)))
    assert v == parse_multivector("1/2 - 1/6*e1 + 3*e2 + 1/2*e12", s)
    # A grade of a value with a denominator may be whole.
    projected = (Fraction(1, 2) + e1).grade(1)
    _assert_lowest_terms(projected)
    assert projected == e1 and projected._den == 1
    assert all(type(c) is int for c in projected.coeffs)
    assert (u - u)._den == 1 and (u - u).coeffs == (0, 0, 0, 0)
    assert (u + e2).conjugate(delta(1))._den == 6
    # to_float is row / den correctly rounded, which is float(Fraction).
    big = Fraction(2 ** 70 + 1, 3)
    expected = (float(big), -float(big), 1.0, 0.0)
    assert Multivector(s, (big, -big, 1, 0)).to_float().coeffs == expected
    for huge in (10 ** 400, Fraction(10 ** 400, 3)):
        with pytest.raises(FloatRangeError):
            Multivector.scalar(s, huge).to_float()


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_multivector_copies_and_pickles(backend):
    # Copies rebuild the value without setting its slots, and keep the
    # interned signature; the copy is as immutable as the original.
    s = Signature(3, 1)
    u = Multivector(s, [Fraction(k, 6) for k in range(-8, 8)])
    assert u._den == 6
    if backend == "float":
        u = u.to_float()
    for v in (copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
        assert v == u and str(v) == str(u)
        assert v.sig is s and v.is_float == u.is_float
        with pytest.raises(AttributeError, match="immutable"):
            setattr(v, "sig", Signature(2, 0))


def _draw(kind: str, r: random.Random):
    if kind == "int":
        return r.randint(-9, 9)
    if kind == "rational":
        return Fraction(r.randint(-9, 9), r.randint(1, 9))
    if kind == "1e12":
        return r.choice((-1, 1)) * 10 ** 12
    return Fraction(r.randint(-9, 9) * 2 ** 70, 3)


def _normal(values) -> tuple:
    return tuple(c.numerator if c.denominator == 1 else c for c in map(Fraction, values))


def test_exact_results_keep_their_value_and_type_on_every_signature():
    # References use plain Fraction arithmetic, and the product its
    # definition, never the row kernels; same_typed keeps ints apart from
    # whole Fractions.
    r = random.Random(22)
    for sig in SIGNATURES:
        for kind in ("int", "rational", "1e12", "2**70/3"):
            a = [_draw(kind, r) for _ in range(sig.dim)]
            b = [_draw(kind, r) for _ in range(sig.dim)]
            s = _draw(kind, r) or 1
            u, v = Multivector(sig, a), Multivector(sig, b)
            fa, fb = list(map(Fraction, a)), list(map(Fraction, b))
            assert same_typed(u.coeffs, _normal(a))
            assert same_typed((u * v).coeffs, product_by_definition(u, v).coeffs)
            assert same_typed((u + v).coeffs, _normal(x + y for x, y in zip(fa, fb)))
            assert same_typed((u - v).coeffs, _normal(x - y for x, y in zip(fa, fb)))
            assert same_typed((u + s).coeffs, _normal([fa[0] + s] + fa[1:]))
            assert same_typed((u * s).coeffs, _normal(x * s for x in fa))
            assert same_typed((s * u).coeffs, _normal(x * s for x in fa))
            assert same_typed((u / s).coeffs, _normal(x / s for x in fa))
            assert same_typed((-u).coeffs, _normal(-x for x in fa))
            for conj in sig.available_conjugations():
                signs = [_grade_sign(conj, g) for g in sig.grades]
                assert same_typed(u.conjugate(conj).coeffs,
                                  _normal(c * x for c, x in zip(signs, fa)))
            for k in range(sig.n + 1):
                assert same_typed(u.grade(k).coeffs,
                                  _normal(x if g == k else 0 for g, x in zip(sig.grades, fa)))
            for value in (u * v, u + v, u - v, u * s, u / s, u.grade(sig.n)):
                _assert_lowest_terms(value)


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
    assert 1 - u == -(u - 1)
    half = u / 2.0
    assert half.is_float and half == Fraction(1, 2) * u


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


def test_non_finite_floats_rejected_at_construction():
    s = Signature(2, 0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(FloatRangeError, match="float.*range"):
            Multivector(s, (1.0, bad, 0.0, 0.0))
    # An int beyond the double range in a float-backed value.
    with pytest.raises(FloatRangeError, match="float.*range"):
        Multivector(s, (1.0, 10**400, 0, 0))
    # A float sum that overflows is rejected, not carried on as inf.
    big = Multivector.scalar(s, 1e308)
    with pytest.raises(FloatRangeError):
        big + big
    # A float product that overflows, and an exact value too large to round.
    u = Multivector(Signature(3, 0), [1e300] * 8)
    with pytest.raises(FloatRangeError, match="float.*range"):
        u * u
    for huge in (10**400, Fraction(10**400, 3)):
        with pytest.raises(FloatRangeError, match="float.*range"):
            Multivector.scalar(s, huge).to_float()
        # ... also as the exact factor of a float product.
        with pytest.raises(FloatRangeError, match="float.*range"):
            Multivector(s, (huge, 1, 0, 0)) * Multivector(s, (1.0, 2.0, 0.0, 0.0))


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
