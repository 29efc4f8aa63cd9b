"""Trace recursion, adjugate, inverse, and interpolation reconstruction."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
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
from helpers import (MATRIX_ORACLE, SIGNATURES, fl_by_definition, forbid, product_by_definition,
                     random_mvs, same_typed)


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
        u = Multivector._raw(s, (1.0, bad, 0.0, 0.0), 1, True)
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
                        lambda *args: [d ** 2 for d in sample_dets(*args)])
    with pytest.raises(ConsistencyError):
        charpoly_interp(u)


def test_charpoly_interp_refuses_a_non_integer_divided_difference(monkeypatch):
    # The samples are values of an integer polynomial at x = 0..N, so every
    # divided difference is an integer.  One sample off by 1 breaks that at
    # the second level, before the leading coefficient is looked at.
    u = random_mvs(Signature(2, 0), 1, 30)[0]
    sample_dets = charpoly._sample_dets

    def perturbed(*args):
        dets = sample_dets(*args)
        return [dets[0] + 1] + dets[1:]

    monkeypatch.setattr(charpoly, "_sample_dets", perturbed)
    with pytest.raises(ConsistencyError, match="not an integer"):
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
            v, d = u._row, u._den
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


def spy_modular(monkeypatch) -> list:
    """Record (k, prime count) of each entry into the GF(p) ring: k is the
    step whose bound sent the recursion there, and the count is read off the
    prime column (the check prime last) that first reduces Uk - Ck."""
    steps, switches = [], []
    modular_bound, residues = charpoly._modular_bound, charpoly._residues

    def spy_bound(sig, v, k):
        steps.append(k)
        return modular_bound(sig, v, k)

    def spy_residues(x, primes):
        if steps:
            switches.append((steps.pop(), len(primes) - 1))
            steps.clear()
        return residues(x, primes)

    monkeypatch.setattr(charpoly, "_modular_bound", spy_bound)
    monkeypatch.setattr(charpoly, "_residues", spy_residues)
    return switches


def test_interp_stack_with_rows_of_different_dtypes(monkeypatch):
    # One stack through the recursion, the rows s*e + V of one V: a row
    # that stays in int64, one that leaves it partway and one that starts
    # beyond it.  Each sample must be the row's own determinant.  At n >= 5
    # the stack crosses into the modular route where it leaves int64; at
    # n = 4 it goes on in object dtype.
    switches = spy_modular(monkeypatch)
    r = random.Random(12)
    for sig in (Signature(3, 2), Signature(2, 2), Signature(6, 0)):
        v = [r.randint(-9, 9) for _ in range(sig.dim)]
        shifts = [r.randint(-9, 9), r.randint(-2 ** 20, 2 ** 20), r.randint(-2 ** 70, 2 ** 70)]
        count = len(switches)
        dets = charpoly._sample_dets(sig, v, shifts)
        assert dets == [det_matrix(Multivector(sig, [s + v[0]] + v[1:])) for s in shifts]
        assert all(type(d) is int for d in dets)
        assert len(switches) == count + (sig.n >= 5)


def test_modular_primes_are_prime_and_keep_a_step_exact_on_float64():
    # The supply against trial division, which shares nothing with its own
    # primality test: every composite below 2**23 has a factor below 2**12.
    # The first 300 primes are then every prime below 2**23, in turn; the
    # 64th pins the primes, and so the CRT tables, of every run that needs
    # at most 63.
    small = [q for q in range(2, 2 ** 12) if all(q % r for r in range(2, math.isqrt(q) + 1))]

    def is_prime(x):
        return all(x % q for q in small)

    assert not is_prime(2 ** 23 + 1) and is_prime(8388593)  # 2**23 + 1 = 3 * 2796203
    primes = charpoly._primes(300)[:300]
    assert primes[0] == 8388593 and primes[63] == 8387501
    for above, p in zip([2 ** 23 + 1] + primes, primes):
        assert p < above and is_prime(p), p
        assert not any(map(is_prime, range(p + 2, above, 2))), p
        # A float64 GF(p) step sums 2**n products below p**2, n <= 6, and
        # interp's shift times a residue, also below p**2.
        assert p < 2 ** 23 and (2 ** 6 + 2) * p * p < 2 ** 53


@pytest.mark.parametrize("sig", [Signature(6, 0), Signature(0, 5)])
def test_modular_route_is_exact_at_its_bound(monkeypatch, sig):
    # V = s*e attains the bound: beta(V) = s*I, so |Ck| = binom(N, k) * s**k,
    # and CN = -s**N is the largest value rebuilt.  s**N lies between half
    # the product of the first six primes and that product, so the route
    # needs a seventh.  The prime count is the fewest whose product exceeds
    # twice the bound, so one prime short cannot hold CN: the route must
    # raise or give another value.  s is not a multiple of 3, so the input
    # s/3 keeps its denominator and V = s*e.
    switches = spy_modular(monkeypatch)
    N = sig.N
    six = math.prod(charpoly._primes(6)[:6])
    s = round(six ** (1 / N))
    while s ** N > six or s % 3 == 0:
        s -= 1
    assert six < 2 * s ** N
    u = Multivector.scalar(sig, Fraction(s, 3))
    assert u._den == 3
    expected = tuple(-math.comb(N, k) * (-s) ** k for k in range(1, N + 1))
    cp = fl_coefficients(u)
    assert cp.coeffs == tuple(Fraction(c, 3 ** k) for k, c in enumerate(expected, 1))
    [(k, count)] = switches
    assert k < N - 1 and count == 7
    prime_count = charpoly._prime_count
    monkeypatch.setattr(charpoly, "_prime_count", lambda bound: prime_count(bound) - 1)
    try:
        short = fl_coefficients(u)
    except ConsistencyError:
        return
    assert short.coeffs != cp.coeffs


def test_modular_route_refuses_a_broken_product(monkeypatch):
    # A broken product table makes some C(k) non-integers; over GF(p) they
    # cannot be told from integers, so the check prime must refuse the
    # values rebuilt by CRT.
    sig = Signature(6, 0)
    r = random.Random(21)
    u = Multivector(sig, (Fraction(r.randint(-99, 99), r.randint(1, 99)) for _ in range(sig.dim)))
    switches = spy_modular(monkeypatch)
    right_factors = Signature._right_factors
    monkeypatch.setattr(Signature, "_right_factors",
                        lambda self, b: right_factors(self, b) + 1)
    with pytest.raises(ConsistencyError, match="check prime"):
        det_fl(u)
    # C1 = 8 * <V>_0 is an integer however broken the product is; the
    # route starts right after it.
    assert switches[0][0] == 1


def test_modular_step_carrier_is_exact_at_its_boundary(monkeypatch):
    # A GF(p) step runs on float64.  It multiplies by the run's own right
    # factor R(V) while p * top * (2**n + 2) < 2**53, p the largest prime;
    # else by the gather of V's residues.  With V_A = sign(A, A) * c but
    # V_0 = c - 1, the scalar part of a residue row r times V is
    # c * sum(r) - r_0, sum(r) a sum of 64 residues in [0, p).  c = 16268844
    # puts the bound just below 2**53; c = 32537689 puts it between 2**53
    # and 2**54 and some of those sums odd and above 2**53, where a float64
    # step on R(V) would round them.  The rows s*e + V of interp take the
    # same bound: s = -c keeps the sum of the matmul above 2**53.
    sig = Signature(6, 0)
    N = sig.N
    squares = [sig._blade_product(i, i)[1] for i in range(sig.dim)]
    switches = spy_modular(monkeypatch)
    gathers = []
    right_factors = Signature._right_factors
    monkeypatch.setattr(Signature, "_right_factors",
                        lambda self, b: gathers.append(b.shape) or right_factors(self, b))
    for c, shared in ((16268844, True), (32537689, False)):
        bound = charpoly._primes(1)[0] * c * (sig.dim + 2)
        assert (bound < 2 ** 53) == shared and bound < 2 ** 54
        v = [c - 1] + [s * c for s in squares[1:]]
        for shifts in (None, [0, -c]):
            del switches[:], gathers[:]
            coeffs, penult = charpoly._fl_stack(sig, (np.array([v]), c, 1), shifts)
            [(k, count)] = switches
            primes = charpoly._PRIMES[:count + 1]
            # One gather of V, shared with the integer steps, and a second
            # one, of V's residues, only past the shared factor's bound.
            assert gathers == [(1, sig.dim)] + ([] if shared else [(len(primes), 1, sig.dim)])
            # The recursion on each row by its definition.
            expected, rows, above = [], [], False
            for s in shifts or [0]:
                u = Multivector(sig, [s + v[0]] + v[1:])
                cs, rests = fl_by_definition(u)
                expected.append(cs)
                rows.append(rests[-1])
                # The scalar part of each GF(p) step's matmul, <r * V>_0,
                # summed exactly for the residues r of Uj - Cj.
                for rest in rests[k - 1:]:
                    for p in primes:
                        sum_ = sum(q * (int(x) % p) * y for q, x, y in zip(squares, rest, v))
                        above |= sum_ > 2 ** 53 and sum_ % 2 == 1
            assert above != shared
            assert k < N - 1
            assert coeffs == [list(cj) for cj in zip(*expected)]
            assert penult().tolist() == rows


class _MatmulLog(np.ndarray):
    """An array that logs the (ndim, dtype) of the operands of each matmul
    it takes part in, and passes its type on to every array made from it."""

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(x):
            return x.view(np.ndarray) if isinstance(x, _MatmulLog) else x

        inputs = tuple(map(plain, inputs))
        if "out" in kwargs:
            kwargs["out"] = tuple(map(plain, kwargs["out"]))
        if ufunc is np.matmul:
            _MatmulLog.log.append([(x.ndim, x.dtype) for x in inputs])
        result = getattr(ufunc, method)(*inputs, **kwargs)
        return result.view(_MatmulLog) if isinstance(result, np.ndarray) else result


def test_modular_ring_runs_on_float64(monkeypatch):
    # Every GF(p) matmul, the one whose left operand has a prime axis, is
    # on float64, and so is every gather of V's residues; no dtype is
    # picked once the ring is entered.  The inputs take both right factors:
    # dense-rational rows share R(V), 300-bit rows and float interp's rows
    # gather V's residues.
    switches = spy_modular(monkeypatch)
    events, gathers = [], []
    right_factors, residues, int_dtype = (Signature._right_factors, charpoly._residues,
                                          charpoly._int_dtype)
    monkeypatch.setattr(Signature, "_right_factors", lambda self, b: gathers.append(
        (b.ndim, b.dtype)) or right_factors(self, b).view(_MatmulLog))
    monkeypatch.setattr(charpoly, "_residues", lambda x, primes: events.append(
        "residues") or residues(x, primes).view(_MatmulLog))
    monkeypatch.setattr(charpoly, "_int_dtype", lambda *args: events.append(
        "pick") or int_dtype(*args))
    r = random.Random(31)
    cases = []
    for sig in (Signature(6, 0), Signature(3, 3), Signature(5, 0)):
        d = sig.dim
        cases += [(fl_coefficients, Multivector(sig, (Fraction(r.randint(-9, 9), r.randint(1, 9))
                                                      for _ in range(d))), False),
                  (fl_coefficients, Multivector(sig, (r.randint(-2 ** 300, 2 ** 300)
                                                      for _ in range(d))), True),
                  (charpoly_interp, Multivector(sig, (r.uniform(-9, 9) for _ in range(d))), True)]
    for method, u, residue in cases:
        del switches[:], events[:], gathers[:], _MatmulLog.log[:]
        cp = method(u)
        assert len(switches) == 1
        assert "pick" not in events[events.index("residues"):]
        ring = [ops for ops in _MatmulLog.log if ops[0][0] == 3]
        assert ring and all(dtype == np.float64 for ops in ring for _, dtype in ops)
        assert [g for g in gathers if g[0] == 3] == ([(3, np.float64)] if residue else [])
        assert cp == charpoly_matrix(u)


def test_rational_run_gathers_once_and_rebuilds_only_what_it_reads(monkeypatch):
    # A rational G(6,0) or G(3,2) input leaves int64 partway: its integer
    # steps and its modular steps share one gather of V, and only a reader
    # of the adjugate makes the route rebuild W.
    switches = spy_modular(monkeypatch)
    gathers, rebuilds = [], []
    right_factors, rebuild = Signature._right_factors, charpoly._rebuild
    monkeypatch.setattr(Signature, "_right_factors",
                        lambda self, b: gathers.append(b.shape) or right_factors(self, b))
    monkeypatch.setattr(charpoly, "_rebuild",
                        lambda residues, count: rebuilds.append(count) or rebuild(residues, count))
    r = random.Random(29)
    for sig in (Signature(6, 0), Signature(3, 2)):
        u = Multivector(sig, (Fraction(r.randint(-9, 9), r.randint(1, 9)) for _ in range(sig.dim)))
        for method, reads_w in ((det_fl, False), (fl_coefficients, False),
                                (charpoly_interp, False), (adjugate, True), (inverse, True)):
            del switches[:], gathers[:], rebuilds[:]
            method(u)
            assert len(switches) == 1, method
            assert gathers == [(1, sig.dim)], method
            assert len(rebuilds) == 1 + reads_w, method
        # The inverse command reads W twice from one run; it is rebuilt once.
        del rebuilds[:]
        run = charpoly._fl_run(u)
        run.inverse(), run.adjugate()
        assert len(rebuilds) == 2


def test_modular_route_matches_object_dtype(monkeypatch):
    # Every exact result, and float interp, in value and type, with the
    # modular route and without it (object dtype throughout), and at n >= 5,
    # where the route runs, against the recursion by its definition.  The
    # inputs enter the route at most of its steps.
    r = random.Random(23)
    inputs = []
    for sig in SIGNATURES:
        d = sig.dim
        inputs += [Multivector(sig, (r.randint(-9, 9) for _ in range(d))),
                   Multivector(sig, (Fraction(r.randint(-9, 9), r.randint(1, 9))
                                     for _ in range(d))),
                   Multivector(sig, (r.randint(-2 ** 8, 2 ** 8) for _ in range(d))),
                   Multivector(sig, (r.choice((-1, 1)) * 10 ** 12 for _ in range(d))),
                   Multivector(sig, (r.randint(-2 ** 70, 2 ** 70) for _ in range(d))),
                   # <V>_0 - C1 = 7 * (2**61 + 1) at n >= 5: a scalar column
                   # past int64 that still fits uint64.
                   Multivector(sig, [-2 ** 61 - 1] + [r.randint(-9, 9) for _ in range(d - 1)]),
                   Multivector(sig, (Fraction(r.randint(-2 ** 70, 2 ** 70), r.randint(1, 2 ** 40))
                                     for _ in range(d))).to_float()]

    def inverse_or_det(u):
        try:
            return inverse(u).coeffs
        except NotInvertibleError as exc:  # +-10**12 rows can be singular
            return (exc.det,)

    def results(u):
        out = []
        if not u.is_float:
            out += [(det_fl(u),), fl_coefficients(u).coeffs, adjugate(u).coeffs,
                    inverse_or_det(u)]
        return out + [charpoly_interp(u).coeffs]

    def by_definition(u):
        # The same list from the recursion on Fractions, which shares no
        # step with the route or the object-dtype steps.
        coeffs, rests = fl_by_definition(u.to_exact())
        cp = CharPoly(u.sig, tuple(coeffs))
        if u.is_float:
            return [cp.to_float().coeffs]
        adj = Multivector(u.sig, [-x for x in rests[-1]])
        inv = Multivector(u.sig, [Fraction(x) / cp.det for x in adj.coeffs]).coeffs if cp.det else (0,)
        return [(cp.det,), cp.coeffs, adj.coeffs, inv, cp.coeffs]

    switches = spy_modular(monkeypatch)
    modular = [results(u) for u in inputs]
    assert len({k for k, _ in switches}) >= 5
    for u, got in zip(inputs, modular):
        if u.sig.n >= 5:
            assert all(map(same_typed, got, by_definition(u))), u
    monkeypatch.setattr(charpoly, "_MODULAR_MIN_N", 7)
    count = len(switches)
    assert all(map(same_typed, modular, [results(u) for u in inputs]))
    assert len(switches) == count


@pytest.mark.parametrize("sig", [Signature(5, 0), Signature(3, 3)])
def test_modular_route_past_63_primes(monkeypatch, sig):
    # 900-bit integer rows need about 259 primes at n >= 5: each run of
    # the recursion enters the GF(p) ring at its first step and rebuilds
    # every value by CRT from that many residues.
    switches = spy_modular(monkeypatch)
    r = random.Random(37)
    u = Multivector(sig, (r.randint(-2 ** 900, 2 ** 900) for _ in range(sig.dim)))
    det, cp = det_matrix(u), charpoly_matrix(u).coeffs
    assert same_typed([det_fl(u)], [det])
    [(k, count)] = switches
    assert k == 1 and count > 63
    assert same_typed(fl_coefficients(u).coeffs, cp)
    adj = adjugate(u)
    assert u * adj == adj * u == det * sig.identity
    assert same_typed(charpoly_interp(u).coeffs, cp)
    # One entry per run: det_fl, fl_coefficients, adjugate and interp.
    assert switches == [(k, count)] * 4


def test_crt_tables_are_kept_for_a_few_prime_counts():
    # The CRT tables are cached for at most maxsize prime counts; a table
    # evicted and built again is the same table.
    table = charpoly._crt_table
    maxsize = table.cache_info().maxsize
    assert maxsize >= 7
    first = table(3)
    for count in range(4, maxsize + 6):
        table(count)
        assert table.cache_info().currsize <= maxsize
    again = table(3)
    assert again is not first
    primes, modulus, crt, inverses = first
    assert (again[0] == primes).all() and again[1] == modulus
    assert again[2].tolist() == crt.tolist() and (again[3] == inverses).all()


def test_recursion_refuses_a_non_integer_coefficient(monkeypatch):
    # For an integer row every C(k) is an integer; a broken product table
    # must raise, not fall back to fractions.
    right_factors = Signature._right_factors
    monkeypatch.setattr(Signature, "_right_factors",
                        lambda self, b: right_factors(self, b) + 1)
    u = Multivector(Signature(3, 0), range(1, 9))
    with pytest.raises(ConsistencyError, match="not an integer"):
        det_fl(u)
