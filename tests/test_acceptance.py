"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated trial count and tolerance over the 27
supported signatures (1 <= p + q <= 6).  Exact-backend assertions are literal
equality of rationals; float tolerances are written next to their checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete (the whole suite takes a few minutes; criterion 3 is
the long pole).
"""

from __future__ import annotations

import random
from fractions import Fraction

from gadet import (
    Multivector,
    NotGenericError,
    Signature,
    all_signatures,
    available_formulas,
    charpoly_interp,
    charpoly_matrix,
    coefficients_from_roots,
    default_bar_family,
    det_fl,
    det_formula,
    det_matrix,
    evaluate_det,
    eigen_compare,
    eigenvalues,
    f_function,
    fl_coefficients,
    gelfand_retakh_ys,
    random_multivector,
    vieta_all,
    vieta_coefficient,
)
from gadet.cli import main

SIGNATURES = all_signatures()


def _report(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:2d} [{status}] {description}")
    assert not failures, f"criterion {number}: {failures[:3]}"


def _rng(tag: int, sig: Signature) -> random.Random:
    return random.Random(tag * 10_000 + sig.p * 100 + sig.q)


def test_criterion_01_cross_method_determinants():
    failures = []
    for sig in SIGNATURES:
        rng = _rng(1, sig)
        triangle = f_function(sig.n, "triangle")
        bar = f_function(sig.n, default_bar_family(sig.n))
        formulas = available_formulas(sig.n)
        for trial in range(200):
            u = random_multivector(sig, rng)
            reference = det_fl(u)
            if det_matrix(u) != reference:
                failures.append((sig, trial, "matrix"))
            for formula in formulas:
                if evaluate_det(formula, u) != reference:
                    failures.append((sig, trial, formula.family, formula.variant))
            for f in (triangle, bar):
                if -vieta_coefficient(f, u, f.arity) != reference:
                    failures.append((sig, trial, "vieta", f.family))
    _report(1, "determinant equality across fl/matrix/closed/vieta, "
               "200 multivectors per signature, exact", failures)



def test_criterion_02_cayley_hamilton_suite():
    failures = []
    for sig in SIGNATURES:
        rng = _rng(2, sig)
        for trial in range(100):
            u = random_multivector(sig, rng)
            cp = fl_coefficients(u)
            roots = (u, u.grade_involution(), u.reversion(),
                     u.reversion().grade_involution())
            for i, x in enumerate(roots):
                if not cp.evaluate(x).is_zero():
                    failures.append((sig, trial, i))
    _report(2, "phi_U vanishes exactly at U and its three conjugates, "
               "100 multivectors per signature", failures)


def test_criterion_03_generalized_vieta_equality():
    failures = []
    for sig in SIGNATURES:
        rng = _rng(3, sig)
        families = (f_function(sig.n, "triangle"),
                    f_function(sig.n, default_bar_family(sig.n)))
        for trial in range(100):
            u = random_multivector(sig, rng)
            reference = fl_coefficients(u)
            if charpoly_interp(u) != reference:
                failures.append((sig, trial, "interp"))
            for f in families:
                # vieta_all's scalarity assertion runs on every X(k) sum; a
                # violation raises rather than returning a value.
                if vieta_all(f, u) != reference:
                    failures.append((sig, trial, f.family))
    _report(3, "vieta_all == fl_coefficients == charpoly_interp exactly, "
               "both families, 100 multivectors per signature", failures)


def test_criterion_04_paper_worked_example():
    failures = []
    sig = Signature(2, 0)
    u = Multivector.from_terms(sig, {0: 5, 2: Fraction(1, 2), 3: Fraction(1, 2)})
    cp = fl_coefficients(u)
    if cp.coeffs != (10, -25):
        failures.append(("coefficients", cp.coeffs))
    eig = eigenvalues(u)
    if not all(abs(z - 5) <= 1e-10 for z in eig):
        failures.append(("eigenvalues", eig))
    expected_ys = (u, u.reversion().grade_involution())
    roots = gelfand_retakh_ys(u)
    if roots.ys != expected_ys:
        failures.append(("gelfand ys", roots.ys))
    report = eigen_compare(u)
    if not (report.ys[0] == expected_ys[0].to_float()
            and report.ys[1] == expected_ys[1].to_float()):
        failures.append(("eigen_compare ys", report.ys))
    _report(4, "worked example: C=(10,-25), lambda=5,5 within 1e-10, "
               "y = 5e +- (e2+e12)/2", failures)


def test_criterion_05_determinant_homogeneity():
    failures = []
    for sig in SIGNATURES:
        rng = _rng(5, sig)
        for trial in range(20):
            u = random_multivector(sig, rng)
            lam = rng.randint(-9, 9)
            if det_fl(u * lam) != lam ** sig.N * det_fl(u):
                failures.append((sig, trial, lam))
    _report(5, "Det(lambda U) = lambda**N Det(U) exactly, 20 random "
               "(lambda, U) per signature", failures)


def test_criterion_06_determinant_multiplicativity():
    failures = []
    for sig in SIGNATURES:
        rng = _rng(6, sig)
        for trial in range(50):
            u = random_multivector(sig, rng)
            v = random_multivector(sig, rng)
            if det_fl(u * v) != det_fl(u) * det_fl(v):
                failures.append((sig, trial))
    _report(6, "Det(UV) = Det(U)Det(V) exactly, 50 pairs per signature",
            failures)


def test_criterion_07_gelfand_retakh_small_n():
    failures = []
    for sig in all_signatures(3):
        rng = _rng(7, sig)
        produced = 0
        attempts = 0
        while produced < 50 and attempts < 2000:
            attempts += 1
            u = random_multivector(sig, rng)
            try:
                roots = gelfand_retakh_ys(u)
            except NotGenericError:
                continue
            produced += 1
            aks = coefficients_from_roots(roots.ys)
            cp = fl_coefficients(u)
            for ak, ck in zip(aks, cp.coeffs):
                if not ak == ck:
                    failures.append((sig, "coefficient mismatch"))
                    break
        if produced < 50:
            failures.append((sig, f"only {produced} generic draws"))
    # non-generic inputs must raise, identifying the failing k
    checks = [
        (Signature(1, 0), {0: 3}, 2),                # <U>_1 = 0
        (Signature(0, 2), {0: 2, 1: 1}, 2),          # <U>_2 = 0
        (Signature(3, 0), {0: 1, 7: 4}, 2),          # hat-tilde fixes U
    ]
    for sig, terms, expected_k in checks:
        try:
            gelfand_retakh_ys(Multivector.from_terms(sig, terms))
            failures.append((sig, "non-generic input did not raise"))
        except NotGenericError as err:
            if err.k != expected_k:
                failures.append((sig, f"raised k={err.k}, expected {expected_k}"))
    _report(7, "ordered-set coefficients a_k == C_k exactly on 50 generic "
               "draws per signature (n <= 3); non-generic inputs raise",
            failures)


def test_criterion_08_counterexample_witnesses():
    failures = []
    sig = Signature(4, 0)
    # Det(U^delta) != Det(U): frozen witness 1 + e12 + e34 + e1234.
    u = Multivector.from_terms(sig, {0: 1, 0b0011: 1, 0b1100: 1, 0b1111: 1})
    det_u = det_fl(u)
    det_ud = det_fl(u.delta(3))
    if not (det_u == 16 and det_ud == 0 and det_u != det_ud):
        failures.append(("determinant witness", det_u, det_ud))
    if fl_coefficients(u).evaluate(u.delta(3)).is_zero():
        failures.append(("phi_U(U^delta) unexpectedly zero",))
    # (UV)^delta != U^delta V^delta: frozen witness (e1, e234).
    a = Multivector.blade(sig, 1)
    b = Multivector.blade(sig, 2, 3, 4)
    if (a * b).delta(3) == a.delta(3) * b.delta(3):
        failures.append(("product witness",))
    _report(8, "strict counterexamples: Det(U^delta) != Det(U) and "
               "(UV)^delta != U^delta V^delta in G(4,0)", failures)


def test_criterion_09_eigenvalue_vieta_reconstruction():
    failures = []
    for sig in SIGNATURES:
        rng = _rng(9, sig)
        for trial in range(50):
            u = random_multivector(sig, rng, float_backend=True)
            eig = eigenvalues(u)  # raises if its internal 1e-8 check fails
            cp = charpoly_matrix(u)
            # elementary symmetric polynomials, sign (-1)**(k+1)
            esp = [1.0 + 0j]
            for z in eig:
                nxt = [esp[0]]
                for i in range(1, len(esp)):
                    nxt.append(esp[i] + z * esp[i - 1])
                nxt.append(z * esp[-1])
                esp = nxt
            for k in range(1, sig.N + 1):
                expected = cp.coeffs[k - 1]
                got = esp[k] if k % 2 == 1 else -esp[k]
                if abs(got - expected) > 1e-8 * max(1.0, abs(expected)):
                    failures.append((sig, trial, k, abs(got - expected)))
    _report(9, "elementary symmetric polynomials of eigenvalues reproduce "
               "C(k) within relative 1e-8, 50 float multivectors per "
               "signature", failures)


def test_criterion_10_formula_family_coincidences():
    failures = []
    if det_formula(3, "bar").terms != det_formula(4, "bar").terms:
        failures.append("bar n=3 vs n=4")
    if det_formula(3, "bar_tilde").terms != det_formula(4, "bar_tilde").terms:
        failures.append("bar_tilde n=3 vs n=4")
    if det_formula(5, "bar_tilde").terms != det_formula(6, "bar_tilde").terms:
        failures.append("bar_tilde n=5 vs n=6")
    _report(10, "bar-family tables coincide for n=3/4; H-form tables "
                "coincide for n=5/6 (structural equality)", failures)


def test_criterion_11_float_backend_sweep():
    failures = []
    for sig in SIGNATURES:
        code = main(["check", "--sig", f"{sig.p},{sig.q}", "--backend", "float",
                     "--trials", "5"])
        if code != 0:
            failures.append((sig, code))
    code = main(["bench", "--sig", "6,0", "--backend", "float", "--trials", "3"])
    if code != 0:
        failures.append(("bench 6,0", code))
    _report(11, "every method agrees with fl within the float tolerances on "
                "5 float draws per signature; float bench at G(6,0) runs",
            failures)
