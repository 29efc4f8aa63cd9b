"""Matrix representation construction and the linear-algebra oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from gadet import (
    ConsistencyError,
    Multivector,
    Signature,
    build_representation,
    charpoly_matrix,
    det_fl,
    det_matrix,
    eigenvalues,
    fl_coefficients,
    represent,
)
from gadet import algebra, charpoly, formulas, matrix_rep
from gadet.matrix_rep import Representation
from helpers import SIGNATURES, forbid, random_mvs, same_typed, substitute


def dense(m):
    """A complex generator array as (real rows, imaginary rows) of ints."""
    return tuple(tuple(map(tuple, part.astype(int).tolist())) for part in (m.real, m.imag))


def scalar_matrix(value, dim):
    re = tuple(tuple(value if r == c else 0 for c in range(dim)) for r in range(dim))
    return re, tuple(tuple(0 for _ in range(dim)) for _ in range(dim))


def add(a, b):
    return tuple(tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(pa, pb))
                 for pa, pb in zip(a, b))


def matmul(a, b):
    """Exact complex product of (real rows, imaginary rows) matrices."""
    (ar, ai), (br, bi) = a, b
    dim = len(ar)

    def entry(r, c):
        re = sum(ar[r][k] * br[k][c] - ai[r][k] * bi[k][c] for k in range(dim))
        im = sum(ar[r][k] * bi[k][c] + ai[r][k] * br[k][c] for k in range(dim))
        return re, im

    cells = [[entry(r, c) for c in range(dim)] for r in range(dim)]
    return (tuple(tuple(e[0] for e in row) for row in cells),
            tuple(tuple(e[1] for e in row) for row in cells))


def test_construction_self_checks_pass_everywhere():
    for sig in SIGNATURES:
        build_representation(sig)  # raises on any relation failure


def _corrupt_phase(gens):
    g = gens[0].copy()
    g[0] *= 1j
    return [g] + gens[1:]


def _corrupt_column(gens):
    # Each row's one entry moved onto the diagonal.
    return [np.diag(gens[0].sum(axis=1))] + gens[1:]


def _unnegated_last_block(gens):
    # The odd-n last generator with equal, not opposite, blocks still
    # satisfies every relation but makes the pseudoscalar a multiple of I.
    g = gens[-1].copy()
    half = len(g) // 2
    g[half:, half:] = g[:half, :half]
    return gens[:-1] + [g]


def _similar(gens):
    # Every generator conjugated by the unimodular S = [[1, 1], [0, 1]] (x) I:
    # the relations hold, entries stay integers, but S is not unitary.
    s = np.kron([[1, 1], [0, 1]], np.eye(len(gens[0]) // 2))
    s_inv = np.kron([[1, -1], [0, 1]], np.eye(len(gens[0]) // 2))
    return [s @ g @ s_inv for g in gens]


@pytest.mark.parametrize("corrupt, sig, message", [
    (_corrupt_phase, Signature(2, 0), "relation"),
    (_corrupt_column, Signature(2, 0), "relation"),
    (_unnegated_last_block, Signature(3, 0), "proportional"),
    (_similar, Signature(2, 0), "not unitary"),
    (_similar, Signature(3, 3), "not unitary"),
])
def test_self_checks_reject_a_corrupted_generator(monkeypatch, corrupt, sig, message):
    good = matrix_rep._generators
    monkeypatch.setattr(matrix_rep, "_generators", lambda s: corrupt(good(s)))
    with pytest.raises(ConsistencyError, match=message):
        Representation(sig)


def test_g10_generator_blocks():
    rep = build_representation(Signature(1, 0))
    re, im = dense(rep.generators[0])
    assert re == ((1, 0), (0, -1))
    assert im == ((0, 0), (0, 0))


def test_g01_generator_squares_to_minus_identity():
    rep = build_representation(Signature(0, 1))
    g = dense(rep.generators[0])
    assert matmul(g, g) == scalar_matrix(-1, 2)


def test_g20_generator_relations():
    rep = build_representation(Signature(2, 0))
    g1, g2 = map(dense, rep.generators)
    assert matmul(g1, g1) == scalar_matrix(1, 2)
    assert matmul(g2, g2) == scalar_matrix(1, 2)
    assert add(matmul(g1, g2), matmul(g2, g1)) == scalar_matrix(0, 2)


def test_identity_represents_as_identity_matrix():
    for sig in SIGNATURES:
        assert represent(sig.identity) == scalar_matrix(1, sig.N)


def test_representation_is_linear_and_multiplicative():
    def entries(m):
        return [x for part in m for row in part for x in row]

    for sig in SIGNATURES:
        u, v = random_mvs(sig, 2, 60)
        mu, mv = represent(u), represent(v)
        assert represent(u + v) == add(mu, mv)
        assert represent(u * v) == matmul(mu, mv)
        # A rational input's entries are in normal form, an int when whole.
        halves = [x // 2 if x % 2 == 0 else Fraction(x, 2) for x in entries(mu)]
        assert same_typed(entries(represent(u / 2)), halves)


def test_trace_identity():
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 61)[0]
        re, im = represent(u)
        assert sum(im[r][r] for r in range(sig.N)) == 0
        assert sum(re[r][r] for r in range(sig.N)) == sig.N * u.scalar_part()


def test_det_examples():
    for sig in [Signature(2, 0), Signature(3, 2)]:
        assert det_matrix(sig.identity) == 1
        assert det_matrix(sig.zero) == 0


def test_det_matrix_agrees_with_fl():
    for sig in SIGNATURES:
        for u in random_mvs(sig, 2, 62):
            assert det_matrix(u) == det_fl(u)


def test_det_matrix_homogeneity():
    s = Signature(2, 1)
    u = random_mvs(s, 1, 63)[0]
    assert det_matrix(u * 3) == 3 ** s.N * det_matrix(u)


def test_det_matrix_float_backend():
    for sig in [Signature(2, 0), Signature(3, 1), Signature(0, 5)]:
        u = random_mvs(sig, 1, 64)[0]
        exact = det_fl(u)
        approx = det_matrix(u.to_float())
        assert abs(approx - exact) <= 1e-8 * max(1.0, abs(exact))


def test_charpoly_matrix_agrees_with_fl():
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 65)[0]
        assert charpoly_matrix(u) == fl_coefficients(u)


def test_matrix_oracle_never_uses_the_algebra_product(monkeypatch):
    expected = []
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 67)[0]
        expected.append((u, det_fl(u), fl_coefficients(u)))

    def forbidden(*args):
        raise AssertionError("the matrix oracle must not use the geometric product")

    monkeypatch.setattr(Multivector, "_geometric_product", forbidden)
    # The product table's gather, the stack product kernel, the float range
    # check, fl's step loop and its GF(p) ring's CRT rebuild, and the
    # term-tree evaluator.
    monkeypatch.setattr(Signature, "_right_factors", forbidden)
    forbid(monkeypatch, (algebra._slots, algebra._product,
                         algebra._in_double_range, charpoly._fl_stack,
                         charpoly._rebuild, formulas.evaluate_terms),
           "the matrix oracle must not use the other methods' kernels")
    # The oracle picks its integer dtypes with _int_dtype, but never the
    # float64 carrier of the products it checks.
    int_dtype = algebra._int_dtype

    def no_carrier(*args):
        dtype = int_dtype(*args)
        assert dtype is not np.float64, "the matrix oracle must not use the float64 carrier"
        return dtype

    substitute(monkeypatch, (int_dtype,), lambda fn: no_carrier)
    # Rebuild every representation under the patch, not just reuse the cache.
    monkeypatch.setattr(matrix_rep, "_REPRESENTATIONS", {})
    for u, det, cp in expected:
        assert det_matrix(u) == det
        assert charpoly_matrix(u) == cp


def test_charpoly_matrix_float_backend():
    s = Signature(2, 2)
    u = random_mvs(s, 1, 66)[0]
    exact = fl_coefficients(u)
    approx = charpoly_matrix(u.to_float())
    for a, b in zip(approx.coeffs, exact.coeffs):
        assert math.isclose(a, float(b), rel_tol=1e-9, abs_tol=1e-9)


def test_eigenvalues_identity():
    # A multiplicity-N root spreads as eps**(1/N) under the iteration, but
    # its mean stays at machine precision.
    for sig in [Signature(1, 0), Signature(3, 0), Signature(0, 6)]:
        eig = eigenvalues(sig.identity)
        assert len(eig) == sig.N
        assert all(abs(z - 1) < 0.05 for z in eig)
        assert abs(sum(eig) / sig.N - 1) < 1e-10


def test_eigenvalues_worked_example():
    s = Signature(2, 0)
    u = Multivector.from_terms(s, {0: 5, 2: Fraction(1, 2), 3: Fraction(1, 2)})
    eig = eigenvalues(u)
    assert all(abs(z - 5) < 1e-10 for z in eig)


def test_eigenvalues_sorted_and_reconstruct_coefficients():
    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 67, float_backend=True)[0]
        eig = eigenvalues(u)
        assert list(eig) == sorted(eig, key=lambda z: (z.real, z.imag))
        cp = charpoly_matrix(u)
        # elementary symmetric polynomial signs: C(k) = (-1)**(k+1) e_k
        prod = 1
        for z in eig:
            prod *= z
        det = cp.det
        assert abs(prod - det) <= 1e-8 * max(1.0, abs(det))
        s = sum(eig)
        assert abs(s - cp.coeffs[0]) <= 1e-8 * max(1.0, abs(cp.coeffs[0]))
