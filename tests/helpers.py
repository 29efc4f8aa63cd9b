"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import gadet
from gadet import (Multivector, Signature, algebra, all_signatures, charpoly, cli, formulas,
                   matrix_rep, random_multivector, vieta)

SIGNATURES = all_signatures()

#: Every entry point of the matrix oracle.
MATRIX_ORACLE = (matrix_rep.build_representation, matrix_rep.represent,
                 matrix_rep.det_matrix, matrix_rep.charpoly_matrix,
                 matrix_rep.eigenvalues)


def substitute(monkeypatch, functions, replacement) -> None:
    """Replace each of ``functions`` by ``replacement(fn)``, in the package
    and in every module that holds it, so no caller reaches it through an
    imported name."""
    for fn in functions:
        new = replacement(fn)
        for module in (gadet, algebra, charpoly, formulas, vieta, matrix_rep, cli):
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, new)


def forbid(monkeypatch, functions, message: str) -> None:
    """Replace each of ``functions`` by one that raises AssertionError."""
    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    substitute(monkeypatch, functions, lambda fn: forbidden)


def random_mvs(sig: Signature, count: int, seed: int, *, float_backend=False):
    r = random.Random(seed * 1000 + sig.p * 10 + sig.q)
    return [random_multivector(sig, r, float_backend=float_backend)
            for _ in range(count)]


def same_typed(a, b) -> bool:
    """Literal equality with the same types, coefficient by coefficient."""
    return a == b and list(map(type, a)) == list(map(type, b))


def subset_masks(N: int, k: int) -> tuple[int, ...]:
    """All N-bit masks with popcount k (bit i-1 set: slot i holds U)."""
    return tuple(m for m in range(1 << N) if m.bit_count() == k)


def vieta_by_masks(f, u, k: int, rng: random.Random | None = None):
    """Reference C(k) by the literal definition: (-1)**(k+1) times the sum of
    F over every tuple with k slots holding u and the rest holding e, one
    tuple at a time.  ``rng`` shuffles the order the tuples are summed in.
    """
    e = u.sig.identity
    masks = list(subset_masks(f.arity, k))
    if rng is not None:
        rng.shuffle(masks)
    total = u.sig.zero
    for mask in masks:
        total = total + f.evaluate(
            u if mask >> i & 1 else e for i in range(f.arity)
        )
    assert total.is_scalar(), f"X({k}) is not scalar: {total}"
    scalar = total.scalar_part()
    return scalar if k % 2 == 1 else -scalar


def elementary_descending(ys, j: int):
    """Reference E_j by the literal definition: the sum, over every index
    combination i1 < ... < ij, of the descending product y_ij ... y_i1."""
    total = None
    for combo in combinations(range(len(ys)), j):
        product = ys[combo[-1]]
        for i in reversed(combo[:-1]):
            product = product * ys[i]
        total = product if total is None else total + product
    return total


@cache
def _blade_pairs(sig: Signature) -> list[tuple[int, int, int, int]]:
    """(i, j, i ^ j, sign(i, j)) for every blade pair, from ``_blade_product``."""
    return [(i, j, *sig._blade_product(i, j)) for i in range(sig.dim) for j in range(sig.dim)]


def product_by_definition(u, v):
    """Reference u * v by the literal definition: the sum over every blade
    pair (i, j) of u_i * v_j * sign(i, j) on blade i ^ j, one term at a time."""
    coeffs = [0] * u.sig.dim
    a, b = u.coeffs, v.coeffs
    for i, j, k, sign in _blade_pairs(u.sig):
        coeffs[k] += sign * a[i] * b[j]
    return Multivector(u.sig, coeffs)


def _numerators(x: list) -> tuple[list, int]:
    """Exact values as integer numerators over their common denominator."""
    d = math.lcm(*(Fraction(c).denominator for c in x))
    return [int(c * d) for c in x], d


def fl_by_definition(u):
    """Reference trace recursion by its definition, on exact values in
    Fractions: U1 = u, Ck = (N/k) * <Uk>_0, U(k+1) = (Uk - Ck) * u, each
    product by ``product_by_definition`` on the two factors' integer
    numerators, divided by their denominators.  Returns [C1, ..., CN] and
    [U1 - C1, ..., U(N-1) - C(N-1)] as lists of Fractions; the last is the
    negated adjugate."""
    sig, N = u.sig, u.sig.N
    num, dv = _numerators(u.coeffs)
    v = Multivector(sig, num)
    x, coeffs, rests = [Fraction(c) for c in u.coeffs], [], []
    for k in range(1, N + 1):
        c = Fraction(N, k) * x[0]
        coeffs.append(c)
        if k == N:
            return coeffs, rests
        x = [x[0] - c] + x[1:]
        rests.append(x)
        num, dx = _numerators(x)
        x = [Fraction(y, dx * dv) for y in product_by_definition(Multivector(sig, num), v).coeffs]
