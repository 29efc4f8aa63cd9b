"""Characteristic coefficients from determinant formulas by slot substitution.

A cataloged determinant formula, read with its N occurrences of U numbered
left to right as separate variables, is the paper's N-variable F-function
(``f_function`` is ``det_formula``).  Summing F over every tuple with k
slots holding U and N-k slots holding the identity e gives X(k), and
C(k) = (-1)**(k+1) * X(k): the trace recursion's coefficients, derived from
the highest one downward.  F is multilinear and each slot occurs once
(``DetFormula`` checks this), so X(k) is the t**k coefficient of
F(e + tU, ..., e + tU), a polynomial in a commuting scalar t.
``formulas.evaluate_terms`` evaluates the term trees on it, so one pass
(``vieta_all``) gives every X(k), and ``vieta_coefficient`` reads one of
them off it.  C(N), the single all-U tuple, is the determinant formula
itself: ``vieta_coefficient(f, u, N)`` is -Det(U) by ``evaluate_det``, and
the CLI has no separate Vieta determinant route.

Each slot is a stack of two rows, [e, V], with U = V/D the integer row and
denominator that U stores: e + tV = e + (tD)U, so the t**k coefficient of
F(e + tV, ..., e + tV) is X(k)(V), and

    X(k)(U) = X(k)(V) / D**k.

The slots are scale-1 views of V, so ``vieta_all`` divides row k by its own
D**k.  The slot D*e + tV over D of ``algebra._plus_constant`` is exact too,
but it multiplies row k by D**(N-k), so rational inputs reach object dtype
sooner and run slower.  Scalarity is checked on the integer rows before the
one division.  The products stay in int64 under the bound of the
``algebra`` docstring, the sums under that of ``formulas``, and run in
object dtype beyond them.

The ordered solution sets (x_k, v_k, y_k) for n <= 3 read the descending
elementary sums E_k of y_1..y_N off (e + t y_N) ... (e + t y_1), the
product of the slots (D_i*e + t*Y_i)/D_i, divided by its scale once.  The
module also holds the closed-form eigenvalue comparison for n <= 2.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

from .algebra import (EIGEN_COMPARE_TOL, Multivector, Scalar, _plus_constant, _product,
                      _slots, _to_multivector)
from .charpoly import CharPoly, fl_coefficients, inverse
from .errors import NotGenericError, NotInvertibleError
from .formulas import (
    DetFormula,
    _require_dimension,
    _require_scalar,
    _scalar,
    det_formula,
    evaluate_det,
    evaluate_terms,
)

# The paper's N-variable F-function is a cataloged determinant formula read
# with its N slots as separate variables (``DetFormula.evaluate``); the name
# is kept so code written against the paper reads as it does.
f_function = det_formula


def vieta_coefficient(f: DetFormula, u: Multivector, k: int) -> Scalar:
    """C(k) = (-1)**(k+1) * sum of F over all tuples with k slots equal to u,
    for an int k in 1..N: C(N) is -Det(u) by ``evaluate_det``, and every
    other C(k) is read off ``vieta_all``."""
    _require_dimension(f, u)
    if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= f.arity:
        raise ValueError(f"k must be an int in 1..{f.arity}, got {k!r}")
    if k == f.arity:
        # X(N) is the single all-U tuple F(U, ..., U) = Det(U), and N is even.
        return -evaluate_det(f, u)
    return vieta_all(f, u).coeffs[k - 1]


def vieta_all(f: DetFormula, u: Multivector) -> CharPoly:
    """All C(1)..C(N) at once; equals fl_coefficients(u) exactly.

    With u = V/D, the t**k coefficient of F(e + tV, ..., e + tV), over the
    weights' common denominator den, is X(k) * den * D**k.  Every X(k) must
    be scalar (all grades >= 1 vanish) or ConsistencyError is raised.
    """
    _require_dimension(f, u)
    [(v, top, d)] = _slots((u,))
    # The scale-1 view e + tV (module docstring): row k is D**k * X(k)(U).
    total, den = evaluate_terms(u.sig, f._sum, (_plus_constant((v, top, 1)),) * f.arity)
    coeffs = []
    for k in range(1, f.arity + 1):
        x_k = _scalar(u.sig, total[k], den * d ** k,
                      f"X({k}) sum of {f.family}/{f.variant} F-function (n={f.n})")
        coeffs.append(x_k if k % 2 == 1 else -x_k)
    return CharPoly(u.sig, tuple(coeffs))


# ---------------------------------------------------------------------------
# ordered generic solution sets (n <= 3)


@dataclass(frozen=True)
class GelfandRetakhSet:
    """An ordered solution set of phi_U(x) = 0 with its Vandermonde elements
    v_k and the conjugated roots y_k = v_k x_k v_k**-1."""

    xs: tuple[Multivector, ...]
    vs: tuple[Multivector, ...]
    ys: tuple[Multivector, ...]


def _ordered_solutions(u: Multivector) -> tuple[Multivector, ...]:
    n = u.sig.n
    if n == 1:
        return (u, u.grade_involution())
    if n == 2:
        return (u, u.reversion())
    if n == 3:
        return (u, u.reversion().grade_involution(), u.grade_involution(),
                u.reversion())
    raise ValueError(f"ordered solution sets are implemented for n <= 3, not n={n}")


def gelfand_retakh_ys(u: Multivector) -> GelfandRetakhSet:
    """The (x_k, v_k, y_k) construction for n <= 3.

    v_k = x_k**(k-1) - a_1 x_k**(k-2) - ... - a_(k-1), where a_j are
    ``coefficients_from_roots`` of the y's found so far; every v_k must be
    invertible (Det != 0) or NotGenericError reports the failing k.
    """
    xs = _ordered_solutions(u)
    e = u.sig.identity
    vs = [e]
    ys = [xs[0]]
    for k, xk in enumerate(xs[1:], start=2):
        vk = e
        for aj in coefficients_from_roots(ys):
            vk = vk * xk - aj
        try:
            vk_inverse = inverse(vk)
        except NotInvertibleError as exc:
            raise NotGenericError(k, exc.det) from None
        vs.append(vk)
        ys.append(vk * xk * vk_inverse)
    return GelfandRetakhSet(xs, tuple(vs), tuple(ys))


def coefficients_from_roots(ys) -> tuple[Multivector, ...]:
    """a_k = (-1)**(k+1) * E_k, where E_k, the sum of descending products
    y_ik ... y_i1 of k distinct y's, is the t**k coefficient of
    (e + t y_N) ... (e + t y_1).

    With y_i = Y_i/D_i each factor is the slot (D_i*e + t*Y_i)/D_i; their
    product is divided by its scale D_1 * ... * D_N once.  For a valid
    ordered set these are scalar multivectors equal to C(k)."""
    ys = tuple(ys)
    if not ys:
        return ()
    sig = ys[0].sig
    total, _, scale = functools.reduce(
        functools.partial(_product, sig), map(_plus_constant, _slots(ys[::-1])))
    return tuple(_to_multivector(sig, total[k] if k % 2 == 1 else -total[k], scale)
                 for k in range(1, len(ys) + 1))


# ---------------------------------------------------------------------------
# eigenvalue comparison (n <= 2)


@dataclass(frozen=True)
class EigenComparison:
    """Closed-form eigenvalues versus the conjugated roots y_{1,2}.

    The eigenvalues are <U>_0 +/- sqrt(g**2) where g is the grade-1 part
    (n = 1) or grade-1 plus grade-2 part (n = 2); g**2 is scalar, and the
    root is real or imaginary with its sign.  The y's replace sqrt(g**2)
    by g itself, so they coincide with the eigenvalues only when g = 0.
    """

    lambdas: tuple[complex, complex]
    ys: tuple[Multivector, Multivector]
    c1: float
    c2: float
    radicand: float
    sum_matches: bool
    product_matches: bool
    lambdas_match_ys: bool


def eigen_compare(u: Multivector) -> EigenComparison:
    n = u.sig.n
    if n > 2:
        raise ValueError(f"eigen_compare handles n <= 2, not n={n}")
    uf = u if u.is_float else u.to_float()
    g = uf.grade(1) if n == 1 else uf.grade(1) + uf.grade(2)
    g_squared = g * g
    radicand = _require_scalar(g_squared, "squared grade part in eigen_compare")
    root = cmath.sqrt(radicand)
    s0 = uf.scalar_part()
    lambdas = (s0 + root, s0 - root)
    scalar_mv = uf.grade(0)
    ys = (scalar_mv + g, scalar_mv - g)
    cp = fl_coefficients(uf)
    lam_sum = lambdas[0] + lambdas[1]
    lam_prod = lambdas[0] * lambdas[1]
    sum_matches = cmath.isclose(lam_sum, cp.coeffs[0], rel_tol=EIGEN_COMPARE_TOL,
                                abs_tol=EIGEN_COMPARE_TOL)
    product_matches = cmath.isclose(lam_prod, -cp.coeffs[1], rel_tol=EIGEN_COMPARE_TOL,
                                    abs_tol=EIGEN_COMPARE_TOL)
    return EigenComparison(
        lambdas=lambdas,
        ys=ys,
        c1=cp.coeffs[0],
        c2=cp.coeffs[1],
        radicand=radicand,
        sum_matches=sum_matches,
        product_matches=product_matches,
        lambdas_match_ys=g.is_zero(),
    )
