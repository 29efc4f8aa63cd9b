"""Characteristic coefficients from determinant formulas by slot substitution.

A cataloged determinant formula, read with its N occurrences of U numbered
left to right as separate variables, is the paper's N-variable F-function
(``f_function`` returns the ``DetFormula`` itself).  Summing F over every
tuple with k slots holding U and N-k slots holding the identity e gives
X(k), and C(k) = (-1)**(k+1) * X(k): the trace recursion's coefficients,
derived from the highest one downward.  F is multilinear and each slot
occurs once (``DetFormula`` checks this), so X(k) is the t**k coefficient of
F(e + tU, ..., e + tU), a polynomial in a commuting scalar t.
``formulas.evaluate_terms`` evaluates the term trees on it, so one pass
gives every X(k).  C(N), the single all-U tuple, is evaluated directly.

The ordered solution sets (x_k, v_k, y_k) for n <= 3 read the descending
elementary sums E_k of y_1..y_N off (e + t y_N) ... (e + t y_1) the same
way.  The module also holds the closed-form eigenvalue comparison for n <= 2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .algebra import EIGEN_COMPARE_TOL, Multivector, Scalar
from .charpoly import CharPoly, det_fl, fl_coefficients, inverse
from .errors import NotGenericError
from .formulas import (
    DetFormula,
    _require_dimension,
    _require_scalar,
    det_formula,
    evaluate_terms,
)


def f_function(n: int, family: str = "triangle", variant: str = "standard") -> DetFormula:
    """The F-function of a cataloged determinant formula: the formula itself,
    evaluated on separate slot values with ``DetFormula.evaluate``."""
    return det_formula(n, family, variant)


# ---------------------------------------------------------------------------
# polynomials in t with multivector coefficients


class _Poly:
    """P_0 + P_1 t + ... + P_d t**d for a scalar t that commutes with
    everything; coeffs is [P_0, ..., P_d]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list):
        self.coeffs = coeffs

    def __mul__(self, other):
        if not isinstance(other, _Poly):  # a scalar formula weight
            return _Poly([c * other for c in self.coeffs])
        # The left factor's coefficients stay on the left: the geometric
        # product does not commute, t does.  A product with e is only a
        # scale, since Multivector's product returns early for scalars.
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, left in enumerate(self.coeffs):
            for j, right in enumerate(other.coeffs):
                value = left * right
                out[i + j] = value if out[i + j] is None else out[i + j] + value
        return _Poly(out)

    def __truediv__(self, scalar) -> "_Poly":
        return _Poly([c / scalar for c in self.coeffs])

    def __add__(self, other: "_Poly") -> "_Poly":
        return _Poly([a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)])

    def conjugate(self, conj) -> "_Poly":
        return _Poly([c.conjugate(conj) for c in self.coeffs])


def _x_sums(f: DetFormula, u: Multivector) -> list:
    """[X(0), X(1), ..., X(N)]: X(k) is the weighted sum of F over every
    tuple with k slots holding u and the rest holding e."""
    slot = _Poly([u.sig.identity, u])
    return evaluate_terms(f.terms, (slot,) * f.arity).coeffs


def _coefficient(f: DetFormula, k: int, x_k: Multivector) -> Scalar:
    """C(k) = (-1)**(k+1) * X(k), once X(k) is shown to be scalar."""
    scalar = _require_scalar(
        x_k, f"X({k}) sum of {f.family}/{f.variant} F-function (n={f.n})"
    )
    return scalar if k % 2 == 1 else -scalar


def vieta_coefficient(f: DetFormula, u: Multivector, k: int) -> Scalar:
    """C(k) = (-1)**(k+1) * sum of F over all tuples with k slots equal to u.

    The summed multivector X(k) must be scalar (all grades >= 1 vanish) or
    ConsistencyError is raised.
    """
    _require_dimension(f, u)
    if not 1 <= k <= f.arity:
        raise ValueError(f"k must be in 1..{f.arity}, got {k}")
    if k == f.arity:
        # X(N) is the single all-U tuple.
        return _coefficient(f, k, f.evaluate((u,) * f.arity))
    return _coefficient(f, k, _x_sums(f, u)[k])


def vieta_all(f: DetFormula, u: Multivector) -> CharPoly:
    """All C(1)..C(N) at once; equals fl_coefficients(u) exactly.

    Every X(k) sum passes through the scalarity assertion.
    """
    _require_dimension(f, u)
    totals = _x_sums(f, u)
    return CharPoly(u.sig, tuple(
        _coefficient(f, k, totals[k]) for k in range(1, f.arity + 1)
    ))


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
        det = det_fl(vk)
        if det == 0:
            raise NotGenericError(k, det)
        vs.append(vk)
        ys.append(vk * xk * inverse(vk))
    return GelfandRetakhSet(xs, tuple(vs), tuple(ys))


def coefficients_from_roots(ys) -> tuple[Multivector, ...]:
    """a_k = (-1)**(k+1) * E_k, where E_k, the sum of descending products
    y_ik ... y_i1 of k distinct y's, is the t**k coefficient of
    (e + t y_N) ... (e + t y_1).

    For a valid ordered set these are scalar multivectors equal to C(k)."""
    sums = _Poly([1])
    for y in ys:
        sums = _Poly([y.sig.identity, y]) * sums
    return tuple(ek if k % 2 == 1 else -ek
                 for k, ek in enumerate(sums.coeffs[1:], start=1))


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
