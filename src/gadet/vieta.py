"""Characteristic coefficients from determinant formulas by slot substitution.

Numbering the N occurrences of U in a determinant formula left to right turns
it into an N-variable function F.  Summing F over every tuple with k slots
holding U and N-k slots holding the identity e, with sign (-1)**(k+1), yields
C(k) -- the same coefficients the trace recursion produces, but derived from
the highest coefficient downward.

One evaluator computes these sums: it walks each term tree once and keeps,
per subtree, the sum of its values over all assignments with i slots holding
U, for every i (graded sums).  A product node convolves its children's
graded sums, so every X(k) comes out of a single bottom-up pass instead of
binom(N, k) separate tuple evaluations.  C(N) is the single all-U tuple and
is evaluated directly.  The module also provides the ordered
solution-set construction (x_k, v_k, y_k) for n <= 3 and the closed-form
eigenvalue comparison for n <= 2.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations

from .algebra import EIGEN_COMPARE_TOL, Multivector, Scalar
from .charpoly import CharPoly, det_fl, fl_coefficients, inverse
from .errors import ConsistencyError, NotGenericError
from .formulas import (
    Conj,
    FormulaTerm,
    Slot,
    _require_scalar,
    det_formula,
    evaluate_terms,
)


@dataclass(frozen=True)
class FFunction:
    """A determinant formula read as an N-variable function of its slots."""

    n: int
    family: str
    variant: str
    arity: int
    terms: tuple[FormulaTerm, ...]

    def evaluate(self, values) -> Multivector:
        """F(x1, ..., xN) on explicit per-slot multivectors."""
        values = tuple(values)
        if len(values) != self.arity:
            raise ValueError(f"expected {self.arity} slot values, got {len(values)}")
        return evaluate_terms(self.terms, values)


def f_function(n: int, family: str = "triangle", variant: str = "standard") -> FFunction:
    """The slot-numbered form of a cataloged determinant formula."""
    formula = det_formula(n, family, variant)
    return FFunction(formula.n, formula.family, formula.variant,
                     formula.arity, formula.terms)


# ---------------------------------------------------------------------------
# graded-sum evaluation of F over every e/U slot assignment


def _graded_sums(node, u: Multivector, e: Multivector):
    """Per-weight sums of a subtree over its slot assignments.

    Returns (lo, width, sums): the subtree covers slots lo+1..lo+width and
    sums[i] is the sum of its values over all assignments with i slots
    holding u.  Because the geometric product is bilinear, a product node's
    sums are the convolution of its children's sums; this accumulates exactly
    the same tuple sums as enumerating the 2**N assignments one by one, just
    reassociated, at far fewer products.
    """
    if isinstance(node, Slot):
        return node.index - 1, 1, [e, u]
    if isinstance(node, Conj):
        lo, width, sums = _graded_sums(node.child, u, e)
        return lo, width, [v.conjugate(node.conj) for v in sums]
    lo, width, sums = _graded_sums(node.factors[0], u, e)
    for factor in node.factors[1:]:
        f_lo, f_width, f_sums = _graded_sums(factor, u, e)
        if f_lo != lo + width:
            raise ConsistencyError("term slots are not numbered left to right")
        combined = [None] * (width + f_width + 1)
        for i, left in enumerate(sums):
            for j, right in enumerate(f_sums):
                if i == 0:
                    value = right  # weight-0 sum is exactly e
                elif j == 0:
                    value = left
                else:
                    value = left * right
                k = i + j
                combined[k] = value if combined[k] is None else combined[k] + value
        width += f_width
        sums = combined
    return lo, width, sums


def _x_sums(f: FFunction, u: Multivector) -> list:
    """[None, X(1), ..., X(N)]: the weighted sums of F over every tuple with
    k slots holding u, for each k."""
    e = u.sig.identity
    N = f.arity
    totals = [None] * (N + 1)
    for term in f.terms:
        lo, width, sums = _graded_sums(term.tree, u, e)
        if lo != 0 or width != N:
            raise ConsistencyError("term does not cover slots 1..N")
        for k in range(1, N + 1):
            part = sums[k] * term.weight
            totals[k] = part if totals[k] is None else totals[k] + part
    return totals


def _coefficient(f: FFunction, k: int, x_k: Multivector) -> Scalar:
    """C(k) = (-1)**(k+1) * X(k), once X(k) is shown to be scalar."""
    scalar = _require_scalar(
        x_k, f"X({k}) sum of {f.family}/{f.variant} F-function (n={f.n})"
    )
    return scalar if k % 2 == 1 else -scalar


def vieta_coefficient(f: FFunction, u: Multivector, k: int) -> Scalar:
    """C(k) = (-1)**(k+1) * sum of F over all tuples with k slots equal to u.

    The summed multivector X(k) must be scalar (all grades >= 1 vanish) or
    ConsistencyError is raised.
    """
    if u.sig.n != f.n:
        raise ValueError(f"F-function is for n={f.n}, multivector lives in {u.sig}")
    if not 1 <= k <= f.arity:
        raise ValueError(f"k must be in 1..{f.arity}, got {k}")
    if k == f.arity:
        # X(N) is the single all-U tuple.
        return _coefficient(f, k, f.evaluate((u,) * f.arity))
    return _coefficient(f, k, _x_sums(f, u)[k])


def vieta_all(f: FFunction, u: Multivector) -> CharPoly:
    """All C(1)..C(N) at once; equals fl_coefficients(u) exactly.

    Every X(k) sum passes through the scalarity assertion.
    """
    if u.sig.n != f.n:
        raise ValueError(f"F-function is for n={f.n}, multivector lives in {u.sig}")
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


def _elementary_descending(ys, j: int) -> Multivector:
    """E_j: sum over index combinations of descending products y_ij ... y_i1."""
    total = None
    for combo in combinations(range(len(ys)), j):
        product = ys[combo[-1]]
        for i in reversed(combo[:-1]):
            product = product * ys[i]
        total = product if total is None else total + product
    return total


def gelfand_retakh_ys(u: Multivector) -> GelfandRetakhSet:
    """The (x_k, v_k, y_k) construction for n <= 3.

    v_k is the degree-(k-1) polynomial x_k**(k-1) - E1*x_k**(k-2) + ... built
    from the y's found so far; every v_k must be invertible (Det != 0) or
    NotGenericError reports the failing k.
    """
    xs = _ordered_solutions(u)
    e = u.sig.identity
    vs = [e]
    ys = [xs[0]]
    for k in range(2, len(xs) + 1):
        xk = xs[k - 1]
        vk = e
        for j in range(1, k):
            ej = _elementary_descending(ys, j)
            vk = vk * xk + (-ej if j % 2 == 1 else ej)
        det = det_fl(vk)
        if det == 0:
            raise NotGenericError(k, det)
        vs.append(vk)
        ys.append(vk * xk * inverse(vk))
    return GelfandRetakhSet(xs, tuple(vs), tuple(ys))


def coefficients_from_roots(ys) -> tuple[Multivector, ...]:
    """a_k = (-1)**(k+1) * sum of descending products of k distinct y's.

    For a valid ordered set these are scalar multivectors equal to C(k)."""
    ys = tuple(ys)
    out = []
    for k in range(1, len(ys) + 1):
        total = _elementary_descending(ys, k)
        out.append(total if k % 2 == 1 else -total)
    return tuple(out)


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
