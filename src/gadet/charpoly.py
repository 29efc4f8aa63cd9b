"""Characteristic polynomial coefficients, determinant, adjugate, and inverse
via the trace recursion, plus exact reconstruction from determinant samples.

For U in G(p, q) the characteristic polynomial is written

    phi_U(lambda) = lambda**N - C1*lambda**(N-1) - ... - C(N-1)*lambda - CN

with N = 2**floor((n+1)/2), so C1 = Tr(U) and Det(U) = -CN.  The recursion

    U1 = U,   Ck = (N/k) * <Uk>_0,   U(k+1) = (Uk - Ck) * U

produces every Ck in N - 2 geometric products and one scalar part, since
CN = <(U(N-1) - C(N-1)) * U>_0 is a dot product over the blades.  Each Uk is
a polynomial in U, so multiplying by U on the right equals the paper's
U * (Uk - Ck), and the right factor U stays fixed: its gather through the
product table is built once per run.  It is the reference method for all n;
it also yields the adjugate as C(N-1)*e - U(N-1).

The recursion runs on a stack of rows at once (one row for ``det_fl`` and
friends, N + 1 samples for ``charpoly_interp``), and never on fractions.  An
exact input is scaled once, U = V/D with D = ``common_denominator(U)`` and V
an integer vector.  Ck and Uk are homogeneous of degree k in U, so

    Ck(U) = Ck(V) / D**k,    Adj(U) = (C(N-1)(V)*e - V(N-1)) / D**(N-1),

and the division happens once, at the end.  For an integer V every Ck(V)
is an integer: it is a characteristic coefficient of the Gaussian-integer
matrix beta(V) of the matrix representation, and it is real.  So every
step stays in ints; a Ck that is not an integer is an error
(ConsistencyError), never a silent fall back to fractions.  Each step runs
in int64 under the product's bound from the ``algebra`` docstring,
max|Uk - Ck| * max|V| * 2**n < 2**63, and in object dtype otherwise.
Float rows run the same loop in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (Multivector, Scalar, Signature, _int_dtype, _integer_row,
                      _normalize_exact, _to_multivector, close, exact_ratio)
from .errors import ConsistencyError, FloatRangeError, NotInvertibleError


@dataclass(frozen=True, eq=False)
class CharPoly:
    """Ordered coefficients C1..CN of phi_U.  Equality is Multivector's:
    :func:`gadet.algebra.close` on each coefficient.  Exact coefficients are
    kept in normal form, an int when whole, whichever method made them."""

    sig: Signature
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.sig.N:
            raise ValueError(
                f"expected {self.sig.N} coefficients for {self.sig}, "
                f"got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", tuple(
            c if isinstance(c, float) else _normalize_exact(c) for c in self.coeffs
        ))

    @property
    def det(self) -> Scalar:
        """Det(U) = -CN."""
        return -self.coeffs[-1]

    @property
    def trace(self) -> Scalar:
        return self.coeffs[0]

    def evaluate(self, x):
        """phi_U evaluated at x; x may be a scalar or a Multivector.  A float
        value outside the double range raises FloatRangeError."""
        one = x.sig.identity if isinstance(x, Multivector) else 1
        result = one * x - self.coeffs[0]
        for c in self.coeffs[1:]:
            result = result * x - c
        if isinstance(result, float) and not math.isfinite(result):
            raise FloatRangeError("phi_U(x) is outside the float range")
        return result

    def to_float(self) -> "CharPoly":
        """Float copy; FloatRangeError when a coefficient is outside the
        double range."""
        try:
            coeffs = tuple(float(c) for c in self.coeffs)
            if all(map(math.isfinite, coeffs)):
                return CharPoly(self.sig, coeffs)
        except OverflowError:
            pass
        raise FloatRangeError("a characteristic coefficient is outside the float range")

    def __eq__(self, other):
        if not isinstance(other, CharPoly):
            return NotImplemented
        return other.sig is self.sig and all(map(close, self.coeffs, other.coeffs))

    __hash__ = None  # tolerance-based equality is incompatible with hashing


def _fl_stack(sig: Signature, rows: list, is_float: bool):
    """The recursion on a stack of B rows, each the coefficients of one
    multivector V: float rows in float64, integer rows in int64 or object.
    Returns ([C1 of each row, ..., CN of each row], W) with W the (B, 2**n)
    array of V(N-1) - C(N-1)*e, the negated adjugate."""
    N = sig.N
    if is_float:
        v = np.array(rows, np.float64)
    else:
        v_max = max(1, max(max(map(abs, row)) for row in rows))
        v = np.array(rows, _int_dtype(v_max))
    vs = {v.dtype: v}  # V in each dtype the loop has used
    right = {}  # dtype -> R with w @ R[r] = w * V[r], row by row
    coeffs = []
    w = v
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, N + 1):
            if is_float:
                ck = (N / k) * w[:, 0]
                coeffs.append(ck.tolist())
                if k == N:
                    break
                w = w.copy()
                w[:, 0] -= ck
            else:
                sp = w[:, 0].tolist()
                ck = []
                for s in sp:
                    c, rem = divmod(N * s, k)
                    if rem:
                        raise ConsistencyError(
                            f"C{k} = {N * s}/{k} of an integer row is not an integer")
                    ck.append(c)
                coeffs.append(ck)
                if k == N:
                    break
                col = [s - c for s, c in zip(sp, ck)]
                w_max = max(1, int(np.abs(w).max()), *map(abs, col))
                # The int64 bound of the algebra module docstring, for the
                # product or the dot product below.
                w = w.astype(_int_dtype(w_max * v_max << sig.n))
                w[:, 0] = col
            dtype = w.dtype
            if dtype not in vs:
                vs[dtype] = v.astype(dtype)
            if k == N - 1:
                # CN needs only <UN>_0, a dot product over the blades.
                penult = w
                w = (w * vs[dtype]) @ sig._square_signs
            else:
                # Uk is a polynomial in U, so U * (Uk - Ck) = (Uk - Ck) * U.
                if dtype not in right:
                    right[dtype] = sig._right_factors(vs[dtype])
                w = (w[:, None, :] @ right[dtype])[:, 0, :]
            if is_float and not np.isfinite(w).all():
                raise FloatRangeError("a float geometric product is outside the "
                                      "double range (inf or nan)")
    return coeffs, penult


def _fl_run(u: Multivector):
    """The recursion on one multivector u = V / D: (C1(V), ..., CN(V)),
    the row W = V(N-1) - C(N-1)(V)*e, and D.  A float u runs in float64
    with D = 1."""
    row, d = (u.coeffs, 1) if u.is_float else _integer_row(u)
    coeffs, w = _fl_stack(u.sig, [row], u.is_float)
    return [c[0] for c in coeffs], w[0], d


def fl_coefficients(u: Multivector) -> CharPoly:
    """All characteristic coefficients of u by the trace recursion."""
    coeffs, _, d = _fl_run(u)
    return CharPoly(u.sig, tuple(c if d == 1 else exact_ratio(c, d ** k)
                                 for k, c in enumerate(coeffs, 1)))


def det_fl(u: Multivector) -> Scalar:
    """Det(u) = -CN via the trace recursion."""
    coeffs, _, d = _fl_run(u)
    return -coeffs[-1] if d == 1 else exact_ratio(-coeffs[-1], d ** u.sig.N)


def adjugate(u: Multivector) -> Multivector:
    """Adj(u) = C(N-1)*e - U(N-1), so that u*Adj(u) = Adj(u)*u = Det(u)*e."""
    _, w, d = _fl_run(u)
    return _to_multivector(u.sig, -w, d ** (u.sig.N - 1))


def inverse(u: Multivector) -> Multivector:
    """u**-1 = Adj(u) / Det(u); raises NotInvertibleError when Det(u) = 0."""
    coeffs, w, d = _fl_run(u)
    det = -coeffs[-1]
    if det == 0:
        raise NotInvertibleError(det)
    # Adj(u) / Det(u) = (-W / D**(N-1)) / (det / D**N) = -W * D / det, with
    # W * D in Python ints: an int64 row times D can overflow unchecked.
    if d != 1:
        w = w.astype(object) * d
    return _to_multivector(u.sig, -w, det)


def _newton_interpolate(nodes: Sequence, values: Sequence):
    """Coefficients (ascending powers) of the polynomial through the nodes,
    by exact divided differences."""
    table = list(values)
    npts = len(nodes)
    for level in range(1, npts):
        for i in range(npts - 1, level - 1, -1):
            table[i] = exact_ratio(table[i] - table[i - 1], nodes[i] - nodes[i - level])
    # Expand the Newton form into monomial coefficients.
    poly = [table[npts - 1]]
    for i in range(npts - 2, -1, -1):
        x_i = nodes[i]
        shifted = [0] + poly
        poly = [
            shifted[d] - (x_i * poly[d] if d < len(poly) else 0)
            for d in range(len(shifted))
        ]
        poly[0] = poly[0] + table[i]
    return poly


def _sample_dets(sig: Signature, rows) -> list:
    """Det of each integer row, from one run of the recursion on the stack."""
    coeffs, _ = _fl_stack(sig, rows, False)
    return [-c for c in coeffs[-1]]


def charpoly_interp(u: Multivector) -> CharPoly:
    """Characteristic coefficients by sampling Det(x*e - u) at the integer
    nodes x = 0..N and reconstructing the polynomial exactly; the result must
    match ``fl_coefficients(u)``.

    With u = V/D, Det(x*e - u) = Det(x*D*e - V) / D**N: the N + 1 samples
    are integer rows of one stack through the recursion, and the
    interpolated coefficients are divided by D**N once.  A float input is
    taken at the exact binary value of its coefficients, so every sample is
    exact and each C(k) is rounded to float once, at the end.  An inf or nan
    input coefficient, or a C(k) outside the double range, raises
    FloatRangeError.
    """
    sig = u.sig
    N = sig.N
    v, d = _integer_row(u)
    nodes = list(range(N + 1))
    rows = [[x * d - v[0]] + [-c for c in v[1:]] for x in nodes]
    poly = _newton_interpolate(nodes, _sample_dets(sig, rows))
    scale = d ** N
    lead = exact_ratio(poly[N], scale)
    if lead != 1:
        raise ConsistencyError(
            f"interpolated polynomial is not monic (leading coefficient {lead})"
        )
    cp = CharPoly(sig, tuple(exact_ratio(-poly[N - k], scale) for k in range(1, N + 1)))
    return cp.to_float() if u.is_float else cp
