"""Characteristic polynomial coefficients, determinant, adjugate, and inverse
via the trace recursion, plus exact reconstruction from determinant samples.

For U in G(p, q) the characteristic polynomial is written

    phi_U(lambda) = lambda**N - C1*lambda**(N-1) - ... - C(N-1)*lambda - CN

with N = 2**floor((n+1)/2), so C1 = Tr(U) and Det(U) = -CN.  The recursion

    U1 = U,   Ck = (N/k) * <Uk>_0,   U(k+1) = U * (Uk - Ck)

produces every Ck in N - 1 geometric products and one scalar part, since
CN = <U * (U(N-1) - C(N-1))>_0 is a dot product over the blades.  It is the
reference method for all n; it also yields the adjugate as
C(N-1)*e - U(N-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .algebra import (Multivector, Scalar, Signature, _normalize_exact, close,
                      exact_ratio)
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


def _fl_run(u: Multivector):
    """One pass of the recursion: all Ck plus (U(N-1), C(N-1))."""
    sig = u.sig
    N = sig.N
    coeffs = []
    uk = u
    sp = u.scalar_part()
    for k in range(1, N + 1):
        if u.is_float:
            ck = (N / k) * sp
        else:
            ck = exact_ratio(N * sp, k)
        coeffs.append(ck)
        if k == N - 1:
            u_penult, c_penult = uk, ck
            # CN needs only <UN>_0, a dot product; UN itself is never used.
            sp = u._scalar_product(uk - ck)
        elif k < N - 1:
            uk = u * (uk - ck)
            sp = uk.scalar_part()
    return coeffs, u_penult, c_penult


def fl_coefficients(u: Multivector) -> CharPoly:
    """All characteristic coefficients of u by the trace recursion."""
    coeffs, _, _ = _fl_run(u)
    return CharPoly(u.sig, tuple(coeffs))


def det_fl(u: Multivector) -> Scalar:
    """Det(u) = -CN via the trace recursion."""
    coeffs, _, _ = _fl_run(u)
    return -coeffs[-1]


def adjugate(u: Multivector) -> Multivector:
    """Adj(u) = C(N-1)*e - U(N-1), so that u*Adj(u) = Adj(u)*u = Det(u)*e."""
    _, u_penult, c_penult = _fl_run(u)
    return u_penult.sig.identity._scale(c_penult) - u_penult


def inverse(u: Multivector) -> Multivector:
    """u**-1 = Adj(u) / Det(u); raises NotInvertibleError when Det(u) = 0."""
    coeffs, u_penult, c_penult = _fl_run(u)
    det = -coeffs[-1]
    if det == 0:
        raise NotInvertibleError(det)
    adj = u.sig.identity._scale(c_penult) - u_penult
    return adj / det


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


def charpoly_interp(u: Multivector) -> CharPoly:
    """Characteristic coefficients by sampling D(x) = Det(x*e - u) with
    ``det_fl`` at the integer nodes x = 0..N and reconstructing the polynomial
    exactly; the result must match ``fl_coefficients(u)``.

    A float input is taken at the exact binary value of its coefficients, so
    every sample is exact and each C(k) is rounded to float once, at the end.
    An inf or nan input coefficient, or a C(k) outside the double range,
    raises FloatRangeError.
    """
    sig = u.sig
    N = sig.N
    e = sig.identity
    exact = u.to_exact()
    nodes = list(range(N + 1))
    values = [det_fl(e._scale(x) - exact) for x in nodes]
    poly = _newton_interpolate(nodes, values)
    lead = poly[N]
    if lead != 1:
        raise ConsistencyError(
            f"interpolated polynomial is not monic (leading coefficient {lead})"
        )
    cp = CharPoly(sig, tuple(-poly[N - k] for k in range(1, N + 1)))
    return cp.to_float() if u.is_float else cp
