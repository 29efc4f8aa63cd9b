"""Characteristic polynomial coefficients, determinant, adjugate, and inverse
via the trace recursion, plus exact reconstruction from determinant samples.

For U in G(p, q) the characteristic polynomial is written

    phi_U(lambda) = lambda**N - C1*lambda**(N-1) - ... - C(N-1)*lambda - CN

with N = 2**floor((n+1)/2), so C1 = Tr(U) and Det(U) = -CN.  The recursion

    U1 = U,   Ck = (N/k) * <Uk>_0,   U(k+1) = U * (Uk - Ck)

produces every Ck in N geometric products and is the reference method for
all n; it also yields the adjugate as C(N-1)*e - U(N-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .algebra import ABS_TOL, REL_TOL, Multivector, Scalar, Signature, exact_ratio
from .errors import ConsistencyError, NotInvertibleError

#: Float-backend bound on |leading coefficient - 1| in charpoly_interp.
INTERP_LEADING_TOL = 1e-6


@dataclass(frozen=True)
class CharPoly:
    """Ordered coefficients C1..CN of phi_U."""

    sig: Signature
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.sig.N:
            raise ValueError(
                f"expected {self.sig.N} coefficients for {self.sig}, "
                f"got {len(self.coeffs)}"
            )

    def coefficient(self, k: int) -> Scalar:
        """C(k), 1-based."""
        return self.coeffs[k - 1]

    @property
    def det(self) -> Scalar:
        """Det(U) = -CN."""
        return -self.coeffs[-1]

    @property
    def trace(self) -> Scalar:
        return self.coeffs[0]

    def monic_coefficients(self) -> tuple[Scalar, ...]:
        """(1, -C1, ..., -CN): descending-power coefficients of phi_U."""
        return (1, *(-c for c in self.coeffs))

    def evaluate(self, x):
        """phi_U evaluated at x; x may be a scalar or a Multivector."""
        one = x.sig.identity if isinstance(x, Multivector) else 1
        result = one * x - self.coeffs[0]
        for c in self.coeffs[1:]:
            result = result * x - c
        return result

    def isclose(self, other: "CharPoly", rel_tol: float = REL_TOL,
                abs_tol: float = ABS_TOL) -> bool:
        if other.sig is not self.sig:
            return False
        return all(
            math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
            for a, b in zip(self.coeffs, other.coeffs)
        )


def _fl_run(u: Multivector):
    """One pass of the recursion: all Ck plus (U(N-1), C(N-1))."""
    sig = u.sig
    N = sig.N
    coeffs = []
    uk = u
    u_penult = None
    c_penult = None
    for k in range(1, N + 1):
        sp = uk.scalar_part()
        if u.is_float:
            ck = (N / k) * sp
        else:
            ck = exact_ratio(N * sp, k)
        coeffs.append(ck)
        if k == N:
            break
        if k == N - 1:
            u_penult, c_penult = uk, ck
        uk = u * (uk - ck)
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
    by divided differences.  Exact for exact inputs."""
    table = list(values)
    npts = len(nodes)
    for level in range(1, npts):
        for i in range(npts - 1, level - 1, -1):
            num = table[i] - table[i - 1]
            den = nodes[i] - nodes[i - level]
            if isinstance(num, float) or isinstance(den, float):
                table[i] = num / den
            else:
                table[i] = exact_ratio(num, den)
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


def charpoly_interp(
    u: Multivector,
    det_fn: Callable[[Multivector], Scalar] | None = None,
) -> CharPoly:
    """Characteristic coefficients by sampling D(x) = Det(x*e - u) at the
    integer nodes x = 0..N and reconstructing the polynomial exactly.

    ``det_fn`` selects the determinant method (default: ``det_fl``); the
    result must match ``fl_coefficients(u)``.
    """
    if det_fn is None:
        det_fn = det_fl
    sig = u.sig
    N = sig.N
    e = sig.identity
    if u.is_float:
        nodes = [float(k) for k in range(N + 1)]
    else:
        nodes = list(range(N + 1))
    values = [det_fn(e._scale(x) - u) for x in nodes]
    poly = _newton_interpolate(nodes, values)
    lead = poly[N]
    if u.is_float:
        if abs(lead - 1.0) > INTERP_LEADING_TOL:
            raise ConsistencyError(
                f"interpolated polynomial is ill-conditioned: leading "
                f"coefficient {lead!r} deviates from 1"
            )
    elif lead != 1:
        raise ConsistencyError(
            f"interpolated polynomial is not monic (leading coefficient {lead})"
        )
    coeffs = tuple(-poly[N - k] for k in range(1, N + 1))
    return CharPoly(sig, coeffs)
