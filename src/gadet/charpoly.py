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

The recursion runs on a slot (stack, top, scale) of ``algebra``: a stack
of rows at once (one row for ``det_fl`` and friends, N + 1 samples for
``charpoly_interp``), never fractions.  An exact input is scaled once,
U = V/D with D = ``common_denominator(U)``, the slot's scale, and V an
integer vector.  Ck and Uk are homogeneous of degree k in U, so

    Ck(U) = Ck(V) / D**k,    Adj(U) = (C(N-1)(V)*e - V(N-1)) / D**(N-1),

and the division happens once, at the end.  The recursion is not a product
of slots, so it keeps these powers of D itself.  For an integer V every Ck(V)
is an integer: it is a characteristic coefficient of the Gaussian-integer
matrix beta(V) of the matrix representation, and it is real.  So every
step stays in ints; a Ck that is not an integer is an error
(ConsistencyError), never a silent fall back to fractions.  Each step runs
in int64 under the product's bound from the ``algebra`` docstring,
max|Uk - Ck| * max|V| * 2**n < 2**63, and in object dtype otherwise.
Float rows run the same loop in float64, each step range-checked by
``algebra``'s one float check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (Multivector, Scalar, Signature, _in_double_range, _int_dtype,
                      _integer_row, _max_abs, _normalize_exact, _slots, _to_multivector,
                      close, exact_ratio)
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


def _fl_stack(sig: Signature, slot: tuple):
    """The recursion on a slot (stack, top, scale) of ``algebra._slots``:
    B rows, each the coefficients of one multivector V, in float64 when top
    is None, else integers with top >= max|V|.  Returns ([C1 of each row,
    ..., CN of each row], W) with W the (B, 2**n) array of
    V(N-1) - C(N-1)*e, the negated adjugate.  The recursion is not a product
    of slots, so the caller divides Ck(V) by its own scale**k."""
    v, top, _ = slot
    N = sig.N
    coeffs = []
    right = {}  # dtype -> R with w @ R[r] = w * V[r], row by row
    penult = None

    def step(w, k):
        # Ck of each row, then (Uk - Ck) * U, or only its scalar part.
        nonlocal penult
        if top is None:
            ck = (N / k) * w[:, 0]
            col, dtype = w[:, 0] - ck, w.dtype
            ck = ck.tolist()
        else:
            sp = w[:, 0].tolist()
            ck = []
            for s in sp:
                c, rem = divmod(N * s, k)
                if rem:
                    raise ConsistencyError(
                        f"C{k} = {N * s}/{k} of an integer row is not an integer")
                ck.append(c)
            col = [s - c for s, c in zip(sp, ck)]
            # The int64 bound of the algebra module docstring, for the
            # product or the dot product below.
            dtype = _int_dtype(max(1, _max_abs(w), *map(abs, col)) * top << sig.n)
        coeffs.append(ck)
        w = w.astype(dtype)
        w[:, 0] = col
        vk = v.astype(dtype, copy=False)
        if k == N - 1:
            # CN needs only <UN>_0, a dot product over the blades.
            penult = w
            return (w * vk) @ sig._square_signs
        # Uk is a polynomial in U, so U * (Uk - Ck) = (Uk - Ck) * U.
        if dtype not in right:
            right[dtype] = sig._right_factors(vk)
        return (w[:, None, :] @ right[dtype])[:, 0, :]

    w = v
    for k in range(1, N):
        w = step(w, k) if top is not None else _in_double_range(
            "a float step of the trace recursion", step, w, k)
    coeffs.append(w[:, 0].tolist())  # CN = (N/N) * <UN>_0
    return coeffs, penult


def _fl_run(u: Multivector):
    """The recursion on one multivector u = V / D: (C1(V), ..., CN(V)),
    the row W = V(N-1) - C(N-1)(V)*e, and D.  A float u runs in float64
    with D = 1."""
    [slot] = _slots((u,))
    coeffs, w = _fl_stack(u.sig, slot)
    return [c[0] for c in coeffs], w[0], slot[2]


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


def _newton_interpolate(values: Sequence[int]) -> list[int]:
    """Coefficients (ascending powers) of the polynomial through the points
    (x, values[x]), x = 0, 1, ...: samples of an integer polynomial, so each
    divided difference, Delta**k f / k!, is an integer and a remainder
    raises ConsistencyError."""
    table = list(values)
    npts = len(table)
    for level in range(1, npts):
        for i in range(npts - 1, level - 1, -1):
            diff = table[i] - table[i - 1]
            table[i], rem = divmod(diff, level)
            if rem:
                raise ConsistencyError(
                    f"divided difference {diff}/{level} of the samples is not an integer")
    # Expand the Newton form into monomial coefficients.
    poly = [table[npts - 1]]
    for i in range(npts - 2, -1, -1):
        shifted = [0] + poly
        poly = [
            shifted[d] - (i * poly[d] if d < len(poly) else 0)
            for d in range(len(shifted))
        ]
        poly[0] = poly[0] + table[i]
    return poly


def _sample_dets(sig: Signature, rows) -> list:
    """Det of each integer row, from one run of the recursion on the stack."""
    top = max(abs(c) for row in rows for c in row)
    coeffs, _ = _fl_stack(sig, (np.array(rows, _int_dtype(top)), top, 1))
    return [-c for c in coeffs[-1]]


def charpoly_interp(u: Multivector) -> CharPoly:
    """Characteristic coefficients by sampling Det(x*e - u) at the integer
    nodes x = 0..N and reconstructing the polynomial exactly; the result must
    match ``fl_coefficients(u)``.

    With u = V/D, Det(x*e - u) = Det(x*D*e - V) / D**N: the N + 1 samples
    are integer rows of one stack through the recursion, values of an
    integer polynomial at consecutive integers, so the Newton table stays in
    integers, and its coefficients are divided by D**N once, here: the
    samples are not a product of slots, so they carry no scale.  A float
    input is taken at the exact binary value of its coefficients, so every
    sample is exact and each C(k) is rounded to float once, at the end.  An
    inf or nan input coefficient, or a C(k) outside the double range, raises
    FloatRangeError.
    """
    sig = u.sig
    N = sig.N
    v, d = _integer_row(u)
    rows = [[x * d - v[0]] + [-c for c in v[1:]] for x in range(N + 1)]
    poly = _newton_interpolate(_sample_dets(sig, rows))
    scale = d ** N
    if poly[N] != scale:
        raise ConsistencyError("interpolated polynomial is not monic "
                               f"(leading coefficient {exact_ratio(poly[N], scale)})")
    cp = CharPoly(sig, tuple(exact_ratio(-poly[N - k], scale) for k in range(1, N + 1)))
    return cp.to_float() if u.is_float else cp
