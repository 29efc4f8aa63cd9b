"""Independent ground truth: the complex matrix representation of G(p, q).

Generators map to Kronecker chains of the three anticommuting 2x2 matrices
(even n) or to a two-block form whose last generator is a scaled product of
the others with opposite signs in the two blocks (odd n).  Every generator
and blade matrix is monomial: each row holds exactly one nonzero entry, a
power of i.  Such a matrix is stored as two tuples, the column of each row's
entry and that entry's power of i (0-3), so products and Kronecker products
are index arithmetic.

beta(u) is a pair (real part, imaginary part) of N x N row tuples.  The exact
determinant scales beta(u) by the common denominator D of u's coefficients
and runs Bareiss elimination over Gaussian integers, each step divided
exactly by the previous pivot; the characteristic coefficients come from the
trace recursion on D*beta(u) in integer arithmetic.  The float backend uses
numpy on the complex matrix.  None of this touches the multivector product
it cross-checks.
"""

from __future__ import annotations

from functools import reduce
from operator import mul

import numpy as np

from .algebra import (EIGEN_RECON_TOL, REAL_TOL, Multivector, Scalar, Signature,
                      common_denominator, exact_ratio)
from .charpoly import CharPoly
from .errors import ConsistencyError, NonConvergenceError

# A monomial matrix (cols, phases): row r holds i**phases[r] in column cols[r].
Monomial = tuple[tuple[int, ...], tuple[int, ...]]
# A dense complex matrix: (real rows, imaginary rows).
Matrix = tuple[tuple[tuple, ...], tuple[tuple, ...]]

_SIGMA1 = ((1, 0), (0, 0))
_SIGMA2 = ((1, 0), (3, 1))
_SIGMA3 = ((0, 1), (0, 2))
_ID2 = ((0, 1), (0, 0))


def _identity(dim: int) -> Monomial:
    return tuple(range(dim)), (0,) * dim


def _kron(a: Monomial, b: Monomial) -> Monomial:
    (ca, pa), (cb, pb) = a, b
    db = len(cb)
    return (tuple(x * db + y for x in ca for y in cb),
            tuple((x + y) % 4 for x in pa for y in pb))


def _mul(a: Monomial, b: Monomial) -> Monomial:
    (ca, pa), (cb, pb) = a, b
    return (tuple(cb[c] for c in ca),
            tuple((p + pb[c]) % 4 for c, p in zip(ca, pa)))


def _times_i(a: Monomial, k: int) -> Monomial:
    """a * i**k."""
    cols, phases = a
    return cols, tuple((p + k) % 4 for p in phases)


def _block_diag(a: Monomial, b: Monomial) -> Monomial:
    (ca, pa), (cb, pb) = a, b
    return ca + tuple(c + len(ca) for c in cb), pa + pb


def _even_generators(n: int, eta) -> list[Monomial]:
    """Generator matrices for even n: slot ceil(a/2) carries sigma1/sigma2,
    sigma3 pads before, identity after; negative-eta generators scale by i."""
    w = n // 2
    gens = []
    for a in range(1, n + 1):
        slot = (a + 1) // 2
        base = _SIGMA1 if a % 2 == 1 else _SIGMA2
        g = reduce(_kron, [_SIGMA3] * (slot - 1) + [base] + [_ID2] * (w - slot))
        gens.append(_times_i(g, 1) if eta[a - 1] < 0 else g)
    return gens


def _generators(sig: Signature) -> list[Monomial]:
    n, eta = sig.n, sig.eta
    if n % 2 == 0:
        return _even_generators(n, eta)
    small = _even_generators(n - 1, eta[: n - 1])
    half = 2 ** ((n - 1) // 2)
    pseudo = reduce(_mul, small, _identity(half))
    cols, phases = _mul(pseudo, pseudo)
    if cols != tuple(range(half)) or len(set(phases)) != 1 or phases[0] % 2:
        raise ConsistencyError("product of even-part generators does not square to +-I")
    # (c * pseudo)**2 must equal eta_nn * I.
    square = 1 if phases[0] == 0 else -1
    scaled = pseudo if square == eta[n - 1] else _times_i(pseudo, 1)
    full = [_block_diag(g, g) for g in small]
    full.append(_block_diag(scaled, _times_i(scaled, 2)))
    return full


class Representation:
    """Cached generator and blade matrices for one signature, self-checked."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.generators = tuple(_generators(sig))
        self._check_relations()
        blades = [_identity(sig.N)]
        for bits in range(1, sig.dim):
            low = bits & -bits
            blades.append(_mul(self.generators[low.bit_length() - 1], blades[bits ^ low]))
        self.blades = tuple(blades)
        self._check_faithful()
        # Flat indices into the 2*N*N (real rows, then imaginary rows) entries
        # that each blade's coefficient is added to and subtracted from.
        N = sig.N
        self._scatter = tuple(
            tuple(tuple(r * N + c + (N * N if p % 2 else 0)
                        for r, (c, p) in enumerate(zip(cols, phases)) if p // 2 == sign)
                  for sign in (0, 1))
            for cols, phases in self.blades
        )

    def _check_relations(self) -> None:
        # g_a g_b + g_b g_a = 2 eta_a delta_ab I: g_a**2 is eta_a I, and for
        # a != b the two products share columns with opposite entries.
        sig = self.sig
        for a in range(sig.n):
            ga = self.generators[a]
            for b in range(a, sig.n):
                gb = self.generators[b]
                (cab, pab), (cba, pba) = _mul(ga, gb), _mul(gb, ga)
                if a == b:
                    ok = (cab, pab) == _times_i(_identity(sig.N), 1 - sig.eta[a])
                else:
                    ok = cab == cba and all((x - y) % 4 == 2 for x, y in zip(pab, pba))
                if not ok:
                    raise ConsistencyError(
                        f"generator relation failed for (e{a+1}, e{b+1}) in {sig}"
                    )

    def _check_faithful(self) -> None:
        # Faithfulness on the real algebra reduces to: no two blade matrices
        # are proportional, i.e. none share columns with a constant phase
        # offset.  Non-scalar blades must also be traceless (this is what
        # makes Tr(U) = N * <U>_0).
        seen = {}
        for bits, (cols, phases) in enumerate(self.blades):
            key = (cols, tuple((p - phases[0]) % 4 for p in phases))
            if key in seen:
                raise ConsistencyError(
                    f"blades {seen[key]} and {bits} are proportional in {self.sig}"
                )
            seen[key] = bits
            diagonal = [p for r, (c, p) in enumerate(zip(cols, phases)) if c == r]
            if bits and (diagonal.count(0) != diagonal.count(2)
                         or diagonal.count(1) != diagonal.count(3)):
                raise ConsistencyError(
                    f"non-scalar blade {bits} has nonzero trace in {self.sig}"
                )

    def matrix(self, u: Multivector) -> Matrix:
        N = self.sig.N
        acc = [0.0 if u.is_float else 0] * (2 * N * N)
        for coeff, (plus, minus) in zip(u.coeffs, self._scatter):
            if coeff:
                for i in plus:
                    acc[i] += coeff
                for i in minus:
                    acc[i] -= coeff
        rows = [tuple(acc[i:i + N]) for i in range(0, 2 * N * N, N)]
        return tuple(rows[:N]), tuple(rows[N:])


_REPRESENTATIONS: dict[Signature, Representation] = {}


def build_representation(sig: Signature) -> Representation:
    """The (cached, construction-checked) representation of G(p, q)."""
    rep = _REPRESENTATIONS.get(sig)
    if rep is None:
        rep = Representation(sig)
        _REPRESENTATIONS[sig] = rep
    return rep


def represent(u: Multivector) -> Matrix:
    """beta(u) as (real rows, imaginary rows) in u's backend: the linear
    extension of the blade matrices."""
    return build_representation(u.sig).matrix(u)


def _to_numpy(mat: Matrix) -> np.ndarray:
    re, im = mat
    return np.array(re, dtype=np.float64) + 1j * np.array(im, dtype=np.float64)


def _scaled_ints(u: Multivector, mat: Matrix) -> tuple[int, list, list]:
    """(D, D*mat as Gaussian-integer row lists), D the common denominator of
    u's coefficients; mat = beta(u)."""
    den = common_denominator(u.coeffs)
    re, im = ([[int(x * den) for x in row] for row in part] for part in mat)
    return den, re, im


def _det_bareiss(re: list, im: list) -> tuple[int, int]:
    """Fraction-free elimination over Gaussian integers (re + i*im), each
    step divided exactly by the previous pivot; works in place."""
    d = len(re)
    sign = 1
    prev_r, prev_i = 1, 0
    for k in range(d - 1):
        if not (re[k][k] or im[k][k]):
            for r in range(k + 1, d):
                if re[r][k] or im[r][k]:
                    re[k], re[r] = re[r], re[k]
                    im[k], im[r] = im[r], im[k]
                    sign = -sign
                    break
            else:
                return 0, 0
        piv_r, piv_i = re[k][k], im[k][k]
        norm = prev_r * prev_r + prev_i * prev_i
        row_kr, row_ki = re[k], im[k]
        for i in range(k + 1, d):
            row_ir, row_ii = re[i], im[i]
            lead_r, lead_i = row_ir[k], row_ii[k]
            for j in range(k + 1, d):
                xr, xi, yr, yi = row_ir[j], row_ii[j], row_kr[j], row_ki[j]
                # x * pivot - lead * y, then times conj(prev) / |prev|**2.
                nr = xr * piv_r - xi * piv_i - lead_r * yr + lead_i * yi
                ni = xr * piv_i + xi * piv_r - lead_r * yi - lead_i * yr
                qr, rem_r = divmod(nr * prev_r + ni * prev_i, norm)
                qi, rem_i = divmod(ni * prev_r - nr * prev_i, norm)
                if rem_r or rem_i:
                    raise ConsistencyError("Bareiss step is not divisible by the previous pivot")
                row_ir[j], row_ii[j] = qr, qi
        prev_r, prev_i = piv_r, piv_i
    return sign * re[d - 1][d - 1], sign * im[d - 1][d - 1]


def _gauss_matmul(ar: list, ai: list, br: list, bi: list) -> tuple[list, list]:
    """(ar + i*ai) @ (br + i*bi) over row lists."""
    cols = list(zip(zip(*br), zip(*bi)))
    out_r, out_i = [], []
    for xr, xi in zip(ar, ai):
        out_r.append([sum(map(mul, xr, cr)) - sum(map(mul, xi, ci)) for cr, ci in cols])
        out_i.append([sum(map(mul, xr, ci)) + sum(map(mul, xi, cr)) for cr, ci in cols])
    return out_r, out_i


def _require_real_float(value: complex, context: str) -> float:
    if abs(value.imag) > REAL_TOL * max(1.0, abs(value.real)):
        raise ConsistencyError(f"{context} has nonzero imaginary part: {value}")
    return value.real


def det_matrix(u: Multivector) -> Scalar:
    """Det(u) = det(beta(u)); exact Gaussian-integer Bareiss or float LU."""
    mat = represent(u)
    if u.is_float:
        # Overflow gives inf or nan; the caller's finite check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            det = complex(np.linalg.det(_to_numpy(mat)))
        return _require_real_float(det, "det(beta(u))")
    den, re, im = _scaled_ints(u, mat)
    det_r, det_i = _det_bareiss(re, im)
    if det_i:
        raise ConsistencyError(f"det(beta(u)) has nonzero imaginary part: {det_i}")
    return exact_ratio(det_r, den ** u.sig.N)


def charpoly_matrix(u: Multivector) -> CharPoly:
    """Characteristic coefficients from the trace recursion on beta(u)."""
    sig = u.sig
    N = sig.N
    mat = represent(u)
    coeffs = []
    if u.is_float:
        m = _to_numpy(mat)
        mk = m
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, N + 1):
                t = complex(np.trace(mk))
                ck = _require_real_float(t, f"trace of step-{k} matrix") / k
                coeffs.append(ck)
                if k < N:
                    mk = m @ (mk - ck * np.eye(N))
        return CharPoly(sig, tuple(coeffs))
    # On M = D*beta(u) the recursion stays in Gaussian integers, and its
    # coefficients are D**k times those of beta(u).
    den, mr, mi = _scaled_ints(u, mat)
    kr, ki = mr, mi
    for k in range(1, N + 1):
        if sum(ki[r][r] for r in range(N)):
            raise ConsistencyError(f"trace of step-{k} matrix has nonzero imaginary part")
        ck, rem = divmod(sum(kr[r][r] for r in range(N)), k)
        if rem:
            raise ConsistencyError(f"trace of step-{k} matrix is not divisible by {k}")
        coeffs.append(exact_ratio(ck, den ** k))
        if k < N:
            shifted = [row[:] for row in kr]
            for r in range(N):
                shifted[r][r] -= ck
            kr, ki = _gauss_matmul(mr, mi, shifted, ki)
    return CharPoly(sig, tuple(coeffs))


def eigenvalues(u: Multivector) -> tuple[complex, ...]:
    """The N roots of phi_U, by eigenvalue iteration on the companion matrix
    of the characteristic polynomial; sorted by (real, imaginary).

    Elementary symmetric polynomials of the result must reconstruct the C(k)
    within relative EIGEN_RECON_TOL or ConsistencyError is raised.  A C(k)
    outside the float range raises FloatRangeError.
    """
    coeffs = charpoly_matrix(u).to_float().coeffs
    N = u.sig.N
    # The C(k) are real, so the companion is a real matrix; the real-path
    # eigensolver resolves 2x2 blocks analytically (exact double roots).
    companion = np.zeros((N, N), dtype=np.float64)
    companion[0, :] = coeffs
    for i in range(1, N):
        companion[i, i - 1] = 1.0
    try:
        roots = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NonConvergenceError(f"eigenvalue iteration failed: {exc}") from exc
    # Vieta reconstruction: coefficients of prod(lambda - root) must give
    # back the characteristic coefficients.
    recomposed = np.poly(roots)
    for k in range(1, N + 1):
        expected = coeffs[k - 1]
        got = -complex(recomposed[k])
        if abs(got - expected) > EIGEN_RECON_TOL * max(1.0, abs(expected)):
            raise ConsistencyError(
                f"eigenvalues do not reconstruct C({k}): {got} vs {expected}"
            )
    ordered = sorted((complex(z) for z in roots), key=lambda z: (z.real, z.imag))
    return tuple(ordered)
