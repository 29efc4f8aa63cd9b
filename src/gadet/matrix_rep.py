"""Independent ground truth: the complex matrix representation of G(p, q).

Generators map to Kronecker chains of the three anticommuting 2x2 matrices
(even n) or to a two-block form whose last generator is a scaled product of
the others with opposite signs in the two blocks (odd n).  Every entry of a
generator or blade matrix is 0, +-1 or +-i, so every product of them is
exact in complex128 and in integers.

Each signature caches one integer table: every blade matrix X in real form
[[re X, -im X], [im X, re X]], flattened to one row per blade and stored as
int8.  beta(u) in real form is one contraction of u's coefficient row
against the table.  An exact u is contracted as the integer row V that it
stores over its denominator D, u = V/D; the contraction runs in int64 when
max|V| * 2**n < 2**63 and in object dtype (Python ints) otherwise.  A
float u is contracted as it is.

The exact determinant runs Bareiss elimination over Gaussian integers on
D*beta(u), each step divided exactly by the previous pivot; the float one is
LAPACK's on the complex matrix.  The characteristic coefficients come from
one trace recursion for both backends on the 2N x N column block
K = [re M; im M] of the step matrix M:

    K1 = [re B; im B],   ck = Tr(Mk)/k,   K(k+1) = B @ (Kk - ck*[I; 0]),

with B the real form of D*beta(u).  An exact step runs in int64 when
max|B| * (max|Kk| + |ck|) * 2N < 2**63, else in object dtype; its
coefficients are D**k times those of beta(u).  A float det or trace outside
the double range raises FloatRangeError.  None of this touches the
multivector product it cross-checks.
"""

from __future__ import annotations

import cmath
from functools import cache, reduce

import numpy as np

from .algebra import (EIGEN_RECON_TOL, REAL_TOL, Multivector, Scalar, Signature,
                      _int_dtype, exact_ratio)
from .charpoly import CharPoly
from .errors import ConsistencyError, FloatRangeError, NonConvergenceError

# A dense complex matrix: (real rows, imaginary rows).
Matrix = tuple[tuple[tuple, ...], tuple[tuple, ...]]

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]])
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


@cache
def _even_chains(n: int) -> tuple[np.ndarray, ...]:
    """The Kronecker chains of even n, built once per n: for generator a,
    slot ceil(a/2) carries sigma1/sigma2, sigma3 pads before, identity
    after."""
    w = n // 2
    chains = []
    for a in range(1, n + 1):
        slot = (a + 1) // 2
        base = _SIGMA1 if a % 2 == 1 else _SIGMA2
        chains.append(reduce(np.kron, [_SIGMA3] * (slot - 1) + [base] + [_ID2] * (w - slot)))
    return tuple(chains)


def _generators(sig: Signature) -> list[np.ndarray]:
    n, eta = sig.n, sig.eta
    # The even chains, negative-eta generators scaled by i; new arrays
    # either way, so the cached chains never leave this function.
    even = [g * (1j if e < 0 else 1) for g, e in zip(_even_chains(n - n % 2), eta)]
    if n % 2 == 0:
        return even
    half = 2 ** ((n - 1) // 2)
    pseudo = reduce(np.matmul, even, np.eye(half, dtype=complex))
    square = pseudo @ pseudo
    if square[0, 0] not in (1, -1) or not (square == square[0, 0] * np.eye(half)).all():
        raise ConsistencyError("product of even-part generators does not square to +-I")
    # (c * pseudo)**2 must equal eta_nn * I.
    scaled = pseudo if square[0, 0] == eta[n - 1] else 1j * pseudo
    return [np.kron(_ID2, g) for g in even] + [np.kron(_SIGMA3, scaled)]


def _real_form(m: np.ndarray) -> np.ndarray:
    """A stack of complex matrices X as int64 [[re X, -im X], [im X, re X]]."""
    re, im = m.real.astype(np.int64), m.imag.astype(np.int64)
    return np.concatenate([np.concatenate([re, -im], -1), np.concatenate([im, re], -1)], -2)


class Representation:
    """Cached generator matrices and blade table for one signature,
    self-checked: the generator relations, every blade matrix unitary, and
    the blades orthogonal."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.generators = tuple(_generators(sig))
        self._check_relations(_real_form(np.array(self.generators)))
        # Blade bits = e_a1 ... e_ak (a1 < ... < ak): the blades below bit
        # a times generator a are the blades whose top bit is a.
        blades = np.eye(sig.N, dtype=complex)[None]
        for g in self.generators:
            blades = np.concatenate([blades, blades @ g])
        table = _real_form(blades)
        self._check_unitary(table)
        self._check_faithful(table)
        # Unitary blades have entries of modulus at most 1, so int8 holds them.
        self.table = table.reshape(sig.dim, -1).astype(np.int8)

    def _check_relations(self, gens: np.ndarray) -> None:
        # g_a g_b + g_b g_a = 2 eta_a delta_ab I, all pairs at once.
        sig = self.sig
        products = gens[:, None] @ gens[None, :]
        expected = 2 * np.diag(sig.eta)[:, :, None, None] * np.eye(2 * sig.N, dtype=np.int64)
        bad = np.argwhere((products + products.swapaxes(0, 1) != expected).any(axis=(2, 3)))
        if bad.size:
            a, b = bad[0]
            raise ConsistencyError(
                f"generator relation failed for (e{a+1}, e{b+1}) in {sig}"
            )

    def _check_unitary(self, table: np.ndarray) -> None:
        # beta(e_A)^H beta(e_A) = I for every blade: the real form of X^H is
        # the transpose of X's.  Every eigenvalue of beta(V) then has
        # |lambda| <= sum |V_A|, the bound of fl's modular route.
        sig = self.sig
        products = table.transpose(0, 2, 1) @ table
        bad = np.argwhere((products != np.eye(2 * sig.N, dtype=np.int64)).any(axis=(1, 2)))
        if bad.size:
            raise ConsistencyError(
                f"blade {sig.blade_name(bad[0, 0])} is not unitary in {sig}")

    def _check_faithful(self, table: np.ndarray) -> None:
        # The Hermitian Gram matrix of the flattened blade matrices must be
        # N*I.  Orthogonality makes the blades linearly independent, so the
        # representation is faithful on the real algebra; orthogonality to
        # the identity makes every non-scalar blade traceless, which is what
        # makes Tr(U) = N * <U>_0.  With x = [re, im] and y = [-im, re] the
        # flattened column blocks, Re G = x x^T and Im G = -x y^T.
        sig = self.sig
        N, dim = sig.N, sig.dim
        x = table[:, :, :N].reshape(dim, -1)
        y = table[:, :, N:].reshape(dim, -1)
        # einsum, not matmul: numpy's int64 matmul is slower here.
        gram = np.einsum("ax,bx->ab", x, np.concatenate([x, y]))
        expected = np.zeros_like(gram)
        expected[:, :dim] = N * np.eye(dim, dtype=np.int64)
        bad = np.argwhere(gram != expected)
        if bad.size:
            a, b = bad[0]
            raise ConsistencyError(
                f"blades {a} and {b % dim} are not orthogonal in {sig}: two blades "
                f"are proportional, or a non-scalar blade has nonzero trace"
            )


_REPRESENTATIONS: dict[Signature, Representation] = {}


def build_representation(sig: Signature) -> Representation:
    """The (cached, construction-checked) representation of G(p, q)."""
    rep = _REPRESENTATIONS.get(sig)
    if rep is None:
        rep = Representation(sig)
        _REPRESENTATIONS[sig] = rep
    return rep


def _beta(u: Multivector) -> tuple[np.ndarray, int]:
    """(B, D): B the 2N x 2N real form of D*beta(u), with u = V/D as an
    exact u stores it (B is beta(V)), and D = 1 for a float u."""
    sig = u.sig
    table = build_representation(sig).table
    size = 2 * sig.N
    if u.is_float:
        # einsum, not matmul: a float matmul this wide goes through BLAS.
        with np.errstate(over="ignore", invalid="ignore"):
            return np.einsum("a,ax->x", np.array(u._row), table).reshape(size, size), 1
    dtype = _int_dtype(max(map(abs, u._row)) << sig.n)
    return (np.array(u._row, dtype) @ table).reshape(size, size), u._den


def represent(u: Multivector) -> Matrix:
    """beta(u) as (real rows, imaginary rows) in u's backend: the linear
    extension of the blade matrices.  Exact entries are in normal form."""
    b, den = _beta(u)
    N = u.sig.N
    parts = b[:N, :N].tolist(), b[N:, :N].tolist()
    if den == 1:
        return tuple(tuple(map(tuple, part)) for part in parts)
    return tuple(tuple(tuple(exact_ratio(x, den) for x in row) for row in part)
                 for part in parts)


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


def _require_real_float(value: complex, context: str) -> float:
    if not cmath.isfinite(value):
        raise FloatRangeError(f"{context} is outside the float range: {value}")
    if abs(value.imag) > REAL_TOL * max(1.0, abs(value.real)):
        raise ConsistencyError(f"{context} has nonzero imaginary part: {value}")
    return value.real


def det_matrix(u: Multivector) -> Scalar:
    """Det(u) = det(beta(u)); exact Gaussian-integer Bareiss or float LU."""
    b, den = _beta(u)
    N = u.sig.N
    if u.is_float:
        with np.errstate(over="ignore", invalid="ignore"):
            det = complex(np.linalg.det(b[:N, :N] + 1j * b[N:, :N]))
        return _require_real_float(det, "det(beta(u))")
    det_r, det_i = _det_bareiss(b[:N, :N].tolist(), b[N:, :N].tolist())
    if det_i:
        raise ConsistencyError(f"det(beta(u)) has nonzero imaginary part: {det_i}")
    return exact_ratio(det_r, den ** N)


def charpoly_matrix(u: Multivector) -> CharPoly:
    """Characteristic coefficients from the trace recursion on beta(u)."""
    sig = u.sig
    N = sig.N
    b, den = _beta(u)
    exact = not u.is_float
    dtype = np.float64
    b_max = int(abs(b).max()) if exact else 0
    k_block = b[:, :N]
    coeffs = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, N + 1):
            trace_r = sum(k_block.diagonal().tolist())
            trace_i = sum(k_block.diagonal(-N).tolist())
            if exact:
                if trace_i:
                    raise ConsistencyError(f"trace of step-{k} matrix has nonzero imaginary part")
                ck, rem = divmod(trace_r, k)
                if rem:
                    raise ConsistencyError(f"trace of step-{k} matrix is not divisible by {k}")
                coeffs.append(exact_ratio(ck, den ** k))
            else:
                ck = _require_real_float(complex(trace_r, trace_i),
                                         f"trace of step-{k} matrix") / k
                coeffs.append(ck)
            if k < N:
                if exact:
                    dtype = _int_dtype(b_max * (int(abs(k_block).max()) + abs(ck)) * 2 * N)
                # K - ck*[I; 0]: ck comes off the diagonal of the top block.
                shifted = k_block.astype(dtype)
                shifted.flat[:N * N:N + 1] -= ck
                k_block = b.astype(dtype, copy=False) @ shifted
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
