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
``charpoly_interp``), never fractions.  An exact input enters as U = V/D,
the integer row V and denominator D that it stores, D the slot's scale.
Ck and Uk are homogeneous of degree k in U, so

    Ck(U) = Ck(V) / D**k,    Adj(U) = (C(N-1)(V)*e - V(N-1)) / D**(N-1),

and the division happens once, at the end.  The recursion is not a product
of slots, so it keeps these powers of D itself.  For an integer V every Ck(V)
is an integer: it is a characteristic coefficient of the Gaussian-integer
matrix beta(V) of the matrix representation, and it is real.

The rows of a stack share one right factor.  ``charpoly_interp`` samples
Det(x*D*e - V) at x = 0..N, so its rows are s*e + V' with V' = -V and
s = x*D, and each step is (Uk - Ck) * (s*e + V') = s*(Uk - Ck) +
(Uk - Ck) * V': one gather R(V') and one matmul for the whole stack, not
one of each per row.  With top >= max|V'| and top >= |s + V'_0| over the
rows, |s| <= 2 * top.

One loop runs steps 1..N-1 in three rings, each step the same three
parts: Ck = (N/k) * <Uk>_0; (Uk - Ck) * U as w @ R(V) plus the shift term
s*w; and at k = N - 1 only its scalar part, CN = <W * (s*e + V)>_0 with
W = U(N-1) - C(N-1): each row of W times its own row, a dot product over
the blades.  Float rows run in float64, each step range-checked by
``algebra``'s one float check.
Integer rows run over Z: Ck is an exact division, and a Ck that is not an
integer is an error (ConsistencyError), never a silent fall back to
fractions.  Each step applies the dtype rule of the ``algebra`` docstring
to the product's bound max|Uk - Ck| * max|V| * 2**n: int64 below 2**63,
on its float64 carrier below 2**53 when the step does at least 4096
multiplies, else object dtype.  s*w, w * V and their sum, the product by
the row s*e + V, stay under that bound with max|V| read as top.

At n >= 5, the first integer step whose bound leaves int64, with a
product step still to come, takes its Ck exactly and moves the rest of
the run to GF(p) for a batch of primes p < 2**23 (von zur Gathen &
Gerhard, *Modern Computer Algebra*, 3rd ed., ch. 5): every later step is
one matmul over all primes, the prime axis a batch of (B, 2**n) @
(2**n, 2**n) products reduced mod p, and Ck is <Uk>_0 * (N/k mod p).
Every step runs on float64 (Dumas, Giorgi & Pernet, *ACM TOMS* 35(3),
2008): each output s*w + w @ R sums 2**n products of a residue below p
and an entry of the right factor R, plus s times a residue, and CN sums
2**n products of a residue and an entry of its row s*e + V.  One bound,
p * top * (2**n + 2) < 2**53 for p the largest prime, picks R on entry:
below it the run's own gather R(V), shared with its integer steps (its
entries are at most top, and |s| <= 2 * top); above it (max|V| past
about 2**24 at n = 6, and float interp's rows) the gather of V's
residues, V and the shifts reduced mod p, so each row entry is below p,
or 2p at blade 0, exact as (2**n + 2) * p**2 < 2**53.  One contraction
against cached Chinese-remainder coefficients rebuilds C(k+1)(V)..CN(V),
each in (-M/2, M/2) for M the product of the primes.  W, the 2**n
values of the adjugate, is rebuilt the same way only when ``adjugate`` or
``inverse`` reads it, so ``det_fl``, ``fl_coefficients`` and interp's
samples skip that contraction.  M exceeds twice the bound

    |Cj(V)| <= binom(N, j) * S**j,   |<W>_A| < 2**N * S**(N-1),
    S = max over rows of sum |V_A|,

which holds because every blade matrix of the representation is unitary
(Shirokov, *Comput. Appl. Math.* 40, 2021; ``matrix_rep`` checks it at
construction), so every eigenvalue of beta(V) has |lambda| <= S.  One
more prime checks each rebuild: a value that disagrees with its residue
there raises ConsistencyError, as a non-integer Ck or a bound too small
would make it; the ring never falls back silently.  It takes as many
primes as the bound needs, found on first use.

fl_coefficients on integer rows with b-bit coefficients, and float
interp on rows in [-9, 9], in ms (2-vCPU x86-64 VM, mean over five
inputs of the best of five calls, two runs; k is the step that leaves
int64, then the prime count and the right factor, R(V) or V's residues
("res"); "route" is the GF(p) ring, forced at n = 4):

    n=4  G(4,0)  b=48   k=1  9 res        object 0.077-0.078 route 0.093-0.095
    n=4  G(4,0)  b=200  k=1  36 res       object 0.12-0.13   route 0.21
    n=5  G(5,0)  b=7    k=6  4 R(V)       object 0.107       route 0.089
    n=5  G(5,0)  b=16   k=3  7-8 R(V)     object 0.34        route 0.13
    n=5  G(5,0)  b=96   k=1  35 res       object 0.80-0.84   route 0.40-0.42
    n=5  G(5,0)  b=300  k=1  106 res      object 2.7-2.8     route 1.2
    n=5  G(5,0)  b=900  k=1  315 res      object 18-19       route 6.4-7.7
    n=6  G(6,0)  b=7    k=6  5 R(V)       object 0.37-0.46   route 0.12-0.13
    n=6  G(6,0)  b=16   k=3  8 R(V)       object 1.19-1.20   route 0.17
    n=6  G(6,0)  b=96   k=1  36 res       object 3.2-4.7     route 0.79-0.81
    n=6  G(6,0)  b=200  k=1  72 res       object 6.4-9.1     route 1.8
    n=6  G(6,0)  b=300  k=1  107 res      object 10.5-14.3   route 3.0-4.4
    n=6  G(6,0)  b=900  k=1  315 res      object 82-90       route 13.2-14.2
    n=6  G(6,0)  float  k=1  21 res       object 19.0-19.9   route 1.54
    n=6  G(3,3)  float  k=1  21 res       object 18.9-19.9   route 1.53-1.56

At n <= 4 the route loses (0.6-0.8x); at n = 5 and 6 it wins from 4
primes up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .algebra import (Multivector, Scalar, Signature, _in_double_range, _int_dtype,
                      _max_abs, _normalize_exact, _slots, _to_multivector,
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


_PRIMES: list[int] = []


def _primes(count: int) -> list[int]:
    """``_PRIMES``, the primes below 2**23 largest first, extended to
    ``count`` entries or more: each odd p in turn is kept when it is a strong
    probable prime to the bases 2, 3 and 5, exact below 25,326,001
    (Jaeschke, *Math. Comp.* 61, 1993).  (2**6 + 2) * p**2 < 2**53 keeps a
    float64 step over GF(p), shift included, exact at every n."""
    p = _PRIMES[-1] if _PRIMES else 2 ** 23 + 1
    while len(_PRIMES) < count:
        p -= 2
        s = (p - 1 & 1 - p).bit_length() - 1  # p - 1 = d * 2**s, d odd
        # A Fermat test to base 2 first: one pow rejects most composites.
        if pow(2, p - 1, p) == 1 and all(
                pow(a, p - 1 >> s, p) == 1
                or any(pow(a, p - 1 >> i, p) == p - 1 for i in range(1, s + 1))
                for a in (2, 3, 5)):
            _PRIMES.append(p)
    return _PRIMES


#: The smallest n that takes the modular route: at n <= 4 object dtype is
#: faster at every prime count measured (the module docstring's table).
_MODULAR_MIN_N = 5


@lru_cache(maxsize=8)  # a few prime counts: each table grows with its count
def _crt_table(count: int):
    """The first ``count`` primes and one check prime after them, as an
    int64 column; their product M without the check prime; the CRT
    coefficients (M/p) * ((M/p)**-1 mod p) of the ``count`` primes, as an
    object array; and k**-1 mod each prime for k = 1..8 (column 0 unused)."""
    primes = _primes(count + 1)[:count + 1]
    modulus = math.prod(primes[:count])
    crt = np.array([modulus // p * pow(modulus // p, -1, p) for p in primes[:count]], object)
    inverses = np.array([[0] + [pow(k, -1, p) for k in range(1, 9)] for p in primes])
    return np.array(primes)[:, None], modulus, crt, inverses


def _prime_count(bound: int) -> int:
    """The fewest primes of ``_PRIMES`` whose product exceeds 2 * bound."""
    count, product = 0, 1
    while product <= 2 * bound:
        product *= _primes(count + 1)[count]
        count += 1
    return count


def _modular_bound(sig: Signature, v: np.ndarray, k: int) -> int:
    """The module docstring's bound on |C(k+1)(V)|, ..., |CN(V)| and on
    each blade coefficient of W, over the rows V of v.  Adj(V) is
    C(N-1)*e + C(N-2)*V + ... - V**(N-1), so the norm of its matrix is below
    sum_j binom(N, j) * S**(N-1) < 2**N * S**(N-1); a blade coefficient of
    X, Tr(beta(e_A)^H beta(X)) / N, is at most that norm, since beta(e_A)
    is unitary."""
    N = sig.N
    s = max(map(sum, abs(v).tolist()))
    return max(max(math.comb(N, j) * s ** j for j in range(k + 1, N + 1)),
               s ** (N - 1) << N)


def _residues(x: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """x modulo each prime of the column ``primes``, stacked on a new first
    axis, in int64; x is an int64 or object array."""
    # primes in x's dtype: an object x would otherwise box a prime per entry.
    shape = primes.shape[:1] + (1,) * x.ndim
    return (x % primes.astype(x.dtype, copy=False).reshape(shape)).astype(np.int64, copy=False)


def _rebuild(residues: np.ndarray, count: int) -> list:
    """The Python ints in (-M/2, M/2), M the product of the first ``count``
    primes, with the int64 residues ``residues`` (one row per prime, the
    check prime last), by one contraction against the CRT coefficients.  A
    value that disagrees with its residue modulo the check prime raises
    ConsistencyError."""
    primes, modulus, crt, _ = _crt_table(count)
    values = crt @ residues[:-1].astype(object) % modulus
    values[values > modulus >> 1] -= modulus
    if ((values % int(primes[-1, 0])) != residues[-1]).any():
        raise ConsistencyError(
            f"the trace recursion modulo {count} primes disagrees with the check prime")
    return values.tolist()


def _fl_stack(sig: Signature, slot: tuple, shifts: Sequence[int] | None = None):
    """The recursion on B rows s*e + V at once: V the one row of a slot
    (stack, top, scale) of ``algebra._slots``, in float64 when top is None,
    else integers, and s each integer of ``shifts`` (one row, s = 0, when
    None), with top >= max|V| and top >= |s + V_0|.  Returns ([C1 of each
    row, ..., CN of each row], penult) with penult() the (B, 2**n) array W
    of V(N-1) - C(N-1)*e, the negated adjugate.  The recursion is not a
    product of slots, so the caller divides Ck(V) by its own scale**k.

    Steps 1..N-1 are one loop over the rings of the module docstring:
    float64, the integers, and, at n >= ``_MODULAR_MIN_N``, GF(p) from the
    first integer step that leaves int64 with a product step still to come.
    In GF(p), w has a leading prime axis, and the Ck and W found there are
    rebuilt by CRT: the Ck at the end, W only when penult() is called."""
    v, top, _ = slot
    N = sig.N
    rows, column = v, None
    if shifts is not None:
        # |s| <= 2 * top, so an int64 column whenever a step's bound is
        # below 2**63; times a float64 or object w it takes w's dtype.
        column = np.array(shifts, _int_dtype(2 * top))[:, None]
        e = np.eye(1, sig.dim, dtype=np.int64)  # the row of e
        rows = v + column * e
    coeffs = []
    # carrier dtype -> R with w @ R = w * V; each row of w times its own row
    # s*e + V is then s*w + w @ R.
    right = {}
    # The float64 and GF(p) rings' carrier; an integer step picks its own.
    carrier = np.float64
    # The GF(p) ring, once entered: its prime column (the check prime last),
    # N/j mod p in column j, and the index in coeffs of its first Ck.
    primes = ratios = start = last = None

    def factor(carrier):
        if carrier not in right:
            # A step on int64 or float64 holds V exactly, so the two share
            # one gather per run.
            shared = None if carrier is object else right.get(np.int64, right.get(np.float64))
            right[carrier] = (sig._right_factors(v.astype(carrier, copy=False))[..., 0, :, :]
                              if shared is None else shared.astype(carrier))
        return right[carrier]

    def step(w, k):
        # Ck of each row, then (Uk - Ck) * U, or only its scalar part.
        nonlocal v, rows, column, carrier, primes, ratios, start, last
        if primes is not None:
            ck = w[..., 0] * ratios[:, k:k + 1] % primes
            col = (w[..., 0] - ck) % primes
        elif top is None:
            ck = (N / k) * w[:, 0]
            col, ck = w[:, 0] - ck, ck.tolist()
        else:
            sp, ck = w[:, 0].tolist(), []
            for s in sp:
                c, rem = divmod(N * s, k)
                if rem:
                    raise ConsistencyError(
                        f"C{k} = {N * s}/{k} of an integer row is not an integer")
                ck.append(c)
            col = [s - c for s, c in zip(sp, ck)]
            # The product bound of the algebra module docstring, for the
            # product or the dot product below, shifts included (module
            # docstring).
            bound = max(1, _max_abs(w), *map(abs, col)) * top << sig.n
            carrier = _int_dtype(bound, len(w) << (sig.n if k == N - 1 else 2 * sig.n))
            dtype = np.int64 if carrier is np.float64 else carrier
            if carrier is object and sig.n >= _MODULAR_MIN_N and k < N - 1:
                count = _prime_count(_modular_bound(sig, rows, k))
                primes, _, _, inverses = _crt_table(count)
                ratios, start, dtype, carrier = N * inverses % primes, k, np.int64, np.float64
                w, col = _residues(w, primes), _residues(np.array(col, object), primes)
                if _PRIMES[0] * top * (sig.dim + 2) >= 1 << 53:
                    # Past R(V)'s bound: reduce V, the shifts and so the rows mod p.
                    v = _residues(v, primes)
                    column = None if column is None else _residues(column, primes)
                    rows = v if column is None else v + column * e
                    right.clear()
            w = w.astype(dtype, copy=False)
        coeffs.append(ck)
        w[..., 0] = col
        wc = w.astype(carrier, copy=False)
        if k == N - 1:
            # CN needs only <UN>_0 = <W * (s*e + V)>_0, row by row.
            last = w
            out = (wc * rows) @ sig._square_signs.astype(carrier, copy=False)
        else:
            # Uk is a polynomial in U, so U * (Uk - Ck) = (Uk - Ck) * U.
            out = wc @ factor(carrier)
            if column is not None:
                out += column * wc
        out = out.astype(w.dtype, copy=False)
        return out if primes is None else out % primes[:, :, None]

    w = rows.copy()
    for k in range(1, N):
        w = step(w, k) if top is not None else _in_double_range(
            "a float step of the trace recursion", step, w, k)
    cn = w[..., 0]  # CN = (N/N) * <UN>_0
    if primes is None:
        return coeffs + [cn.tolist()], lambda: last
    count, B = len(primes) - 1, w.shape[-2]
    values = _rebuild(np.concatenate(coeffs[start:] + [cn], axis=1), count)
    coeffs[start:] = [values[i:i + B] for i in range(0, len(values), B)]

    @cache
    def penult():
        # W, rebuilt once, and only for a caller that reads it.
        values = _rebuild(last.reshape(len(primes), -1), count)
        return np.array(values, object).reshape(B, sig.dim)

    return coeffs, penult


class _FlRun(NamedTuple):
    """One run of the recursion on u = V / D: (C1(V), ..., CN(V)), the
    ``penult`` of ``_fl_stack`` and D.  A float u runs in float64 with D = 1.
    The determinant, adjugate and inverse are each read off a run; only the
    last two read the row W = V(N-1) - C(N-1)(V)*e, so a run read for its
    determinant alone never rebuilds W from the modular route's residues."""

    sig: Signature
    coeffs: list
    penult: Callable[[], np.ndarray]
    d: int

    @property
    def w(self) -> np.ndarray:
        return self.penult()[0]

    def det(self) -> Scalar:
        det = -self.coeffs[-1]
        return det if self.d == 1 else exact_ratio(det, self.d ** self.sig.N)

    def adjugate(self) -> Multivector:
        return _to_multivector(self.sig, -self.w, self.d ** (self.sig.N - 1))

    def inverse(self) -> Multivector:
        det, w, d = -self.coeffs[-1], self.w, self.d
        if det == 0:
            raise NotInvertibleError(det)
        # Adj(u) / Det(u) = (-W / D**(N-1)) / (det / D**N) = -W * D / det, with
        # W * D in Python ints: an int64 row times D can overflow unchecked.
        if d != 1:
            w = w.astype(object) * d
        return _to_multivector(self.sig, -w, det)


def _fl_run(u: Multivector) -> _FlRun:
    """The recursion on one multivector u."""
    [slot] = _slots((u,))
    coeffs, penult = _fl_stack(u.sig, slot)
    return _FlRun(u.sig, [c[0] for c in coeffs], penult, slot[2])


def fl_coefficients(u: Multivector) -> CharPoly:
    """All characteristic coefficients of u by the trace recursion."""
    _, coeffs, _, d = _fl_run(u)
    return CharPoly(u.sig, tuple(c if d == 1 else exact_ratio(c, d ** k)
                                 for k, c in enumerate(coeffs, 1)))


def det_fl(u: Multivector) -> Scalar:
    """Det(u) = -CN via the trace recursion."""
    return _fl_run(u).det()


def adjugate(u: Multivector) -> Multivector:
    """Adj(u) = C(N-1)*e - U(N-1), so that u*Adj(u) = Adj(u)*u = Det(u)*e."""
    return _fl_run(u).adjugate()


def inverse(u: Multivector) -> Multivector:
    """u**-1 = Adj(u) / Det(u); raises NotInvertibleError when Det(u) = 0."""
    return _fl_run(u).inverse()


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


def _sample_dets(sig: Signature, v: Sequence[int], shifts: Sequence[int]) -> list:
    """Det(s*e + V) for the integer row V and each integer s of ``shifts``,
    from one run of the recursion on the stack of rows s*e + V."""
    top = max(max(map(abs, v)), *(abs(s + v[0]) for s in shifts))
    coeffs, _ = _fl_stack(sig, (np.array([v], _int_dtype(top)), top, 1), shifts)
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
    exact = u.to_exact()
    v, d = exact._row, exact._den
    poly = _newton_interpolate(_sample_dets(sig, [-c for c in v], range(0, (N + 1) * d, d)))
    scale = d ** N
    if poly[N] != scale:
        raise ConsistencyError("interpolated polynomial is not monic "
                               f"(leading coefficient {exact_ratio(poly[N], scale)})")
    cp = CharPoly(sig, tuple(exact_ratio(-poly[N - k], scale) for k in range(1, N + 1)))
    return cp.to_float() if u.is_float else cp
