"""Blade-indexed multivector arithmetic over the real Clifford algebras G(p, q).

Basis blades are encoded as n-bit masks: bit a-1 set means generator e_a is a
factor of the blade, so the blade's grade is the popcount of its mask.  A
multivector is a dense vector of 2**n coefficients indexed by blade mask.

Coefficients come in two backends:

* exact -- ``int`` / ``fractions.Fraction`` (default; identities verify to
  literal zero),
* float -- ``float``, with tolerance-based equality; every coefficient is
  finite, and an operation that would leave the double range raises
  FloatRangeError where it happens.

A value containing any float coefficient is float-backed; mixing an exact
multivector with a float one follows normal numeric coercion and yields a
float result.  All values are immutable and every operation is a pure
function of its inputs.

The geometric product is table-driven.  Blade i times blade j is
sign(i, j) * e_(i^j), so output k of a*b is

    c_k = sum_i a_i * sign[i, k] * b_(i^k),    sign[i, k] = sign(i, i^k),

one numpy contraction of a against a dim x dim gather of b.  Each signature
stores the table once, as indices into [b, -b], so no sign multiplies are
needed; ``Signature._right_factors`` gathers a whole stack of right factors
at once, as the trace recursion in ``charpoly`` does.

One kernel, ``_product``, multiplies stacks: (d+1, 2**n) arrays, the
multivector coefficients of a polynomial in a commuting scalar t (d = 0 for
a plain multivector), in slots (stack, top, scale) whose value is
stack / scale, with top >= max|stack| (None for a float64 stack, scale 1).
``Multivector`` products, the term-tree evaluator in ``formulas`` and the
Vieta polynomials in ``vieta`` all run on it, and the trace recursion in
``charpoly`` runs on the same slots.  One check, ``_in_double_range``,
raises FloatRangeError where a float product, divide-back, sum of formula
terms or recursion step leaves the double range.  An exact value is
stored as U = V/D, so ``_slots`` reads its row V with scale D, the kernel
multiplies the scales, and ``_to_multivector`` reduces by one gcd.  An
integer contraction of a left stack L by a right stack R runs in int64 when

    max|L| * max|R| * min(d_L + 1, d_R + 1) * 2**n < 2**63,

else in object dtype (Python ints, which cannot overflow).  The bound is
sufficient: each output coefficient of one t-degree, and each partial sum
on the way to it, is a sum of at most min(d_L + 1, d_R + 1) * 2**n products,
none larger in magnitude than max|L| * max|R|, so no int64 intermediate
leaves [-(2**63 - 1), 2**63 - 1].  For two multivectors (d_L = d_R = 0) it
reads max|a| * max|b| * 2**n < 2**63.  Every integer kernel of the package
picks its dtype from such a bound with :func:`_int_dtype`.

Below 2**53 an integer contraction may run on a float64 carrier instead
(Dumas, Giorgi & Pernet, *ACM TOMS* 35(3), 2008).  Every integer of
magnitude at most 2**53 is a double, so a float64 contraction whose every
product and partial sum stays under the bound is exact in any summation
order, fused multiply-adds included; the kernel returns its result to
int64, so a float64 row still means the float backend to every reader.
numpy's float64 matmul runs on BLAS and its int64 matmul does not, but the
carrier pays two conversions, so it is taken only for at least 4096
multiplies: la * lb * 4**n for stacks of la and lb rows, B * 4**n for a
step of the trace recursion on B rows.  Timed per contraction on a 2-vCPU
x86-64 VM (numpy 2.4, OpenBLAS 0.3.31), int64 -> float64 with the
conversions, in us: at n = 6, (5, 5) rows 79-87 -> 31 and a B = 9 step
19-27 -> 3.9, a (1, 1) product 8.1-8.5 -> 7.5-7.7; at 4096 multiplies
otherwise, n = 5 (2, 2) 8.9-9.3 -> 8.4-8.5 and n = 4 (4, 4) 10.2 -> 9.8;
below the gate, n = 5 (1, 1) 4.0 -> 4.7-4.9 and a B = 1 step 1.3 -> 1.6.
Stacks have at most 9 rows (degree N <= 8), so every carrier BLAS call is
at most (9, 64) @ (64, 64), below the 64 x 64 x 64 products on which
threaded OpenBLAS has been seen to stall on a 2-vCPU VM; the modular route
of ``charpoly`` keeps its primes a batch axis, one such call per prime.

An exact multivector is one integer row over one positive denominator in
lowest terms, so two exact values are equal iff their rows and denominators
are (Knuth, *TAOCP* vol. 2, 4.5.1).  Exact arithmetic reduces once, in
``Multivector._from_row``; ``coeffs`` is a view in normal form.

Every float tolerance of the package is defined here.  :func:`close` is the
one scalar agreement rule; multivector and characteristic-polynomial
equality apply it coefficient by coefficient.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import FloatRangeError, SignatureMismatchError

Scalar = Union[int, Fraction, float]

#: Relative and absolute bounds of :func:`close`, the float agreement rule.
REL_TOL = 1e-9
ABS_TOL = 1e-12
#: Imaginary part of a float matrix-oracle value that must be real, over max(1, |real|).
REAL_TOL = 1e-8
#: Relative error of each C(k) rebuilt from the eigenvalues (``eigenvalues``).
EIGEN_RECON_TOL = 1e-8
#: Relative and absolute error of the n <= 2 closed-form eigenvalues' sum and product.
EIGEN_COMPARE_TOL = 1e-9

_MIN_N = 1
_MAX_N = 6


# ---------------------------------------------------------------------------
# conjugations


@dataclass(frozen=True)
class Conjugation:
    """A grade-sign conjugation.

    ``kind`` is one of ``"grade_involution"``, ``"reversion"``, ``"delta"``,
    ``"bar"``; ``j`` is set only for ``"delta"``.  delta(1) acts identically
    to the grade involution and delta(2) to the reversion.
    """

    kind: str
    j: int | None = None

    def __post_init__(self):
        if self.kind not in ("grade_involution", "reversion", "delta", "bar"):
            raise ValueError(f"unknown conjugation kind {self.kind!r}")
        if (self.kind == "delta") != (type(self.j) is int and self.j >= 1):
            wanted = "an integer j >= 1" if self.kind == "delta" else "no j"
            raise ValueError(f"{self.kind} takes {wanted}, got j={self.j!r}")

    def __str__(self) -> str:
        if self.kind == "delta":
            return f"delta{self.j}"
        return self.kind


GRADE_INVOLUTION = Conjugation("grade_involution")
REVERSION = Conjugation("reversion")
BAR = Conjugation("bar")


def delta(j: int) -> Conjugation:
    """The j-th triangle conjugation, with grade sign (-1)**binom(k, 2**(j-1))."""
    return Conjugation("delta", int(j))


def _grade_sign(conj: Conjugation, k: int) -> int:
    if conj.kind == "grade_involution":
        return -1 if k & 1 else 1
    if conj.kind == "reversion":
        return -1 if (k * (k - 1) // 2) & 1 else 1
    if conj.kind == "delta":
        return -1 if math.comb(k, 2 ** (conj.j - 1)) & 1 else 1
    return 1 if k == 0 else -1  # bar


def charpoly_degree(n: int) -> int:
    """Degree N = 2**floor((n+1)/2) of the characteristic polynomial."""
    return 2 ** ((n + 1) // 2)


# ---------------------------------------------------------------------------
# signature


class Signature:
    """The algebra G(p, q): p generators squaring to +1, q to -1, n = p+q.

    Instances are interned per (p, q), so signatures compare by identity and
    every multivector of one algebra shares the same blade tables.  Derived
    quantities: N = 2**floor((n+1)/2) (characteristic polynomial degree) and
    m = floor(log2 n) + 1 (number of delta conjugations).
    """

    _instances: dict[tuple[int, int], "Signature"] = {}

    __slots__ = (
        "p", "q", "n", "N", "m", "dim", "eta", "grades",
        "_blade_names", "_blade_masks", "_grade_order",
        "_gather", "_square_signs", "_conjugations", "_identity", "_zero",
    )

    def __new__(cls, p: int, q: int) -> "Signature":
        key = (int(p), int(q))
        sig = cls._instances.get(key)
        if sig is None:
            sig = super().__new__(cls)
            sig._build(*key)
            cls._instances[key] = sig
        return sig

    def _build(self, p: int, q: int) -> None:
        if p < 0 or q < 0:
            raise ValueError(f"p and q must be non-negative, got ({p}, {q})")
        n = p + q
        if not _MIN_N <= n <= _MAX_N:
            raise ValueError(f"n = p + q must be in [{_MIN_N}, {_MAX_N}], got {n}")
        self.p = p
        self.q = q
        self.n = n
        self.N = charpoly_degree(n)
        self.m = n.bit_length()  # floor(log2 n) + 1 for n >= 1
        self.dim = 1 << n
        self.eta = (1,) * p + (-1,) * q
        self.grades = tuple(i.bit_count() for i in range(self.dim))
        # Blade tokens both ways, and the print order: by grade, then mask.
        self._blade_names = ("1",) + tuple(
            "e" + "".join(str(a + 1) for a in range(n) if bits >> a & 1)
            for bits in range(1, self.dim))
        self._blade_masks = {name: bits for bits, name in enumerate(self._blade_names)
                             if bits}
        self._grade_order = tuple(sorted(range(self.dim),
                                         key=lambda i: (self.grades[i], i)))
        # The product table (see the module docstring): index i^k into
        # [b, -b], shifted into the negated half where sign[i, k] < 0.
        xor = np.arange(self.dim)[:, None] ^ np.arange(self.dim)
        sign = np.array([[self._blade_product(i, j)[1] for j in row]
                         for i, row in enumerate(xor.tolist())])
        self._gather = xor + self.dim * (sign < 0)
        # sign[i, 0] is the sign of e_i * e_i, as a column: a stack of rows
        # times it gives each row's sum_i sign(i, i) * x_i.
        self._square_signs = sign[:, :1]
        self._conjugations = {}
        self._identity = None
        self._zero = None

    def _right_factors(self, b: np.ndarray) -> np.ndarray:
        """The product's gather of b: for b of shape (..., dim), R of shape
        (..., dim, dim) with a @ R[r] = a * b[r], the coefficients of the
        geometric product with b[r] on the right."""
        # take() gathers a stack of rows several times faster than indexing.
        return np.concatenate((b, -b), axis=-1).take(self._gather, axis=-1)

    def _blade_product(self, a: int, b: int) -> tuple[int, int]:
        """Product of basis blades a and b: result mask and sign.

        The sign counts the transpositions needed to interleave the two
        generator lists into canonical ascending order; each generator shared
        by both blades then contracts to its eta factor.
        """
        swaps = 0
        x = a >> 1
        while x:
            swaps += (x & b).bit_count()
            x >>= 1
        sign = -1 if swaps & 1 else 1
        common = a & b
        while common:
            low = common & -common
            if self.eta[low.bit_length() - 1] < 0:
                sign = -sign
            common ^= low
        return a ^ b, sign

    def conjugation_signs(self, conj: Conjugation) -> np.ndarray:
        """Per-blade sign vector of a conjugation, as an int64 array (cached):
        a stack of coefficient rows times it is the stack's conjugate."""
        key = (conj.kind, conj.j)
        signs = self._conjugations.get(key)
        if signs is None:
            if conj.kind == "delta" and conj.j > self.m:
                raise ValueError(
                    f"delta({conj.j}) is not defined for n = {self.n} (1 <= j <= {self.m})"
                )
            per_grade = [_grade_sign(conj, k) for k in range(self.n + 1)]
            signs = self._conjugations[key] = np.array([per_grade[g] for g in self.grades],
                                                       np.int64)
        return signs

    def available_conjugations(self) -> tuple[Conjugation, ...]:
        """Every conjugation defined for this algebra."""
        return (GRADE_INVOLUTION, REVERSION,
                *(delta(j) for j in range(1, self.m + 1)), BAR)

    def blade_name(self, bits: int) -> str:
        """Canonical blade token, e.g. 0b110 -> 'e23'; the scalar blade is '1'."""
        return self._blade_names[bits]

    @property
    def identity(self) -> "Multivector":
        """The identity element e (exact backend)."""
        if self._identity is None:
            self._identity = Multivector.scalar(self, 1)
        return self._identity

    @property
    def zero(self) -> "Multivector":
        """The zero multivector (exact backend)."""
        if self._zero is None:
            self._zero = Multivector(self, (0,) * self.dim)
        return self._zero

    def __repr__(self) -> str:
        return f"Signature({self.p}, {self.q})"

    def __str__(self) -> str:
        return f"G({self.p},{self.q})"

    def __reduce__(self):
        return (Signature, (self.p, self.q))


def all_signatures(max_n: int = _MAX_N) -> tuple[Signature, ...]:
    """Every supported signature with 1 <= p + q <= max_n, ordered by (n, -p)."""
    return tuple(
        Signature(p, n - p) for n in range(1, max_n + 1) for p in range(n, -1, -1)
    )


# ---------------------------------------------------------------------------
# multivector


def _normalize_exact(c):
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):  # bool and other int subclasses
        return int(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


#: The fewest multiplies for which an integer contraction under 2**53 runs
#: on the float64 carrier (module docstring).
_CARRIER_MIN_MULTIPLIES = 4096


def _int_dtype(bound: int, multiplies: int = 0):
    """The dtype of an integer kernel whose every intermediate is at most
    ``bound`` in magnitude: float64 when bound < 2**53 and the kernel does at
    least ``_CARRIER_MIN_MULTIPLIES`` multiplies (the caller returns the
    result to int64), int64 when bound < 2**63, else object (Python ints,
    which cannot overflow)."""
    if bound >= 1 << 63:
        return object
    if bound < 1 << 53 and multiplies >= _CARRIER_MIN_MULTIPLIES:
        return np.float64
    return np.int64


# ---------------------------------------------------------------------------
# stacks: the product kernel of the module docstring


def _max_abs(stack: np.ndarray) -> int:
    return int(abs(stack).max())


def _slots(values: Sequence["Multivector"]) -> list[tuple]:
    """Each value V / D as a slot (stack, top, scale) = ([V], max|V|, D), so
    value = stack / scale with the stack a (1, dim) array.  When any value is
    float, every stack is float64 with top None and scale 1; otherwise V
    holds integers, in int64 when they fit."""
    sig = values[0].sig
    if any(v.sig is not sig for v in values):
        raise SignatureMismatchError("slot values from different algebras")
    if any(v.is_float for v in values):
        return [(np.array([v.to_float()._row], np.float64), None, 1) for v in values]
    slots = []
    for v in values:
        top = max(map(abs, v._row))
        slots.append((np.array([v._row], _int_dtype(top)), top, v._den))
    return slots


def _plus_constant(slot):
    """The degree-1 slot e + t*(V/D) from the slot V/D: [D*e, V] over D."""
    v, top, d = slot
    if top is not None:
        top = max(top, d)
        v = v.astype(_int_dtype(top), copy=False)
    e = np.zeros_like(v)
    e[0, 0] = d
    return np.concatenate((e, v)), top, d


def _product(sig: Signature, left: tuple, right: tuple) -> tuple:
    """The slot of the product of two slots (stack, top, scale), scales
    multiplied; top is an upper bound on max|stack|, None for a float stack.
    t commutes, so coefficient i of the left times coefficient j of the right
    lands in degree i + j, the left factor staying on the left."""
    (a, a_top, a_scale), (b, b_top, b_scale) = left, right
    scale = a_scale * b_scale
    if a_top is None:
        return _in_double_range("a float geometric product", _contract, sig, a, b), None, scale
    # The bound of the module docstring.  The tops may be loose: tighten
    # them before leaving the float64 carrier's range.
    pairs = min(len(a), len(b)) << sig.n
    bound = a_top * b_top * pairs
    if bound >= 1 << 53:
        bound = _max_abs(a) * _max_abs(b) * pairs
    dtype = _int_dtype(bound, len(a) * len(b) << 2 * sig.n)
    out = _contract(sig, a.astype(dtype, copy=False), b.astype(dtype, copy=False))
    return out.astype(np.int64) if dtype is np.float64 else out, bound, scale


def _in_double_range(what: str, compute, *args) -> np.ndarray:
    """compute(*args), a float64 array, with numpy's overflow warnings off:
    the one range check of the float stack kernels.  An inf or nan in the
    result raises FloatRangeError naming ``what``."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = compute(*args)
    if not np.isfinite(out).all():
        raise FloatRangeError(f"{what} is outside the double range (inf or nan)")
    return out


def _contract(sig: Signature, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a times b, shift-added by t-degree, in the stacks' dtype; ``_product``
    picks the dtype and checks the range."""
    parts = a @ sig._right_factors(b)  # parts[j, i] = a[i] * b[j]
    if len(a) == 1:
        return parts[:, 0]
    out = np.zeros((len(a) + len(b) - 1, sig.dim), parts.dtype)
    for j, part in enumerate(parts):
        out[j:j + len(a)] += part
    return out


def _to_multivector(sig: Signature, row: np.ndarray, scale) -> "Multivector":
    """The multivector row / scale: an integer row reduced by one gcd, a
    float row range-checked here, once."""
    if row.dtype == np.float64:
        row = _in_double_range("a float coefficient", np.divide, row, scale)
        return Multivector._raw(sig, tuple(row.tolist()), 1, True)
    return Multivector._from_row(sig, row.tolist(), scale)


def exact_ratio(num, den):
    """num / den as an exact scalar: an int when it is whole, else a Fraction."""
    return _normalize_exact(Fraction(num, den))


def close(x: Scalar, y: Scalar) -> bool:
    """Whether two scalars agree: literally when both are exact, within
    REL_TOL/ABS_TOL when either is a float."""
    if isinstance(x, float) or isinstance(y, float):
        return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return x == y


class Multivector:
    """A dense multivector of G(p, q); immutable.

    An exact value is stored as one integer row over one positive
    denominator, gcd(row, den) = 1; a float value is its float row over 1.
    ``coeffs`` is a read-only view of it, one coefficient per blade mask in
    normal form.  Construct with any iterable of 2**n numbers, or through
    :meth:`scalar`, :meth:`blade`, :meth:`basis_blade`, :meth:`from_terms`.
    Every float-backed value is finite: construction, arithmetic and
    :meth:`to_float` raise FloatRangeError where a coefficient would be inf
    or nan, or too large for a float.
    """

    __slots__ = ("sig", "_row", "_den", "_float")

    def __init__(self, sig: Signature, coeffs: Iterable[Scalar]):
        coeffs = tuple(coeffs)
        if len(coeffs) != sig.dim:
            raise ValueError(
                f"expected {sig.dim} coefficients for {sig}, got {len(coeffs)}"
            )
        den = 1
        is_float = any(isinstance(c, float) for c in coeffs)
        if is_float:
            try:
                row = tuple(float(c) for c in coeffs)
                finite = all(map(math.isfinite, row))
            except OverflowError:
                finite = False
            if not finite:
                raise FloatRangeError("a float coefficient is outside the double "
                                      "range (inf, nan or too large)")
        else:
            # The lcm of reduced denominators leaves gcd(row, den) = 1.
            row = tuple(map(_normalize_exact, coeffs))
            den = math.lcm(*(c.denominator for c in row))
            if den != 1:
                row = tuple(c.numerator * (den // c.denominator) for c in row)
        self._fill(sig, row, den, is_float)

    def _fill(self, sig, row, den, is_float) -> None:
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_float", is_float)

    @classmethod
    def _raw(cls, sig: Signature, row: tuple, den: int, is_float: bool) -> "Multivector":
        # Internal: a row and denominator already in normal form.
        mv = object.__new__(cls)
        mv._fill(sig, row, den, is_float)
        return mv

    @classmethod
    def _from_row(cls, sig: Signature, row, den: int) -> "Multivector":
        """Internal: the exact value row / den, for integers row and a nonzero
        int den, reduced by one gcd and with the sign moved out of den."""
        if den != 1:
            g = math.gcd(den, *row)
            if den < 0:
                g = -g
            if g != 1:
                row = [c // g for c in row]
                den //= g
        return cls._raw(sig, tuple(row), den, False)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through _raw: setting the slots would raise.
        return (Multivector._raw, (self.sig, self._row, self._den, self._float))

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, sig: Signature, value: Scalar) -> "Multivector":
        """value * e."""
        z = 0.0 if isinstance(value, float) else 0
        return cls(sig, (value,) + (z,) * (sig.dim - 1))

    @classmethod
    def basis_blade(cls, sig: Signature, bits: int, coeff: Scalar = 1) -> "Multivector":
        """coeff times the blade with the given mask."""
        if not 0 <= bits < sig.dim:
            raise ValueError(f"blade mask {bits} out of range for {sig}")
        z = 0.0 if isinstance(coeff, float) else 0
        coeffs = [z] * sig.dim
        coeffs[bits] = coeff
        return cls(sig, coeffs)

    @classmethod
    def blade(cls, sig: Signature, *indices: int, coeff: Scalar = 1) -> "Multivector":
        """coeff * e_{i1...ik} from ascending generator indices (1-based)."""
        bits = 0
        for a in indices:
            if not 1 <= a <= sig.n:
                raise ValueError(f"generator index {a} out of range for {sig}")
            bit = 1 << (a - 1)
            if bits & bit:
                raise ValueError(f"repeated generator index {a}")
            bits |= bit
        return cls.basis_blade(sig, bits, coeff)

    @classmethod
    def from_terms(cls, sig: Signature, terms: dict[int, Scalar]) -> "Multivector":
        """Build from a {blade mask: coefficient} mapping."""
        coeffs = [0] * sig.dim
        for bits, c in terms.items():
            if not 0 <= bits < sig.dim:
                raise ValueError(f"blade mask {bits} out of range for {sig}")
            coeffs[bits] = coeffs[bits] + c
        return cls(sig, coeffs)

    # -- basic queries -----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """One coefficient per blade mask: floats, or exact values in normal
        form, an int when whole and else a Fraction.  Built on each access."""
        den = self._den
        if den == 1:
            return self._row
        return tuple(exact_ratio(c, den) for c in self._row)

    @property
    def is_float(self) -> bool:
        return self._float

    def scalar_part(self) -> Scalar:
        c, den = self._row[0], self._den
        return c if den == 1 else exact_ratio(c, den)

    def trace(self) -> Scalar:
        """Tr(U) = N * <U>_0."""
        return self.sig.N * self.scalar_part()

    def is_zero(self) -> bool:
        if self._float:
            return all(close(c, 0.0) for c in self._row)
        return not any(self._row)

    def is_scalar(self) -> bool:
        """True when all grades >= 1 vanish (tolerance-scaled for floats)."""
        rest = self._row[1:]
        if not self._float:
            return not any(rest)
        scale = max(1.0, *map(abs, self._row))
        return all(abs(c) <= max(ABS_TOL, REL_TOL * scale) for c in rest)

    # -- grade structure ---------------------------------------------------

    def grade(self, k: int) -> "Multivector":
        """Projection onto grade k."""
        sig = self.sig
        if not 0 <= k <= sig.n:
            raise ValueError(f"grade {k} out of range for {sig}")
        z = 0.0 if self._float else 0
        row = [c if g == k else z for c, g in zip(self._row, sig.grades)]
        if self._float:
            return Multivector._raw(sig, tuple(row), 1, True)
        return Multivector._from_row(sig, row, self._den)

    # -- conjugations ------------------------------------------------------

    def conjugate(self, conj: Conjugation) -> "Multivector":
        signs = self.sig.conjugation_signs(conj).tolist()
        row = tuple(c if s > 0 else -c for c, s in zip(self._row, signs))
        return Multivector._raw(self.sig, row, self._den, self._float)

    def grade_involution(self) -> "Multivector":
        return self.conjugate(GRADE_INVOLUTION)

    def reversion(self) -> "Multivector":
        return self.conjugate(REVERSION)

    def delta(self, j: int) -> "Multivector":
        return self.conjugate(delta(j))

    def bar(self) -> "Multivector":
        """2<U>_0 - U: negates every grade except 0."""
        return self.conjugate(BAR)

    # -- arithmetic --------------------------------------------------------

    def _check_sig(self, other: "Multivector") -> None:
        if other.sig is not self.sig:
            raise SignatureMismatchError(
                f"operands from different algebras: {self.sig} vs {other.sig}"
            )

    def _combine(self, op, other):
        # Internal: self + other or self - other.  A float result goes
        # through __init__'s range check; exact rows meet over the lcm of
        # their denominators.
        if isinstance(other, (int, Fraction, float)):
            other = Multivector.scalar(self.sig, other)
        elif isinstance(other, Multivector):
            self._check_sig(other)
        else:
            return NotImplemented
        if self._float or other._float:
            return Multivector(self.sig, map(op, self.to_float()._row, other.to_float()._row))
        a, b = self._den, other._den
        if a == b:
            return Multivector._from_row(self.sig, list(map(op, self._row, other._row)), a)
        den = math.lcm(a, b)
        x, y = den // a, den // b
        return Multivector._from_row(
            self.sig, [op(c * x, d * y) for c, d in zip(self._row, other._row)], den)

    def __add__(self, other):
        return self._combine(add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(sub, other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Multivector._raw(
            self.sig, tuple(-c for c in self._row), self._den, self._float
        )

    def _scale(self, s: Scalar) -> "Multivector":
        if type(s) is int and s == 1:
            return self
        if self._float or isinstance(s, float):
            return Multivector(self.sig, [s * c for c in self.to_float()._row])
        num = s.numerator
        return Multivector._from_row(self.sig, [num * c for c in self._row],
                                     self._den * s.denominator)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_sig(other)
            return self._geometric_product(other)
        if isinstance(other, (int, Fraction, float)):
            return self._scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, float)):
            return self._scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(Fraction(1, 1) / other)
        if isinstance(other, float):
            return self._scale(1.0 / other)
        return NotImplemented

    def _geometric_product(self, other: "Multivector") -> "Multivector":
        # Scalar operands reduce to a scale; this also covers the identity.
        if not any(self._row[1:]):
            return other._scale(self.scalar_part())
        if not any(other._row[1:]):
            return self._scale(other.scalar_part())
        row, _, scale = _product(self.sig, *_slots((self, other)))
        return _to_multivector(self.sig, row[0], scale)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float)):
            other = Multivector.scalar(self.sig, other)
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_sig(other)
        if self._float or other._float:
            return all(map(close, self.to_float()._row, other.to_float()._row))
        return self._den == other._den and self._row == other._row

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    # -- conversion and display --------------------------------------------

    def to_float(self) -> "Multivector":
        """Float-backend copy, each coefficient row / den correctly rounded.
        An exact coefficient beyond the double range raises FloatRangeError."""
        if self._float:
            return self
        den = self._den
        try:
            row = tuple(c / den for c in self._row)
        except OverflowError:
            raise FloatRangeError("an exact coefficient is outside the float "
                                  "range (too large for a double)") from None
        return Multivector._raw(self.sig, row, 1, True)

    def to_exact(self) -> "Multivector":
        """Exact-backend copy; floats convert to their exact binary value.
        An inf or nan coefficient has none and raises FloatRangeError."""
        if not self._float:
            return self
        if not all(map(math.isfinite, self._row)):
            raise FloatRangeError("a float coefficient is outside the double "
                                  "range (inf or nan) and has no exact value")
        return Multivector(self.sig, map(Fraction, self._row))

    def __str__(self) -> str:
        coeffs = self.coeffs
        names = self.sig._blade_names
        parts: list[str] = []
        for i in self.sig._grade_order:
            c = coeffs[i]
            if not c:
                continue
            negative = c < 0
            mag = -c if negative else c
            if i == 0:
                token = str(mag)
            elif mag == 1 and not isinstance(mag, float):
                token = names[i]
            else:
                token = f"{mag}*{names[i]}"
            if not parts:
                parts.append(f"-{token}" if negative else token)
            else:
                parts.append(f"- {token}" if negative else f"+ {token}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self.sig} {self}>"


def random_multivector(
    sig: Signature,
    rng: random.Random,
    *,
    float_backend: bool = False,
) -> Multivector:
    """A random multivector: integer coefficients uniform in [-9, 9] (exact
    backend) or uniform floats in [-9, 9] (float backend)."""
    if float_backend:
        coeffs = tuple(rng.uniform(-9.0, 9.0) for _ in range(sig.dim))
        return Multivector._raw(sig, coeffs, 1, True)
    coeffs = tuple(rng.randint(-9, 9) for _ in range(sig.dim))
    return Multivector._raw(sig, coeffs, 1, False)
