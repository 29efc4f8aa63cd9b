"""The benchmark's workloads: seeded inputs, the timed operation, and the
correctness gate that runs after it.

Every workload is a closed loop with one client.  Inputs come in blocks;
each block holds every combination of the workload's input dimensions once
(27 signatures, times coefficient kind and operation for query-exact), in a
seeded random order, so signatures are drawn uniformly and every run sees
the same mix.  The same seed always gives the same inputs.

Operations call gadet only through its public functions, looked up at call
time so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import random
import traceback
from fractions import Fraction

import gadet
import gadet.cli

# Warm-up inputs do not depend on the run's seed, so set-up does the same
# work in every run.
WARMUP_SEED = 0


class MethodError:
    """A method that raised: its exception and the gadet module it came from."""

    def __init__(self, exc: BaseException):
        self.exc = exc
        self.module = _raising_module(exc)

    def canonical(self):
        return ("raised", type(self.exc).__name__, str(self.exc))


def _raising_module(exc: BaseException) -> str | None:
    module = None
    for frame in traceback.extract_tb(exc.__traceback__):
        parts = frame.filename.replace("\\", "/").split("/")
        if len(parts) >= 2 and parts[-2] == "gadet":
            module = parts[-1].removesuffix(".py")
    return module


def _call(fn, *args):
    # A boundary that must keep running: a method's failure is recorded
    # and counted, never allowed to end the run.
    try:
        return fn(*args)
    except Exception as exc:
        return MethodError(exc)


def canonical(value):
    """A plain, comparable form of a result (for digests and equality)."""
    if isinstance(value, (MethodError, QueryRequest)):
        return value.canonical()
    if isinstance(value, gadet.Multivector):
        return ("mv", str(value.sig), value.coeffs)
    if isinstance(value, gadet.CharPoly):
        return ("cp", str(value.sig), value.coeffs)
    if isinstance(value, dict):
        return tuple((k, canonical(v)) for k, v in value.items())
    if isinstance(value, tuple):
        return tuple(canonical(v) for v in value)
    return value


class Failure:
    """One method of one operation that raised or gave a wrong result."""

    __slots__ = ("method", "layer", "n", "reason", "raised_in")

    def __init__(self, method, layer, n, reason, raised_in=None):
        self.method = method
        self.layer = layer
        self.n = n
        self.reason = reason
        self.raised_in = raised_in


def _failure(method, layer, n, value, reason=None) -> Failure:
    if isinstance(value, MethodError):
        return Failure(method, layer, n,
                       f"{type(value.exc).__name__}: {value.exc}", value.module)
    return Failure(method, layer, n, reason)


# ---------------------------------------------------------------------------
# query-exact


QUERY_KINDS = ("dense-int", "dense-rational", "sparse")
QUERY_OPS = ("det_fl", "inverse", "fl_coefficients")


def _format_expression(sig, coeffs) -> str:
    """Render coefficients in the CLI's expression grammar."""
    parts = []
    for bits, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(c)
        if isinstance(mag, Fraction) and mag.denominator != 1:
            number = f"{mag.numerator}/{mag.denominator}"
        else:
            number = str(int(mag))
        token = number if bits == 0 else f"{number}*{sig.blade_name(bits)}"
        parts.append(("- " if c < 0 else "+ ") + token)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _query_coeffs(sig, kind: str, rng: random.Random):
    dim = sig.dim
    if kind == "dense-int":
        return [rng.randint(-9, 9) for _ in range(dim)]
    if kind == "dense-rational":
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(dim)]
    coeffs = [0] * dim
    for bits in rng.sample(range(dim), min(dim, rng.randint(2, 4))):
        coeffs[bits] = rng.choice((-1, 1)) * rng.randint(1, 9)
    return coeffs


class QueryRequest:
    __slots__ = ("sig", "kind", "op", "text", "coeffs")

    def __init__(self, sig, kind, op, text, coeffs):
        self.sig = sig
        self.kind = kind
        self.op = op
        self.text = text
        self.coeffs = coeffs

    def canonical(self):
        return (str(self.sig), self.kind, self.op, self.text)


class QueryExact:
    """CLI-shaped single requests: parse one expression, run one method."""

    def __init__(self):
        self.signatures = gadet.all_signatures()
        self.combos = [(sig, kind, op) for sig in self.signatures
                       for kind in QUERY_KINDS for op in QUERY_OPS]

    def _request(self, combo, rng) -> QueryRequest:
        sig, kind, op = combo
        coeffs = _query_coeffs(sig, kind, rng)
        return QueryRequest(sig, kind, op, _format_expression(sig, coeffs), coeffs)

    def block(self, rng: random.Random) -> list[QueryRequest]:
        order = list(self.combos)
        rng.shuffle(order)
        return [self._request(combo, rng) for combo in order]

    def warmup_inputs(self) -> list[QueryRequest]:
        # One request of each operation per signature, the coefficient kind
        # rotating with the operation.
        rng = random.Random(WARMUP_SEED)
        return [self._request((sig, QUERY_KINDS[i], op), rng)
                for sig in self.signatures for i, op in enumerate(QUERY_OPS)]

    def run(self, req: QueryRequest):
        u = _call(gadet.cli.parse_multivector, req.text, req.sig)
        if isinstance(u, MethodError):
            return {"parse": u}
        method = getattr(gadet, req.op)
        return {"parse": u, req.op: _call(method, u)}

    def check(self, req: QueryRequest, result) -> list[Failure]:
        sig = req.sig
        n = sig.n
        expected = gadet.Multivector(sig, req.coeffs)
        parsed = result["parse"]
        if isinstance(parsed, MethodError) or parsed != expected:
            return [_failure("parse", "cli", n, parsed, "parsed value differs")]
        value = result[req.op]
        if req.op == "det_fl":
            ok = (not isinstance(value, MethodError)
                  and value == gadet.evaluate_det(gadet.det_formula(n, "triangle"), expected))
        elif req.op == "inverse":
            if isinstance(value, MethodError):
                # Raising NotInvertibleError is the specified answer for a
                # singular input; the triangle formula confirms Det = 0.
                ok = (isinstance(value.exc, gadet.NotInvertibleError)
                      and gadet.evaluate_det(gadet.det_formula(n, "triangle"), expected) == 0)
            else:
                ok = expected * value == sig.identity
        else:
            ok = (not isinstance(value, MethodError)
                  and value.evaluate(expected).is_zero())
        if ok:
            return []
        return [_failure(req.op, "charpoly", n, value, "gate failed")]


# ---------------------------------------------------------------------------
# crosscheck-exact and crosscheck-float


_LAYER = {"fl": "charpoly", "interp": "charpoly", "matrix": "matrix_rep",
          "eigen": "matrix_rep", "vieta-triangle": "vieta", "vieta-bar": "vieta"}


def _layer(method: str) -> str:
    return "formulas" if method.startswith("closed:") else _LAYER[method]


class CrossCheck:
    """The checks of ``gadet check`` on one random multivector per operation:
    every determinant method and every characteristic-polynomial method,
    compared with the fl recursion."""

    def __init__(self, float_backend: bool):
        self.float_backend = float_backend
        self.signatures = gadet.all_signatures()
        # The formula catalog and F-functions are looked up once per n, as
        # in `gadet check`, outside the timed operation.
        self.formulas = {}
        self.families = {}
        for n in range(1, 7):
            self.formulas[n] = gadet.available_formulas(n)
            self.families[n] = (gadet.f_function(n, "triangle"),
                                gadet.f_function(n, gadet.default_bar_family(n)))

    def block(self, rng: random.Random):
        order = list(self.signatures)
        rng.shuffle(order)
        return [gadet.random_multivector(sig, rng, float_backend=self.float_backend)
                for sig in order]

    def warmup_inputs(self):
        rng = random.Random(WARMUP_SEED)
        return [gadet.random_multivector(sig, rng, float_backend=self.float_backend)
                for sig in self.signatures]

    def run(self, u):
        n = u.sig.n
        tri, bar = self.families[n]
        dets = {"fl": _call(gadet.det_fl, u)}
        for f in self.formulas[n]:
            dets[f"closed:{f.family}/{f.variant}"] = _call(gadet.evaluate_det, f, u)
        dets["vieta-triangle"] = _call(_vieta_det, tri, u)
        dets["vieta-bar"] = _call(_vieta_det, bar, u)
        dets["matrix"] = _call(gadet.det_matrix, u)
        dets["interp"] = _call(_interp_det, u)
        cps = {
            "fl": _call(gadet.fl_coefficients, u),
            "vieta-triangle": _call(gadet.vieta_all, tri, u),
            "vieta-bar": _call(gadet.vieta_all, bar, u),
            "matrix": _call(gadet.charpoly_matrix, u),
            "interp": _call(gadet.charpoly_interp, u),
        }
        result = {"det": dets, "charpoly": cps}
        if self.float_backend:
            result["eigen"] = _call(gadet.eigenvalues, u)
        return result

    def _same(self, a, b) -> bool:
        if self.float_backend:
            return math.isclose(a, b, rel_tol=gadet.REL_TOL, abs_tol=gadet.ABS_TOL)
        return a == b

    def check(self, u, result) -> list[Failure]:
        n = u.sig.n
        failures = []
        failed = set()

        def fail(method, value, reason=None):
            if method not in failed:
                failed.add(method)
                failures.append(_failure(method, _layer(method), n, value, reason))

        ref_det = result["det"]["fl"]
        ref_cp = result["charpoly"]["fl"]
        for method, value in result["det"].items():
            if isinstance(value, MethodError):
                fail(method, value)
            elif not isinstance(ref_det, MethodError) and not self._same(value, ref_det):
                fail(method, value, "determinant differs from fl")
        for method, value in result["charpoly"].items():
            if isinstance(value, MethodError):
                fail(method, value)
            elif not isinstance(ref_cp, MethodError) and not all(
                    map(self._same, value.coeffs, ref_cp.coeffs)):
                fail(method, value, "coefficients differ from fl")
        if not isinstance(ref_cp, MethodError) and not isinstance(ref_det, MethodError) \
                and not self._same(ref_cp.det, ref_det):
            fail("fl", ref_cp, "det_fl differs from -C_N")
        if "eigen" in result:
            value = result["eigen"]
            if isinstance(value, MethodError):
                fail("eigen", value)
            elif not isinstance(ref_cp, MethodError) and not _roots_match(value, ref_cp):
                fail("eigen", value, "eigenvalues do not rebuild fl's C(k)")
        return failures


def _vieta_det(f, u):
    return -gadet.vieta_coefficient(f, u, f.arity)


def _interp_det(u):
    return gadet.charpoly_interp(u).det


def _roots_match(roots, cp) -> bool:
    """Elementary symmetric polynomials of the roots against C(k), within
    gadet's tolerance for eigenvalue reconstruction."""
    tol = gadet.matrix_rep.EIGEN_RECON_TOL
    esp = [1.0 + 0j]
    for z in roots:
        esp = [esp[0]] + [esp[i] + z * esp[i - 1] for i in range(1, len(esp))] \
            + [z * esp[-1]]
    for k, expected in enumerate(cp.coeffs, start=1):
        got = esp[k] if k % 2 == 1 else -esp[k]
        if abs(got - expected) > tol * max(1.0, abs(expected)):
            return False
    return True


WORKLOADS = {
    "query-exact": QueryExact,
    "crosscheck-exact": lambda: CrossCheck(float_backend=False),
    "crosscheck-float": lambda: CrossCheck(float_backend=True),
}


def make(name: str):
    return WORKLOADS[name]()


def first_blocks(workload, seed: int, count: int) -> list:
    """The first ``count`` blocks of the seed's input stream."""
    rng = random.Random(seed)
    return [item for _ in range(count) for item in workload.block(rng)]
