"""Command-line front end.

Subcommands: det, charpoly, inverse, eigen, check, formulas, bench.  Exit
codes: 0 success/consistent, 1 other error (e.g. a float overflow), 2 parse
error, 3 not invertible, 4 not generic, 5 cross-method inconsistency.

Multivector expression grammar::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := number ('*'? blade)? | blade
    blade  := 'e' digit+          -- digits strictly ascending, 1-based
    number := digits | digits '/' digits | decimal
    decimal := digits '.' digits ['e' sign digits] | digits 'e' sign digits

Numbers parse to exact rationals; decimals keep their exact decimal value.
A bare exponent requires an explicit sign so that '2e1' stays 2 * e_1.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebra import Multivector, Scalar, Signature, close, random_multivector
from .charpoly import (CharPoly, adjugate, charpoly_interp, det_fl,
                       fl_coefficients, inverse)
from .errors import (
    ConsistencyError,
    FloatRangeError,
    GadetError,
    NotGenericError,
    NotInvertibleError,
    ParseError,
)
from .formulas import (
    available_formulas,
    default_bar_family,
    det_formula,
    evaluate_det,
    format_formula,
    formula_to_json,
)
from .matrix_rep import charpoly_matrix, det_matrix, eigenvalues
from .vieta import (eigen_compare, f_function, gelfand_retakh_ys, vieta_all,
                    vieta_coefficient)


# ---------------------------------------------------------------------------
# expression parsing

_TOKEN = re.compile(
    r"""
    (?P<number>\d+\.\d+(?:[eE][+-]\d+)?|\d+[eE][+-]\d+|\d+(?:/\d+)?)
    |(?P<blade>e\d+)
    |(?P<op>[+\-*])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    length = len(text)
    while pos < length:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    return tokens


def _blade_bits(token: str, pos: int, sig: Signature) -> int:
    bits = 0
    last = 0
    for ch in token[1:]:
        idx = int(ch)
        if idx < 1 or idx > sig.n:
            raise ParseError(f"generator index {idx} out of range for {sig}", pos)
        if idx <= last:
            raise ParseError(
                f"blade indices must be strictly ascending in {token!r}", pos
            )
        last = idx
        bits |= 1 << (idx - 1)
    return bits


def _number_value(token: str) -> Fraction:
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ParseError(f"zero denominator in {token!r}")
        return Fraction(int(num), int(den))
    return Fraction(token)


def parse_multivector(text: str, sig: Signature) -> Multivector:
    """Parse the grammar above into an exact-backend multivector."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    coeffs = [Fraction(0)] * sig.dim
    i = 0
    count = len(tokens)
    first = True
    while i < count:
        kind, value, pos = tokens[i]
        sign = 1
        if kind == "op" and value in "+-":
            if not first and i + 1 < count and tokens[i + 1][0] == "op" \
                    and tokens[i + 1][1] in "+-":
                raise ParseError("stacked signs are not allowed", tokens[i + 1][2])
            sign = -1 if value == "-" else 1
            i += 1
            if i >= count:
                raise ParseError("dangling sign", pos)
            kind, value, pos = tokens[i]
        elif not first:
            raise ParseError("expected '+' or '-' between terms", pos)
        first = False
        if kind == "number":
            coeff = sign * _number_value(value)
            i += 1
            bits = 0
            if i < count and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                if i >= count or tokens[i][0] != "blade":
                    raise ParseError("expected blade after '*'",
                                     tokens[i - 1][2])
            if i < count and tokens[i][0] == "blade":
                bits = _blade_bits(tokens[i][1], tokens[i][2], sig)
                i += 1
        elif kind == "blade":
            coeff = Fraction(sign)
            bits = _blade_bits(value, pos, sig)
            i += 1
        else:
            raise ParseError(f"unexpected token {value!r}", pos)
        coeffs[bits] += coeff
    return Multivector(sig, coeffs)


# ---------------------------------------------------------------------------
# output helpers

def _json_value(x):
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, Multivector):
        return str(x)
    return x


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, default=_json_value))
    else:
        for line in text_lines:
            print(line)


def _values_agree(values) -> bool:
    return all(close(values[0], v) for v in values[1:])


def _require_finite(values) -> None:
    """A float result that overflowed to inf or became nan is an error, not
    an answer."""
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise FloatRangeError("a float-backend result is outside the double "
                              "range (inf or nan)")


# ---------------------------------------------------------------------------
# shared computation dispatch

def _input_multivector(args) -> Multivector:
    sig = args.sig
    mv = parse_multivector(args.expression, sig)
    if args.backend == "float":
        try:
            mv = mv.to_float()
        except OverflowError:
            raise ParseError("a coefficient is too large for the float backend") from None
    return mv


class Method(NamedTuple):
    """A determinant route, and its characteristic-polynomial route if it
    has one.  Each takes a multivector of either backend."""

    det: Callable[[Multivector], Scalar]
    charpoly: Callable[[Multivector], CharPoly] | None = None


def _triangle(n: int) -> str:
    return "triangle"


def _closed(family: Callable[[int], str]) -> Method:
    return Method(lambda u: evaluate_det(det_formula(u.sig.n, family(u.sig.n)), u))


def _vieta(family: Callable[[int], str]) -> Method:
    def det(u):
        f = f_function(u.sig.n, family(u.sig.n))
        return -vieta_coefficient(f, u, f.arity)

    return Method(det, lambda u: vieta_all(f_function(u.sig.n, family(u.sig.n)), u))


#: Every method, in output order.  closed-bar and vieta-bar use the
#: fewest-term bar family available at the input's n.
METHODS = {
    "fl": Method(det_fl, fl_coefficients),
    "closed-triangle": _closed(_triangle),
    "closed-bar": _closed(default_bar_family),
    "vieta-triangle": _vieta(_triangle),
    "vieta-bar": _vieta(default_bar_family),
    "matrix": Method(det_matrix, charpoly_matrix),
    "interp": Method(lambda u: charpoly_interp(u).det, charpoly_interp),
}
_CHARPOLY_METHODS = tuple(m for m, spec in METHODS.items() if spec.charpoly)


def _det(method: str, u: Multivector) -> Scalar:
    det = METHODS[method].det(u)
    _require_finite((det,))
    return det


def _charpoly(method: str, u: Multivector) -> CharPoly:
    cp = METHODS[method].charpoly(u)
    _require_finite(cp.coeffs)
    return cp


# ---------------------------------------------------------------------------
# command handlers

def _cmd_det(args) -> int:
    u = _input_multivector(args)
    payload = {"signature": [args.sig.p, args.sig.q], "input": args.expression,
               "method": args.method}
    if args.method == "all":
        dets = {m: _det(m, u) for m in METHODS}
        consistent = _values_agree(list(dets.values()))
        payload["det"] = _json_value(dets["fl"])
        payload["dets"] = {m: _json_value(v) for m, v in dets.items()}
        payload["consistent"] = consistent
        lines = [f"{m}: {v}" for m, v in dets.items()]
        lines.append(f"consistent: {str(consistent).lower()}")
        _emit(args, payload, lines)
        return 0 if consistent else 5
    det = _det(args.method, u)
    payload["det"] = _json_value(det)
    _emit(args, payload, [str(det)])
    return 0


def _cmd_charpoly(args) -> int:
    u = _input_multivector(args)
    payload = {"signature": [args.sig.p, args.sig.q], "input": args.expression,
               "method": args.method}
    if args.method == "all":
        cps = {m: _charpoly(m, u) for m in _CHARPOLY_METHODS}
        cp = cps["fl"]
        consistent = all(cp == other for other in cps.values())
        payload["coefficients"] = [_json_value(c) for c in cp.coeffs]
        payload["det"] = _json_value(cp.det)
        payload["consistent"] = consistent
        lines = [f"C = [{', '.join(str(c) for c in cp.coeffs)}]",
                 f"det: {cp.det}", f"consistent: {str(consistent).lower()}"]
        _emit(args, payload, lines)
        return 0 if consistent else 5
    if METHODS[args.method].charpoly is None:
        raise ParseError(
            f"method {args.method!r} computes only the determinant; "
            f"use vieta-{args.method.split('-')[1]} for coefficients"
        )
    cp = _charpoly(args.method, u)
    payload["coefficients"] = [_json_value(c) for c in cp.coeffs]
    payload["det"] = _json_value(cp.det)
    _emit(args, payload, [f"C = [{', '.join(str(c) for c in cp.coeffs)}]",
                          f"det: {cp.det}"])
    return 0


def _cmd_inverse(args) -> int:
    u = _input_multivector(args)
    inv = inverse(u)
    adj = adjugate(u)
    det = det_fl(u)
    _require_finite((det, *adj.coeffs, *inv.coeffs))
    payload = {
        "signature": [args.sig.p, args.sig.q], "input": args.expression,
        "method": "fl", "det": _json_value(det),
        "adjugate": str(adj), "inverse": str(inv),
    }
    _emit(args, payload, [f"inverse: {inv}", f"adjugate: {adj}", f"det: {det}"])
    return 0


def _cmd_eigen(args) -> int:
    u = _input_multivector(args)
    eig = eigenvalues(u)
    payload = {
        "signature": [args.sig.p, args.sig.q], "input": args.expression,
        "method": "matrix",
        "eigenvalues": [[z.real, z.imag] for z in eig],
    }
    lines = ["eigenvalues: " + ", ".join(_format_complex(z) for z in eig)]
    if args.ys:
        if args.backend == "float" or args.sig.n > 3:
            raise ParseError(
                "--ys needs the rational backend and n <= 3"
            )
        roots = gelfand_retakh_ys(u)
        payload["ys"] = [str(y) for y in roots.ys]
        lines.extend(f"y{k} = {y}" for k, y in enumerate(roots.ys, start=1))
    if args.sig.n <= 2:
        report = eigen_compare(u)
        payload["closed_form"] = {
            "lambdas": [[z.real, z.imag] for z in report.lambdas],
            "ys": [str(y) for y in report.ys],
            "sum_matches": report.sum_matches,
            "product_matches": report.product_matches,
            "lambdas_match_ys": report.lambdas_match_ys,
        }
        lines.append("closed-form lambdas: "
                     + ", ".join(_format_complex(z) for z in report.lambdas))
        lines.append(f"y1 = {report.ys[0]}")
        lines.append(f"y2 = {report.ys[1]}")
        lines.append(f"lambdas match ys: {str(report.lambdas_match_ys).lower()}")
    _emit(args, payload, lines)
    return 0


def _format_complex(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _cmd_check(args) -> int:
    sig = args.sig
    rng = random.Random(args.seed)
    float_backend = args.backend == "float"
    failures = []
    det_methods = list(METHODS) + [
        f"closed:{f.family}/{f.variant}" for f in available_formulas(sig.n)
    ]
    for trial in range(args.trials):
        u = random_multivector(sig, rng, float_backend=float_backend)
        dets = {m: _det(m, u) for m in METHODS}
        for f in available_formulas(sig.n):
            dets[f"closed:{f.family}/{f.variant}"] = evaluate_det(f, u)
        if not _values_agree(list(dets.values())):
            failures.append({"trial": trial, "kind": "det",
                             "values": {m: _json_value(v) for m, v in dets.items()}})
        cps = {m: _charpoly(m, u) for m in _CHARPOLY_METHODS}
        for m, cp in cps.items():
            if cp != cps["fl"]:
                failures.append({"trial": trial, "kind": "charpoly", "method": m})
    consistent = not failures
    payload = {
        "signature": [sig.p, sig.q], "method": "check",
        "trials": args.trials, "seed": args.seed,
        "methods": det_methods + list(_CHARPOLY_METHODS),
        "consistent": consistent, "failures": failures,
    }
    _emit(args, payload, [
        f"trials: {args.trials}",
        f"all methods agree: {str(consistent).lower()}",
    ])
    return 0 if consistent else 5


def _cmd_bench(args) -> int:
    sig = args.sig
    rng = random.Random(args.seed)
    float_backend = args.backend == "float"
    batch = [random_multivector(sig, rng, float_backend=float_backend)
             for _ in range(args.trials)]
    results = {}
    for method in METHODS:
        start = time.perf_counter()
        for u in batch:
            _det(method, u)
        elapsed = time.perf_counter() - start
        results[method] = elapsed / len(batch) * 1e3
    payload = {
        "signature": [sig.p, sig.q], "method": "bench",
        "trials": args.trials, "seed": args.seed,
        "ms_per_det": {m: round(v, 4) for m, v in results.items()},
    }
    lines = [f"{m:>16}: {v:9.3f} ms/det" for m, v in results.items()]
    _emit(args, payload, lines)
    return 0


def _cmd_formulas(args) -> int:
    if args.n is not None:
        ns = [args.n]
    elif args.sig is not None:
        ns = [args.sig.n]
    else:
        ns = range(1, 7)
    formulas = []
    for n in ns:
        for f in available_formulas(n):
            if args.family and f.family != args.family:
                continue
            formulas.append(f)
    if not formulas:
        raise ParseError(f"no cataloged formulas match family {args.family!r}")
    payload = {"formulas": [formula_to_json(f) for f in formulas]}
    lines = [
        f"n={f.n} {f.family}/{f.variant} ({len(f.terms)} term"
        f"{'s' if len(f.terms) != 1 else ''}): Det(U) = {format_formula(f)}"
        for f in formulas
    ]
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

def _sig_type(text: str) -> Signature:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("signature must look like 'p,q'")
    try:
        return Signature(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_common(sub, expression: bool = True) -> None:
    sub.add_argument("--sig", type=_sig_type, required=True,
                     metavar="P,Q", help="algebra signature, e.g. 2,0")
    sub.add_argument("--backend", choices=("rational", "float"),
                     default="rational")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if expression:
        sub.add_argument("expression", help="multivector expression")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gadet",
        description="Clifford geometric algebra determinants, inverses and "
                    "characteristic polynomials, cross-validated four ways.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("det", help="determinant of a multivector")
    _add_common(p)
    p.add_argument("--method", choices=(*METHODS, "all"), default="fl")
    p.set_defaults(handler=_cmd_det)

    p = subs.add_parser("charpoly", help="characteristic coefficients C1..CN")
    _add_common(p)
    p.add_argument("--method", choices=(*METHODS, "all"), default="fl")
    p.set_defaults(handler=_cmd_charpoly)

    p = subs.add_parser("inverse", help="inverse and adjugate")
    _add_common(p)
    p.set_defaults(handler=_cmd_inverse)

    p = subs.add_parser("eigen", help="eigenvalues (float), with the n<=2 "
                                      "closed-form comparison")
    _add_common(p)
    p.add_argument("--ys", action="store_true",
                   help="also report the ordered-solution-set y_k "
                        "(n <= 3, rational backend; non-generic input fails)")
    p.set_defaults(handler=_cmd_eigen)

    p = subs.add_parser("check", help="cross-method agreement on random inputs")
    _add_common(p, expression=False)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_check)

    p = subs.add_parser("bench", help="time determinant methods on a random batch")
    _add_common(p, expression=False)
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_bench)

    p = subs.add_parser("formulas", help="export the closed-form catalog")
    p.add_argument("--n", type=int, choices=range(1, 7))
    p.add_argument("--sig", type=_sig_type, metavar="P,Q")
    p.add_argument("--family", choices=("triangle", "bar", "bar_tilde",
                                        "bar_tilde_hat"))
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(handler=_cmd_formulas)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotInvertibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotGenericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except GadetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
