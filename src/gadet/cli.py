"""Command-line front end.

Subcommands: det, charpoly, inverse, eigen, check, formulas, bench.  Exit
codes: 0 success/consistent, 1 other error (e.g. a float overflow, or a
reader that closed standard output), 2 parse error, 3 not invertible, 4 not
generic, 5 cross-method inconsistency.

Multivector expression grammar::

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := number ('*'? blade)? | blade
    blade  := 'e' digit+          -- digits strictly ascending, 1-based
    number := digits | digits '/' digits | decimal
    decimal := digits '.' digits ['e' sign digits] | digits 'e' sign digits

Digits are ASCII 0-9 and whitespace ASCII.  Numbers are exact rationals,
decimals at their exact value, summed as numerators over one running
denominator.  A bare exponent needs a sign, so '2e1' stays 2 * e_1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import re
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple, NoReturn

from .algebra import Multivector, Scalar, Signature, close, random_multivector
from .charpoly import CharPoly, _fl_run, charpoly_interp, det_fl, fl_coefficients
from .errors import (
    ConsistencyError,
    FloatRangeError,
    GadetError,
    NotGenericError,
    NotInvertibleError,
    ParseError,
)
from .formulas import (
    FAMILIES,
    available_formulas,
    default_bar_family,
    det_formula,
    evaluate_det,
    format_formula,
    formula_to_json,
)
from .matrix_rep import charpoly_matrix, det_matrix, eigenvalues
from .vieta import eigen_compare, f_function, gelfand_retakh_ys, vieta_all


# ---------------------------------------------------------------------------
# expression parsing

# One term with the whitespace around it.  Every part is optional, so the
# pattern matches at any position; parse_multivector checks what a term lacks.
_TERM = re.compile(
    r"""
    \s*(?P<sign>[+-])?\s*
    (?:(?P<number>\d+\.\d+(?:[eE][+-]\d+)?|\d+[eE][+-]\d+|(?P<int>\d+)(?:/(?P<den>\d+))?)
       \s*(?P<star>\*)?\s*)?
    (?P<blade>e\d+)?\s*
    """,
    re.VERBOSE | re.ASCII,
)


def _reject_blade(token: str, pos: int, sig: Signature) -> NoReturn:
    """Raise why ``token``, an 'e' and digits that name no blade of sig, is
    rejected: at its first digit out of range or out of ascending order."""
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


def _expected(what: str, text: str, pos: int) -> ParseError:
    return ParseError(f"expected {what}, found {text[pos]!r}", pos)


def parse_multivector(text: str, sig: Signature) -> Multivector:
    """Parse the grammar above into an exact-backend multivector.

    The terms are summed exactly as integer numerators over one running
    denominator, the lcm of the denominators read so far, and the sum is
    reduced once at the end."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    masks = sig._blade_masks
    row = [0] * sig.dim
    den = 1
    pos = 0
    match = _TERM.match
    while pos < len(text):
        m = match(text, pos)
        sign, number, num, num_den, star, blade = m.groups()
        if pos and not sign:
            raise _expected("'+' or '-' between terms", text, pos)
        if not (number or blade):
            if sign and m.end() == len(text):
                raise ParseError("dangling sign", m.start("sign"))
            raise _expected("a number or blade", text, m.end())
        # The term's coefficient is num / b with b >= 1.
        b = 1
        if num_den:
            b = int(num_den)
            if not b:
                raise ParseError(f"zero denominator in {number!r}", m.start("number"))
            num = int(num)
        elif num:
            num = int(num)
        elif number:
            value = Fraction(number)  # a decimal, at its exact value
            num, b = value.numerator, value.denominator
        else:
            num = 1
        if star and not blade:
            raise ParseError("expected blade after '*'", m.start("star"))
        bits = 0
        if blade:
            bits = masks.get(blade)
            if bits is None:  # not a blade of sig: raise why
                _reject_blade(blade, m.start("blade"), sig)
        if den % b:  # rescale the row once, to the new lcm
            k = b // math.gcd(den, b)
            row = [c * k for c in row]
            den *= k
        num *= den // b
        row[bits] += -num if sign == "-" else num
        pos = m.end()
    return Multivector._from_row(sig, row, den)


# ---------------------------------------------------------------------------
# output helpers

def _json_value(x):
    if isinstance(x, Fraction):
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


# ---------------------------------------------------------------------------
# shared computation dispatch

def _input_multivector(args) -> Multivector:
    sig = args.sig
    mv = parse_multivector(args.expression, sig)
    if args.backend == "float":
        try:
            mv = mv.to_float()
        except FloatRangeError:
            raise ParseError("a coefficient is too large for the float backend") from None
    return mv


class Method(NamedTuple):
    """A method's determinant route and characteristic-polynomial route,
    None where it has none.  Each takes a multivector of either backend."""

    det: Callable[[Multivector], Scalar] | None = None
    charpoly: Callable[[Multivector], CharPoly] | None = None


def _triangle(n: int) -> str:
    return "triangle"


def _closed(family: Callable[[int], str]) -> Method:
    return Method(lambda u: evaluate_det(det_formula(u.sig.n, family(u.sig.n)), u))


def _vieta(family: Callable[[int], str]) -> Method:
    # Its C(N) is the closed-form determinant itself, so it has no det route.
    return Method(charpoly=lambda u: vieta_all(f_function(u.sig.n, family(u.sig.n)), u))


#: Every method, in output order; each computation is held once.
#: closed-bar and vieta-bar use the fewest-term bar family available at
#: the input's n.
METHODS = {
    "fl": Method(det_fl, fl_coefficients),
    "closed-triangle": _closed(_triangle),
    "closed-bar": _closed(default_bar_family),
    "vieta-triangle": _vieta(_triangle),
    "vieta-bar": _vieta(default_bar_family),
    "matrix": Method(det_matrix, charpoly_matrix),
    "interp": Method(lambda u: charpoly_interp(u).det, charpoly_interp),
}
_DET_METHODS = tuple(m for m, spec in METHODS.items() if spec.det)
_CHARPOLY_METHODS = tuple(m for m, spec in METHODS.items() if spec.charpoly)


def _dets(u: Multivector, interp: CharPoly) -> dict[str, Scalar]:
    """Every determinant of u that ``det --method all`` and ``check`` compare,
    in output order: fl, matrix, interp (-CN of ``interp``, its own
    characteristic polynomial) and each cataloged formula at u's n as
    ``closed:<family>/<variant>``.  closed-triangle and closed-bar are
    cataloged formulas, so each formula is evaluated once."""
    dets = {m: interp.det if m == "interp" else METHODS[m].det(u)
            for m in _DET_METHODS if not m.startswith("closed-")}
    dets.update((f"closed:{f.family}/{f.variant}", evaluate_det(f, u))
                for f in available_formulas(u.sig.n))
    return dets


# ---------------------------------------------------------------------------
# command handlers

def _cmd_det(args) -> int:
    u = _input_multivector(args)
    payload = {"signature": [args.sig.p, args.sig.q], "input": args.expression,
               "method": args.method}
    if args.method == "all":
        dets = _dets(u, METHODS["interp"].charpoly(u))
        consistent = _values_agree(list(dets.values()))
        payload["det"] = _json_value(dets["fl"])
        payload["dets"] = {m: _json_value(v) for m, v in dets.items()}
        payload["consistent"] = consistent
        lines = [f"{m}: {v}" for m, v in dets.items()]
        lines.append(f"consistent: {str(consistent).lower()}")
        _emit(args, payload, lines)
        return 0 if consistent else 5
    det = METHODS[args.method].det(u)
    payload["det"] = _json_value(det)
    _emit(args, payload, [str(det)])
    return 0


def _cmd_charpoly(args) -> int:
    u = _input_multivector(args)
    every = args.method == "all"
    methods = _CHARPOLY_METHODS if every else (args.method,)
    cps = [METHODS[m].charpoly(u) for m in methods]
    cp = cps[0]
    consistent = all(cp == other for other in cps)
    payload = {"signature": [args.sig.p, args.sig.q], "input": args.expression,
               "method": args.method,
               "coefficients": [_json_value(c) for c in cp.coeffs],
               "det": _json_value(cp.det)}
    lines = [f"C = [{', '.join(str(c) for c in cp.coeffs)}]", f"det: {cp.det}"]
    if every:
        payload["consistent"] = consistent
        lines.append(f"consistent: {str(consistent).lower()}")
    _emit(args, payload, lines)
    return 0 if consistent else 5


def _cmd_inverse(args) -> int:
    run = _fl_run(_input_multivector(args))
    inv, adj, det = run.inverse(), run.adjugate(), run.det()
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
    det_methods = []
    for trial in range(args.trials):
        u = random_multivector(sig, rng, float_backend=float_backend)
        # A route that raises is recorded under the command whose --method
        # all runs it again: charpoly for the charpoly routes, else det.
        kind = "charpoly"
        try:
            cps = {m: METHODS[m].charpoly(u) for m in _CHARPOLY_METHODS}
            kind = "det"
            dets = _dets(u, cps["interp"])
        except ConsistencyError as exc:
            failures.append({"trial": trial, "kind": kind, "input": str(u),
                             "error": str(exc)})
            continue
        det_methods = list(dets)
        if not _values_agree(list(dets.values())):
            failures.append({"trial": trial, "kind": "det", "input": str(u),
                             "values": {m: _json_value(v) for m, v in dets.items()}})
        for m, cp in cps.items():
            if cp != cps["fl"]:
                failures.append({"trial": trial, "kind": "charpoly", "input": str(u),
                                 "method": m})
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
        *(f"trial {f['trial']} ({f['kind']}): gadet {f['kind']} --sig {sig.p},{sig.q} "
          f"--backend {args.backend} --method all -- \"{f['input']}\"" for f in failures),
    ])
    return 0 if consistent else 5


def _cmd_bench(args) -> int:
    sig = args.sig
    rng = random.Random(args.seed)
    float_backend = args.backend == "float"
    batch = [random_multivector(sig, rng, float_backend=float_backend)
             for _ in range(args.trials)]
    for method in _DET_METHODS:  # untimed, so first-call costs stay out
        METHODS[method].det(batch[0])
    results = {}
    for method in _DET_METHODS:
        det = METHODS[method].det
        start = time.perf_counter()
        for u in batch:
            det(u)
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
    try:
        p, q = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("signature must look like 'p,q'") from None
    try:
        return Signature(p, q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


#: An argument that starts like a signed term, '-' then a digit, '.' or
#: 'e<digit>', is an expression, not an option: argparse would otherwise
#: reject '-e1' as an unknown option, although the grammar allows it.
_SIGNED_EXPRESSION = re.compile(r"^-(?:[\d.]|e\d)")


def _add_common(sub, expression: bool = True) -> None:
    sub.add_argument("--sig", type=_sig_type, required=True,
                     metavar="P,Q", help="algebra signature, e.g. 2,0")
    sub.add_argument("--backend", choices=("rational", "float"),
                     default="rational")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if expression:
        sub.add_argument("expression", help="multivector expression")
        sub._negative_number_matcher = _SIGNED_EXPRESSION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gadet",
        description="Clifford geometric algebra determinants, inverses and "
                    "characteristic polynomials, cross-validated four ways.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("det", help="determinant of a multivector")
    _add_common(p)
    p.add_argument("--method", choices=(*_DET_METHODS, "all"), default="fl")
    p.set_defaults(handler=_cmd_det)

    p = subs.add_parser("charpoly", help="characteristic coefficients C1..CN")
    _add_common(p)
    p.add_argument("--method", choices=(*_CHARPOLY_METHODS, "all"), default="fl")
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
    which = p.add_mutually_exclusive_group()
    which.add_argument("--n", type=int, choices=range(1, 7))
    which.add_argument("--sig", type=_sig_type, metavar="P,Q")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(handler=_cmd_formulas)

    return parser


#: Exit code of each error class; any other GadetError exits with 1.
_EXIT_CODES = ((ParseError, 2), (NotInvertibleError, 3), (NotGenericError, 4),
               (ConsistencyError, 5))


def main(argv=None) -> int:
    # Exact values can run past Python's default cap of 4300 digits on
    # int-to-string conversion, in both directions; the command line reads
    # and prints them whole.  Releases before 3.10.7 have no cap.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except GadetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in _EXIT_CODES if isinstance(exc, cls)), 1)
    except BrokenPipeError:
        # The reader closed standard output.  Point it at devnull, so that
        # the interpreter's flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
