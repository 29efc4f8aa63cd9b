"""Expression grammar, command behavior, output schema, exit codes."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import gadet
from gadet import Multivector, ParseError, Signature, random_multivector
from gadet.cli import main, parse_multivector
from helpers import substitute


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- grammar -----------------------------------------------------------------


def test_parse_worked_example():
    s = Signature(2, 0)
    u = parse_multivector("5 + 1/2*e2 + 1/2*e12", s)
    assert u == Multivector.from_terms(
        s, {0: 5, 2: Fraction(1, 2), 3: Fraction(1, 2)}
    )


def test_parse_scalar_one_is_identity():
    s = Signature(3, 0)
    assert parse_multivector("1", s) == s.identity


def test_parse_signs_and_bare_blades():
    s = Signature(2, 1)
    u = parse_multivector("-e1 + 2e2 - 3*e13 + 1/4", s)
    assert u == Multivector.from_terms(
        s, {1: -1, 2: 2, 5: -3, 0: Fraction(1, 4)}
    )


def test_parse_decimals_are_exact():
    s = Signature(1, 0)
    u = parse_multivector("0.25 + 1.5*e1", s)
    assert u.coeffs == (Fraction(1, 4), Fraction(3, 2))


def test_parse_exponent_needs_sign():
    s = Signature(1, 0)
    # '2e1' is a coefficient times the blade e1; '2e+1' is the number 20.
    assert parse_multivector("2e1", s) == Multivector(s, (0, 2))
    assert parse_multivector("2e+1", s) == Multivector(s, (20, 0))
    assert parse_multivector("2.5e-2", s) == Multivector(s, (Fraction(1, 40), 0))


def test_expression_may_start_with_a_sign(capsys):
    assert run(capsys, "det", "--sig", "2,0", "-e1") == (0, "-1\n", "")
    assert run(capsys, "det", "-e12+e1", "--sig", "2,0") == (0, "0\n", "")
    assert run(capsys, "det", "--sig", "2,0", "--", "-e1") == (0, "-1\n", "")
    with pytest.raises(SystemExit) as exc:
        main(["det", "--sig", "2,0", "--foo", "e1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["det", "-h"])
    assert exc.value.code == 0
    assert "expression" in capsys.readouterr().out


def test_parse_repeated_terms_accumulate():
    s = Signature(2, 0)
    assert parse_multivector("e1 + e1", s) == Multivector(s, (0, 2, 0, 0))


# Every rejected input, with the offset of the token it is rejected at and
# the message before the offset.
_REJECTED = [
    ("e21", 0, "blade indices must be strictly ascending in 'e21'"),
    ("e11", 0, "blade indices must be strictly ascending in 'e11'"),
    ("e3", 0, "generator index 3 out of range for G(2,0)"),
    ("e0", 0, "generator index 0 out of range for G(2,0)"),
    ("1 + + 2", 4, "expected a number or blade, found '+'"),
    ("2 *", 2, "expected blade after '*'"),
    ("", 0, "empty expression"),
    (" ", 0, "empty expression"),
    ("1 ? 2", 2, "expected '+' or '-' between terms, found '?'"),
    ("1 + $", 4, "expected a number or blade, found '$'"),
    ("+ + 2", 2, "expected a number or blade, found '+'"),
    ("1 2", 2, "expected '+' or '-' between terms, found '2'"),
    ("e1e2", 2, "expected '+' or '-' between terms, found 'e'"),
    ("3 * 4", 2, "expected blade after '*'"),
    ("* e1", 0, "expected a number or blade, found '*'"),
    ("-", 0, "dangling sign"),
    ("1 -", 2, "dangling sign"),
    ("1/2/3", 3, "expected '+' or '-' between terms, found '/'"),
    ("e1 *", 3, "expected '+' or '-' between terms, found '*'"),
    ("2 * * e1", 2, "expected blade after '*'"),
    ("1e", 1, "expected '+' or '-' between terms, found 'e'"),
    ("e", 0, "expected a number or blade, found 'e'"),
    ("1.", 1, "expected '+' or '-' between terms, found '.'"),
    ("1.5e3", 3, "generator index 3 out of range for G(2,0)"),  # 1.5 times e3
    ("e12 + e02", 6, "generator index 0 out of range for G(2,0)"),
    ("1/0", 0, "zero denominator in '1/0'"),
    ("1 + 3/0", 4, "zero denominator in '3/0'"),
    ("1/0*e3", 0, "zero denominator in '1/0'"),  # the number is read first
    # Digits and whitespace are ASCII: int() and Fraction() would read
    # these as 1 + e1, 12 and 7/2.
    ("1 + e\u0661", 4, "expected a number or blade, found 'e'"),
    ("\uff11\uff12", 0, "expected a number or blade, found '\uff11'"),
    ("\u0663.\u0665", 0, "expected a number or blade, found '\u0663'"),
    ("1\u00a0+ e1", 1, "expected '+' or '-' between terms, found '\\xa0'"),
]


def test_parse_errors():
    s = Signature(2, 0)
    for text, position, message in _REJECTED:
        with pytest.raises(ParseError) as err:
            parse_multivector(text, s)
        assert err.value.position == position, text
        assert str(err.value) == f"{message} (at position {position})", text
    # Near misses that are accepted.
    assert parse_multivector("5 e1", s).coeffs == (0, 5, 0, 0)
    assert parse_multivector("2e1", s).coeffs == (0, 2, 0, 0)
    assert parse_multivector("2e+1", s).coeffs == (20, 0, 0, 0)
    assert parse_multivector("2.5e-2", s).coeffs == (Fraction(1, 40), 0, 0, 0)


def _coefficients(text: str, sig: Signature) -> tuple:
    u = parse_multivector(text, sig)
    return u.coeffs, tuple(map(type, u.coeffs))


def test_parse_integers_as_ints_keeps_values_and_types():
    # Integer tokens parse with int and a/b with Fraction(int, int); the
    # coefficients equal, in value and type, those of parsing every number
    # as a Fraction and normalising.
    s = Signature(2, 0)
    for text, coeffs in [("0/5", (0, 0, 0, 0)), ("007", (7, 0, 0, 0)), ("6/3", (2, 0, 0, 0)),
                         ("1.5e+3", (1500, 0, 0, 0)), ("2e1", (0, 2, 0, 0)),
                         ("1/2 + 1/2 - 3/4*e12", (1, 0, 0, Fraction(-3, 4))),
                         ("4/6*e2 + 1 + 0.5", (Fraction(3, 2), 0, Fraction(2, 3), 0))]:
        assert _coefficients(text, s) == (coeffs, tuple(map(type, coeffs))), text
    with pytest.raises(ParseError, match="zero denominator in '3/0'"):
        parse_multivector("3/0", s)


def _query_exact_requests():
    # The requests of the benchmark's query-exact workload that a seed-1
    # traced run sends: its first four blocks.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(root, "perfbench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.first_blocks(workloads.QueryExact(), 1, 4)


def test_parse_query_exact_requests_keeps_values_and_types():
    requests = _query_exact_requests()
    assert len(requests) == 972
    for req in requests:
        expected = Multivector(req.sig, req.coeffs).coeffs
        assert _coefficients(req.text, req.sig) == (expected, tuple(map(type, expected)))


def _random_number(rng: random.Random) -> tuple[str, Fraction]:
    """A number token and its value, worked out without parsing the token:
    an integer, a/b or a decimal, with numerators up to 2**70."""
    kind = rng.randrange(4)
    a = rng.choice((rng.randint(0, 12), 2**70 + rng.randint(-3, 3)))
    if kind == 0:
        return str(a), Fraction(a)
    if kind == 1:
        b = rng.choice((1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 2**70))
        return f"{a}/{b}", Fraction(a, b)
    digits = rng.randint(1, 3)
    mantissa = rng.randint(0, 10**(digits + 1))
    whole, frac = divmod(mantissa, 10**digits)
    decimal = f"{whole}.{frac:0{digits}d}"
    value = Fraction(mantissa, 10**digits)
    if kind == 2:
        return decimal, value
    exponent = rng.randint(-4, 4)
    scale = Fraction(10)**exponent
    if rng.random() < 0.5:
        return f"{decimal}e{exponent:+d}", value * scale
    return f"{mantissa}E{exponent:+d}", mantissa * scale


def test_parse_sums_match_a_fraction_reference_on_every_signature():
    # Random expressions: shuffled terms, mixed denominators that force the
    # running denominator to grow mid-expression, decimals with exponents,
    # numerators up to 2**70, and blades repeated with the opposite sign so
    # that some cancel to 0.  The reference sums Fractions per blade.
    rng = random.Random(23)
    for sig in gadet.all_signatures():
        for _ in range(12):
            terms = []
            for _ in range(rng.randint(1, sig.dim + 2)):
                bits = rng.randrange(sig.dim)
                token, value = _random_number(rng)
                terms.append((rng.choice("+-"), token, value, bits))
            for sign, token, value, bits in terms[:rng.randint(0, len(terms))]:
                # The same value again, spelled b-fold, with the other sign.
                b = rng.randint(2, 5)
                terms.append(("-" if sign == "+" else "+",
                              f"{value.numerator * b}/{value.denominator * b}", value, bits))
            rng.shuffle(terms)
            reference = [Fraction(0)] * sig.dim
            text = ""
            for i, (sign, token, value, bits) in enumerate(terms):
                reference[bits] += value if sign == "+" else -value
                if bits:
                    if value == 1 and rng.random() < 0.3:
                        token = sig.blade_name(bits)
                    else:
                        token += rng.choice(("*", " * ", " ")) + sig.blade_name(bits)
                lead = rng.choice(("", sign)) if sign == "+" else sign
                text += (lead if i == 0 else f" {sign} ") + token
            expected = tuple(c.numerator if c.denominator == 1 else c for c in reference)
            u = parse_multivector(text, sig)
            assert _coefficients(text, sig) == (expected, tuple(map(type, expected))), text
            assert u._den > 0 and math.gcd(u._den, *u._row) == 1, text


def test_parse_builds_no_fraction_for_integers_and_ratios(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("the parser built a Fraction")

    monkeypatch.setattr(gadet.cli, "Fraction", no_fraction)
    s = Signature(3, 0)
    for text, terms in [("7", {0: 7}),
                        (f"-2*e1 + 3e23 - e123 + {2**70}", {1: -2, 6: 3, 7: -1, 0: 2**70}),
                        ("1/2 + 1/3*e1 - 5/6*e1 + 4/8*e12 + 1/6",
                         {0: Fraction(2, 3), 1: Fraction(-1, 2), 3: Fraction(1, 2)}),
                        ("3/7*e2 - 3/7*e2", {})]:
        u = parse_multivector(text, s)
        expected = Multivector.from_terms(s, terms).coeffs
        assert u.coeffs == expected and list(map(type, u.coeffs)) == list(map(type, expected))
    with pytest.raises(AssertionError, match="built a Fraction"):
        parse_multivector("0.5", s)


def test_print_parse_round_trip():
    rng = random.Random(0)
    for sig in [Signature(1, 0), Signature(2, 1), Signature(3, 3)]:
        for _ in range(5):
            u = random_multivector(sig, rng)
            assert parse_multivector(str(u), sig) == u
        uf = random_multivector(sig, rng, float_backend=True)
        assert parse_multivector(str(uf), sig).to_float() == uf


# -- commands ------------------------------------------------------------------


def test_det_worked_example(capsys):
    code, out, _ = run(capsys, "det", "--sig", "2,0", "5 + 1/2*e2 + 1/2*e12")
    assert code == 0
    assert out.strip() == "25"


def test_det_all_methods_json(capsys):
    code, out, _ = run(capsys, "det", "--sig", "2,0", "--method", "all",
                       "--format", "json", "5 + 1/2*e2 + 1/2*e12")
    assert code == 0
    payload = json.loads(out)
    assert payload["signature"] == [2, 0]
    assert payload["det"] == 25
    assert payload["consistent"] is True
    assert list(payload["dets"]) == [
        "fl", "matrix", "interp", "closed:bar/standard", "closed:triangle/standard",
    ]


def test_det_all_runs_the_determinants_check_compares(capsys):
    # det --method all is check's reproducer, so it runs the same list.
    from gadet import cli

    for sig in ("1,0", "2,0", "3,0", "4,0", "5,0", "6,0"):
        code, out, _ = run(capsys, "det", "--sig", sig, "--method", "all",
                           "--format", "json", "3 + e1")
        assert code == 0
        dets = list(json.loads(out)["dets"])
        code, out, _ = run(capsys, "check", "--sig", sig, "--trials", "1",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["methods"] == dets + list(cli._CHARPOLY_METHODS)
        n = Signature(*map(int, sig.split(","))).n
        assert len(dets) == 3 + len(gadet.available_formulas(n))


def test_charpoly_example(capsys):
    code, out, _ = run(capsys, "charpoly", "--sig", "1,0", "1 + 2*e1")
    assert code == 0
    assert "C = [2, 3]" in out
    assert "det: -3" in out


def test_charpoly_json_schema(capsys):
    code, out, _ = run(capsys, "charpoly", "--sig", "1,0", "--format", "json",
                       "--method", "all", "1 + 2*e1")
    payload = json.loads(out)
    assert code == 0
    assert payload["coefficients"] == [2, 3]
    assert payload["det"] == -3
    assert payload["consistent"] is True
    assert payload["input"] == "1 + 2*e1"


def test_charpoly_rejects_det_only_method(capsys):
    # Each subcommand accepts only the methods that compute its result: the
    # closed forms give no coefficients, and Vieta's C(N) is a closed form.
    for command, method in (("charpoly", "closed"), ("det", "vieta")):
        for family in ("triangle", "bar"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--sig", "2,0", "--method", f"{method}-{family}", "1"])
            assert exc.value.code == 2
            assert f"invalid choice: '{method}-{family}'" in capsys.readouterr().err


def test_fractional_det_json_string(capsys):
    code, out, _ = run(capsys, "det", "--sig", "1,0", "--format", "json", "1/3")
    payload = json.loads(out)
    assert code == 0
    assert payload["det"] == "1/9"


def test_inverse_command(capsys):
    code, out, _ = run(capsys, "inverse", "--sig", "1,0", "--format", "json", "e1")
    payload = json.loads(out)
    assert code == 0
    assert payload["inverse"] == "e1"
    assert payload["adjugate"] == "-e1"
    assert payload["det"] == -1


_INVERSE_TEXT = """\
inverse: 5058/19825 + 4692/19825*e1 + 9144/19825*e23 + 2556/19825*e123
adjugate: 281/72 + 391/108*e1 + 127/18*e23 + 71/36*e123
det: 19825/1296
"""

# At n = 5 this input's recursion finishes modulo primes.
_INVERSE_JSON = (
    '{"signature": [2, 3], "input": "1/2+1/3*e1-2/7*e23+5*e45+1/5*e12345", "method": "fl", '
    '"det": "1577792430171672700963441/3782285936100000000", '
    '"adjugate": "1387037280612431069/171532242000000 + 1466581302986576419/257298363000000*e1 '
    '- 1496529159341355119/300181423500000*e23 - 1407599206512666637/17153224200000*e45 '
    '- 3635466694723/8168202000*e123 + 240144223711249/204205050000*e145 '
    '- 211825862416103/204205050000*e2345 + 1106312009953186931/428830605000000*e12345", '
    '"inverse": "30584172037504105071450/1577792430171672700963441 '
    '+ 21558745153902673359300/1577792430171672700963441*e1 '
    '- 18856267407701074499400/1577792430171672700963441*e23 '
    '- 310375625036042993458500/1577792430171672700963441*e45 '
    '- 1683402852991485150000/1577792430171672700963441*e123 '
    '+ 4447951311579753978000/1577792430171672700963441*e145 '
    '- 3923438623671059766000/1577792430171672700963441*e2345 '
    '+ 9757671927787108731420/1577792430171672700963441*e12345"}\n'
)


@pytest.mark.parametrize("argv, expected", [
    (("--sig", "3,0", "1/2+1/3*e1-2*e23+e123"), _INVERSE_TEXT),
    (("--sig", "2,3", "--format", "json", "1/2+1/3*e1-2/7*e23+5*e45+1/5*e12345"),
     _INVERSE_JSON),
    (("--sig", "2,0", "--backend", "float", "--format", "json", "1/2+1/3*e1"),
     '{"signature": [2, 0], "input": "1/2+1/3*e1", "method": "fl", '
     '"det": 0.1388888888888889, "adjugate": "0.5 - 0.3333333333333333*e1", '
     '"inverse": "3.5999999999999996 - 2.4*e1"}\n'),
])
def test_inverse_command_runs_the_recursion_once(capsys, monkeypatch, argv, expected):
    runs = Counter()
    fl_run = gadet.charpoly._fl_run

    def counted(u):
        runs["fl"] += 1
        return fl_run(u)

    substitute(monkeypatch, (fl_run,), lambda fn: counted)
    code, out, _ = run(capsys, "inverse", *argv)
    assert code == 0
    assert out == expected
    assert runs["fl"] == 1


def test_eigen_command_with_ys(capsys):
    code, out, _ = run(capsys, "eigen", "--sig", "2,0", "--ys", "--format",
                       "json", "5 + 1/2*e2 + 1/2*e12")
    payload = json.loads(out)
    assert code == 0
    assert all(abs(re - 5) < 1e-10 and im == 0
               for re, im in payload["eigenvalues"])
    assert payload["ys"] == ["5 + 1/2*e2 + 1/2*e12", "5 - 1/2*e2 - 1/2*e12"]
    closed = payload["closed_form"]
    assert closed["sum_matches"] and closed["product_matches"]
    assert closed["lambdas_match_ys"] is False


@pytest.mark.parametrize("options", [("--sig", "4,0"), ("--backend", "float", "--sig", "2,0")])
def test_eigen_ys_rejects_float_backend_and_n_above_3(capsys, options):
    code, _, err = run(capsys, "eigen", "--ys", *options, "1 + e1")
    assert code == 2
    assert "--ys needs the rational backend and n <= 3" in err


def test_eigen_command_text(capsys):
    code, out, _ = run(capsys, "eigen", "--sig", "0,1", "e1")
    assert code == 0
    assert out.splitlines()[0] == "eigenvalues: 0-1j, 0+1j"


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--sig", "3,0", "--trials", "10",
                       "--seed", "7")
    assert code == 0
    assert "all methods agree: true" in out


def test_check_command_json_float(capsys):
    code, out, _ = run(capsys, "check", "--sig", "1,1", "--backend", "float",
                       "--trials", "5", "--seed", "3", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["consistent"] is True
    assert payload["failures"] == []
    assert payload["trials"] == 5
    assert payload["methods"] == [
        "fl", "matrix", "interp", "closed:bar/standard", "closed:triangle/standard",
        "fl", "vieta-triangle", "vieta-bar", "matrix", "interp",
    ]


def test_check_failures_carry_a_reproducer(capsys, monkeypatch):
    from gadet import CharPoly, ConsistencyError, FloatRangeError, cli
    from gadet.matrix_rep import charpoly_matrix, det_matrix

    def shifted(u):  # the matrix charpoly with C1 off by one
        cp = charpoly_matrix(u)
        return CharPoly(cp.sig, (cp.coeffs[0] + 1,) + cp.coeffs[1:])

    def raises(error):
        def route(u):
            raise error("route failed its own check")
        return route

    def matrix(method):
        return lambda m: m.setitem(cli.METHODS, "matrix", method)

    def wrong_bar(m):  # every bar-family formula off by one, nothing else
        substitute(m, (gadet.evaluate_det,), lambda fn: lambda f, u: (
            fn(f, u) + (1 if f.family == "bar" else 0)))

    # (signature, patch, the kind of every failure, whether it is an error)
    cases = [
        ("2,0", matrix(cli.Method(lambda u: det_matrix(u) + 1, charpoly_matrix)), "det", False),
        ("2,0", matrix(cli.Method(det_matrix, shifted)), "charpoly", False),
        ("3,0", wrong_bar, "det", False),
        ("2,0", matrix(cli.Method(raises(ConsistencyError), charpoly_matrix)), "det", True),
        ("2,0", matrix(cli.Method(det_matrix, raises(ConsistencyError))), "charpoly", True),
    ]
    for sig, patch, kind, error in cases:
        s = Signature(*map(int, sig.split(",")))
        rng = random.Random(0)  # check's default seed
        inputs = [random_multivector(s, rng) for _ in range(3)]
        with monkeypatch.context() as m:
            patch(m)
            code, out, _ = run(capsys, "check", "--sig", sig, "--trials", "3",
                               "--format", "json")
            assert code == 5
            failures = json.loads(out)["failures"]
            # Text mode names each failure by its reproducer.
            code, out, _ = run(capsys, "check", "--sig", sig, "--trials", "3")
            assert code == 5
            assert out.splitlines() == ["trials: 3", "all methods agree: false"] + [
                f"trial {f['trial']} ({kind}): gadet {kind} --sig {sig} --backend rational "
                f"--method all -- \"{f['input']}\"" for f in failures]
            assert [f["trial"] for f in failures] == [0, 1, 2]
            assert {f["kind"] for f in failures} == {kind}
            for failure in failures:
                assert ("error" in failure) == error
                if error:
                    assert failure["error"] == "route failed its own check"
                elif kind == "charpoly":
                    assert failure["method"] == "matrix"
                u = parse_multivector(failure["input"], s)
                assert u.coeffs == inputs[failure["trial"]].coeffs
                code, _, _ = run(capsys, kind, "--sig", sig, "--method", "all",
                                 "--", failure["input"])
                assert code == 5
    # Only a ConsistencyError is recorded; any other error still ends check.
    monkeypatch.setitem(cli.METHODS, "matrix",
                        cli.Method(raises(FloatRangeError), charpoly_matrix))
    code, out, err = run(capsys, "check", "--sig", "2,0", "--trials", "3",
                         "--format", "json")
    assert (code, out) == (1, "")
    assert "route failed its own check" in err


def test_bench_command(capsys):
    code, out, _ = run(capsys, "bench", "--sig", "2,0", "--trials", "3",
                       "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert list(payload["ms_per_det"]) == [
        "fl", "closed-triangle", "closed-bar", "matrix", "interp",
    ]
    assert all(v >= 0 for v in payload["ms_per_det"].values())


def test_bench_warms_up_each_method(capsys, monkeypatch):
    from gadet import cli

    dets = [name for name, spec in cli.METHODS.items() if spec.det]
    calls = dict.fromkeys(dets, 0)
    for name in dets:
        def counted(u, name=name, det=cli.METHODS[name].det):
            calls[name] += 1
            return det(u)
        monkeypatch.setitem(cli.METHODS, name, cli.METHODS[name]._replace(det=counted))
    code, _, _ = run(capsys, "bench", "--sig", "2,0", "--trials", "3")
    assert code == 0
    assert calls == dict.fromkeys(dets, 4)


def test_check_runs_interp_once_per_trial(capsys, monkeypatch):
    # check runs each computation once per trial: each characteristic-
    # polynomial route, the fl and matrix determinants, and each cataloged
    # formula once.  interp's determinant is read off its own characteristic
    # polynomial, the closed-* routes are cataloged formulas, and Vieta's
    # C(N) is the closed-form determinant, so none of them runs again.
    from gadet import cli

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name, spec in list(cli.METHODS.items()):
        monkeypatch.setitem(cli.METHODS, name, cli.Method(
            spec.det and counted(f"det {name}", spec.det),
            spec.charpoly and counted(f"charpoly {name}", spec.charpoly)))
    substitute(monkeypatch, (gadet.evaluate_det, gadet.vieta_all, gadet.vieta_coefficient),
               lambda fn: counted(fn.__name__, fn))
    code, _, _ = run(capsys, "check", "--sig", "2,0", "--trials", "3")
    assert code == 0
    per_trial = {name: count / 3 for name, count in calls.items()}
    assert per_trial == {
        "det fl": 1, "det matrix": 1,
        **{f"charpoly {m}": 1 for m in ("fl", "vieta-triangle", "vieta-bar",
                                         "matrix", "interp")},
        "evaluate_det": len(gadet.available_formulas(2)),
        "vieta_all": 2,
    }


def test_formulas_command(capsys):
    code, out, _ = run(capsys, "formulas", "--n", "6")
    payload = json.loads(out)
    assert code == 0
    families = {f["family"] for f in payload["formulas"]}
    assert families == {"triangle", "bar_tilde"}
    weights = [t["weight"] for f in payload["formulas"] for t in f["terms"]]
    assert weights.count("1/3") == 2 and weights.count("2/3") == 2


def test_formulas_text_by_signature(capsys):
    code, out, _ = run(capsys, "formulas", "--sig", "2,0", "--format", "text")
    assert code == 0
    assert "n=2 triangle/standard" in out


def test_formulas_without_a_selector_and_with_an_empty_one(capsys):
    code, out, _ = run(capsys, "formulas", "--format", "text")
    assert code == 0
    assert len(out.splitlines()) == len(gadet.catalog_to_json()) == 16
    code, _, err = run(capsys, "formulas", "--n", "1", "--family", "bar_tilde")
    assert code == 2
    assert "no cataloged formulas match family 'bar_tilde'" in err


def test_formulas_n_and_sig_are_alternatives(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["formulas", "--n", "3", "--sig", "6,0"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_malformed_signature_exits_2(capsys):
    for sig, message in (("2", "signature must look like 'p,q'"),
                         ("a,b", "signature must look like 'p,q'"),
                         ("7,0", "must be in [1, 6]"),
                         ("-1,2", "non-negative")):
        with pytest.raises(SystemExit) as exc:
            main(["det", f"--sig={sig}", "1"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_exit_code_parse_error(capsys):
    code, _, err = run(capsys, "det", "--sig", "2,0", "e21")
    assert code == 2
    assert "ascending" in err


def test_exit_code_not_invertible(capsys):
    code, _, err = run(capsys, "inverse", "--sig", "1,0", "1 + e1")
    assert code == 3
    assert "not invertible" in err


def test_exit_code_not_generic(capsys):
    code, _, err = run(capsys, "eigen", "--sig", "2,0", "--ys", "7")
    assert code == 4
    assert "not generic" in err


def test_closed_stdout_pipe_exits_quietly():
    # The reader is gone before gadet writes, so the first write fails with
    # a broken pipe: gadet exits with 1 and writes nothing to stderr.
    src = os.path.dirname(os.path.dirname(os.path.abspath(gadet.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "gadet.cli", "inverse", "--sig", "2,0", "1/2 + 1/3*e1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


# Python caps int-to-string conversion at 4300 digits by default; the
# command line reads and prints exact values of any length.


def test_exact_result_beyond_4300_digits(capsys):
    code, out, _ = run(capsys, "det", "--sig", "1,0", "1e+2200")
    assert (code, out) == (0, "1" + "0" * 4400 + "\n")


def test_exact_coefficients_beyond_4300_digits(capsys):
    # a + e1 in G(6,0): C1 = 8a and Det = (a**2 - 1)**4.
    code, out, _ = run(capsys, "charpoly", "--sig", "6,0", "1e+600 + e1")
    c, det = out.splitlines()
    assert code == 0
    assert c.startswith("C = [8" + "0" * 600 + ", ")
    assert det.startswith("det: 9999") and len(det) == len("det: ") + 4800


def test_exact_input_beyond_4300_digits(capsys):
    # The square of a 5000-digit repunit has 9999 digits.
    code, out, _ = run(capsys, "det", "--sig", "1,0", "1" * 5000)
    assert code == 0
    assert out.startswith("123456790") and len(out) == 9999 + 1


def test_float_backend_det(capsys):
    code, out, _ = run(capsys, "det", "--sig", "2,0", "--backend", "float",
                       "--format", "json", "5 + 1/2*e2 + 1/2*e12")
    payload = json.loads(out)
    assert code == 0
    assert abs(payload["det"] - 25.0) < 1e-9


def test_float_overflow_is_a_parse_error(capsys):
    code, _, err = run(capsys, "det", "--sig", "1,0", "--backend", "float", "1e+400")
    assert code == 2
    assert "too large" in err


@pytest.mark.parametrize("argv", [
    ("det", "--sig", "2,0", "--backend", "float", "--method", "matrix"),
    ("inverse", "--sig", "2,0", "--backend", "float"),
    ("det", "--sig", "6,0", "--backend", "float", "--method", "all"),
    # nan in a non-scalar closed-form sum is reported as overflow, not as
    # a broken formula
    ("det", "--sig", "6,0", "--backend", "float", "--method", "closed-triangle"),
    ("eigen", "--sig", "1,0", "--backend", "float"),
    # C(2) overflows when the exact result is rounded to float
    ("charpoly", "--sig", "2,0", "--backend", "float", "--method", "interp"),
], ids=lambda argv: "-".join(argv[::2]))
def test_float_range_error(capsys, argv):
    code, out, err = run(capsys, *argv, "1e+200 + e1")
    assert code == 1
    assert out == ""
    assert "float" in err and "range" in err


def test_exact_eigen_overflow_is_a_range_error(capsys):
    code, _, err = run(capsys, "eigen", "--sig", "1,0", "1e+400")
    assert code == 1
    assert "outside the float range" in err


@pytest.mark.parametrize("command", ["bench", "check"])
def test_trials_must_be_positive(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--sig", "1,0", "--trials", "0"])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
