"""Expression grammar, command behavior, output schema, exit codes."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from gadet import Multivector, ParseError, Signature, random_multivector
from gadet.cli import main, parse_multivector


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


def test_parse_repeated_terms_accumulate():
    s = Signature(2, 0)
    assert parse_multivector("e1 + e1", s) == Multivector(s, (0, 2, 0, 0))


def test_parse_errors():
    s = Signature(2, 0)
    with pytest.raises(ParseError):
        parse_multivector("e21", s)  # descending indices
    with pytest.raises(ParseError):
        parse_multivector("e11", s)  # repeated index
    with pytest.raises(ParseError):
        parse_multivector("e3", s)  # out of range
    with pytest.raises(ParseError):
        parse_multivector("e0", s)
    with pytest.raises(ParseError):
        parse_multivector("1 + + 2", s)
    with pytest.raises(ParseError):
        parse_multivector("2 *", s)
    with pytest.raises(ParseError):
        parse_multivector("", s)
    with pytest.raises(ParseError):
        parse_multivector("1 ? 2", s)
    with pytest.raises(ParseError) as err:
        parse_multivector("1 + $", s)
    assert err.value.position == 4


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
        "fl", "closed-triangle", "closed-bar", "vieta-triangle", "vieta-bar",
        "matrix", "interp",
    ]


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
    for family in ("triangle", "bar"):
        code, _, err = run(capsys, "charpoly", "--sig", "2,0", "--method",
                           f"closed-{family}", "1")
        assert code == 2
        assert err == (f"error: method 'closed-{family}' computes only the "
                       f"determinant; use vieta-{family} for coefficients\n")


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
        "fl", "closed-triangle", "closed-bar", "vieta-triangle", "vieta-bar",
        "matrix", "interp", "closed:bar/standard", "closed:triangle/standard",
        "fl", "vieta-triangle", "vieta-bar", "matrix", "interp",
    ]


def test_bench_command(capsys):
    code, out, _ = run(capsys, "bench", "--sig", "2,0", "--trials", "3",
                       "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert list(payload["ms_per_det"]) == [
        "fl", "closed-triangle", "closed-bar", "vieta-triangle", "vieta-bar",
        "matrix", "interp",
    ]
    assert all(v >= 0 for v in payload["ms_per_det"].values())


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
