"""Closed-form determinant catalog: structure, evaluation, JSON export."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from gadet import (
    ConsistencyError,
    Multivector,
    Signature,
    available_formulas,
    catalog_to_json,
    default_bar_family,
    det_fl,
    det_formula,
    evaluate_adjugate,
    evaluate_det,
    formula_from_json,
    formula_to_json,
)
from gadet import formulas
from gadet.formulas import (_CATALOG_TEXT, Conj, FormulaTerm, Prod, Slot, _nodes, _read_formula,
                            format_formula)
from helpers import MATRIX_ORACLE, SIGNATURES, forbid, random_mvs, same_typed


def test_catalog_coverage():
    available = {
        n: sorted({(f.family, f.variant) for f in available_formulas(n)})
        for n in range(1, 7)
    }
    assert available[1] == [("bar", "standard"), ("triangle", "standard")]
    assert available[2] == [("bar", "standard"), ("triangle", "standard")]
    assert available[3] == [("bar", "standard"), ("bar_tilde", "standard"),
                            ("triangle", "reordered"), ("triangle", "standard")]
    assert available[4] == [("bar", "standard"), ("bar_tilde", "standard"),
                            ("triangle", "standard")]
    assert available[5] == [("bar_tilde", "standard"),
                            ("bar_tilde_hat", "standard"),
                            ("triangle", "standard")]
    assert available[6] == [("bar_tilde", "standard"), ("triangle", "standard")]


def test_unknown_formula_lists_available():
    with pytest.raises(ValueError) as err:
        det_formula(6, "bar")
    assert "bar_tilde" in str(err.value)


def test_n1_triangle_structure():
    f = det_formula(1)
    assert len(f.terms) == 1
    term = f.terms[0]
    assert term.weight == 1
    tree = term.tree
    assert isinstance(tree, Prod) and len(tree.factors) == 2
    assert tree.factors[0] == Slot(1)
    hat = tree.factors[1]
    assert isinstance(hat, Conj)
    assert hat.conj.kind == "grade_involution"
    assert hat.child == Slot(2)


def test_two_term_weights():
    for f in (det_formula(6, "triangle"), det_formula(6, "bar_tilde"),
              det_formula(3, "bar")):
        assert [t.weight for t in f.terms] == [Fraction(1, 3), Fraction(2, 3)]


def test_weights_sum_to_one():
    for n in range(1, 7):
        for f in available_formulas(n):
            assert sum(t.weight for t in f.terms) == 1


def test_each_term_uses_every_slot_once():
    def slots(node):
        if isinstance(node, Slot):
            return [node.index]
        if isinstance(node, Conj):
            return slots(node.child)
        return [i for f in node.factors for i in slots(f)]

    for n in range(1, 7):
        for f in available_formulas(n):
            for term in f.terms:
                assert slots(term.tree) == list(range(1, f.arity + 1))


def test_worked_example_det():
    s = Signature(2, 0)
    u = Multivector.from_terms(s, {0: 5, 2: Fraction(1, 2), 3: Fraction(1, 2)})
    assert evaluate_det(det_formula(2), u) == 25
    assert evaluate_det(det_formula(2, "bar"), u) == 25


def test_identity_det_is_one_for_every_formula():
    for sig in SIGNATURES:
        for f in available_formulas(sig.n):
            assert evaluate_det(f, sig.identity) == 1


def test_every_formula_agrees_with_fl():
    for sig in SIGNATURES:
        for u in random_mvs(sig, 2, 40):
            expected = det_fl(u)
            for f in available_formulas(sig.n):
                assert evaluate_det(f, u) == expected, (sig, f.family, f.variant)


def test_n3_orderings_agree():
    for sig in [Signature(3, 0), Signature(0, 3)]:
        u = random_mvs(sig, 1, 41)[0]
        standard = evaluate_det(det_formula(3, "triangle", "standard"), u)
        reordered = evaluate_det(det_formula(3, "triangle", "reordered"), u)
        assert standard == reordered


def test_table_coincidences():
    assert det_formula(3, "bar").terms == det_formula(4, "bar").terms
    assert det_formula(3, "bar_tilde").terms == det_formula(4, "bar_tilde").terms
    assert det_formula(5, "bar_tilde").terms == det_formula(6, "bar_tilde").terms


def test_default_bar_family():
    assert [default_bar_family(n) for n in range(1, 7)] == [
        "bar", "bar", "bar_tilde", "bar_tilde", "bar_tilde_hat", "bar_tilde",
    ]


def test_adjugate_examples():
    s1 = Signature(1, 0)
    u = Multivector(s1, (4, 7))
    assert evaluate_adjugate(det_formula(1), u) == u.grade_involution()
    assert evaluate_adjugate(det_formula(1), s1.identity) == s1.identity

    s2 = Signature(2, 0)
    v = random_mvs(s2, 1, 42)[0]
    adj = evaluate_adjugate(det_formula(2), v)
    assert adj == v.reversion().grade_involution()
    assert v * adj == Multivector.scalar(s2, det_fl(v))


def test_adjugate_matches_fl_everywhere():
    from gadet import adjugate

    for sig in SIGNATURES:
        u = random_mvs(sig, 1, 43)[0]
        expected = adjugate(u)
        for f in available_formulas(sig.n):
            assert evaluate_adjugate(f, u) == expected, (sig, f.family)


def test_adjugate_of_reordered_form_drops_trailing_slot():
    from gadet import adjugate

    s = Signature(2, 1)
    u = random_mvs(s, 1, 44)[0]
    assert evaluate_adjugate(det_formula(3, "triangle", "reordered"), u) == adjugate(u)


def test_wrong_dimension_rejected():
    u = Signature(2, 0).identity
    with pytest.raises(ValueError):
        evaluate_det(det_formula(3), u)


def test_broken_formula_raises_consistency_error():
    # A word that is not a determinant formula leaves nonzero grades behind.
    from gadet.formulas import DetFormula

    broken = DetFormula(2, "triangle", "broken", (
        FormulaTerm(Fraction(1), Prod((Slot(1), Slot(2)))),
    ))
    s = Signature(2, 0)
    u = Multivector.from_terms(s, {0: 1, 1: 2, 2: 5})
    with pytest.raises(ConsistencyError):
        evaluate_det(broken, u)
    # A term that is a conjugation of the whole product has no bare slot at
    # either end to drop for the adjugate.
    conjugated = formula_from_json({"n": 1, "family": "bar", "terms": [{
        "weight": "1", "tree": {"op": "conjugation", "kind": "bar", "child": {
            "op": "product", "factors": [{"op": "slot", "index": 1},
                                         {"op": "slot", "index": 2}]}}}]})
    with pytest.raises(ConsistencyError, match="no bare slot"):
        evaluate_adjugate(conjugated, Signature(1, 0).identity)


def test_float_backend_evaluation():
    for sig in [Signature(4, 0), Signature(3, 2)]:
        u = random_mvs(sig, 1, 45)[0]
        exact = det_fl(u)
        for f in available_formulas(sig.n):
            approx = evaluate_det(f, u.to_float())
            assert abs(approx - exact) <= 1e-9 * max(1.0, abs(exact))


def test_json_round_trip_and_schema():
    for n in range(1, 7):
        for f in available_formulas(n):
            data = json.loads(json.dumps(formula_to_json(f)))
            assert set(data) == {"n", "family", "variant", "terms"}
            for term in data["terms"]:
                assert set(term) == {"weight", "tree"}
            back = formula_from_json(data)
            assert back == f
            for term in f.terms + back.terms:
                # Weights are kept in normal form: an int when whole.
                whole = term.weight.denominator == 1
                assert type(term.weight) is (int if whole else Fraction)
    catalog = catalog_to_json()
    assert len(catalog) == sum(len(available_formulas(n)) for n in range(1, 7))


def test_formula_json_rejects_malformed_input():
    def find(node, kind):
        if node.get("kind") == kind:
            return node
        children = node.get("factors") or [node.get("child")]
        found = (find(c, kind) for c in children if c)
        return next((c for c in found if c), None)

    def malformed(n, kind, edit):
        data = formula_to_json(det_formula(n))
        edit(find(data["terms"][0]["tree"], kind))
        return data

    def edited(n, edit):
        data = formula_to_json(det_formula(n))
        edit(data)
        return data

    def first_term(**fields):
        return lambda data: data["terms"][0].update(fields)

    def first_slot(index):
        return lambda data: data["terms"][0]["tree"]["factors"][0].update(index=index)

    # A well-formed 32-slot formula, but for n = 9, which no signature has.
    slots = [{"op": "slot", "index": i} for i in range(1, 33)]
    n9 = {"n": 9, "family": "triangle",
          "terms": [{"weight": "1", "tree": {"op": "product", "factors": slots}}]}
    bad_inputs = [
        malformed(1, "grade_involution", lambda conj: conj.update(kind="foo")),
        malformed(6, "delta", lambda conj: conj.update(j=4)),  # n = 6 has delta1..3
        malformed(6, "delta", lambda conj: conj.pop("j")),
        edited(2, first_term(weight="1/0")),
        edited(2, first_term(weight=None)),
        edited(2, first_term(tree=[{"op": "slot", "index": 1}])),
        edited(2, lambda data: data.update(terms={"weight": "1"})),
        edited(2, lambda data: data.update(terms=5)),
        n9,
        # Values of the wrong JSON type, which int() or Fraction() would
        # otherwise coerce to a valid formula.
        edited(3, lambda data: data.update(n=3.7)),
        edited(3, lambda data: data.update(n="3")),
        edited(1, lambda data: data.update(n=True)),
        edited(3, first_slot(1.9)),
        edited(3, first_slot(True)),
        edited(2, lambda data: data.update(family=7)),
        edited(2, lambda data: data.update(variant=5)),
        edited(2, first_term(weight=1.0)),
        edited(2, first_term(weight=1)),
    ]
    for data in bad_inputs:
        with pytest.raises(ValueError):
            formula_from_json(data)


def test_format_formula_is_readable():
    text = format_formula(det_formula(4))
    assert text == "x1 * hat(tilde(x2)) * delta3(hat(x3) * tilde(x4))"


def test_catalog_prints_as_written():
    # The catalog is read from this notation; printing it back catches a
    # silent mis-parse.
    assert len(_CATALOG_TEXT) == 16
    for (n, family, variant), text in _CATALOG_TEXT.items():
        assert format_formula(det_formula(n, family, variant)) == text
    # No catalog entry nests a product directly in a product; one that does
    # prints it in parentheses and reads back to the same trees.
    data = formula_to_json(det_formula(3))
    factors = data["terms"][0]["tree"]["factors"]
    factors[:2] = [{"op": "product", "factors": factors[:2]}]
    nested = formula_from_json(data)
    text = format_formula(nested)
    assert text == "(x1 * hat(x2)) * tilde(x3) * hat(tilde(x4))"
    assert _read_formula(3, "triangle", "standard", text) == nested


def test_construction_validates_slots_and_weights():
    from gadet.formulas import DetFormula

    def formula(*terms):
        return DetFormula(2, "triangle", "test", tuple(
            FormulaTerm(Fraction(w), Prod(tuple(map(Slot, slots))))
            for w, slots in terms
        ))

    formula((1, (1, 2)))
    for slots in [(2, 1), (1, 1), (1,), (1, 2, 3)]:
        with pytest.raises(ValueError, match="slots"):
            formula((1, slots))
    with pytest.raises(ValueError, match="sum to 1"):
        formula((Fraction(1, 3), (1, 2)))
    with pytest.raises(ValueError, match="sum to 1"):
        formula()


# -- the stack evaluator -----------------------------------------------------


def _by_multivectors(formula, values):
    """F(values) term by term with Multivector operations: the reference for
    the stack evaluator."""
    def walk(node):
        if isinstance(node, Slot):
            return values[node.index - 1]
        if isinstance(node, Conj):
            return walk(node.child).conjugate(node.conj)
        result = walk(node.factors[0])
        for factor in node.factors[1:]:
            result = result * walk(factor)
        return result

    total = values[0].sig.zero
    for term in formula.terms:
        total = total + walk(term.tree) * term.weight
    return total


_GUARD_SIGNATURES = (Signature(6, 0), Signature(3, 3), Signature(0, 6), Signature(2, 1))


def _guard_inputs(sig, r):
    """Integers of 10**12, which start in int64 and leave it at the first
    product; a row beyond 2**63 from the start; denominators 3, 7, 11, 13
    mixed; dense rationals in [-9, 9]/[1, 9]."""
    big = Multivector(sig, (r.randint(-10 ** 12, 10 ** 12) for _ in range(sig.dim)))
    top = max(map(abs, big.coeffs))
    assert top < 2 ** 63 <= top * top << sig.n
    beyond = Multivector(sig, [2 ** 64 + 1] + [r.randint(-2 ** 70, 2 ** 70)
                                             for _ in range(sig.dim - 1)])
    mixed = Multivector(sig, (Fraction(r.randint(-9, 9), r.choice((3, 7, 11, 13)))
                              for _ in range(sig.dim)))
    dense = Multivector(sig, (Fraction(r.randint(-9, 9), r.randint(1, 9))
                              for _ in range(sig.dim)))
    return big, beyond, mixed, dense


def test_stack_evaluator_is_exact_across_the_int64_guard():
    # Every cataloged determinant, both Vieta families and every adjugate
    # equal the matrix oracle and fl literally, types included.
    from gadet import adjugate, charpoly_matrix, det_matrix, f_function, vieta_all

    r = random.Random(13)
    for sig in _GUARD_SIGNATURES:
        for u in _guard_inputs(sig, r):
            det = det_matrix(u)
            cp = charpoly_matrix(u).coeffs
            adj = adjugate(u).coeffs
            for f in available_formulas(sig.n):
                assert same_typed([evaluate_det(f, u)], [det]), (sig, f.family, u)
                assert same_typed(evaluate_adjugate(f, u).coeffs, adj), (sig, f.family, u)
            for family in ("triangle", default_bar_family(sig.n)):
                assert same_typed(vieta_all(f_function(sig.n, family), u).coeffs, cp), (sig, family)


def test_f_function_on_slots_with_different_denominators():
    # F is linear in each slot, so F(V1/D1, ...) = F(V1, ...) / (D1 * ...).
    r = random.Random(14)
    dens = (1, 3, 2 ** 40, 10 ** 18 + 9, 7 * 11, 13, 2, 5)
    for sig in _GUARD_SIGNATURES:
        for f in available_formulas(sig.n):
            values = [Multivector(sig, (Fraction(r.randint(-9, 9), dens[(i + j) % len(dens)])
                                        for j in range(sig.dim)))
                      for i in range(f.arity)]
            got = f.evaluate(values)
            assert same_typed(got.coeffs, _by_multivectors(f, values).coeffs), (sig, f.family)


def test_shared_programs_count_products(monkeypatch):
    # With every slot holding one value, an identical subtree is computed
    # once.  Separate slot values, even one value passed N times to
    # DetFormula.evaluate, are never merged: they share only a subtree that
    # two terms write over the same slots, such as x1 * tilde(x2).
    from gadet import vieta_all

    # (n, family, variant): products written, with all slots the same, with
    # separate slot values.
    expected = {
        (1, "bar", "standard"): (1, 1, 1), (1, "triangle", "standard"): (1, 1, 1),
        (2, "bar", "standard"): (1, 1, 1), (2, "triangle", "standard"): (1, 1, 1),
        (3, "bar", "standard"): (6, 5, 6), (3, "bar_tilde", "standard"): (3, 2, 3),
        (3, "triangle", "reordered"): (3, 3, 3), (3, "triangle", "standard"): (3, 3, 3),
        (4, "bar", "standard"): (6, 5, 6), (4, "bar_tilde", "standard"): (3, 2, 3),
        (4, "triangle", "standard"): (3, 3, 3),
        (5, "bar_tilde", "standard"): (14, 7, 12), (5, "bar_tilde_hat", "standard"): (7, 4, 7),
        (5, "triangle", "standard"): (7, 7, 7),
        (6, "bar_tilde", "standard"): (14, 7, 12), (6, "triangle", "standard"): (14, 10, 12),
    }
    calls = []
    product = formulas._product
    monkeypatch.setattr(formulas, "_product", lambda *args: calls.append(1) or product(*args))

    def count(route) -> int:
        calls.clear()
        route()
        return len(calls)

    got = {}
    for n in range(1, 7):
        sig = Signature(n, 0)
        u, *values = random_mvs(sig, 9, 17)
        for f in available_formulas(n):
            written = sum(len(node.factors) - 1 for term in f.terms
                          for node in _nodes(term.tree) if isinstance(node, Prod))
            same = count(lambda: evaluate_det(f, u))
            assert count(lambda: vieta_all(f, u)) == same
            separate = count(lambda: f.evaluate(values[:f.arity]))
            assert count(lambda: f.evaluate([u] * f.arity)) == separate
            got[n, f.family, f.variant] = (written, same, separate)
    assert got == expected


def test_float_overflow_in_the_stack_evaluator_raises():
    from gadet import FloatRangeError, f_function, vieta_all, vieta_coefficient

    sig = Signature(6, 0)
    r = random.Random(15)
    u = Multivector(sig, (r.uniform(-1e100, 1e100) for _ in range(sig.dim)))
    f = f_function(6)
    routes = [lambda: evaluate_det(f, u), lambda: evaluate_adjugate(f, u),
              lambda: vieta_all(f, u), lambda: vieta_coefficient(f, u, 3),
              lambda: vieta_coefficient(f, u, 8), lambda: f.evaluate((u,) * 8)]
    for route in routes:
        with pytest.raises(FloatRangeError, match="float.*range"):
            route()
    # Each term is 1e308, finite; the weighted sum 1e308 + 2e308 is not.
    u = Multivector.scalar(Signature(3, 0), 1e77)
    with pytest.raises(FloatRangeError, match="sum of formula terms"):
        evaluate_det(det_formula(3, "bar"), u)


def test_formula_and_vieta_routes_do_not_use_fl_or_the_matrix_oracle(monkeypatch):
    # The closed-form and Vieta routes share only the product table with the
    # fl recursion, and nothing with the matrix oracle: with both replaced by
    # a function that raises, they still give the right results.
    import gadet
    from gadet import adjugate, charpoly, f_function, fl_coefficients, vieta_all, \
        vieta_coefficient

    r = random.Random(16)
    cases = []
    for sig in (Signature(6, 0), Signature(3, 3)):
        u = random_mvs(sig, 1, 70)[0]
        v = Multivector(sig, (Fraction(r.randint(-9, 9), r.randint(1, 9))
                              for _ in range(sig.dim)))
        for x in (u, v):
            xs = random_mvs(sig, sig.N, 71)
            cases.append((x, det_fl(x), adjugate(x), fl_coefficients(x),
                          xs, _by_multivectors(det_formula(sig.n), xs)))

    forbid(monkeypatch,
           (charpoly._fl_stack, charpoly.det_fl, charpoly.fl_coefficients) + MATRIX_ORACLE,
           "formula and Vieta routes must not call fl or matrix_rep")
    with pytest.raises(AssertionError):
        gadet.det_fl(cases[0][0])

    for x, det, adj, cp, xs, f_of_xs in cases:
        n = x.sig.n
        for f in available_formulas(n):
            assert evaluate_det(f, x) == det
            assert evaluate_adjugate(f, x) == adj
        for family in ("triangle", default_bar_family(n)):
            f = f_function(n, family)
            assert vieta_all(f, x) == cp
            assert [vieta_coefficient(f, x, k) for k in range(1, f.arity + 1)] == list(cp.coeffs)
        assert det_formula(n).evaluate(xs) == f_of_xs
