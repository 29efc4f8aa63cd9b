"""Closed-form determinant and adjugate formulas for n = 1..6.

Each formula is stored as data, not code: a list of weighted term trees whose
leaves are numbered occurrence slots (slot i is the i-th factor, counted left
to right).  Substituting the same multivector into every slot evaluates the
determinant; substituting separate values evaluates the paper's N-variable
F-function (``DetFormula.evaluate``), which the Vieta machinery sums over
identity/U slot assignments.  Four families are cataloged:

* ``triangle``      -- grade involution / reversion / delta conjugations,
* ``bar``           -- the bar operation only,
* ``bar_tilde``     -- bar plus reversion,
* ``bar_tilde_hat`` -- bar plus reversion plus grade involution.

The catalog is written in the notation ``format_formula`` prints, e.g.
``x1 * hat(tilde(x2)) * delta3(hat(x3) * tilde(x4))``, and read into trees
once at import.  Trees keep each formula's written parenthesization; no
algebraic simplification is performed.  The catalog is exportable as a
documented JSON term-tree format (see ``formula_to_json``).

``evaluate_terms`` is the one term-tree evaluator, and it runs on stacks,
not on multivectors: each slot value is a (d+1, 2**n) array, the
multivector coefficients of a polynomial in a commuting scalar t (d = 0 for
a plain multivector).  Products go through ``algebra``'s one stack kernel,
and a conjugation multiplies the stack by the cached sign vector.  Weights
are scaled to integers, and the caller divides by their common denominator
den once.

An exact input is scaled to integers once, U = V/D.  A term of k slots is
homogeneous of degree k, so X(U) = X(V)/D**k and
Det(U) = F(V, ..., V)/(den * D**N); separate slot values Vi/Di divide by
D1 * ... * DN.  Scalarity is checked on the integer row before anything is
divided, so only the scalar part becomes a Fraction.  Integer products run
in int64 under the bound of the ``algebra`` module docstring, and the
weighted sum while sum |w| * max|term| < 2**63; otherwise in object dtype.
Float stacks run in float64 and raise FloatRangeError where a value leaves
the double range.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .algebra import (
    BAR,
    GRADE_INVOLUTION,
    REVERSION,
    Conjugation,
    Multivector,
    Scalar,
    _MAX_N,
    _MIN_N,
    _in_double_range,
    _int_dtype,
    _max_abs,
    _normalize_exact,
    _product,
    _slots,
    _to_multivector,
    charpoly_degree,
    common_denominator,
    delta,
    exact_ratio,
)
from .errors import ConsistencyError

FAMILIES = ("triangle", "bar", "bar_tilde", "bar_tilde_hat")


# ---------------------------------------------------------------------------
# term trees


@dataclass(frozen=True)
class Slot:
    """The index-th occurrence of the argument, 1-based."""

    index: int


@dataclass(frozen=True)
class Conj:
    """A conjugation applied to a subtree."""

    conj: Conjugation
    child: "Node"


@dataclass(frozen=True)
class Prod:
    """A left-to-right geometric product of subtrees."""

    factors: tuple["Node", ...]


Node = Union[Slot, Conj, Prod]


@dataclass(frozen=True)
class FormulaTerm:
    """A weighted term tree; the weight is kept in normal form, an int when
    whole."""

    weight: int | Fraction
    tree: Node

    def __post_init__(self):
        object.__setattr__(self, "weight", _normalize_exact(self.weight))


def _nodes(node: Node):
    """Every node of a tree, depth first, left to right."""
    yield node
    if isinstance(node, Conj):
        yield from _nodes(node.child)
    elif isinstance(node, Prod):
        for factor in node.factors:
            yield from _nodes(factor)


@dataclass(frozen=True)
class DetFormula:
    """A weighted sum of conjugation-product words equal to Det(U) when every
    slot holds the same U (for any signature with p + q = n).

    Read with its N slots as separate variables it is the F-function
    F(x1, ..., xN).  Construction checks that n is a dimension the package
    supports, that every term uses slots 1..N left to right, that every
    delta(j) exists at this n, and that the weights sum to 1.
    """

    n: int
    family: str
    variant: str
    terms: tuple[FormulaTerm, ...]

    def __post_init__(self):
        if not _MIN_N <= self.n <= _MAX_N:
            raise ValueError(f"formula n must be in [{_MIN_N}, {_MAX_N}], got {self.n}")
        m = self.n.bit_length()
        for term in self.terms:
            nodes = list(_nodes(term.tree))
            slots = [node.index for node in nodes if isinstance(node, Slot)]
            if slots != list(range(1, self.arity + 1)):
                raise ValueError(
                    f"term of {self.family} n={self.n} does not use slots "
                    f"1..{self.arity} left to right"
                )
            if any(isinstance(node, Conj) and (node.conj.j or 0) > m for node in nodes):
                raise ValueError(f"a delta(j) of {self.family} n={self.n} has j > {m}")
        if sum(t.weight for t in self.terms) != 1:
            raise ValueError(
                f"weights of {self.family} n={self.n} do not sum to 1"
            )

    @property
    def arity(self) -> int:
        return charpoly_degree(self.n)

    def evaluate(self, values) -> Multivector:
        """F(x1, ..., xN) on explicit per-slot multivectors.  F is linear in
        each slot, so with xi = Vi/Di it is F(V1, ..., VN) / (D1 * ... * DN)."""
        values = tuple(values)
        if len(values) != self.arity:
            raise ValueError(f"expected {self.arity} slot values, got {len(values)}")
        slots, dens = _slots(values)
        total, den = evaluate_terms(values[0].sig, self.terms, slots)
        return _to_multivector(values[0].sig, total[0], den * math.prod(dens))


# ---------------------------------------------------------------------------
# catalog

#: Conjugation names of the text notation; delta(j) is written ``delta<j>``.
_NAMES = {GRADE_INVOLUTION: "hat", REVERSION: "tilde", BAR: "bar"}
_BY_NAME = {name: conj for conj, name in _NAMES.items()}

_BAR_TWO_TERMS = (
    "1/3 * x1 * x2 * bar(x3 * x4)"
    " + 2/3 * x1 * bar(bar(x2) * bar(bar(x3) * bar(x4)))"
)
# The bar table with every slot replaced by H = U * reversion(U).
_BAR_TILDE_TWO_TERMS = (
    "1/3 * x1 * tilde(x2) * x3 * tilde(x4) * bar(x5 * tilde(x6) * x7 * tilde(x8))"
    " + 2/3 * x1 * tilde(x2) * bar(bar(x3 * tilde(x4))"
    " * bar(bar(x5 * tilde(x6)) * bar(x7 * tilde(x8))))"
)

_CATALOG_TEXT = {
    (1, "triangle", "standard"): "x1 * hat(x2)",
    (2, "triangle", "standard"): "x1 * hat(tilde(x2))",
    (3, "triangle", "standard"): "x1 * hat(x2) * tilde(x3) * hat(tilde(x4))",
    (3, "triangle", "reordered"): "tilde(x1) * hat(x2) * hat(tilde(x3)) * x4",
    (4, "triangle", "standard"):
        "x1 * hat(tilde(x2)) * delta3(hat(x3) * tilde(x4))",
    (5, "triangle", "standard"):
        "x1 * hat(tilde(x2)) * hat(x3) * tilde(x4)"
        " * delta3(hat(x5) * tilde(x6) * x7 * hat(tilde(x8)))",
    (6, "triangle", "standard"):
        "1/3 * x1 * tilde(x2) * hat(x3) * hat(tilde(x4))"
        " * delta3(hat(x5) * hat(tilde(x6)) * x7 * tilde(x8))"
        " + 2/3 * x1 * tilde(x2) * delta3(delta3(hat(x3) * hat(tilde(x4)))"
        " * delta3(delta3(hat(x5) * hat(tilde(x6))) * delta3(x7 * tilde(x8))))",
    (1, "bar", "standard"): "x1 * bar(x2)",
    (2, "bar", "standard"): "x1 * bar(x2)",
    (3, "bar", "standard"): _BAR_TWO_TERMS,
    (4, "bar", "standard"): _BAR_TWO_TERMS,
    (3, "bar_tilde", "standard"): "x1 * tilde(x2) * bar(x3 * tilde(x4))",
    (4, "bar_tilde", "standard"): "x1 * tilde(x2) * bar(x3 * tilde(x4))",
    (5, "bar_tilde", "standard"): _BAR_TILDE_TWO_TERMS,
    (6, "bar_tilde", "standard"): _BAR_TILDE_TWO_TERMS,
    # J * hat(J) * bar(J * hat(J)) with J = U * hat(tilde(U)), expanded so
    # every slot is explicit.
    (5, "bar_tilde_hat", "standard"):
        "x1 * hat(tilde(x2)) * hat(x3) * tilde(x4)"
        " * bar(x5 * hat(tilde(x6)) * hat(x7) * tilde(x8))",
}


def _read_formula(n: int, family: str, variant: str, text: str) -> DetFormula:
    """The DetFormula that ``format_formula`` prints as ``text``."""
    tokens = re.findall(r"\d+/\d+|\w+|\S", text)[::-1]  # pop() takes the next

    def expect(token: str) -> None:
        if tokens.pop() != token:
            raise ValueError(f"expected {token!r} in {text!r}")

    def product() -> Node:
        factors = [factor()]
        while tokens and tokens[-1] == "*":
            tokens.pop()
            factors.append(factor())
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def factor() -> Node:
        token = tokens.pop()
        if token == "(":
            node = product()
        elif re.fullmatch(r"x\d+", token):
            return Slot(int(token[1:]))
        else:
            conj = _BY_NAME.get(token) or delta(int(token.removeprefix("delta")))
            expect("(")
            node = Conj(conj, product())
        expect(")")
        return node

    terms = []
    while True:
        weight = 1
        if tokens[-1][0].isdigit():
            weight = Fraction(tokens.pop())
            expect("*")
        terms.append(FormulaTerm(weight, product()))
        if not tokens:
            return DetFormula(n, family, variant, tuple(terms))
        expect("+")


_CATALOG = {key: _read_formula(*key, text) for key, text in _CATALOG_TEXT.items()}


def det_formula(n: int, family: str = "triangle", variant: str = "standard") -> DetFormula:
    """Look up a cataloged determinant formula."""
    formula = _CATALOG.get((n, family, variant))
    if formula is None:
        options = ", ".join(
            f"{fam}/{var}" for (fn, fam, var) in sorted(_CATALOG) if fn == n
        )
        raise ValueError(
            f"no {family}/{variant} formula for n={n}; available: {options or 'none'}"
        )
    return formula


def available_formulas(n: int) -> tuple[DetFormula, ...]:
    """Every cataloged formula for dimension n."""
    return tuple(
        _CATALOG[key] for key in sorted(_CATALOG) if key[0] == n
    )


def default_bar_family(n: int) -> str:
    """The bar-operation family with the fewest terms available at this n."""
    return min((f for f in available_formulas(n) if f.family != "triangle"),
               key=lambda f: len(f.terms)).family


# ---------------------------------------------------------------------------
# evaluation on stacks


def _eval_node(sig, node: Node, values: Sequence):
    if isinstance(node, Slot):
        return values[node.index - 1]
    if isinstance(node, Conj):
        stack, top = _eval_node(sig, node.child, values)
        return stack * sig.conjugation_signs(node.conj), top
    result = _eval_node(sig, node.factors[0], values)
    for factor in node.factors[1:]:
        result = _product(sig, result, _eval_node(sig, factor, values))
    return result


def evaluate_terms(sig, terms: Sequence[FormulaTerm], slots: Sequence[tuple]):
    """The weighted sum of term trees, times the weights' common denominator
    den: returns (stack, den).  Each slot value is a pair (stack, top), the
    stack as in the module docstring and top an upper bound on max|stack|,
    None for a float stack."""
    den = common_denominator(term.weight for term in terms)
    if slots[0][1] is None:
        return _in_double_range("a float sum of formula terms", lambda: sum(
            int(term.weight * den) * _eval_node(sig, term.tree, slots)[0]
            for term in terms)), den
    weighted = [(int(term.weight * den), _eval_node(sig, term.tree, slots))
                for term in terms]
    if len(weighted) == 1 and weighted[0][0] == 1:
        return weighted[0][1][0], den
    # The sum's int64 bound: no partial sum exceeds sum |w| * max|term|.
    bound = sum(abs(w) * top for w, (_, top) in weighted)
    if bound >= 1 << 63:
        bound = sum(abs(w) * _max_abs(stack) for w, (stack, _) in weighted)
    dtype = _int_dtype(bound)
    return sum(w * stack.astype(dtype, copy=False) for w, (stack, _) in weighted), den


def _require_scalar(mv: Multivector, context: str) -> Scalar:
    if not mv.is_scalar():
        raise ConsistencyError(
            f"{context} produced a non-scalar result: {mv}"
        )
    return mv.scalar_part()


def _scalar(sig, row: np.ndarray, scale: int, context: str) -> Scalar:
    """The scalar part of row / scale once its grades >= 1 are shown to
    vanish: literally on an integer row, before anything is divided; by
    ``Multivector.is_scalar``'s tolerance on a float row."""
    if row.dtype == np.float64 or row[1:].any():
        return _require_scalar(_to_multivector(sig, row, scale), context)
    return int(row[0]) if scale == 1 else exact_ratio(int(row[0]), scale)


def _require_dimension(formula: DetFormula, u: Multivector) -> None:
    if u.sig.n != formula.n:
        raise ValueError(
            f"formula is for n={formula.n}, multivector lives in {u.sig}"
        )


def evaluate_det(formula: DetFormula, u: Multivector) -> Scalar:
    """Det(u) by substituting u into every slot of the formula.  With
    u = V/D, Det(u) = F(V, ..., V) / D**N."""
    _require_dimension(formula, u)
    (v,), (d,) = _slots((u,))
    total, den = evaluate_terms(u.sig, formula.terms, (v,) * formula.arity)
    return _scalar(
        u.sig, total[0], den * d ** formula.arity,
        f"{formula.family}/{formula.variant} determinant formula (n={formula.n})",
    )


def _adjugate_factors(term: FormulaTerm) -> tuple[Node, ...]:
    # Drop the bare common factor U from whichever end carries it.
    factors = term.tree.factors
    if isinstance(factors[0], Slot):
        return factors[1:]
    if isinstance(factors[-1], Slot):
        return factors[:-1]
    raise ConsistencyError("formula term has no bare slot at either end")


def evaluate_adjugate(formula: DetFormula, u: Multivector) -> Multivector:
    """Adj(u) = sum of weighted terms with the common factor U removed; each
    term has N - 1 slots, so with u = V/D the sum is divided by D**(N-1)."""
    _require_dimension(formula, u)
    terms = [FormulaTerm(t.weight, Prod(_adjugate_factors(t))) for t in formula.terms]
    (v,), (d,) = _slots((u,))
    total, den = evaluate_terms(u.sig, terms, (v,) * formula.arity)
    return _to_multivector(u.sig, total[0], den * d ** (formula.arity - 1))


# ---------------------------------------------------------------------------
# JSON term-tree format


def _node_to_json(node: Node) -> dict:
    if isinstance(node, Slot):
        return {"op": "slot", "index": node.index}
    if isinstance(node, Conj):
        out = {"op": "conjugation", "kind": node.conj.kind,
               "child": _node_to_json(node.child)}
        if node.conj.j is not None:
            out["j"] = node.conj.j
        return out
    return {"op": "product", "factors": [_node_to_json(f) for f in node.factors]}


def _typed(key: str, value, kind: type):
    """value, which must have exactly the JSON type ``kind``: a bool is not
    an int, and neither a float nor a string is coerced."""
    if type(value) is not kind:
        raise ValueError(f"formula JSON {key!r} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _node_from_json(data: dict) -> Node:
    op = data["op"]
    if op == "slot":
        return Slot(_typed("index", data["index"], int))
    if op == "conjugation":
        conj = Conjugation(data["kind"], data.get("j"))
        return Conj(conj, _node_from_json(data["child"]))
    if op == "product":
        return Prod(tuple(_node_from_json(f) for f in data["factors"]))
    raise ValueError(f"unknown term-tree op {op!r}")


def formula_to_json(formula: DetFormula) -> dict:
    """JSON-serializable term-tree form; weights are exact fraction strings."""
    return {
        "n": formula.n,
        "family": formula.family,
        "variant": formula.variant,
        "terms": [
            {"weight": str(t.weight), "tree": _node_to_json(t.tree)}
            for t in formula.terms
        ],
    }


def formula_from_json(data: dict) -> DetFormula:
    """The DetFormula a ``formula_to_json`` document describes; malformed
    input, such as a missing key, a value of the wrong type, a zero
    denominator or an unknown conjugation, raises ValueError."""
    try:
        terms = tuple(
            FormulaTerm(Fraction(_typed("weight", t["weight"], str)), _node_from_json(t["tree"]))
            for t in data["terms"]
        )
        return DetFormula(_typed("n", data["n"], int), _typed("family", data["family"], str),
                          _typed("variant", data.get("variant", "standard"), str), terms)
    except KeyError as exc:
        raise ValueError(f"formula JSON lacks the key {exc}") from None
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed formula JSON: {exc}") from None


def catalog_to_json() -> list[dict]:
    """The whole formula catalog, ordered by (n, family, variant)."""
    return [formula_to_json(_CATALOG[key]) for key in sorted(_CATALOG)]


def format_node(node: Node) -> str:
    """Compact human-readable rendering, e.g. 'x1 * hat(tilde(x2))'."""
    if isinstance(node, Slot):
        return f"x{node.index}"
    if isinstance(node, Conj):
        name = _NAMES.get(node.conj, str(node.conj))
        return f"{name}({format_node(node.child)})"
    return " * ".join(
        f"({format_node(f)})" if isinstance(f, Prod) else format_node(f)
        for f in node.factors
    )


def format_formula(formula: DetFormula) -> str:
    return " + ".join(
        (f"{t.weight} * " if t.weight != 1 else "") + format_node(t.tree)
        for t in formula.terms
    )
