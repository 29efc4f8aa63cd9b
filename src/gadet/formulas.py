"""Closed-form determinant and adjugate formulas for n = 1..6.

Each formula is stored as data, not code: a list of weighted term trees whose
leaves are numbered occurrence slots (slot i is the i-th factor, counted left
to right).  Substituting the same multivector into every slot evaluates the
determinant; the Vieta machinery reuses the same trees with identity elements
substituted into slot subsets.  Four families are cataloged:

* ``triangle``      -- grade involution / reversion / delta conjugations,
* ``bar``           -- the bar operation only,
* ``bar_tilde``     -- bar plus reversion,
* ``bar_tilde_hat`` -- bar plus reversion plus grade involution.

Trees keep each formula's written parenthesization; no algebraic
simplification is performed.  The catalog is exportable as a documented JSON
term-tree format (see ``formula_to_json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .algebra import (
    BAR,
    GRADE_INVOLUTION,
    REVERSION,
    Conjugation,
    Multivector,
    Scalar,
    charpoly_degree,
    delta,
)
from .errors import ConsistencyError, FloatRangeError

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
    weight: Fraction
    tree: Node


@dataclass(frozen=True)
class DetFormula:
    """A weighted sum of conjugation-product words equal to Det(U) when every
    slot holds the same U (for any signature with p + q = n)."""

    n: int
    family: str
    variant: str
    terms: tuple[FormulaTerm, ...]

    @property
    def arity(self) -> int:
        return charpoly_degree(self.n)


def _slot_indices(node: Node) -> list[int]:
    if isinstance(node, Slot):
        return [node.index]
    if isinstance(node, Conj):
        return _slot_indices(node.child)
    return [i for f in node.factors for i in _slot_indices(f)]


def _validate(formula: DetFormula) -> DetFormula:
    N = formula.arity
    for term in formula.terms:
        if _slot_indices(term.tree) != list(range(1, N + 1)):
            raise ValueError(
                f"term of {formula.family} n={formula.n} does not use slots "
                f"1..{N} left to right"
            )
    if sum(t.weight for t in formula.terms) != 1:
        raise ValueError(
            f"weights of {formula.family} n={formula.n} do not sum to 1"
        )
    return formula


# ---------------------------------------------------------------------------
# catalog

_HAT = GRADE_INVOLUTION
_TILDE = REVERSION


class _Slots:
    """Doles out slot leaves in left-to-right construction order."""

    def __init__(self):
        self.count = 0

    def __call__(self) -> Slot:
        self.count += 1
        return Slot(self.count)


def _h(x: Node) -> Node:
    return Conj(_HAT, x)


def _t(x: Node) -> Node:
    return Conj(_TILDE, x)


def _ht(x: Node) -> Node:
    return Conj(_HAT, Conj(_TILDE, x))


def _d3(x: Node) -> Node:
    return Conj(delta(3), x)


def _bar(x: Node) -> Node:
    return Conj(BAR, x)


def _p(*factors: Node) -> Prod:
    return Prod(tuple(factors))


def _term(weight, tree: Node) -> FormulaTerm:
    return FormulaTerm(Fraction(weight), tree)


def _triangle_terms(n: int, variant: str) -> tuple[FormulaTerm, ...]:
    s = _Slots()
    if n == 1:
        return (_term(1, _p(s(), _h(s()))),)
    if n == 2:
        return (_term(1, _p(s(), _ht(s()))),)
    if n == 3 and variant == "standard":
        return (_term(1, _p(s(), _h(s()), _t(s()), _ht(s()))),)
    if n == 3 and variant == "reordered":
        return (_term(1, _p(_t(s()), _h(s()), _ht(s()), s())),)
    if n == 4:
        return (_term(1, _p(s(), _ht(s()), _d3(_p(_h(s()), _t(s()))))),)
    if n == 5:
        return (_term(1, _p(
            s(), _ht(s()), _h(s()), _t(s()),
            _d3(_p(_h(s()), _t(s()), s(), _ht(s()))),
        )),)
    if n == 6:
        first = _term(Fraction(1, 3), _p(
            s(), _t(s()), _h(s()), _ht(s()),
            _d3(_p(_h(s()), _ht(s()), s(), _t(s()))),
        ))
        s = _Slots()
        second = _term(Fraction(2, 3), _p(
            s(), _t(s()),
            _d3(_p(
                _d3(_p(_h(s()), _ht(s()))),
                _d3(_p(_d3(_p(_h(s()), _ht(s()))), _d3(_p(s(), _t(s()))))),
            )),
        ))
        return (first, second)
    raise AssertionError(n)


def _bar_terms(n: int) -> tuple[FormulaTerm, ...]:
    s = _Slots()
    if n in (1, 2):
        return (_term(1, _p(s(), _bar(s()))),)
    # n = 3, 4: identical two-term tables.
    first = _term(Fraction(1, 3), _p(s(), s(), _bar(_p(s(), s()))))
    s = _Slots()
    second = _term(Fraction(2, 3), _p(
        s(), _bar(_p(_bar(s()), _bar(_p(_bar(s()), _bar(s()))))),
    ))
    return (first, second)


def _bar_tilde_terms(n: int) -> tuple[FormulaTerm, ...]:
    s = _Slots()
    if n in (3, 4):
        return (_term(1, _p(s(), _t(s()), _bar(_p(s(), _t(s()))))),)
    # n = 5, 6: identical two-term tables built from H = U * reversion(U).
    first = _term(Fraction(1, 3), _p(
        s(), _t(s()), s(), _t(s()),
        _bar(_p(s(), _t(s()), s(), _t(s()))),
    ))
    s = _Slots()
    second = _term(Fraction(2, 3), _p(
        s(), _t(s()),
        _bar(_p(
            _bar(_p(s(), _t(s()))),
            _bar(_p(_bar(_p(s(), _t(s()))), _bar(_p(s(), _t(s()))))),
        )),
    ))
    return (first, second)


def _bar_tilde_hat_terms() -> tuple[FormulaTerm, ...]:
    # n = 5 only: J * hat(J) * bar(J * hat(J)) with J = U * hat(tilde(U)),
    # stored in expanded form so every slot is explicit.
    s = _Slots()
    return (_term(1, _p(
        s(), _ht(s()), _h(s()), _t(s()),
        _bar(_p(s(), _ht(s()), _h(s()), _t(s()))),
    )),)


def _build_catalog() -> dict[tuple[int, str, str], DetFormula]:
    catalog: dict[tuple[int, str, str], DetFormula] = {}

    def add(formula: DetFormula) -> None:
        catalog[(formula.n, formula.family, formula.variant)] = _validate(formula)

    for n in range(1, 7):
        add(DetFormula(n, "triangle", "standard", _triangle_terms(n, "standard")))
    add(DetFormula(3, "triangle", "reordered", _triangle_terms(3, "reordered")))
    for n in range(1, 5):
        add(DetFormula(n, "bar", "standard", _bar_terms(n)))
    for n in range(3, 7):
        add(DetFormula(n, "bar_tilde", "standard", _bar_tilde_terms(n)))
    add(DetFormula(5, "bar_tilde_hat", "standard", _bar_tilde_hat_terms()))
    return catalog


_CATALOG = _build_catalog()


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
    if n <= 2:
        return "bar"
    if n == 5:
        return "bar_tilde_hat"
    return "bar_tilde"


# ---------------------------------------------------------------------------
# evaluation


def _eval_node(node: Node, values: Sequence[Multivector]) -> Multivector:
    if isinstance(node, Slot):
        return values[node.index - 1]
    if isinstance(node, Conj):
        return _eval_node(node.child, values).conjugate(node.conj)
    result = _eval_node(node.factors[0], values)
    for factor in node.factors[1:]:
        result = result * _eval_node(factor, values)
    return result


def evaluate_terms(
    terms: Sequence[FormulaTerm], values: Sequence[Multivector]
) -> Multivector:
    """The weighted sum of term trees on explicit per-slot values."""
    total = None
    for term in terms:
        contribution = _eval_node(term.tree, values) * term.weight
        total = contribution if total is None else total + contribution
    return total


def _require_scalar(mv: Multivector, context: str) -> Scalar:
    if not mv.is_scalar():
        if mv.is_float and not all(map(math.isfinite, mv.coeffs)):
            raise FloatRangeError(
                f"{context} left the float range (inf or nan coefficients)"
            )
        raise ConsistencyError(
            f"{context} produced a non-scalar result: {mv}"
        )
    return mv.scalar_part()


def evaluate_det(formula: DetFormula, u: Multivector) -> Scalar:
    """Det(u) by substituting u into every slot of the formula."""
    if u.sig.n != formula.n:
        raise ValueError(
            f"formula is for n={formula.n}, multivector lives in {u.sig}"
        )
    value = evaluate_terms(formula.terms, (u,) * formula.arity)
    return _require_scalar(
        value, f"{formula.family}/{formula.variant} determinant formula (n={formula.n})"
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
    """Adj(u) = sum of weighted terms with the common factor U removed."""
    if u.sig.n != formula.n:
        raise ValueError(
            f"formula is for n={formula.n}, multivector lives in {u.sig}"
        )
    values = (u,) * formula.arity
    total = None
    for term in formula.terms:
        word = _eval_node(Prod(_adjugate_factors(term)), values)
        contribution = word * term.weight
        total = contribution if total is None else total + contribution
    return total


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


def _node_from_json(data: dict) -> Node:
    op = data["op"]
    if op == "slot":
        return Slot(int(data["index"]))
    if op == "conjugation":
        kind = data["kind"]
        conj = Conjugation(kind, int(data["j"])) if kind == "delta" else Conjugation(kind)
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
    terms = tuple(
        FormulaTerm(Fraction(t["weight"]), _node_from_json(t["tree"]))
        for t in data["terms"]
    )
    return _validate(
        DetFormula(int(data["n"]), data["family"], data.get("variant", "standard"), terms)
    )


def catalog_to_json() -> list[dict]:
    """The whole formula catalog, ordered by (n, family, variant)."""
    return [formula_to_json(_CATALOG[key]) for key in sorted(_CATALOG)]


def format_node(node: Node) -> str:
    """Compact human-readable rendering, e.g. 'x1 * hat(tilde(x2))'."""
    if isinstance(node, Slot):
        return f"x{node.index}"
    if isinstance(node, Conj):
        name = {"grade_involution": "hat", "reversion": "tilde", "bar": "bar"}.get(
            node.conj.kind, f"delta{node.conj.j}"
        )
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
