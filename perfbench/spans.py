"""Span tracing of gadet's public entry points, installed from outside.

The tracer replaces each traced function with a wrapper in every gadet
module (and class) that holds it, because a name imported into several
modules is looked up in the caller's module: wrapping only the defining
module would let calls from the others bypass the span.  Spans are kept in
memory as tuples and aggregated or written out when the run ends.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns

# (span name, module, attribute) for every traced function.  Class members
# are written "Class.method".  The Multivector operators and conjugate are
# the algebra layer; the rest are the public entry points of each module.
TRACED = (
    ("cli.parse", "cli", "parse_multivector"),
    ("algebra.product", "algebra", "Multivector.__mul__"),
    ("algebra.addsub", "algebra", "Multivector.__add__"),
    ("algebra.addsub", "algebra", "Multivector.__sub__"),
    ("algebra.conjugate", "algebra", "Multivector.conjugate"),
    ("charpoly.fl", "charpoly", "det_fl"),
    ("charpoly.fl", "charpoly", "fl_coefficients"),
    ("charpoly.fl", "charpoly", "inverse"),
    ("charpoly.fl", "charpoly", "adjugate"),
    ("charpoly.interp", "charpoly", "charpoly_interp"),
    ("formulas.evaluate", "formulas", "evaluate_det"),
    ("formulas.evaluate", "formulas", "evaluate_terms"),
    ("vieta", "vieta", "vieta_all"),
    ("vieta", "vieta", "vieta_coefficient"),
    # Representation.__init__ runs only on a cache miss of
    # build_representation, so its spans are the builds themselves.
    ("matrix_rep.build", "matrix_rep", "Representation.__init__"),
    ("matrix_rep.represent", "matrix_rep", "represent"),
    ("matrix_rep.det", "matrix_rep", "det_matrix"),
    ("matrix_rep.charpoly", "matrix_rep", "charpoly_matrix"),
    ("matrix_rep.eigen", "matrix_rep", "eigenvalues"),
)

MODULES = ("algebra", "charpoly", "formulas", "vieta", "matrix_rep", "cli")


def _max_bits(coeffs) -> int:
    """Largest numerator or denominator bit length of exact coefficients."""
    best = 0
    for c in coeffs:
        if type(c) is int:
            bits = c.bit_length()
        elif type(c) is float:
            continue
        else:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
        if bits > best:
            best = bits
    return best


class Tracer:
    """Records one span per traced call while ``active`` is true.

    A span is (op, parent, name, start_ns, end_ns): ``op`` identifies the
    benchmark operation that caused it (-1 during set-up), ``parent`` is the
    index of the enclosing span or -1.
    """

    def __init__(self, gadet):
        self.gadet = gadet
        self.active = False
        self.op = -1
        self.spans: list = []
        self.max_bits = 0
        self._stack: list[int] = []
        self._patched: list = []

    def install(self) -> None:
        multivector = self.gadet.algebra.Multivector
        # Every holder of a traced function object: the package, each module,
        # and the classes (Multivector.__radd__ is __add__).
        holders = ([self.gadet] + [getattr(self.gadet, m) for m in MODULES]
                   + [multivector, self.gadet.matrix_rep.Representation])
        for name, module, attr in TRACED:
            home = getattr(self.gadet, module)
            if "." in attr:
                owner_name, member = attr.split(".")
                owner = getattr(home, owner_name)
                original = owner.__dict__[member]
            else:
                original = getattr(home, attr)
            if original is multivector.__dict__["__mul__"]:
                wrapper = self._wrap_product(original)
            else:
                wrapper = self._wrap(name, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patched.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def _enter(self) -> tuple[int, int]:
        stack = self._stack
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        return index, parent

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index, parent = tracer._enter()
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (tracer.op, parent, name, start, end)

        return wrapper

    def _wrap_product(self, fn):
        # Only multivector x multivector is a product span; scaling by a
        # number stays in the caller's self time.
        tracer = self
        multivector = self.gadet.algebra.Multivector

        @functools.wraps(fn)
        def wrapper(a, b):
            if not tracer.active or not isinstance(b, multivector):
                return fn(a, b)
            index, parent = tracer._enter()
            start = perf_counter_ns()
            try:
                result = fn(a, b)
            finally:
                end = perf_counter_ns()
                tracer._stack.pop()
                tracer.spans[index] = (tracer.op, parent, "algebra.product",
                                       start, end)
            # Like every other span metric, max_bits covers the traced pass
            # only, not the warm-up (op -1).
            if tracer.op >= 0:
                bits = _max_bits(result.coeffs)
                if bits > tracer.max_bits:
                    tracer.max_bits = bits
            return result

        return wrapper

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds over the spans
        of benchmark operations, plus every build span (builds are paid in
        set-up)."""
        child_ns = [0] * len(self.spans)
        for op, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for index, (op, _, name, start, end) in enumerate(self.spans):
            if op < 0 and name != "matrix_rep.build":
                continue
            entry = totals.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["busy_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[index]
        return {
            name: {"calls": e["calls"], "busy_s": e["busy_ns"] / 1e9,
                   "self_s": e["self_ns"] / 1e9}
            for name, e in totals.items()
        }

    def write(self, path: str, header: dict) -> None:
        """One JSON header line, then one JSON array per span."""
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
