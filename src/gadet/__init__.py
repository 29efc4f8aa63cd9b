"""Determinants, adjugates, inverses, and characteristic polynomials of
multivectors in the real Clifford geometric algebras G(p, q), n = p + q <= 6,
computed by four mutually cross-validating methods over an exact rational
backend (with an optional float backend)."""

from .algebra import (
    ABS_TOL,
    BAR,
    GRADE_INVOLUTION,
    REL_TOL,
    REVERSION,
    Conjugation,
    Multivector,
    Signature,
    all_signatures,
    charpoly_degree,
    close,
    delta,
    random_multivector,
)
from .charpoly import (
    CharPoly,
    adjugate,
    charpoly_interp,
    det_fl,
    fl_coefficients,
    inverse,
)
from .errors import (
    ConsistencyError,
    FloatRangeError,
    GadetError,
    NonConvergenceError,
    NotGenericError,
    NotInvertibleError,
    ParseError,
    SignatureMismatchError,
)
from .formulas import (
    DetFormula,
    FormulaTerm,
    available_formulas,
    catalog_to_json,
    default_bar_family,
    det_formula,
    evaluate_adjugate,
    evaluate_det,
    formula_from_json,
    formula_to_json,
)
from .matrix_rep import (
    build_representation,
    charpoly_matrix,
    det_matrix,
    eigenvalues,
    represent,
)
from .vieta import (
    EigenComparison,
    GelfandRetakhSet,
    coefficients_from_roots,
    eigen_compare,
    f_function,
    gelfand_retakh_ys,
    vieta_all,
    vieta_coefficient,
)

__version__ = "0.1.0"
