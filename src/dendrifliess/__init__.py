"""Dendriform Fliess operators on decorated planar binary trees.

Symbolic layer: trees, the free dendriform algebra with exact rational
coefficients, parenthesis-word parsing.  Numeric layer: matrix signals,
non-commutative iterated integrals on a shared uniform grid, truncated
operator evaluation with convergence certificates, and the
Bernoulli/pre-Lie exponent recursion cross-checked against a Runge-Kutta
reference.
"""

from .algebra import (
    DendriformError,
    ParseError,
    TreePolynomial,
    char_trees,
    delta_to_tree,
    parse_dendriform_expr,
    pre_lie,
    prec,
    render_polynomial,
    render_tree_expr,
    shuffle,
    succ,
)
from .integrals import (
    EvaluationResult,
    TreeEvaluator,
    bound_left_comb,
    bound_tree_factorial,
    check_factorial_identity,
    check_product_identity,
    check_ubar_domination,
    evaluate_polynomial,
    evaluate_tree,
)
from .operators import (
    BRACKET_ORIENTATIONS,
    Certificate,
    GeneratingSeries,
    MagnusSeries,
    bernoulli,
    convergence_certificate,
    dyson_series,
    evaluate_fliess,
    finite_series,
    full_support_series,
    magnus_evaluate,
    magnus_generating_series,
    matrix_exp,
    product_connection,
    resolve_pre_lie_orientation,
    rk4_reference,
)
from .signals import (
    MatrixSignal,
    SignalError,
    constant_signal,
    random_smooth_signal,
    signal_from_csv,
    signal_norm,
    signal_to_csv,
    spin_field,
    ubar,
)
from .trees import (
    DLEAF,
    AlphabetError,
    DecoratedTree,
    EnumerationCapError,
    TreeError,
    catalan,
    decorate,
    enumerate_trees,
    foliation,
    graft,
    left_comb,
    parse_word,
    right_comb,
    skeleton,
    tree_factorial,
)

__version__ = "0.1.0"
