"""Exact weighted-shift calculus for quasihomogeneous Toeplitz operators
on the Bergman space of the unit disk.

The package represents each operator by the weights of its shift action on
the monomial basis, keeps every weight as an exact rational function times
a canonical Gamma quotient, and verifies commutant statements by exact
linear algebra at truncation scale with certified interval numerics on the
side.
"""

from .exact_algebra import (
    ExprSyntaxError,
    PoleError,
    Polynomial,
    Rational,
    RationalFunction,
    ZeroDenominatorError,
    format_rational,
    format_rational_function,
    parse_rational,
    parse_rational_function,
    poly_gcd,
    rf_arith,
    rf_eval,
    rf_normalize,
    rf_shift,
)
from .gamma_ratio import (
    BallValue,
    GammaRatioExpr,
    WeightExpr,
    canonicalize,
    dissimilar,
    eval_ball,
    is_rational_divisibility,
    power_weight,
    rationality_oracle,
    separating_term,
)
from .identities import IdentityReport, SCENARIOS, build_sides, verify_identity
from .mellin import (
    MellinImage,
    QuadratureResult,
    RadialSymbol,
    bergman_quadrature_oracle,
    format_symbol,
    mellin_transform,
    parse_symbol,
    toeplitz_weight,
)
from .quadrature import QuadratureError, integrate_adaptive
from .shift_algebra import (
    BasisVector,
    EqualityVerdict,
    ShiftSum,
    ZeroVerdict,
    apply_to_basis,
    commutator,
    compose,
    is_zero,
    linear_combine,
    op_equal,
    quasihomogeneous_operator,
    root_operator,
)
from .solver import (
    CommutantProblem,
    ExactLinearSystem,
    NullspaceReport,
    ScanReport,
    TheoremReport,
    build_system,
    commuting_pair,
    match_root_power,
    monomial_weight,
    nullspace,
    scan,
    verify_theorem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
