"""whfactor: exact Wiener-Hopf factorization of rational matrix symbols,
corona solvers over half-plane algebras, and Toeplitz operator diagnostics,
all in exact Q(i) arithmetic."""

from .ap import (
    APFactorization,
    MeanMotionResult,
    SplitUnavailable,
    ap_factor_via_rh,
    ap_factor_via_row,
    ap_project,
    ap_special,
    gap_split,
    mean_motion,
)
from .corona import (
    CoronaCertificate,
    CoronaFailure,
    Unresolved,
    corona_solve_ap,
    corona_solve_hplus,
    corona_solve_mplus,
    make_ap_solver,
    make_rational_solver,
)
from .exact_linalg import (
    Completion,
    Diagnosis,
    MinorVector,
    adjoint_submatrix,
    complete,
    delta_left_inverse_from_psi,
    field_bezout_solver,
    left_inverse_corank1,
    left_inverse_general,
    maximal_minors,
    omitted_row_minors,
    one_sided_diagnose,
)
from .fredholm import (
    FredholmReport,
    classify,
    continuous_except_line,
    report_from_indices,
    scalar_symbol_report,
    special_orthogonal,
    special_unitary,
)
from .matrices import AP, MIXED, POLY, QI, RAT, Ring, RingMatrix
from .matrix_wh import (
    VerificationReport,
    WHFactorization,
    apply_inverse,
    factor_via_column,
    factor_via_rh,
    factor_via_row,
    toeplitz_apply,
    verify_factorization,
)
from .rings import (
    DEFAULT_TOL,
    APPoly,
    FactoredRational,
    GaussianRational,
    MixedFunction,
    Polynomial,
    RationalFunction,
    expand,
    factor_numeric,
    mobius_from_disk,
    mobius_to_disk,
    normalize,
)
from .scalar_wh import (
    ProjectionResult,
    ScalarWH,
    partial_fractions,
    pole_split,
    r_function,
    riesz_project,
    wh_factor_scalar,
    winding_exact,
    winding_numeric,
)

__version__ = "0.1.0"
