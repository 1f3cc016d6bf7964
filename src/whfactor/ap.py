"""Almost periodic layer: frequency-sign projections, mean motion, and
exponential-diagonal factorization of almost periodic polynomial matrices.

The factorization routes run the rational routes' assembly from
matrix_wh with r**k replaced by the exponential e_kappa (kappa the mean
motion of the determinant) and the weighted projections by frequency-sign
splits.  In the omitted-row route the off-diagonal scalar must split as
x_minus + e_kappa * x_plus with nonpositive / nonnegative frequency
supports, which is possible exactly when it has no frequency strictly
inside (0, kappa); when that spectral gap fails the route reports the
offending frequencies instead of claiming a factorization.  In the boundary-relation route the correction term is
shifted downward by e_{-kappa}, which keeps its support nonpositive, so
that route never needs the gap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar

from .errors import HypothesisViolation, MembershipViolation, NearZeroOnContour, ZeroInput
from .corona import CoronaCertificate, CoronaFailure, Unresolved, corona_solve_ap
from .fredholm import FredholmReport, _unitary_or_orthogonal
from .matrices import AP, RingMatrix, _require_inside
from .matrix_wh import (
    _assemble_rh,
    _assemble_row,
    _check_rh_certificate,
    _check_row_certificate,
    _diagonal,
    _move_last_perm,
    _require_square,
    _SymbolAlgebra,
)
from .rings import DEFAULT_TOL, APPoly, GaussianRational
from .scalar_wh import _argument_increment


@dataclass(frozen=True)
class APFactorization:
    """Exact triple g_minus * diag(e_mu_j) * g_plus == G in the almost
    periodic polynomial ring; g_plus supports are >= 0, g_minus <= 0, and
    both determinants are nonzero constants."""

    g_minus: RingMatrix
    partial_ap_indices: tuple[Fraction, ...]
    g_plus: RingMatrix
    trace: dict = field(default_factory=dict)

    def d_matrix(self) -> RingMatrix:
        return _diagonal(AP, [APPoly.e(mu) for mu in self.partial_ap_indices])

    def reconstruct(self) -> RingMatrix:
        return self.g_minus * self.d_matrix() * self.g_plus


@dataclass
class SplitUnavailable:
    """The triangular split needs frequencies outside (0, kappa); these are
    inside.  No claim is made about factorability by other means."""

    offending: tuple[Fraction, ...]
    kappa: Fraction
    reason: str = "off-diagonal scalar has frequencies inside the spectral gap"
    status: ClassVar[str] = "split-unavailable"


@dataclass(frozen=True)
class MeanMotionResult:
    kappa: Fraction | None
    method: str  # monomial | dominant-coefficient | numeric-estimate
    note: str = ""


def ap_project(p: APPoly, half: str) -> APPoly:
    """Frequency-sign projection; the zero-frequency term goes to '+'."""
    p = APPoly.coerce(p)
    if half == "+":
        return APPoly([(f, c) for f, c in p.terms if f >= 0])
    if half == "-":
        return APPoly([(f, c) for f, c in p.terms if f < 0])
    raise ValueError("half must be '+' or '-'")


# sample count of the numeric winding estimate on the unit circle
_MEAN_MOTION_GRID = 512


def mean_motion(p: APPoly, tol: float = DEFAULT_TOL) -> MeanMotionResult:
    """Average winding rate of an invertible almost periodic polynomial.

    Exact for monomials and for polynomials with a strictly dominant
    coefficient; otherwise estimated from the winding of the associated
    Laurent polynomial on the unit circle (rational frequencies make the
    function periodic), flagged as an estimate.
    """
    p = APPoly.coerce(p)
    if p.is_zero:
        raise ZeroInput("mean motion of the zero function")
    if p.is_monomial:
        return MeanMotionResult(p.terms[0][0], "monomial")
    dom = p.dominant_frequency()
    if dom is not None:
        return MeanMotionResult(dom, "dominant-coefficient")

    denominators = [f.denominator for f in p.support]
    b = 1
    for d in denominators:
        b = b * d // math.gcd(b, d)
    exponents = [(f * b, c.to_complex()) for f, c in p.terms]

    def laurent(theta: float) -> complex:
        z = cmath.exp(1j * theta)
        return sum(c * z ** int(m) for m, c in exponents)

    thetas = [2 * math.pi * (j + 0.5) / _MEAN_MOTION_GRID for j in range(_MEAN_MOTION_GRID)]
    try:
        total = _argument_increment(laurent, thetas, tol, 40)
    except NearZeroOnContour:
        return MeanMotionResult(
            None,
            "numeric-estimate",
            "function nearly vanishes on the line; likely not invertible",
        )
    wind = total / (2 * math.pi)
    nearest = round(wind)
    if abs(wind - nearest) > 1e-6:
        return MeanMotionResult(
            None, "numeric-estimate", "winding estimate is not near an integer"
        )
    return MeanMotionResult(Fraction(int(nearest), b), "numeric-estimate")


def _constant_appoly(p) -> GaussianRational:
    p = APPoly.coerce(p)
    if p.is_zero:
        raise HypothesisViolation("determinant factor must be a nonzero constant")
    if not (p.is_monomial and p.terms[0][0] == 0):
        raise HypothesisViolation(
            "determinant factors must be constants for an exact polynomial factorization"
        )
    return p.terms[0][1]


def _resolve_det_factorization(det: APPoly, det_factorization):
    """Return (gamma_minus, kappa, gamma_plus) as constants with
    gamma_minus * e_kappa * gamma_plus == det."""
    if det_factorization is None:
        if not det.is_monomial:
            raise HypothesisViolation(
                "det G is not a monomial; supply a scalar factorization"
            )
        kappa, coeff = det.terms[0]
        return coeff, kappa, GaussianRational.coerce(1)
    gm, kappa, gp = det_factorization
    gm = _constant_appoly(gm)
    gp = _constant_appoly(gp)
    kappa = Fraction(kappa)
    if not APPoly.e(kappa, gm * gp) == det:
        raise HypothesisViolation(
            "supplied scalar factorization does not reconstruct det G"
        )
    return gm, kappa, gp


def gap_split(q: APPoly, kappa: Fraction):
    """Split q = x_minus + e_kappa * x_plus with supp(x_minus) <= 0 and
    supp(x_plus) >= 0; returns (x_minus, x_plus, offending frequencies)."""
    q = APPoly.coerce(q)
    kappa = Fraction(kappa)
    offending = tuple(f for f in q.support if 0 < f < kappa)
    if offending:
        return None, None, offending
    threshold = kappa if kappa > 0 else Fraction(0)
    x_plus = APPoly([(f - kappa, c) for f, c in q.terms if f >= threshold])
    x_minus = APPoly([(f, c) for f, c in q.terms if f < threshold])
    if not x_minus + APPoly.e(kappa) * x_plus == q:
        raise AssertionError("frequency split failed to recombine")
    return x_minus, x_plus, ()


def _ap_split_rh(u: APPoly, tol):
    return ap_project(u, "+"), ap_project(u, "-")


_AP_SYMBOLS = _SymbolAlgebra(
    AP,
    lambda q, kappa, tol: gap_split(q, kappa),
    _ap_split_rh,
    APPoly.e,
    APFactorization,
    SplitUnavailable,
)


def ap_factor_via_row(
    G: RingMatrix,
    omitted_row: int,
    phi_plus: RingMatrix,
    det_factorization=None,
):
    """Exponential-diagonal factorization from a right inverse of the
    nonnegative-frequency row complement; subject to the spectral gap."""
    n = _require_square(G, AP)
    perm, inv_perm, sign = _move_last_perm(n, omitted_row)
    Gp = G.permute_rows(perm)
    _check_row_certificate(Gp.submatrix(range(n - 1), range(n)), phi_plus)
    if det_factorization is not None:
        gm_c, kappa, gp_c = _resolve_det_factorization(G.det(), det_factorization)
        gm_c = gm_c * sign
    else:
        gm_c, kappa, gp_c = _resolve_det_factorization(Gp.det(), None)

    return _assemble_row(
        _AP_SYMBOLS, G, Gp, inv_perm, phi_plus,
        APPoly.coerce(gm_c), APPoly.coerce(gp_c), kappa, None,
        lambda q_row, minus_row, plus_row: {
            "route": "ap-row",
            "omitted_row": omitted_row,
            "split_minus": minus_row,
            "split_plus": plus_row,
            "kappa": kappa,
        },
    )


def ap_factor_via_rh(
    G: RingMatrix,
    phi_plus: RingMatrix,
    phi_minus: RingMatrix,
    psi_plus: RingMatrix,
    psi_minus: RingMatrix,
    det_factorization=None,
):
    """Exponential-diagonal factorization from a boundary-relation pair
    G*phi_plus = phi_minus of frequency-signed solutions, kappa >= 0.

    The minus-side correction is shifted by e_{-kappa} and stays
    nonpositive-frequency, so the construction succeeds whenever the
    hypotheses hold: no spectral-gap refusal arises on this route.
    """
    _require_square(G, AP)
    _check_rh_certificate(G, phi_plus, phi_minus, psi_plus, psi_minus)
    det = G.det()
    gm_c, kappa, gp_c = _resolve_det_factorization(det, det_factorization)
    if kappa < 0:
        raise HypothesisViolation("boundary-relation route requires kappa >= 0")

    return _assemble_rh(
        _AP_SYMBOLS, G, det, phi_plus, phi_minus, psi_plus, psi_minus,
        APPoly.coerce(gm_c), APPoly.coerce(gp_c), kappa, None,
        lambda q_col: {
            "route": "ap-rh",
            "kappa": kappa,
            "split_note": "minus correction shifted by e_{-kappa}; no gap condition arises",
        },
    )


def ap_special(G: RingMatrix, mode: str, tol: float = DEFAULT_TOL) -> FredholmReport:
    """Invertibility verdict for unitary / complex-orthogonal almost periodic
    polynomial symbols with constant determinant, via the partial corona
    solver on the last row; Unresolved propagates as an honest unknown."""
    n = _require_square(G, AP)
    _unitary_or_orthogonal(G, mode)
    half = "-" if mode == "unitary" else "+"
    tag = f"ap-{mode}-constant-det"
    _require_inside(
        G.submatrix(range(n - 1), range(n)), "+", tol, HypothesisViolation, "row complement"
    )
    last_row = [G[n - 1, j] for j in range(n)]
    try:
        verdict = corona_solve_ap(last_row, half, tol)
    except MembershipViolation as exc:
        raise HypothesisViolation(str(exc)) from None
    if isinstance(verdict, CoronaCertificate):
        report = FredholmReport(
            fredholm="yes",
            dim_ker=0,
            dim_coker=0,
            index=0,
            equivalence="none-established",
            justification=tag,
            coburn="both",
            notes=["operator invertible for every exponent"],
        )
        if not verdict.exact:
            report.notes.append(
                "corona certificate in declared-approximation form; residual bound "
                f"{verdict.residual_bound} still witnesses the corona condition"
            )
        return report
    if isinstance(verdict, CoronaFailure):
        return FredholmReport(
            fredholm="unknown",
            justification=tag,
            notes=[
                "last-row corona condition fails; the sufficient criterion makes no claim",
                f"witness: {verdict.witness}",
            ],
        )
    assert isinstance(verdict, Unresolved)
    return FredholmReport(
        fredholm="unknown",
        justification=tag,
        notes=["corona solver unresolved: " + verdict.reason],
    )
