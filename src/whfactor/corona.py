"""Corona membership and explicit Bezout solutions in the rational
subalgebras of the half-plane algebras, and a partial solver for almost
periodic polynomial tuples.

All half-plane solving happens on the unit disk via the fixed Mobius
substitution: the half-plane maps onto the open disk, the extended real
line onto the circle (infinity to the point 1), so every boundary case is
an ordinary point.  The Bezout engine is a multi-argument extended gcd of
the transplanted numerators over a common denominator; the tuple is
solvable exactly when the gcd has no root in the closed disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import ClassVar

from .errors import MembershipViolation, RootClassificationAmbiguous
from .matrices import _require_inside
from .rings import (
    DEFAULT_TOL,
    APPoly,
    FactoredRational,
    GaussianRational,
    I,
    ONE,
    ZERO,
    RationalFunction,
    _locate_roots,
    _poly_roots,
    egcd_many,
    half_plane_of_root,
    mobius_from_disk,
    mobius_to_disk,
)
from .scalar_wh import wh_factor_scalar

INFINITY = "infinity"

# the declared-approximation target for the almost periodic geometric series
_AP_TARGET_RESIDUAL = Fraction(1, 2**40)


@dataclass
class CoronaCertificate:
    """Bezout solution sum(solution[j] * h[j]) == 1 in the tagged algebra.

    For the mixed half-plane algebras the certificate also carries the
    extracted invertible-rational factor and the analytic tuple it leaves
    behind (input[j] == gr_factor * hct_tuple[j]), with the factor further
    split into lower/upper-analytic parts and a power of r.

    Almost periodic certificates may be declared approximations: then
    residual == 1 - sum(solution[j] * h[j]) is reported exactly together
    with an exact upper bound on its coefficient-sum norm.
    """

    solution: list
    algebra: str
    gr_factor: RationalFunction | None = None
    hct_tuple: list | None = None
    gr_split: tuple | None = None
    exact: bool = True
    residual: APPoly | None = None
    residual_bound: Fraction | None = None
    status: ClassVar[str] = "certificate"


@dataclass
class CoronaFailure:
    """Common-zero witness: a point of the closed region (or the marker
    'infinity'), or a non-invertible common factor for almost periodic input."""

    witness: object
    reason: str
    status: ClassVar[str] = "failure"


@dataclass
class Unresolved:
    """Honest boundary of the implemented fragment (almost periodic solving)."""

    reason: str
    status: ClassVar[str] = "unresolved"
    notes: list = field(default_factory=list)


def _checked_tuple(h, coerce, half, tol: float):
    """The tuple with each entry coerced, after the checks every solver
    shares: it is not empty (MembershipViolation), its entries lie in the
    algebra (half '+' or '-', None for bounded on the line), and they do not
    all vanish (then the CoronaFailure is returned instead)."""
    h = [coerce(f) for f in h]
    if not h:
        raise MembershipViolation("empty tuple")
    _require_inside(h, half, tol, MembershipViolation, "tuple")
    if all(f.is_zero for f in h):
        return CoronaFailure(None, "zero tuple vanishes identically")
    return h


def _certified(solution, h, algebra: str) -> CoronaCertificate:
    """The certificate for solution after checking sum(g * f) == 1 exactly."""
    total = RationalFunction(0)
    for g, f in zip(solution, h):
        total = total + g * f
    if not total == RationalFunction(1):
        raise AssertionError("Bezout identity failed to verify")
    return CoronaCertificate(solution, algebra)


def _disk_common_root(d, tol: float):
    """First root of d in the closed unit disk, or None.  Prefers circle
    points (they witness extended-real-line zeros).  Only closeness to the
    circle is refused: the real axis of the disk is the image of the
    imaginary axis of the half-plane and is not special here."""
    if d.degree <= 0:
        return None
    boundary = None
    interior = None
    for root, _ in _locate_roots(d, tol):
        if isinstance(root, GaussianRational):
            a2 = root.abs2()
            if a2 == 1:
                boundary = boundary or root
            elif a2 < 1:
                interior = interior or root
        else:
            a = abs(root)
            if abs(a - 1.0) < tol:
                raise RootClassificationAmbiguous(
                    f"gcd root too close to the unit circle to classify: {root}"
                )
            if a < 1.0:
                interior = interior or root
    return boundary if boundary is not None else interior


def _disk_point_to_line(w):
    """Map a disk-side point back through x = i(1+w)/(1-w); 1 maps to infinity."""
    if isinstance(w, GaussianRational):
        if w == ONE:
            return INFINITY
        return I * (ONE + w) / (ONE - w)
    if abs(w - 1.0) < 1e-12:
        return INFINITY
    wc = complex(w)
    return 1j * (1 + wc) / (1 - wc)


def corona_solve_hplus(h, half: str = "+", tol: float = DEFAULT_TOL):
    """Bezout solution over the rational half-plane algebra, or the common
    zero that obstructs it."""
    h = _checked_tuple(h, RationalFunction.coerce, half, tol)
    if isinstance(h, CoronaFailure):
        return h
    if half == "-":
        reflected = corona_solve_hplus([f.reflect() for f in h], "+", tol)
        if isinstance(reflected, CoronaFailure):
            w = reflected.witness
            if isinstance(w, GaussianRational):
                w = -w
            elif isinstance(w, complex):
                # + 0.0 keeps a zero part +0.0 instead of printing -0.0
                w = complex(-w.real + 0.0, -w.imag + 0.0)
            return CoronaFailure(w, reflected.reason)
        return CoronaCertificate(
            [g.reflect() for g in reflected.solution], "H-"
        )

    disk = [mobius_to_disk(f) for f in h]
    common_den = disk[0].den
    for f in disk[1:]:
        g = common_den.gcd(f.den)
        common_den = (common_den * f.den) // g
    numerators = [f.num * (common_den // f.den) for f in disk]
    d, coeffs = egcd_many(numerators)
    witness_w = _disk_common_root(d, tol)
    if witness_w is not None:
        return CoronaFailure(
            _disk_point_to_line(witness_w),
            "all entries vanish at a common point of the closed half-plane",
        )
    solution = []
    for c in coeffs:
        g_disk = RationalFunction(c * common_den, d)
        solution.append(mobius_from_disk(g_disk))
    return _certified(solution, h, "H+")


def corona_solve_mplus(h, half: str = "+", tol: float = DEFAULT_TOL):
    """Bezout solution over bounded rational functions on the line.

    For rational data the tuple is solvable exactly when it has no common
    zero on the extended real line; the construction divides out the common
    zero/pole structure in the half-plane as an invertible rational factor
    and delegates the remainder to the analytic solver.
    """
    h = _checked_tuple(h, RationalFunction.coerce, None, tol)
    if isinstance(h, CoronaFailure):
        return h
    # one numerator gcd serves the real-line witness and the common
    # half-plane zeros; non-common numerator roots never need to be located
    on_line = "all entries vanish at a common point of the extended real line"
    if all(f.infinity_value() == ZERO for f in h):
        return CoronaFailure(INFINITY, on_line)
    nonzero = [f for f in h if not f.is_zero]
    common = nonzero[0].num
    for f in nonzero[1:]:
        common = common.gcd(f.num)
    common_roots = _poly_roots(common, tol) if common.degree > 0 else []
    for root, _ in common_roots:
        if isinstance(root, GaussianRational) and root.half_plane() == "R":
            return CoronaFailure(root, on_line)

    # the extracted factor needs every half-plane pole of any entry (deepest
    # order) and the common half-plane zeros
    pole_depth: dict[GaussianRational, int] = {}
    for f in nonzero:
        if f.den.degree == 0:
            continue
        for root, mult in _poly_roots(f.den, tol):
            if half_plane_of_root(root) != half:
                continue
            if not isinstance(root, GaussianRational):
                raise RootClassificationAmbiguous(
                    "a half-plane pole could not be pinned exactly"
                )
            pole_depth[root] = max(pole_depth.get(root, 0), mult)
    common_zeros: dict[GaussianRational, int] = {}
    for root, mult in common_roots:
        if half_plane_of_root(root) != half:
            continue
        if not isinstance(root, GaussianRational):
            raise RootClassificationAmbiguous(
                "a common half-plane zero could not be pinned exactly"
            )
        common_zeros[root] = mult
    extracted = [(root, -depth) for root, depth in pole_depth.items()]
    extracted += [(root, mult) for root, mult in common_zeros.items()]
    anchor = GaussianRational(0, -1) if half == "+" else GaussianRational(0, 1)
    total_order = sum(m for _, m in extracted)
    s = FactoredRational(ONE, extracted + [(anchor, -total_order)])
    s_fn = s.expand()
    reduced = [f / s_fn for f in h]
    inner = corona_solve_hplus(reduced, half, tol)
    if isinstance(inner, CoronaFailure):
        return inner
    cert = _certified([g / s_fn for g in inner.solution], h, "M" + half)
    split = wh_factor_scalar(s, tol)
    return replace(
        cert,
        gr_factor=s_fn,
        hct_tuple=reduced,
        gr_split=(split.gamma_minus, split.k, split.gamma_plus),
    )


def corona_solve_ap(h, half: str = "+", tol: float = DEFAULT_TOL):
    """Partial almost periodic corona solver (dominant-coefficient fragment).

    Succeeds when, after checking for a non-invertible common exponential
    factor, some entry has a constant term dominating its remaining
    coefficient mass: that entry is inverted by a geometric series, exactly
    when it is a monomial, otherwise in declared-approximation form with an
    exact residual bound.  Anything beyond that fragment is Unresolved.
    """
    h = _checked_tuple(h, APPoly.coerce, half, tol)
    if isinstance(h, CoronaFailure):
        return h
    nonzero = [p for p in h if not p.is_zero]
    # membership fixes the sign: the lowest frequency of AP+ entries is >= 0,
    # the highest of AP- entries <= 0
    if half == "+":
        common = min(p.min_freq() for p in nonzero)
    else:
        common = max(p.max_freq() for p in nonzero)
    if common != 0:
        return CoronaFailure(
            APPoly.e(common),
            "common exponential factor is not invertible in the algebra",
        )
    for j, p in enumerate(h):
        if p.dominant_frequency() != 0:
            continue
        c0 = p.coeff(0)
        if p.is_monomial:
            solution = [APPoly() for _ in h]
            solution[j] = APPoly.coerce(c0.inv())
            return CoronaCertificate(solution, "AP" + half)
        u = p * c0.inv() - APPoly.coerce(1)
        _, rho_hi = u.wiener_bounds()
        K = 1
        power = rho_hi
        while power > _AP_TARGET_RESIDUAL and K < 400:
            power *= rho_hi
            K += 1
        partial = APPoly.coerce(1)
        term = APPoly.coerce(1)
        for _ in range(1, K):
            term = -(term * u)
            partial = partial + term
        g = partial * c0.inv()
        solution = [APPoly() for _ in h]
        solution[j] = g
        residual = APPoly.coerce(1) - g * p
        _, res_hi = residual.wiener_bounds()
        return CoronaCertificate(
            solution,
            "AP" + half,
            exact=residual.is_zero,
            residual=residual,
            residual_bound=res_hi,
        )
    return Unresolved(
        "no entry has a dominant constant coefficient; the implemented "
        "fragment cannot decide this tuple"
    )


def make_rational_solver(algebra: str, tol: float = DEFAULT_TOL):
    """Scalar Bezout solver over a rational half-plane algebra, in the shape
    one_sided_diagnose expects: solver(minor_values, ring) -> verdict."""
    kind, half = algebra[0], algebra[1]
    if kind not in "HM" or half not in "+-":
        raise ValueError("algebra must be one of H+, H-, M+, M-")

    def solver(values, ring):
        if kind == "H":
            return corona_solve_hplus(values, half, tol)
        return corona_solve_mplus(values, half, tol)

    return solver


def make_ap_solver(half: str = "+", tol: float = DEFAULT_TOL):
    def solver(values, ring):
        return corona_solve_ap(values, half, tol)

    return solver
