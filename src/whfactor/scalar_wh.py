"""Scalar Wiener-Hopf factorization of rational symbols on the real line.

A symbol with no zeros or poles on the extended line factors exactly as

    f = gamma_minus * r**k * gamma_plus,      r(x) = (x - i)/(x + i),

where k counts zeros minus poles in the upper half-plane, gamma_minus
carries the upper-half-plane zeros/poles (anchored at i) together with the
scalar constant, and gamma_plus carries the lower-half-plane ones (anchored
at -i) normalized to 1 at infinity.  Rational factors are bounded, so one
factorization serves every exponent p in (1, oo); reports carry that flag
instead of a p parameter.

The weighted analytic/anti-analytic splitting divides phi/(x+i) into
partial fractions and reassembles the halves with the weight (x+i).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .errors import (
    FactorizationInexact,
    NearZeroOnContour,
    RealPole,
    SymbolSingularOnLine,
)
from .rings import (
    DEFAULT_TOL,
    FactoredRational,
    GaussianRational,
    I,
    ONE,
    Polynomial,
    RationalFunction,
    _poly_roots,
)

P_NOTE = "uniform in p in (1, oo)"


def r_function() -> RationalFunction:
    """The basic inner factor r(x) = (x - i)/(x + i)."""
    return RationalFunction(Polynomial([-I, ONE]), Polynomial([I, ONE]))


@dataclass(frozen=True)
class ScalarWH:
    """Factorization triple (gamma_minus, k, gamma_plus); product equals the symbol."""

    gamma_minus: FactoredRational
    k: int
    gamma_plus: FactoredRational
    p_note: ClassVar[str] = P_NOTE

    def reconstruct(self) -> RationalFunction:
        return (
            self.gamma_minus.expand()
            * r_function() ** self.k
            * self.gamma_plus.expand()
        )


@dataclass(frozen=True)
class ProjectionResult:
    """Weighted splitting phi = plus_part + minus_part.

    plus_part has poles only in the open lower half-plane (the anchor -i
    included), minus_part only in the open upper half-plane.
    """

    plus_part: RationalFunction
    minus_part: RationalFunction


def _as_factored(f, tol: float) -> FactoredRational:
    if isinstance(f, FactoredRational):
        return f
    return RationalFunction.coerce(f).factored(tol)


def wh_factor_scalar(f, tol: float = DEFAULT_TOL) -> ScalarWH:
    """Split a line-invertible factored rational symbol into its half-plane
    factors and winding exponent; the product reconstructs f exactly."""
    f = _as_factored(f, tol)
    if not f.exact:
        raise FactorizationInexact("factorization requires exactly located roots")
    if f.degree_balance != 0:
        raise SymbolSingularOnLine("infinity", "symbol not invertible at infinity")
    plus_factors = []
    minus_factors = []
    k = 0
    for root, mult, tag in f.tags():
        if tag == "R":
            raise SymbolSingularOnLine(root)
        if tag == "+":
            k += mult
            plus_factors.append((root, mult))
        else:
            minus_factors.append((root, mult))
    anchor_plus = GaussianRational(0, 1)
    anchor_minus = GaussianRational(0, -1)
    gamma_minus = FactoredRational(f.lead, plus_factors + [(anchor_plus, -k)])
    gamma_plus = FactoredRational(ONE, minus_factors + [(anchor_minus, k)])
    return ScalarWH(gamma_minus, k, gamma_plus)


def winding_exact(f, tol: float = DEFAULT_TOL) -> int:
    """Winding number about the origin from zero/pole counts: zeros minus
    poles in the upper half-plane, with multiplicity."""
    f = _as_factored(f, tol)
    if f.degree_balance != 0:
        raise SymbolSingularOnLine("infinity", "symbol not invertible at infinity")
    k = 0
    for root, mult, tag in f.tags():
        if tag == "R":
            raise SymbolSingularOnLine(root)
        if tag == "+":
            k += mult
    return k


def _contour_evaluator(f):
    if isinstance(f, (FactoredRational, RationalFunction)):
        base = f.eval_complex
    elif callable(f):
        base = f
    else:
        raise TypeError("symbol is not evaluable")

    def at_angle(theta: float) -> complex:
        if theta > math.pi:
            theta -= 2 * math.pi
        return complex(base(math.tan(theta / 2.0)))

    return at_angle


def _argument_increment(fn, thetas, tol: float, max_depth: int) -> float:
    """Total change of arg fn(theta) once around a closed contour sampled at
    the increasing angles thetas (the last step wraps to thetas[0] + 2*pi).
    Steps of pi/2 or more are bisected, at most max_depth times; a value
    below tol or a step that cannot be refined raises NearZeroOnContour."""

    def value(theta: float) -> complex:
        z = fn(theta)
        if abs(z) < tol:
            raise NearZeroOnContour(f"|f| < tol at theta = {theta}")
        return z

    def delta(t1: float, z1: complex, t2: float, z2: complex, depth: int) -> float:
        d = cmath.phase(z2 / z1)
        if abs(d) < math.pi / 2:
            return d
        if depth > max_depth:
            raise NearZeroOnContour("argument step cannot be refined below pi/2")
        tm = 0.5 * (t1 + t2)
        zm = value(tm)
        return delta(t1, z1, tm, zm, depth + 1) + delta(tm, zm, t2, z2, depth + 1)

    grid = len(thetas)
    points = [value(t) for t in thetas]
    total = 0.0
    for j in range(grid):
        t1, z1 = thetas[j], points[j]
        if j + 1 < grid:
            t2, z2 = thetas[j + 1], points[j + 1]
        else:
            t2, z2 = thetas[0] + 2 * math.pi, points[0]
        total += delta(t1, z1, t2, z2, 0)
    return total


def winding_numeric(f, grid: int = 256, tol: float = DEFAULT_TOL) -> int:
    """Numeric winding along the one-point compactified line, parametrized by
    x = tan(theta/2); argument increments are refined below pi/2 per step."""
    if grid < 8:
        raise ValueError("grid too coarse")
    fn = _contour_evaluator(f)
    thetas = [-math.pi + (2 * j + 1) * math.pi / grid for j in range(grid)]
    wind = _argument_increment(fn, thetas, tol, 48) / (2 * math.pi)
    nearest = round(wind)
    if abs(wind - nearest) > 0.25:
        raise NearZeroOnContour(f"accumulated winding {wind} is not near an integer")
    return int(nearest)


def partial_fractions(f: RationalFunction, tol: float = DEFAULT_TOL):
    """Exact partial fractions of a strictly proper rational function:
    [(pole, [c_1, ..., c_m])] with f = sum over poles of sum c_k/(x-p)**k."""
    if f.is_zero:
        return []
    if f.num.degree >= f.den.degree:
        raise ValueError("partial fractions need a strictly proper input")
    roots = _poly_roots(f.den, tol)
    if not all(isinstance(r, GaussianRational) for r, _ in roots):
        raise FactorizationInexact("denominator roots could not be pinned exactly")
    out = []
    for pole, mult in roots:
        rest = Polynomial([ONE])
        for other, m2 in roots:
            if other == pole:
                continue
            rest = rest * Polynomial.from_roots(ONE, [other] * m2)
        g = RationalFunction(f.num, rest)
        coeffs = [None] * mult
        fact = 1
        for ell in range(mult):
            coeffs[mult - 1 - ell] = g(pole) * Fraction(1, fact)
            g = g.derivative()
            fact *= ell + 1
        out.append((pole, coeffs))
    resum = RationalFunction(0)
    for pole, coeffs in out:
        lin = RationalFunction(Polynomial([-pole, ONE]))
        for k, c in enumerate(coeffs, start=1):
            resum = resum + RationalFunction(Polynomial([c])) / lin**k
    if not resum == f:
        raise AssertionError("partial fractions failed to resum")
    return out


def pole_split(f: RationalFunction, tol: float = DEFAULT_TOL):
    """Unweighted analytic splitting of a strictly proper rational function:
    (plus, minus) with poles in the lower / upper half-plane respectively."""
    plus = RationalFunction(0)
    minus = RationalFunction(0)
    for pole, coeffs in partial_fractions(f, tol):
        tag = pole.half_plane()
        if tag == "R":
            raise RealPole(f"pole on the real line at {pole}")
        term = RationalFunction(0)
        lin = RationalFunction(Polynomial([-pole, ONE]))
        for k, c in enumerate(coeffs, start=1):
            term = term + RationalFunction(Polynomial([c])) / lin**k
        if tag == "-":
            plus = plus + term
        else:
            minus = minus + term
    return plus, minus


def riesz_project(phi: RationalFunction, tol: float = DEFAULT_TOL) -> ProjectionResult:
    """Weighted splitting phi = plus + minus via partial fractions of
    phi/(x+i); the two halves carry the weight (x+i) back."""
    phi = RationalFunction.coerce(phi)
    if phi.has_real_poles():
        raise RealPole("symbol has a pole on the real line")
    if not phi.is_zero and phi.num.degree > phi.den.degree:
        raise RealPole("symbol unbounded at infinity")
    weight = RationalFunction(Polynomial([I, ONE]))
    psi = phi / weight
    plus0, minus0 = pole_split(psi, tol)
    plus = weight * plus0
    minus = weight * minus0
    if not plus + minus == phi:
        raise AssertionError("weighted splitting failed to resum")
    return ProjectionResult(plus, minus)
