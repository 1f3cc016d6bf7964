"""Independent re-checks in sympy of identities the library also asserts
about itself: exact values are carried over coefficient by coefficient, and
every identity is decided by sympy's own rational-function arithmetic."""

from __future__ import annotations

import sympy
from sympy.polys.matrices import DomainMatrix

X = sympy.Symbol("x")


def scalar(g):
    re, im = g.re, g.im
    return sympy.Rational(re.numerator, re.denominator) + sympy.I * sympy.Rational(
        im.numerator, im.denominator
    )


def poly(p):
    return sympy.Add(*[scalar(c) * X**k for k, c in enumerate(p.coeffs)])


def entry(e):
    kind = type(e).__name__
    if kind == "GaussianRational":
        return scalar(e)
    if kind == "Polynomial":
        return poly(e)
    if kind == "RationalFunction":
        return poly(e.num) / poly(e.den)
    raise TypeError(f"no sympy image for {kind}")


def matrix(m):
    return sympy.Matrix([[entry(e) for e in row] for row in m.entries])


def is_zero(expr) -> bool:
    return sympy.cancel(sympy.together(sympy.expand(expr))) == 0


def require(condition, message):
    if not condition:
        raise AssertionError(message)


def require_identity(m, what: str) -> None:
    n, c = m.shape
    require(n == c, f"{what} is not square")
    for i in range(n):
        for j in range(n):
            require(is_zero(m[i, j] - (1 if i == j else 0)), f"{what} != I at ({i},{j})")


def require_equal_matrices(a, b, what: str) -> None:
    require(a.shape == b.shape, f"{what}: shapes differ")
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            require(is_zero(a[i, j] - b[i, j]), f"{what} differs at ({i},{j})")


def det(m):
    """Determinant of a sympy matrix, computed over its exact domain."""
    dm = DomainMatrix.from_Matrix(m)
    return dm.domain.to_sympy(dm.det())


def r_power(k: int):
    return ((X - sympy.I) / (X + sympy.I)) ** k


def value_at(f, point):
    """f(point) for a rational-function image f and an exact point."""
    return sympy.cancel(f.subs(X, point))
