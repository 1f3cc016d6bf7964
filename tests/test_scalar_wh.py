"""Scalar factorization: worked examples, reconstruction and analyticity on
random symbols, winding agreement, and the weighted splitting identities."""

import random
from fractions import Fraction

import pytest

import util
from whfactor.errors import NearZeroOnContour, RealPole, SymbolSingularOnLine
from whfactor.rings import (
    FactoredRational,
    GaussianRational,
    Polynomial,
    RationalFunction,
)
from whfactor.scalar_wh import (
    partial_fractions,
    pole_split,
    r_function,
    riesz_project,
    wh_factor_scalar,
    winding_exact,
    winding_numeric,
)

I = GaussianRational(0, 1)
X = Polynomial.x()


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def test_wh_factor_worked_example():
    # (x-2i)/(x+3i): gamma_minus = (x-2i)/(x-i), k = 1, gamma_plus = (x+i)/(x+3i)
    f = FactoredRational(1, [(gr(0, 2), 1), (gr(0, -3), -1)])
    wh = wh_factor_scalar(f)
    assert wh.k == 1
    assert wh.gamma_minus.expand() == RationalFunction(
        X - Polynomial([gr(0, 2)]), X - Polynomial([I])
    )
    assert wh.gamma_plus.expand() == RationalFunction(
        X + Polynomial([I]), X + Polynomial([gr(0, 3)])
    )
    assert wh.reconstruct() == f.expand()


def test_wh_factor_r_and_constant():
    r_fac = FactoredRational(1, [(I, 1), (-I, -1)])
    wh = wh_factor_scalar(r_fac)
    assert (wh.gamma_minus.expand(), wh.k, wh.gamma_plus.expand()) == (
        RationalFunction(1),
        1,
        RationalFunction(1),
    )
    whc = wh_factor_scalar(FactoredRational(gr(5), []))
    assert whc.k == 0
    assert whc.gamma_minus.expand() == RationalFunction(Polynomial([gr(5)]))
    assert whc.gamma_plus.expand() == RationalFunction(1)


def test_wh_factor_guards():
    with pytest.raises(SymbolSingularOnLine):
        wh_factor_scalar(FactoredRational(1, [(gr(1), 1), (I, -1)]))
    with pytest.raises(SymbolSingularOnLine):
        # unbalanced: zero at infinity
        wh_factor_scalar(FactoredRational(1, [(I, -1)]))


def test_wh_factor_random_reconstruction_and_certificates():
    rng = random.Random(61)
    for _ in range(60):
        f = util.rand_line_invertible_factored(rng)
        wh = wh_factor_scalar(f)
        assert wh.reconstruct() == f.expand()
        assert all(tag == "+" for _, _, tag in wh.gamma_minus.tags())
        assert all(tag == "-" for _, _, tag in wh.gamma_plus.tags())
        # gamma_plus is normalized to 1 at infinity
        gp = wh.gamma_plus.expand()
        assert gp.num.degree == gp.den.degree and gp.num.lead == GaussianRational(1)


def test_winding_exact_examples():
    r = r_function().factored()
    assert winding_exact(r) == 1
    r3 = FactoredRational(1, [(I, -3), (-I, 3)])
    assert winding_exact(r3) == -3
    f = FactoredRational(
        1, [(gr(0, 2), 2), (gr(0, -5), 1), (gr(0, 7), -1), (gr(0, -1), -2)]
    )
    assert winding_exact(f) == 1


def test_winding_multiplicativity():
    rng = random.Random(67)
    for _ in range(30):
        f = util.rand_line_invertible_factored(rng)
        g = util.rand_line_invertible_factored(rng)
        assert winding_exact(f * g) == winding_exact(f) + winding_exact(g)
        assert winding_exact(f.inverse()) == -winding_exact(f)


def test_winding_numeric_matches_exact():
    rng = random.Random(71)
    assert winding_numeric(r_function().factored(), grid=256) == 1
    assert winding_numeric(lambda z: 5.0 + 0j, grid=64) == 0
    for _ in range(100):
        f = util.rand_line_invertible_factored(rng, max_factors=5)
        assert winding_numeric(f, grid=256, tol=1e-9) == winding_exact(f)


def test_winding_numeric_near_zero_guard():
    f = RationalFunction(X, X + Polynomial([I]))  # vanishes at 0
    with pytest.raises(NearZeroOnContour):
        winding_numeric(f, grid=64, tol=1e-6)


def test_partial_fractions_resum_random():
    rng = random.Random(73)
    for _ in range(25):
        den_roots = [util.rand_offline_root(rng) for _ in range(rng.randint(1, 3))]
        mults = [rng.randint(1, 2) for _ in den_roots]
        den = Polynomial([GaussianRational(1)])
        for root, m in zip(den_roots, mults):
            den = den * Polynomial.from_roots(1, [root] * m)
        num = util.rand_poly(rng, den.degree - 1)
        f = RationalFunction(num, den)
        if f.is_zero:
            continue
        terms = partial_fractions(f)
        resum = RationalFunction(0)
        for pole, coeffs in terms:
            lin = RationalFunction(Polynomial([-pole, GaussianRational(1)]))
            for k, c in enumerate(coeffs, start=1):
                resum = resum + RationalFunction(Polynomial([c])) / lin**k
        assert resum == f


def test_riesz_project_worked_examples():
    phi = RationalFunction(1, X * X + 1)
    proj = riesz_project(phi)
    xpi = RationalFunction(X + Polynomial([I]))
    xmi = RationalFunction(X - Polynomial([I]))
    assert proj.plus_part == RationalFunction(Polynomial([gr("1/4")])) + RationalFunction(
        Polynomial([gr(0, "1/2")])
    ) / xpi
    assert proj.minus_part == RationalFunction(Polynomial([gr("-1/4")])) * xpi / xmi
    # constants stay on the plus side
    c = RationalFunction(Polynomial([gr(3, 1)]))
    pc = riesz_project(c)
    assert pc.plus_part == c and pc.minus_part == RationalFunction(0)
    # 1/(x-i): plus part i/2, minus part (x+i)/(2i(x-i))
    p3 = riesz_project(RationalFunction(1, X - Polynomial([I])))
    assert p3.plus_part == RationalFunction(Polynomial([gr(0, "1/2")]))
    assert p3.minus_part == RationalFunction(
        Polynomial([gr("1/2"), gr(0, "-1/2")]), X - Polynomial([I])
    )


def test_riesz_project_properties():
    rng = random.Random(79)
    for _ in range(25):
        f = util.rand_half_plane_function(rng, "+") + util.rand_half_plane_function(
            rng, "-"
        )
        if not f.bounded_on_line():
            continue
        proj = riesz_project(f)
        assert proj.plus_part + proj.minus_part == f
        # idempotence on own output
        again = riesz_project(proj.plus_part)
        assert again.plus_part == proj.plus_part
        assert again.minus_part == RationalFunction(0)
        # certificates: plus-part poles avoid the closed upper half-plane
        if not proj.plus_part.is_zero:
            assert proj.plus_part.in_half_algebra("+")
        if not proj.minus_part.is_zero:
            assert proj.minus_part.in_half_algebra("-")


def test_riesz_project_guards():
    with pytest.raises(RealPole):
        riesz_project(RationalFunction(1, X - 1))
    with pytest.raises(RealPole):
        riesz_project(RationalFunction(X * X, X + Polynomial([I])))


def test_pole_split_plain():
    f = RationalFunction(1, (X - Polynomial([I])) * (X + Polynomial([gr(0, 2)])))
    plus, minus = pole_split(f)
    assert plus + minus == f
    assert plus.in_half_algebra("+") and minus.in_half_algebra("-")


def test_unsnapped_roots_wind_but_do_not_factor():
    from whfactor.errors import FactorizationInexact

    q, p = Polynomial([-1, -3 * I, 1]), Polynomial([-1, 3 * I, 1])
    factored = RationalFunction(q, p).factored()
    assert winding_exact(factored) == 2
    assert winding_numeric(factored) == 2
    with pytest.raises(FactorizationInexact):
        wh_factor_scalar(factored)
