"""Base arithmetic: Q(i) field axioms, polynomial gcd, canonical rational
functions, factoring with snap, the disk substitution, and the almost
periodic ring."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import util
from whfactor import rings
from whfactor.errors import FloatRangeExceeded, RootClassificationAmbiguous, ZeroDenominator
from whfactor.rings import (
    APPoly,
    FactoredRational,
    GaussianRational,
    MixedFunction,
    Polynomial,
    RationalFunction,
    count_distinct_real_roots,
    expand,
    factor_numeric,
    mobius_from_disk,
    mobius_to_disk,
    normalize,
)

I = GaussianRational(0, 1)
X = Polynomial.x()


def test_gaussian_field_axioms_randomized():
    rng = random.Random(101)
    for _ in range(200):
        a, b, c = (util.rand_gr(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a:
            assert a * a.inv() == GaussianRational(1)
            assert (a ** -2) * (a ** 2) == GaussianRational(1)


def test_gaussian_canonical_fractions():
    g = GaussianRational(Fraction(2, 4), Fraction(-6, 3))
    assert g.re == Fraction(1, 2) and g.im == -2
    assert g.re.denominator == 2 and g.re.numerator == 1
    assert g.conjugate().im == 2
    assert g.abs2() == Fraction(1, 4) + 4


_EXACT = st.one_of(st.integers(-(10**6), 10**6), st.fractions(max_denominator=10**4))
# an operand is a Gaussian rational, or a plain int or Fraction (imaginary part 0)
_OPERAND = st.one_of(
    st.tuples(st.just("gaussian"), _EXACT, _EXACT),
    st.tuples(st.just("int"), st.integers(-50, 50), st.just(0)),
    st.tuples(st.just("fraction"), st.fractions(max_denominator=50), st.just(0)),
)
_STEP = st.tuples(
    st.sampled_from(["+", "-", "*", "/", "inv", "neg", "conjugate", "pow", "abs2"]),
    _OPERAND,
    st.booleans(),  # plain operand on the left (reflected operator)
    st.integers(-3, 3),
)


def _reference_repr(re: Fraction, im: Fraction) -> str:
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"({re}{sign}{abs(im)}i)"


def _reference_step(op, x, y, n):
    """The step on (re, im) pairs of Fractions; None stands for ZeroDivisionError."""
    (a, b), (c, d) = x, y
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    if op == "/":
        m = c * c + d * d
        return None if m == 0 else ((a * c + b * d) / m, (b * c - a * d) / m)
    if op == "inv":
        m = a * a + b * b
        return None if m == 0 else (a / m, -b / m)
    if op == "neg":
        return -a, -b
    if op == "conjugate":
        return a, -b
    if op == "pow":
        out = (Fraction(1), Fraction(0))
        base = x if n >= 0 else _reference_step("inv", x, y, 0)
        if base is None:
            return None
        for _ in range(abs(n)):
            out = _reference_step("*", out, base, 0)
        return out
    raise AssertionError(op)


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _apply(op, z, w, left, n):
    if op in _BINARY:
        fn = _BINARY[op]
        return fn(w, z) if left else fn(z, w)
    if op == "inv":
        return z.inv()
    if op == "neg":
        return -z
    if op == "conjugate":
        return z.conjugate()
    return z ** n


def _assert_matches(z, re, im):
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    assert (z.re, z.im) == (re, im)
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    assert hash(z) == (hash(re) if im == 0 else hash((re, im)))
    assert repr(z) == _reference_repr(re, im)
    assert z == GaussianRational(re, im) and not z != GaussianRational(re, im)
    assert bool(z) == (re != 0 or im != 0)
    try:
        ref = complex(re) + 1j * complex(im)
    except OverflowError:
        with pytest.raises(FloatRangeExceeded):
            z.to_complex()
    else:
        c = z.to_complex()
        assert (c.real.hex(), c.imag.hex()) == (ref.real.hex(), ref.imag.hex())
    if im == 0:
        assert z == re and not z == re + 1
        if re.denominator == 1:
            assert z == int(re) and not z == int(re) + 1


_NO_OPERAND = ("int", 0, 0)


@settings(max_examples=300, deadline=None)
@given(_EXACT, _EXACT, st.lists(_STEP, max_size=8))
# (41106780128146i * 3246i)**18 = 133432608295961916**18 passes the float range
@example(
    0,
    Fraction(41106780128146),
    [("*", ("gaussian", 0, 3246), False, 0)]
    + [("pow", _NO_OPERAND, False, n) for n in (2, 3, 3)],
)
def test_gaussian_core_matches_fraction_pairs(re, im, steps):
    """Random chains of field operations agree with a reference on pairs of
    Fractions, and every result keeps the canonical (a + b*i)/d form."""
    z, ref = GaussianRational(re, im), (Fraction(re), Fraction(im))
    _assert_matches(z, *ref)
    for op, (kind, wre, wim), left, n in steps:
        w = GaussianRational(wre, wim) if kind == "gaussian" else wre
        wref = (Fraction(wre), Fraction(wim))
        if op == "abs2":
            value = z.abs2()
            assert isinstance(value, Fraction) and value == ref[0] ** 2 + ref[1] ** 2
            continue
        if left and op in _BINARY:
            expected = _reference_step(op, wref, ref, n)
        else:
            expected = _reference_step(op, ref, wref, n)
        if expected is None:
            with pytest.raises(ZeroDivisionError):
                _apply(op, z, w, left, n)
            continue
        z, ref = _apply(op, z, w, left, n), expected
        assert isinstance(z, GaussianRational)
        _assert_matches(z, *ref)


def test_gaussian_refuses_floats():
    z = GaussianRational(1, 2)
    for args in ((0.5,), (1, 0.5), (Fraction(1, 2), 2.0)):
        with pytest.raises(TypeError):
            GaussianRational(*args)
    with pytest.raises(TypeError):
        z + 0.5
    with pytest.raises(TypeError):
        0.5 * z
    assert not z == 0.5


def test_polynomial_divmod_and_gcd():
    rng = random.Random(7)
    for _ in range(50):
        a = util.rand_poly(rng, 4)
        b = util.rand_poly(rng, 3)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree
        g, s, t = a.egcd(b)
        assert s * a + t * b == g


def _euclid_gcd(a, b):
    """The Euclid loop over Q(i): the reference for Polynomial.gcd."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


_SMALL = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_COEFF = st.builds(GaussianRational, _SMALL, _SMALL)
# Gaussian integers put a Gaussian content on an input; 0 makes it zero
_SCALE = st.one_of(_COEFF, st.builds(GaussianRational, st.integers(-6, 6), st.integers(-6, 6)))


def _poly_upto(degree):
    return st.lists(_COEFF, max_size=degree + 1).map(Polynomial)


@settings(deadline=None)
@given(_poly_upto(4), _poly_upto(4), _poly_upto(4), _SCALE, _SCALE)
@example(Polynomial(), Polynomial(), Polynomial(), I, I)  # both zero
@example(X + 1, Polynomial(), X**3 + I, I, I)  # one zero
@example(Polynomial([2 + I]), Polynomial([3]), X**5 + 1, I, I)  # a constant
# non-monic degree-4 inputs with Gaussian content, one a multiple of the other
@example((X**2 + I) * (X**2 - 2), Polynomial([1]), X + 1, 2 + 2 * I, 3 * I)
# degrees 3 and 4 straddle the threshold, 4 and 4 lie past it
@example(X - I, X**2 + 1, X**3 - 2, Fraction(1, 2), 1)
@example(X - I, X**3 + 1, X**3 - 2, Fraction(1, 2), 1)
def test_gcd_matches_euclid_on_planted_factors(common, u, v, cu, cv):
    """Polynomial.gcd equals the Euclid result on Q(i) polynomials of degree
    0..8 sharing a planted common factor, on both sides of the degree at
    which it switches to the modular algorithm."""
    a, b = (common * u).scale(cu), (common * v).scale(cv)
    assert a.gcd(b) == _euclid_gcd(a, b)
    assert b.gcd(a) == _euclid_gcd(a, b)


# small primes p = 1 (mod 4) with s*s = -1 (mod p), so that one test input
# can meet every branch of the modular gcd
_SMALL_PRIMES = ((5, 2), (13, 5), (17, 4), (29, 12))


def test_modular_gcd_branches_on_small_primes(monkeypatch):
    monkeypatch.setattr(rings, "_GCD_PRIMES", _SMALL_PRIMES)
    images = []
    gcd_mod = rings._gcd_mod

    def recording(f, g, p):
        out = gcd_mod(f, g, p)
        images.append((p, len(out) - 1))
        return out

    monkeypatch.setattr(rings, "_gcd_mod", recording)

    # coprime: the first image gcd is 1, and so is the answer
    assert rings._modular_gcd(X**4 + 2, X**4 + X + 3) == Polynomial([1])
    assert images == [(5, 0)]

    # lead 5 vanishes mod 5, so that prime is skipped; mod 13 the cofactors
    # share x - 3 = x - 16, an image of degree 3 that the next prime's degree
    # 2 replaces; 7 and 1/3 need 17 and 29 combined
    c = X**2 + Polynomial([Fraction(1, 3), 7 + 2 * I])
    a, b = (c * (X - 3) * (X - 1)).scale(5), c * (X - 16) * (X + 2)
    images.clear()
    assert rings._modular_gcd(a, b) == c == _euclid_gcd(a, b)
    assert images == [(13, 3), (13, 3), (17, 2), (17, 2), (29, 2), (29, 2)]

    # 1000 cannot be reconstructed modulo 5 * 13 * 17 * 29: the table runs
    # out, and gcd falls back to Euclid
    c = X**2 + 1000 * X + 1
    a, b = c * (X + 1) * (X + 2), c * (X + 3) * (X + 4)
    images.clear()
    assert rings._modular_gcd(a, b) is None
    assert [p for p, _ in images] == [5, 5, 13, 13, 17, 17, 29, 29]
    assert a.gcd(b) == c


def _is_prime(n):
    """Miller-Rabin with the first twelve prime bases, exact for n < 2**64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for q in bases:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_gcd_prime_table():
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    assert _is_prime(2**61 - 1) and not _is_prime(3215031751)
    primes = [p for p, _ in rings._GCD_PRIMES]
    assert len(set(primes)) == len(primes)
    for p, s in rings._GCD_PRIMES:
        assert p < 2**64 and _is_prime(p)
        assert p % 4 == 1
        assert s * s % p == p - 1


def test_normalize_reduces_and_makes_monic():
    f = normalize(X * X - 1, (X - 1).scale(2))
    # (x^2-1)/(2x-2) = (x+1)/2
    assert f.den == Polynomial([1])
    assert f.num == Polynomial([Fraction(1, 2), Fraction(1, 2)])
    assert normalize(Polynomial(), X + 1) == RationalFunction(0)
    xi = X + Polynomial([I])
    assert normalize(xi, xi) == RationalFunction(1)
    with pytest.raises(ZeroDenominator):
        normalize(X, Polynomial())


def test_normalize_value_equality():
    # cross-multiplied identity: num_in * den_out == num_out * den_in
    num_in, den_in = X * X - 1, (X - 1).scale(2)
    f = normalize(num_in, den_in)
    assert num_in * f.den == f.num * den_in


def test_expand_examples():
    two_i = GaussianRational(0, 2)
    f = FactoredRational(1, [(two_i, 1), (-I * 3, -1)])
    rf = expand(f)
    assert rf == RationalFunction(X - Polynomial([two_i]), X + Polynomial([I * 3]))
    assert expand(FactoredRational(1, [])) == RationalFunction(1)
    g = FactoredRational(2, [(I, -1), (-I, -1)])
    assert expand(g) == RationalFunction(Polynomial([2]), X * X + 1)


def test_factor_numeric_quadratic_and_tags():
    f = RationalFunction(X * X + 1, X * X + 4)
    fac = factor_numeric(f)
    assert fac.exact
    tags = {(str(root), mult): tag for root, mult, tag in fac.tags()}
    assert tags[("1i", 1)] == "+"
    assert tags[("-1i", 1)] == "-"
    assert tags[("2i", -1)] == "-" or tags[("-2i", -1)] == "-"
    assert fac.expand() == f


def test_factor_numeric_real_root_tagged():
    f = RationalFunction(X - 1, X + Polynomial([I]))
    fac = factor_numeric(f)
    (root, mult, tag), *rest = fac.tags()
    roots = {str(r): t for r, m, t in fac.tags()}
    assert roots["1"] == "R"


def test_factor_numeric_constant():
    fac = factor_numeric(RationalFunction(Polynomial([5])))
    assert fac.lead == GaussianRational(5)
    assert fac.factors == ()


def test_factor_numeric_ambiguous_refusal():
    # root at 2**-40 + i*1e-12: real part snaps, imaginary part is neither
    # zero nor confidently off the line
    tiny = GaussianRational(0, Fraction(1, 10**12))
    p = X - Polynomial([GaussianRational(1, Fraction(1, 10**12))])
    with pytest.raises(RootClassificationAmbiguous):
        factor_numeric(RationalFunction(p, Polynomial([1])), tol=1e-9)


def test_factor_roundtrip_random():
    rng = random.Random(23)
    for _ in range(40):
        fac = util.rand_line_invertible_factored(rng)
        f = fac.expand()
        again = factor_numeric(f)
        assert again.exact
        assert again.expand() == f


def test_mobius_defining_properties():
    from whfactor.scalar_wh import r_function

    r = r_function()
    assert mobius_to_disk(r) == RationalFunction(X)
    c = RationalFunction(Polynomial([GaussianRational(3, 2)]))
    assert mobius_to_disk(c) == c
    f = RationalFunction(1, X + Polynomial([I]))
    # 1/(x+i) with x = i(1+w)/(1-w) is (1-w)/(2i)
    expect = RationalFunction(Polynomial([GaussianRational(0, Fraction(-1, 2)),
                                          GaussianRational(0, Fraction(1, 2))]))
    assert mobius_to_disk(f) == expect


def test_mobius_roundtrip_and_homomorphism():
    rng = random.Random(5)
    for _ in range(30):
        f = RationalFunction(util.rand_poly(rng, 3), util.rand_poly(rng, 2) + X ** 3)
        g = RationalFunction(util.rand_poly(rng, 2), util.rand_poly(rng, 2) + X ** 2)
        assert mobius_from_disk(mobius_to_disk(f)) == f
        assert mobius_to_disk(f * g) == mobius_to_disk(f) * mobius_to_disk(g)
        assert mobius_to_disk(f + g) == mobius_to_disk(f) + mobius_to_disk(g)


def test_mobius_maps_upper_half_plane_into_disk():
    rng = random.Random(9)
    for _ in range(20):
        root = util.rand_offline_root(rng, "+")
        f = RationalFunction(X - Polynomial([root]))
        image = mobius_to_disk(f)
        # the zero of the image is r(root), which must lie inside the disk
        w = (root - I) / (root + I)
        assert w.abs2() < 1
        assert image(w) == GaussianRational(0)


def test_sturm_real_root_count():
    # (x^2-2)(x^2+1): two real roots
    p = (X * X - 2) * (X * X + 1)
    assert count_distinct_real_roots(p) == 2
    assert count_distinct_real_roots(X * X + 1) == 0
    assert count_distinct_real_roots((X - 1) * (X - 1)) == 1
    with pytest.raises(ValueError, match="polynomial has non-real coefficients"):
        count_distinct_real_roots(X + Polynomial([I]))

    # seeded products with repeated factors against sympy's distinct count
    import sympy

    x = sympy.symbols("x")
    rng = random.Random(59)
    for _ in range(60):
        p = Polynomial([rng.randint(1, 3)])
        for _ in range(rng.randint(1, 3)):
            deg = rng.randint(1, 2)
            cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)]
            p = p * Polynomial(cs + [1]) ** rng.randint(1, 3)
        cs = [sympy.Rational(c.re.numerator, c.re.denominator) for c in reversed(p.coeffs)]
        ref = sympy.Poly(cs, x)
        assert count_distinct_real_roots(p) == ref.sqf_part().count_roots()


def test_rational_membership_predicates():
    f = RationalFunction(1, X + Polynomial([I]))  # pole at -i
    assert f.bounded_on_line()
    assert f.in_half_algebra("+")
    assert not f.in_half_algebra("-")
    g = RationalFunction(1, X - 1)  # real pole
    assert not g.bounded_on_line()
    h = RationalFunction(X * X, X + Polynomial([I]))  # grows at infinity
    assert not h.bounded_on_line()


def test_appoly_ring():
    rng = random.Random(31)
    e = APPoly.e
    assert e(1) * e(Fraction(1, 2)) == e(Fraction(3, 2))
    for _ in range(100):
        p = util.rand_appoly(rng)
        q = util.rand_appoly(rng)
        prod = p * q
        sumset = {a + b for a in p.support for b in q.support}
        assert set(prod.support) <= sumset
        assert p * q == q * p
        assert (p + q) - q == p
    p = e(1, 2) + e(-1, 3)
    assert p.conj() == e(-1, 2) + e(1, 3)


def test_mixed_ring_arithmetic():
    r = RationalFunction(X - Polynomial([I]), X + Polynomial([I]))
    m = MixedFunction([(Fraction(1, 2), RationalFunction(1))])
    prod = m * MixedFunction.coerce(r)
    assert prod.terms[0][0] == Fraction(1, 2)
    assert prod.terms[0][1] == r
    assert (m + m).terms[0][1] == RationalFunction(2)
    assert MixedFunction.coerce(r).is_rational
    assert m.is_pure_ap
    assert m.as_appoly() == APPoly.e(Fraction(1, 2))


def test_mixed_function_refuses_float_frequencies_and_hashes_by_value():
    with pytest.raises(TypeError):
        MixedFunction([(0.5, RationalFunction(1))])
    r = RationalFunction(X, X + Polynomial([I]))
    a = MixedFunction([(Fraction(1, 2), r), (0, 1)])
    b = MixedFunction([(0, RationalFunction(1)), (Fraction(2, 4), r)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, a + 1}) == 2
    assert repr(a) == "((1))*e[0] + ((1*x) / (1i + 1*x))*e[1/2]"


# roots of these quadratics sit on the imaginary axis at irrational points,
# i(3 +- sqrt 5)/2 and their negatives, so no snap candidate verifies
Q_UPPER = Polynomial([-1, -3 * I, 1])
P_LOWER = Polynomial([-1, 3 * I, 1])


def test_unsnapped_roots_decide_membership_and_stay_inexact():
    f = RationalFunction(1, P_LOWER)
    assert f.in_half_algebra("+")
    assert not f.in_half_algebra("-")
    factored = RationalFunction(Q_UPPER, P_LOWER).factored()
    assert not factored.exact
    assert all(isinstance(root, complex) for root, _ in factored.factors)


@given(_EXACT, _EXACT, _EXACT, st.fractions(max_denominator=8))
def test_equal_values_hash_alike_across_types(c, d, e, freq):
    """A value equal to one of a simpler type hashes as that value, so sets
    and dicts that mix the types keep one copy."""
    z = GaussianRational(c, d)
    line = Polynomial([c, z])
    pairs = [
        (GaussianRational(c), c),
        (Polynomial([z]), z),
        (Polynomial([c]), c),
        (RationalFunction(z), z),
        (RationalFunction(line), line),
        (APPoly.coerce(z), z),
        (APPoly(), 0),
        (MixedFunction.coerce(RationalFunction(line)), RationalFunction(line)),
        (MixedFunction.coerce(APPoly.e(freq, z)), APPoly.e(freq, z)),
        (MixedFunction.coerce(APPoly.e(freq, z) + APPoly.e(1, e)), APPoly.e(freq, z) + APPoly.e(1, e)),
    ]
    for a, b in pairs:
        assert a == b and b == a
        assert hash(a) == hash(b), (a, b)
        assert len({a, b}) == 1


def test_appoly_refuses_float_frequencies_everywhere():
    for build in (
        lambda: APPoly([(0.1, 1)]),
        lambda: APPoly.e(0.1),
        lambda: APPoly.e(1).coeff(0.1),
    ):
        with pytest.raises(TypeError):
            build()
    assert APPoly.e(Fraction(1, 10)).coeff(Fraction(1, 10)) == 1
