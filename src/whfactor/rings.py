"""Exact base arithmetic: Q(i) scalars, polynomials, rational functions,
factored rational functions, and almost periodic polynomials.

Conventions:

* the base field is Q(i) (rational real and imaginary parts), so the
  half-plane of a zero or pole is an exact predicate of its imaginary part;
* a Q(i) scalar is three plain ints, (a + b*i)/d with d > 0 and
  gcd(a, b, d) = 1: each operation costs a few int products and one gcd,
  and the canonical triple makes equality structural;
* rational functions are canonical (coprime numerator/denominator, monic
  denominator), so structural equality is mathematical equality;
* half-plane tags: '+' for the open upper half-plane, '-' for the open
  lower half-plane, 'R' for the real line.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction

from .errors import (
    FloatRangeExceeded,
    RealPole,
    RootClassificationAmbiguous,
    ZeroDenominator,
    ZeroInput,
)

DEFAULT_TOL = 1e-9

_SNAP_DENOMS = (1, 2, 3, 4, 6, 8, 12, 16, 64, 1024, 10**6)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _parts(x):
    """(a, b, d) with x = (a + b*i)/d in canonical form, or None when x is
    not an exact scalar."""
    if isinstance(x, GaussianRational):
        return x._a, x._b, x._d
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


class GaussianRational:
    """An element of Q(i), stored as (a + b*i)/d over plain ints.

    The triple is canonical: d > 0 and gcd(a, b, d) = 1, so equality is
    structural.  The real and imaginary parts are read as Fractions through
    the read-only properties re and im.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _as_fraction(re), _as_fraction(im)
        q, s = re.denominator, im.denominator
        d = q if q == s else math.lcm(q, s)
        # both parts are reduced, so no prime of d divides a and b together
        self._a = re.numerator * (d // q)
        self._b = im.numerator * (d // s)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to GaussianRational")

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if d == self._d:
            return _canon(self._a + a, self._b + b, d)
        return _canon(self._a * d + a * self._d, self._b * d + b * self._d, self._d * d)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if d == self._d:
            return _canon(self._a - a, self._b - b, d)
        return _canon(self._a * d - a * self._d, self._b * d - b * self._d, self._d * d)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        if d == self._d:
            return _canon(a - self._a, b - self._b, d)
        return _canon(a * self._d - self._a * d, b * self._d - self._b * d, self._d * d)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        a1, b1 = self._a, self._b
        return _canon(a1 * a - b1 * b, a1 * b + b1 * a, self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        a1, b1 = self._a, self._b
        # (a1 + b1*i)/d1 * d*(a - b*i)/n
        return _canon(d * (a1 * a + b1 * b), d * (b1 * a - a1 * b), self._d * n)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _raw(*o) * self.inv()

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inv()
        out = ONE
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return self._a == o[0] and self._b == o[1] and self._d == o[2]

    def __hash__(self):
        # a real value hashes as the equal Fraction, any other value as
        # hash((re, im)); an int hashes like the equal Fraction
        a, b = self._a, self._b
        if self._d == 1:
            return hash(a) if b == 0 else hash((a, b))
        return hash(self.re) if b == 0 else hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def conjugate(self) -> "GaussianRational":
        return _raw(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """|z|^2, exactly."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def inv(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _canon(a * d, -b * d, n)

    def to_complex(self) -> complex:
        # int true division is correctly rounded, as float(Fraction) is, and
        # overflows exactly where it does
        try:
            return complex(self._a / self._d, self._b / self._d)
        except OverflowError:
            raise FloatRangeExceeded(
                f"a part beyond the float range (magnitude above {sys.float_info.max:.4g})"
                " cannot be converted to complex"
            ) from None

    def half_plane(self) -> str:
        """'+', '-' or 'R' according to the sign of the imaginary part."""
        if self._b > 0:
            return "+"
        if self._b < 0:
            return "-"
        return "R"

    def __repr__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"({re}{sign}{abs(im)}i)"


_new = object.__new__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d from a triple that is already canonical."""
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _canon(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, reduced to canonical form."""
    g = math.gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _raw(a, b, d)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def abs_bounds(c: GaussianRational) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure [lo, hi] of |c| with hi - lo <= 2**-64-ish.

    Collapses to an exact value when c is purely real or purely imaginary.
    """
    if c.im == 0:
        a = abs(c.re)
        return a, a
    if c.re == 0:
        a = abs(c.im)
        return a, a
    s = c.abs2()
    p, q = s.numerator, s.denominator
    m = 1 << 64
    r = math.isqrt(p * q * m * m)
    lo = Fraction(r, q * m)
    hi = Fraction(r + 1, q * m)
    return lo, hi


class Polynomial:
    """Polynomial over Q(i), ascending coefficients; [] is the zero polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [GaussianRational.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def coerce(x) -> "Polynomial":
        if isinstance(x, Polynomial):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return Polynomial([GaussianRational.coerce(x)])
        raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial([0, 1])

    @property
    def degree(self) -> int:
        """Degree; -1 encodes the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> GaussianRational:
        if not self.coeffs:
            return ZERO
        return self.coeffs[-1]

    def __add__(self, other):
        try:
            o = Polynomial.coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return _poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = Polynomial.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __mul__(self, other):
        try:
            o = Polynomial.coerce(other)
        except TypeError:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Polynomial()
        out = [ZERO] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return _poly(out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = GaussianRational.coerce(c)
        return _poly([a * c for a in self.coeffs])

    def __divmod__(self, other):
        o = Polynomial.coerce(other)
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        div, m = o.coeffs[:-1], len(o.coeffs)
        rem = list(self.coeffs)
        q = [ZERO] * max(0, len(rem) - m + 1)
        inv_lead = o.lead.inv()
        while len(rem) >= m:
            c = rem.pop() * inv_lead
            k = len(rem) - m + 1
            q[k] = c
            ca, cb, cd = c._a, c._b, c._d
            for j, b in enumerate(div):
                # rem[k + j] - c * b, reduced once
                r = rem[k + j]
                x, y, e = ca * b._a - cb * b._b, ca * b._b + cb * b._a, cd * b._d
                rem[k + j] = _canon(r._a * e - x * r._d, r._b * e - y * r._d, r._d * e)
            while rem and not rem[-1]:
                rem.pop()
        return _poly(q), _poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        try:
            o = Polynomial.coerce(other)
        except TypeError:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # a constant hashes as its coefficient, the equal scalar
        cs = self.coeffs
        if len(cs) > 1:
            return hash(cs)
        return hash(cs[0] if cs else 0)

    def __bool__(self):
        return not self.is_zero

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Polynomial([ONE])
        for _ in range(n):
            out = out * self
        return out

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(self.lead.inv())

    def __call__(self, point):
        point = GaussianRational.coerce(point)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def eval_complex(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c.to_complex()
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([c * k for k, c in enumerate(self.coeffs)][1:])

    def conj_coeffs(self) -> "Polynomial":
        """Coefficient-wise conjugate; on the real line this is pointwise conjugation."""
        return Polynomial([c.conjugate() for c in self.coeffs])

    def reflect(self) -> "Polynomial":
        """Substitute x -> -x."""
        return Polynomial([c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)])

    @staticmethod
    def from_roots(lead, roots) -> "Polynomial":
        """lead * prod (x - r) over the given roots (repetitions allowed)."""
        p = Polynomial([GaussianRational.coerce(lead)])
        for r in roots:
            p = p * Polynomial([-GaussianRational.coerce(r), ONE])
        return p

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic gcd (zero when both are zero): Brown's modular algorithm
        when both degrees exceed _EUCLID_MAX_DEGREE, Euclid otherwise."""
        a, b = self, Polynomial.coerce(other)
        if min(a.degree, b.degree) > _EUCLID_MAX_DEGREE:
            g = _modular_gcd(a, b)
            if g is not None:
                return g
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def egcd(self, other: "Polynomial"):
        """Extended gcd: returns (g, s, t) with s*self + t*other = g, g monic."""
        a, b = self, Polynomial.coerce(other)
        s0, s1 = Polynomial([ONE]), Polynomial()
        t0, t1 = Polynomial(), Polynomial([ONE])
        while not b.is_zero:
            q, r = divmod(a, b)
            a, b = b, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        if a.is_zero:
            return a, s0, t0
        c = a.lead.inv()
        return a.scale(c), s0.scale(c), t0.scale(c)

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{k}")
        return " + ".join(parts)


def _poly(cs: list) -> Polynomial:
    """Polynomial from a list of GaussianRationals, trailing zeros dropped."""
    while cs and not cs[-1]:
        cs.pop()
    p = _new(Polynomial)
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


# Euclid over Q(i) is faster than the modular gcd up to this degree; past it
# its remainders swell (thousands of bits from entries like (-4..4)/(1..2)).
_EUCLID_MAX_DEGREE = 3

# Primes p = 1 (mod 4) just below 2**62, each with s, s*s = -1 (mod p): Z[i]
# maps onto F_p in two ways, i -> s and i -> -s, and the two images of a
# Gaussian integer x + y*i give back x and y.
_GCD_PRIMES = (
    (4611686018427387817, 120863620846201794),
    (4611686018427387761, 1130501565556633554),
    (4611686018427387737, 445087375101645770),
    (4611686018427387733, 678134394580861710),
    (4611686018427387709, 332795564299355040),
    (4611686018427387701, 1516271632427511319),
    (4611686018427387617, 1741778642412996051),
    (4611686018427387461, 28265398815898435),
    (4611686018427387421, 514749418491258170),
    (4611686018427387409, 991982837001326714),
    (4611686018427387329, 2031432188910929020),
    (4611686018427387301, 1241939876926444310),
    (4611686018427387241, 808263873925576861),
    (4611686018427387113, 690495592644948772),
    (4611686018427387073, 180802848473195561),
    (4611686018427386981, 2084562456366214808),
)


def _gcd_mod(f: list, g: list, p: int) -> list:
    """Monic gcd in F_p[x] of two nonzero ascending coefficient lists."""
    f, g = list(f), list(g)
    while g:
        inv = pow(g[-1], -1, p)
        m = len(g) - 1
        while len(f) > m:
            c = f.pop() * inv % p
            if c:
                k = len(f) - m
                for j in range(m):
                    f[k + j] = (f[k + j] - c * g[j]) % p
        while f and not f[-1]:
            f.pop()
        f, g = g, f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _rational_reconstruction(r: int, m: int):
    """The Fraction n/d with n = r*d (mod m) and |n|, d <= sqrt(m/2), or None
    when there is none (Wang's half-extended Euclid)."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _modular_gcd(a: Polynomial, b: Polynomial):
    """Monic gcd of two nonconstant polynomials by Brown's modular algorithm,
    or None when _GCD_PRIMES runs out first.

    The gcd's image under each embedding of Z[i] into F_p divides the image
    gcd, with equality except at finitely many unlucky primes, so images of
    least degree are combined: real and imaginary parts by CRT over the
    primes, then rational reconstruction.  A candidate is returned only when
    it divides both inputs exactly; it is then the gcd, since its degree is
    at least the gcd's.
    """
    # clear denominators: Z[i] coefficients as (re, im) int pairs
    sides = []
    for f in (a, b):
        den = math.lcm(*(c._d for c in f.coeffs))
        sides.append([(c._a * (den // c._d), c._b * (den // c._d)) for c in f.coeffs])
    leads = [f[-1] for f in sides]
    best = None
    for p, s in _GCD_PRIMES:
        if any((x + t * y) % p == 0 for x, y in leads for t in (s, -s)):
            continue
        images = []
        for t in (s, -s):
            u = _gcd_mod(*([(x + t * y) % p for x, y in f] for f in sides), p)
            if len(u) == 1:
                return Polynomial([ONE])
            images.append(u)
        u, v = images
        if best is None or min(len(u), len(v)) < best:
            best, xs = min(len(u), len(v)), None
        if len(u) != len(v) or len(u) > best:
            continue
        # x = (u + v)/2 and y = (u - v)/(2s) are the parts' images mod p
        h = (p + 1) // 2
        hs = (p - s) * h % p  # 1/(2s) = -s/2, as s*s = -1
        xp = [(c + e) * h % p for c, e in zip(u, v)]
        yp = [(c - e) * hs % p for c, e in zip(u, v)]
        if xs is None:
            xs, ys, m = xp, yp, p
        else:
            w = pow(m, -1, p)
            xs = [x + m * ((r - x) * w % p) for x, r in zip(xs, xp)]
            ys = [y + m * ((r - y) * w % p) for y, r in zip(ys, yp)]
            m *= p
        coeffs = []
        for x, y in zip(xs, ys):
            re, im = _rational_reconstruction(x, m), _rational_reconstruction(y, m)
            if re is None or im is None:
                break
            coeffs.append(GaussianRational(re, im))
        else:
            g = _poly(coeffs)
            if not a % g and not b % g:
                return g
    return None


def egcd_many(polys):
    """gcd of a list with Bezout coefficients: sum(c_j * p_j) = g, g monic.

    Zero entries get zero coefficients.
    """
    g = Polynomial()
    coeffs: list[Polynomial] = []
    for p in polys:
        p = Polynomial.coerce(p)
        if g.is_zero:
            if p.is_zero:
                coeffs.append(Polynomial())
            else:
                c = p.lead.inv()
                g = p.scale(c)
                coeffs = [Polynomial() for _ in coeffs]
                coeffs.append(Polynomial([c]))
        else:
            g2, s, t = g.egcd(p)
            coeffs = [s * c for c in coeffs]
            coeffs.append(t)
            g = g2
    return g, coeffs


def count_distinct_real_roots(p: Polynomial) -> int:
    """Sturm count of distinct real roots of a real-coefficient polynomial."""
    if any(c._b for c in p.coeffs):
        raise ValueError("polynomial has non-real coefficients")
    if p.degree <= 0:
        return 0
    chain = [p, p.derivative()]
    while True:
        r = chain[-2] % chain[-1]
        if r.is_zero:
            break
        chain.append(-r)

    def changes(signs) -> int:
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # every member is nonzero; its sign at +inf is its leading sign
    at_plus = [q.lead._a > 0 for q in chain]
    at_minus = [s != (q.degree % 2 == 1) for s, q in zip(at_plus, chain)]
    return changes(at_minus) - changes(at_plus)


def real_roots_of_real_factor(p: Polynomial) -> int:
    """Distinct real roots of p (Gaussian-rational coefficients), exactly.

    Real roots of p are the real roots of gcd(p, conj(p)), which has real
    coefficients after monic normalization.
    """
    if p.is_zero:
        raise ZeroInput("zero polynomial")
    g = p.gcd(p.conj_coeffs())
    if g.degree <= 0:
        return 0
    return count_distinct_real_roots(g)


class RationalFunction:
    """Quotient of polynomials in canonical form: coprime, monic denominator."""

    __slots__ = ("num", "den", "_factored_cache")

    def __init__(self, num, den=None):
        num = Polynomial.coerce(num)
        den = Polynomial.coerce(den if den is not None else 1)
        if den.is_zero:
            raise ZeroDenominator("denominator is identically zero")
        if num.is_zero:
            num, den = Polynomial(), Polynomial([ONE])
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
            c = den.lead.inv()
            num, den = num.scale(c), den.scale(c)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_factored_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @staticmethod
    def coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction, GaussianRational, Polynomial)):
            return RationalFunction(Polynomial.coerce(x))
        raise TypeError(f"cannot coerce {type(x).__name__} to RationalFunction")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> GaussianRational:
        if not self.is_constant:
            raise ValueError("not a constant")
        if self.num.is_zero:
            return ZERO
        return self.num.coeffs[0]

    def __add__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        return RationalFunction(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        if o.is_zero:
            raise ZeroDenominator("division by the zero function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero:
                raise ZeroDenominator("negative power of the zero function")
            return RationalFunction(self.den, self.num) ** (-n)
        out = RationalFunction(Polynomial([ONE]))
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        try:
            o = RationalFunction.coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # denominator 1 (it is monic): hashes as the equal numerator polynomial
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __call__(self, point):
        point = GaussianRational.coerce(point)
        d = self.den(point)
        if not d:
            raise RealPole(f"evaluation at a pole: {point}")
        return self.num(point) / d

    def eval_complex(self, z: complex) -> complex:
        if abs(z) <= 1.0:
            return self.num.eval_complex(z) / self.den.eval_complex(z)
        # reversed-coefficient form keeps huge |z| well conditioned
        w = 1.0 / z
        dn, dd = self.num.degree, self.den.degree
        rn = sum(c.to_complex() * w ** (dn - k) for k, c in enumerate(self.num.coeffs))
        rd = sum(c.to_complex() * w ** (dd - k) for k, c in enumerate(self.den.coeffs))
        return z ** (dn - dd) * rn / rd

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def conj(self) -> "RationalFunction":
        """Pointwise conjugate on the real line: conjugate both coefficient lists."""
        return RationalFunction(self.num.conj_coeffs(), self.den.conj_coeffs())

    def reflect(self) -> "RationalFunction":
        """Substitute x -> -x; swaps the upper and lower half-planes."""
        return RationalFunction(self.num.reflect(), self.den.reflect())

    # -- membership predicates ------------------------------------------------

    def has_real_poles(self) -> bool:
        return real_roots_of_real_factor(self.den) > 0

    def has_real_zeros(self) -> bool:
        if self.num.is_zero:
            return True
        return real_roots_of_real_factor(self.num) > 0

    def bounded_on_line(self) -> bool:
        """Member of L_inf on the real line: no real poles, no growth at infinity."""
        if self.is_zero:
            return True
        return self.num.degree <= self.den.degree and not self.has_real_poles()

    def infinity_value(self):
        """Value at infinity as a GaussianRational, or None for a pole there."""
        if self.is_zero:
            return ZERO
        if self.num.degree < self.den.degree:
            return ZERO
        if self.num.degree == self.den.degree:
            return self.num.lead  # denominator is monic
        return None

    def invertible_on_line(self) -> bool:
        """No zeros or poles on the extended real line."""
        return (
            not self.is_zero
            and self.num.degree == self.den.degree
            and not self.has_real_poles()
            and not self.has_real_zeros()
        )

    def in_half_algebra(self, half: str, tol: float = DEFAULT_TOL) -> bool:
        """Bounded analytic in the open half-plane (rational subclass):
        poles confined to the opposite open half-plane, bounded at infinity."""
        if self.is_zero:
            return True
        if self.num.degree > self.den.degree or self.has_real_poles():
            return False
        for root, _ in _poly_roots(self.den, tol):
            if half_plane_of_root(root) != ("-" if half == "+" else "+"):
                return False
        return True

    def factored(self, tol: float = DEFAULT_TOL) -> "FactoredRational":
        if tol == DEFAULT_TOL and self._factored_cache is not None:
            return self._factored_cache
        f = factor_numeric(self, tol)
        if tol == DEFAULT_TOL:
            object.__setattr__(self, "_factored_cache", f)
        return f

    def __repr__(self):
        if self.den.degree == 0:
            return f"({self.num})"
        return f"({self.num}) / ({self.den})"


def normalize(num, den) -> RationalFunction:
    """Canonical form of num/den (gcd-reduced, monic denominator)."""
    return RationalFunction(num, den)


def half_plane_of_root(root) -> str:
    if isinstance(root, GaussianRational):
        return root.half_plane()
    im = root.imag
    if im > 0:
        return "+"
    if im < 0:
        return "-"
    return "R"


def _root_to_complex(root) -> complex:
    if isinstance(root, GaussianRational):
        return root.to_complex()
    return complex(root)


def _snap_candidates(z: complex, tol: float):
    # candidates are only accepted after exact verification, so the window
    # here is generous: clustered roots come out of the numeric solver with
    # errors far above tol
    window = max(tol, 1e-4 * max(1.0, abs(z)))
    seen = set()
    for d in _SNAP_DENOMS:
        re = Fraction(z.real).limit_denominator(d)
        im = Fraction(z.imag).limit_denominator(d)
        if abs(re - z.real) > window:
            continue
        for cand_im in ((Fraction(0),) if abs(z.imag) <= window else ()) + (
            (im,) if abs(im - z.imag) <= window else ()
        ):
            cand = GaussianRational(re, cand_im)
            if cand not in seen:
                seen.add(cand)
                yield cand


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's decomposition p = lead * prod q_k**k with the q_k squarefree,
    monic and pairwise coprime; exact over Q(i)."""
    if p.is_zero:
        raise ZeroInput("zero polynomial")
    p = p.monic()
    if p.degree <= 0:
        return []
    out = []
    g = p.gcd(p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    c = p // g
    d = p.derivative() // g - c.derivative()
    k = 1
    while c.degree > 0:
        q = c.gcd(d)
        if q.degree > 0:
            out.append((q, k))
        c = c // q
        d = d // q - c.derivative()
        k += 1
    return out


def _locate_roots(p: Polynomial, tol: float = DEFAULT_TOL):
    """Yield the roots of p as (root, multiplicity): exact Gaussian
    rationals where a snapped candidate verifies p(root) == 0,
    high-precision complex otherwise.

    Multiplicities are separated exactly first (squarefree decomposition), so
    the numeric solver only ever locates simple roots.  No root is refused
    here: which region a residual root must stay clear of is the caller's
    question.
    """
    import numpy as np

    if p.is_zero:
        raise ZeroInput("zero polynomial has no root list")
    for part, mult in squarefree_decomposition(p):
        work = part
        if work.degree > 0:
            numeric = np.roots([c.to_complex() for c in reversed(work.coeffs)])
            seen = set()
            for z in numeric:
                if work.degree <= 0:
                    break
                for cand in _snap_candidates(complex(z), tol):
                    if cand in seen:
                        break
                    if not work(cand):
                        seen.add(cand)
                        work = work // Polynomial([-cand, ONE])
                        yield cand, mult
                        break
        if work.degree > 0:
            residual = np.roots([c.to_complex() for c in reversed(work.coeffs)])
            for z in residual:
                yield complex(z), mult


def _poly_roots(p: Polynomial, tol: float = DEFAULT_TOL):
    """The roots of p as [(root, multiplicity)], located by _locate_roots.

    Raises RootClassificationAmbiguous for a residual root within tol of the
    real line (an exactly-real root would have been snapped), so every root
    returned has a definite half-plane.
    """
    result: list = []
    for root, mult in _locate_roots(p, tol):
        if isinstance(root, complex) and abs(root.imag) < tol:
            raise RootClassificationAmbiguous(
                f"root near the real line cannot be pinned exactly: {root}"
            )
        result.append((root, mult))
    return result


class FactoredRational:
    """Rational function as lead * prod (x - root)**mult, roots distinct.

    Negative multiplicities are poles.  Roots are Gaussian rationals when the
    factorization is exact; residual roots from numeric factoring are complex
    floats and block exact expansion.
    """

    __slots__ = ("lead", "factors")

    def __init__(self, lead, factors=()):
        lead = GaussianRational.coerce(lead)
        if not lead:
            raise ZeroInput("factored form of the zero function")
        merged: dict = {}
        inexact = []
        for root, mult in factors:
            mult = int(mult)
            if mult == 0:
                continue
            if isinstance(root, GaussianRational):
                merged[root] = merged.get(root, 0) + mult
            elif isinstance(root, (int, Fraction)):
                r = GaussianRational.coerce(root)
                merged[r] = merged.get(r, 0) + mult
            else:
                inexact.append((complex(root), mult))
        items = [(r, m) for r, m in merged.items() if m != 0]
        items.sort(key=lambda rm: (rm[0].re, rm[0].im))
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "factors", tuple(items) + tuple(inexact))

    def __setattr__(self, name, value):
        raise AttributeError("FactoredRational is immutable")

    @property
    def exact(self) -> bool:
        return all(isinstance(r, GaussianRational) for r, _ in self.factors)

    @property
    def degree_balance(self) -> int:
        """Sum of multiplicities: 0 means invertible at infinity."""
        return sum(m for _, m in self.factors)

    def tags(self):
        return [(root, mult, half_plane_of_root(root)) for root, mult in self.factors]

    def expand(self) -> RationalFunction:
        if not self.exact:
            raise RootClassificationAmbiguous(
                "cannot expand a factorization with inexact roots"
            )
        num = Polynomial([self.lead])
        den = Polynomial([ONE])
        for root, mult in self.factors:
            lin = Polynomial([-root, ONE])
            for _ in range(abs(mult)):
                if mult > 0:
                    num = num * lin
                else:
                    den = den * lin
        return RationalFunction(num, den)

    def inverse(self) -> "FactoredRational":
        return FactoredRational(self.lead.inv(), [(r, -m) for r, m in self.factors])

    def __mul__(self, other):
        if not isinstance(other, FactoredRational):
            if isinstance(other, (int, Fraction, GaussianRational)):
                return FactoredRational(
                    self.lead * GaussianRational.coerce(other), self.factors
                )
            return NotImplemented
        if not (self.exact and other.exact):
            raise RootClassificationAmbiguous("cannot merge inexact factorizations")
        return FactoredRational(
            self.lead * other.lead, list(self.factors) + list(other.factors)
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FactoredRational):
            return NotImplemented
        return self.lead == other.lead and self.factors == other.factors

    def __hash__(self):
        return hash((self.lead, self.factors))

    def eval_complex(self, z: complex) -> complex:
        # log-space product survives widely separated magnitudes on the contour
        acc = cmath.log(self.lead.to_complex())
        for root, mult in self.factors:
            d = z - _root_to_complex(root)
            if d == 0:
                raise ZeroDivisionError("evaluation at a root")
            acc += mult * cmath.log(d)
        return cmath.exp(acc)

    def __repr__(self):
        parts = [f"{self.lead}"]
        for root, mult in self.factors:
            parts.append(f"(x - {root})^{mult}" if mult != 1 else f"(x - {root})")
        return " * ".join(parts)


def expand(f: FactoredRational) -> RationalFunction:
    """Exact product of the linear factors of f."""
    return f.expand()


def factor_numeric(f: RationalFunction, tol: float = DEFAULT_TOL) -> FactoredRational:
    """Locate the zeros and poles of f, snapping to Gaussian rationals where
    an exact candidate verifies; residual roots near the real line are refused."""
    if f.is_zero:
        raise ZeroInput("cannot factor the zero function")
    factors = []
    if f.num.degree > 0:
        factors.extend(_poly_roots(f.num, tol))
    if f.den.degree > 0:
        factors.extend((r, -m) for r, m in _poly_roots(f.den, tol))
    return FactoredRational(f.num.lead, factors)


def _mobius_substitute(p: Polynomial, a: Polynomial, b: Polynomial, d: int) -> Polynomial:
    """b**d * p(a/b) for deg p <= d."""
    out = Polynomial()
    ak = Polynomial([ONE])
    bpow = [Polynomial([ONE])]
    for _ in range(d):
        bpow.append(bpow[-1] * b)
    for k, c in enumerate(p.coeffs):
        out = out + (ak * bpow[d - k]).scale(c)
        ak = ak * a
    return out


def mobius_to_disk(f: RationalFunction) -> RationalFunction:
    """Substitute x = i(1+w)/(1-w): carries the upper half-plane onto the open
    unit disk and the extended real line onto the unit circle (infinity -> 1)."""
    d = max(f.num.degree, f.den.degree, 0)
    a = Polynomial([I, I])        # i(1+w)
    b = Polynomial([ONE, -ONE])   # 1-w
    return RationalFunction(
        _mobius_substitute(f.num, a, b, d), _mobius_substitute(f.den, a, b, d)
    )


def mobius_from_disk(g: RationalFunction) -> RationalFunction:
    """Inverse substitution w = (x-i)/(x+i)."""
    d = max(g.num.degree, g.den.degree, 0)
    a = Polynomial([-I, ONE])     # x-i
    b = Polynomial([I, ONE])      # x+i
    return RationalFunction(
        _mobius_substitute(g.num, a, b, d), _mobius_substitute(g.den, a, b, d)
    )


class _ExpSum:
    """Finite sum of coefficients times exponentials e_freq, kept as terms:
    (freq, coeff) pairs with exact rational frequencies in ascending order
    and no zero coefficient.

    A subclass fixes the coefficient ring through _coeff (coercion of one
    coefficient) and coerce (coercion of a whole operand); the arithmetic
    convolves supports.
    """

    __slots__ = ("terms",)
    _term_format = "{c}*e[{f}]"

    def __init__(self, terms=()):
        coeff_of = self._coeff
        acc = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for freq, coeff in items:
            freq = _as_fraction(freq) if not isinstance(freq, Fraction) else freq
            coeff = coeff_of(coeff)
            if freq in acc:
                coeff = acc[freq] + coeff
            if coeff:
                acc[freq] = coeff
            elif freq in acc:
                del acc[freq]
        object.__setattr__(
            self, "terms", tuple(sorted(acc.items(), key=lambda t: t[0]))
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        try:
            o = self.coerce(other)
        except TypeError:
            return NotImplemented
        return type(self)(list(self.terms) + list(o.terms))

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = self.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return type(self)([(f, -c) for f, c in self.terms])

    def __mul__(self, other):
        try:
            o = self.coerce(other)
        except TypeError:
            return NotImplemented
        out: list = []
        for f1, c1 in self.terms:
            for f2, c2 in o.terms:
                out.append((f1 + f2, c1 * c2))
        return type(self)(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            o = self.coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        # no term, or a lone frequency-0 term: hashes as the equal coefficient
        terms = self.terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and terms[0][0] == 0:
            return hash(terms[0][1])
        return hash(terms)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if self.is_zero:
            return "0"
        return " + ".join(self._term_format.format(c=c, f=f) for f, c in self.terms)


class APPoly(_ExpSum):
    """Almost periodic polynomial: finite map frequency -> coefficient.

    Frequencies are exact rationals; ring operations do exact frequency
    arithmetic (products convolve supports).
    """

    __slots__ = ()
    _coeff = staticmethod(GaussianRational.coerce)

    @staticmethod
    def coerce(x) -> "APPoly":
        if isinstance(x, APPoly):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            c = GaussianRational.coerce(x)
            return APPoly([(Fraction(0), c)] if c else [])
        raise TypeError(f"cannot coerce {type(x).__name__} to APPoly")

    @staticmethod
    def e(freq, coeff=1) -> "APPoly":
        """The exponential basis element coeff * e_freq."""
        return APPoly([(_as_fraction(freq), GaussianRational.coerce(coeff))])

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(f for f, _ in self.terms)

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def coeff(self, freq) -> GaussianRational:
        freq = _as_fraction(freq)
        for f, c in self.terms:
            if f == freq:
                return c
        return ZERO

    def min_freq(self) -> Fraction:
        if self.is_zero:
            raise ZeroInput("zero almost periodic polynomial")
        return self.terms[0][0]

    def max_freq(self) -> Fraction:
        if self.is_zero:
            raise ZeroInput("zero almost periodic polynomial")
        return self.terms[-1][0]

    def dominant_frequency(self) -> Fraction | None:
        """The frequency whose coefficient strictly outweighs all the others
        together, |c_f| > sum of |c_g| over g != f, decided exactly on
        rational enclosures; None when there is none (ties and undecidable
        enclosures count as not dominant).  At most one frequency can be
        strictly dominant."""
        bounds = [abs_bounds(c) for _, c in self.terms]
        hi_total = sum(hi for _, hi in bounds)
        for (f, _), (lo, hi) in zip(self.terms, bounds):
            if lo > hi_total - hi:
                return f
        return None

    def in_half_algebra(self, half: str, tol: float = DEFAULT_TOL) -> bool:
        """Member of AP+ (half '+': support >= 0) or AP- (support <= 0).  tol
        is unused: it is there so that rational and almost periodic entries
        answer the same call."""
        if self.is_zero:
            return True
        if half == "+":
            return self.terms[0][0] >= 0
        return self.terms[-1][0] <= 0

    def conj(self) -> "APPoly":
        """Pointwise conjugate on the real line: conjugate coefficients, negate frequencies."""
        return APPoly([(-f, c.conjugate()) for f, c in self.terms])

    def eval(self, t: float) -> complex:
        return sum(c.to_complex() * cmath.exp(1j * float(f) * t) for f, c in self.terms)

    def wiener_bounds(self) -> tuple[Fraction, Fraction]:
        """Exact enclosure of the coefficient-sum norm."""
        lo = Fraction(0)
        hi = Fraction(0)
        for _, c in self.terms:
            a, b = abs_bounds(c)
            lo += a
            hi += b
        return lo, hi


class MixedFunction(_ExpSum):
    """Finite sum of rational-function coefficients times exponentials e_freq.

    Supports ring arithmetic and determinants only; not factorization.
    """

    __slots__ = ()
    _coeff = staticmethod(RationalFunction.coerce)
    _term_format = "({c})*e[{f}]"

    @staticmethod
    def coerce(x) -> "MixedFunction":
        if isinstance(x, MixedFunction):
            return x
        if isinstance(x, APPoly):
            return MixedFunction(
                [(f, RationalFunction.coerce(c)) for f, c in x.terms]
            )
        if isinstance(x, (int, Fraction, GaussianRational, Polynomial, RationalFunction)):
            return MixedFunction([(Fraction(0), RationalFunction.coerce(x))])
        raise TypeError(f"cannot coerce {type(x).__name__} to MixedFunction")

    @property
    def is_rational(self) -> bool:
        return all(f == 0 for f, _ in self.terms)

    def rational_part(self) -> RationalFunction:
        for f, c in self.terms:
            if f == 0:
                return c
        return RationalFunction(0)

    @property
    def is_pure_ap(self) -> bool:
        return all(c.is_constant for _, c in self.terms)

    def as_appoly(self) -> APPoly:
        if not self.is_pure_ap:
            raise ValueError("coefficients are not constants")
        return APPoly([(f, c.constant_value()) for f, c in self.terms])
