"""Seeded random inputs for the benchmark workloads.

The distributions follow the acceptance suite's generators (criterion 1:
unimodular matrices over Q(i) and Q(i)[x]; criterion 3: half-plane corona
tuples; criterion 4: line-invertible factored symbols; criterion 7: almost
periodic polynomials).  They are written against the package's public
constructors only, and exact inverses are computed here by the benchmark's
own elimination, so the code under test never produces its own inputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from whfactor.matrices import POLY, QI, RAT, RingMatrix
from whfactor.rings import (
    APPoly,
    FactoredRational,
    GaussianRational,
    Polynomial,
    RationalFunction,
)

ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gr(rng, span=4, denom=3) -> GaussianRational:
    def frac():
        return Fraction(rng.randint(-span, span), rng.randint(1, denom))

    return GaussianRational(frac(), frac())


def nonzero_gr(rng, span=4) -> GaussianRational:
    while True:
        g = gr(rng, span)
        if g:
            return g


def poly(rng, max_deg=2, span=3) -> Polynomial:
    return Polynomial([gr(rng, span, 2) for _ in range(rng.randint(0, max_deg) + 1)])


def lin(root) -> Polynomial:
    return Polynomial([-GaussianRational.coerce(root), ONE])


def offline_root(rng, half=None) -> GaussianRational:
    """Gaussian rational off the real line, in the given half-plane."""
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    im = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    if half == "-" or (half is None and rng.random() < 0.5):
        im = -im
    return GaussianRational(re, im)


def half_plane_function(rng, half="+", max_deg=2, den_deg=None) -> RationalFunction:
    """Bounded analytic in the given half-plane: poles in the opposite open
    half-plane, numerator degree <= denominator degree."""
    if den_deg is None:
        den_deg = rng.randint(0, max_deg)
    opposite = "-" if half == "+" else "+"
    den = Polynomial.from_roots(1, [offline_root(rng, opposite) for _ in range(den_deg)])
    num = poly(rng, den_deg, 3)
    while num.degree > den.degree:
        num = poly(rng, den_deg, 3)
    return RationalFunction(num, den)


def unit(rng, half="+") -> RationalFunction:
    """Invertible element of the half-plane algebra: zero and pole both in
    the opposite open half-plane."""
    opposite = "-" if half == "+" else "+"
    return RationalFunction(lin(offline_root(rng, opposite)), lin(offline_root(rng, opposite)))


def line_bounded(rng, max_deg=1) -> RationalFunction:
    """Bounded on the line, poles off it in either half-plane."""
    return half_plane_function(rng, rng.choice("+-"), max_deg)


class Deck:
    """Seeded draws from `cards` without replacement, reshuffled when the
    deck runs out, so that each card comes up once per pass through it.
    Each card keeps its probability, but a run's mix of instance shapes, and
    with it the run's cost, no longer varies from seed to seed as much as
    independent draws would make it."""

    def __init__(self, rng, cards):
        self.rng = rng
        self.cards = list(cards)
        self.left: list = []

    def draw(self):
        if not self.left:
            self.left = list(self.cards)
            self.rng.shuffle(self.left)
        return self.left.pop()


# ------------------------------------------------------------ criterion 1


def _gauss_jordan_inverse(rows):
    """Inverse of a square Q(i) matrix by the benchmark's own elimination,
    or None when singular."""
    n = len(rows)
    zero = GaussianRational(0)
    a = [list(r) + [ONE if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        inv = ONE / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def invertible_qi(rng, n):
    """Random invertible matrix over Q(i) and its exact inverse."""
    while True:
        rows = [[gr(rng, 3, 2) for _ in range(n)] for _ in range(n)]
        inv = _gauss_jordan_inverse(rows)
        if inv is not None:
            return RingMatrix(QI, rows), RingMatrix(QI, inv)


def unimodular_poly(rng, n, linked):
    """Unimodular matrix over Q(i)[x] with its exact inverse: two
    transvections with degree-1 offsets, a unit diagonal and a row
    permutation; entry degrees stay <= 2.  (Criterion 1 flips a coin for
    each offset's degree; fixing both at 1 keeps the largest case in every
    round and removes the coin's fourfold spread in job cost.)  The
    transvections are linked when the second's row is the first's column,
    which happens with probability 1/n and makes the product's entries of
    degree 2 instead of 1 (and its jobs about 1.5 times as costly);
    `linked` says which, and the positions are drawn given it."""
    x = Polynomial.x()

    def elementary(i, j, offset):
        return RingMatrix(
            POLY,
            [[offset if (a, b) == (i, j) else (POLY.one if a == b else POLY.zero)
              for b in range(n)] for a in range(n)],
        )

    first = rng.sample(range(n), 2)
    second = rng.sample(range(n), 2)
    while (second[0] == first[1]) != linked:
        second = rng.sample(range(n), 2)
    factors = []
    for i, j in (first, second):
        offset = Polynomial([gr(rng, 2, 2)]) * x
        factors.append((elementary(i, j, offset), elementary(i, j, -offset)))
    diag = [nonzero_gr(rng, 2) for _ in range(n)]

    def diagonal(values):
        return RingMatrix(
            POLY, [[Polynomial([values[a]]) if a == b else POLY.zero for b in range(n)]
                   for a in range(n)],
        )

    perm = list(range(n))
    rng.shuffle(perm)
    s = (factors[0][0] * diagonal(diag) * factors[1][0]).permute_rows(perm)
    s_inv = (factors[1][1] * diagonal([d.inv() for d in diag]) * factors[0][1]).permute_cols(perm)
    return s, s_inv


def lift_rational(m: RingMatrix) -> RingMatrix:
    return RingMatrix(RAT, [[RationalFunction(p) for p in row] for row in m.entries])


# ------------------------------------------------------------ criterion 3

def tuple_shapes(k_max=3, max_deg=2):
    """Shapes of the random part of a criterion-3 tuple (the denominator
    degrees of its 1..k_max functions) as cards of a Deck: k and each degree
    are uniform, so a shape of k functions gets (max_deg + 1)**(k_max - k)
    cards."""
    return [degs for k in range(1, k_max + 1)
            for degs in product(range(max_deg + 1), repeat=k)
            for _ in range((max_deg + 1) ** (k_max - k))]


def hplus_solvable(rng, stratum, degs=None):
    """Criterion-3 solvable tuple conditioned on its total denominator
    degree: random analytic functions (of denominator degrees `degs`, drawn
    when not given) plus one unit of H+."""
    while degs is None:
        k = rng.randint(1, 3)
        degs = [rng.randint(0, 2) for _ in range(k)]
        if 1 + sum(degs) != stratum:
            degs = None
    if 1 + sum(degs) != stratum:
        raise ValueError(f"shape {degs} is not of stratum {stratum}")
    h = [half_plane_function(rng, "+", den_deg=d) for d in degs]
    h.append(unit(rng, "+"))
    return h


def hplus_planted_failure(rng, degs):
    """Criterion-3 failure tuple: every entry vanishes at a real point t.
    `degs` gives the denominator degrees of the random functions (a card of
    tuple_shapes)."""
    t = GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
    zero = RationalFunction(lin(t), lin(-I))
    h = [half_plane_function(rng, "+", den_deg=d) * zero for d in degs]
    h.append(zero)
    return h


# ------------------------------------------------------------ criterion 4


def line_invertible_factored(rng, max_factors=6, draws=None) -> FactoredRational:
    """Balanced factored rational with all roots off the real line, from
    `draws` random factors (drawn from 0..max_factors - 1 when not given)
    and a balancing one."""
    if draws is None:
        draws = rng.randint(0, max_factors - 1)
    factors = {}
    for _ in range(draws):
        root = offline_root(rng)
        factors[root] = factors.get(root, 0) + rng.choice([-2, -1, 1, 2])
    balance = sum(factors.values())
    if balance:
        root = offline_root(rng)
        factors[root] = factors.get(root, 0) - balance
    return FactoredRational(nonzero_gr(rng), list(factors.items()))


def symbol_with_index(rng, k) -> FactoredRational:
    """Line-invertible scalar symbol c (x - a)/(x - b) whose winding (zeros
    minus poles in the upper half-plane) is k in {-1, 0, 1}."""
    half = {1: ("+", "-"), -1: ("-", "+"), 0: (rng.choice("+-"),) * 2}[k]
    zero, pole = offline_root(rng, half[0]), offline_root(rng, half[1])
    while pole == zero:
        pole = offline_root(rng, half[1])
    return FactoredRational(nonzero_gr(rng, 2), [(zero, 1), (pole, -1)])


# ------------------------------------------------- matrix symbols (n <= 3)


def row_structured(rng, n, k, half="+"):
    """Symbol G = [psi; g] whose first n-1 rows psi are upper triangular over
    the half-plane algebra with unit diagonal, so psi is right invertible
    there, and whose determinant is a scalar symbol of index k.  Returns
    (G, psi, known right inverse of psi, scalar symbol).  Entries above the
    diagonal are constants for every n: the one-sided inverse the corona
    solver builds for degree-1 entries swells past ten seconds of partial
    fractions per job."""
    entry_deg = 0
    anchor = -I if half == "+" else I
    opposite = "-" if half == "+" else "+"
    units = [RationalFunction(lin(offline_root(rng, opposite)), lin(anchor)) for _ in range(n - 1)]
    psi = [[RAT.zero] * n for _ in range(n - 1)]
    for i in range(n - 1):
        psi[i][i] = units[i]
        for j in range(i + 1, n):
            psi[i][j] = half_plane_function(rng, half, max_deg=entry_deg)
    # right inverse by back substitution: psi * phi = I on the first n-1 columns
    phi = [[RAT.zero] * (n - 1) for _ in range(n)]
    for c in range(n - 1):
        for i in reversed(range(n - 1)):
            acc = RAT.one if i == c else RAT.zero
            for j in range(i + 1, n - 1):
                acc = acc - psi[i][j] * phi[j][c]
            phi[i][c] = acc / units[i]
    symbol = symbol_with_index(rng, k)
    # the last cofactor of psi is the product of its diagonal units
    prod = RAT.one
    for u in units:
        prod = prod * u
    last = [RAT.zero] * (n - 1) + [symbol.expand() / prod]
    for i in range(n - 1):
        b = line_bounded(rng)
        last = [x + b * p for x, p in zip(last, psi[i])]
    G = RingMatrix(RAT, psi + [last])
    return G, RingMatrix(RAT, psi), RingMatrix(RAT, phi), symbol


def column_structured(rng, n, k):
    """Transpose-dual of row_structured over H-: G = [phi | g] with phi left
    invertible over H-; returns (G, phi, known left inverse, symbol)."""
    G, psi, right, symbol = row_structured(rng, n, k, half="-")
    return G.transpose(), psi.transpose(), right.transpose(), symbol


def strictly_proper_plus(rng) -> RationalFunction:
    """Strictly proper, poles in the lower half-plane (an H^p_+ vector entry)."""
    return RationalFunction(Polynomial([nonzero_gr(rng, 3)]), lin(offline_root(rng, "-")))


# ------------------------------------------------------------ criterion 7


def appoly(rng, max_terms=4, denom=4, span=3, draws=None) -> APPoly:
    """Random AP polynomial from `draws` terms (drawn from 0..max_terms when
    not given); terms of equal frequency merge."""
    if draws is None:
        draws = rng.randint(0, max_terms)
    terms = []
    for _ in range(draws):
        terms.append((Fraction(rng.randint(-6, 6), rng.randint(1, denom)), gr(rng, span, 2)))
    return APPoly(terms)


# ------------------------------------------------ exact point evaluation


def evaluate(f, point: GaussianRational) -> GaussianRational:
    """f(point) for a Polynomial or RationalFunction by the benchmark's own
    Horner scheme over Q(i); raises ZeroDivisionError at a pole."""
    if isinstance(f, RationalFunction):
        return evaluate(f.num, point) / evaluate(f.den, point)
    acc = GaussianRational(0)
    for c in reversed(f.coeffs):
        acc = acc * point + c
    return acc


def evaluate_matrix(m: RingMatrix, point: GaussianRational):
    return [[evaluate(e, point) for e in row] for row in m.entries]


def matmul(a, b):
    zero = GaussianRational(0)
    out = []
    for row in a:
        acc_row = []
        for j in range(len(b[0])):
            acc = zero
            for k, x in enumerate(row):
                acc = acc + x * b[k][j]
            acc_row.append(acc)
        out.append(acc_row)
    return out


def probe_points(rng, count=3):
    """Exact points in general position (off the line, away from the small
    Gaussian rationals the generators use as zeros and poles)."""
    return [GaussianRational(Fraction(rng.randint(-97, 97), 89), Fraction(rng.randint(5, 97), 83))
            for _ in range(count)]
