"""Shared random generators for the exact test suites.

Everything is seeded by the caller; all values are exact, so assertions
compare with == and zero tolerance.
"""

from __future__ import annotations

import random
from fractions import Fraction

from whfactor import RingMatrix
from whfactor.exact_linalg import adjoint_submatrix
from whfactor.matrices import AP, POLY, QI, RAT
from whfactor.rings import (
    APPoly,
    FactoredRational,
    GaussianRational,
    Polynomial,
    RationalFunction,
)


def rand_gr(rng: random.Random, span: int = 4, denom: int = 3) -> GaussianRational:
    def frac():
        return Fraction(rng.randint(-span, span), rng.randint(1, denom))

    return GaussianRational(frac(), frac())


def rand_nonzero_gr(rng: random.Random, span: int = 4) -> GaussianRational:
    while True:
        g = rand_gr(rng, span)
        if g:
            return g


def rand_poly(rng: random.Random, max_deg: int = 2, span: int = 3) -> Polynomial:
    deg = rng.randint(0, max_deg)
    return Polynomial([rand_gr(rng, span, 2) for _ in range(deg + 1)])


def rand_invertible_qi(rng: random.Random, n: int) -> tuple[RingMatrix, RingMatrix]:
    """Random invertible matrix over Q(i) with its exact inverse."""
    while True:
        s = RingMatrix(QI, [[rand_gr(rng, 3, 2) for _ in range(n)] for _ in range(n)])
        d = s.det()
        if d:
            return s, s.adjugate().scale(d.inv())


def rand_invertible_poly(rng: random.Random, n: int) -> tuple[RingMatrix, RingMatrix]:
    """Random unimodular matrix over Q(i)[x] (unit determinant) with its
    exact inverse; entry degrees stay <= 2."""
    x = Polynomial.x()
    factors = []
    # two elementary transvections with degree-<=1 offsets, plus a unit diagonal
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        c = rand_gr(rng, 2, 2)
        offset = Polynomial([c]) if rng.random() < 0.5 else Polynomial([c]) * x
        e = [[POLY.one if a == b else POLY.zero for b in range(n)] for a in range(n)]
        e[i][j] = offset
        e_inv = [[POLY.one if a == b else POLY.zero for b in range(n)] for a in range(n)]
        e_inv[i][j] = -offset
        factors.append((RingMatrix(POLY, e), RingMatrix(POLY, e_inv)))
    diag = [rand_nonzero_gr(rng, 2) for _ in range(n)]
    d = RingMatrix(
        POLY,
        [
            [Polynomial([diag[a]]) if a == b else POLY.zero for b in range(n)]
            for a in range(n)
        ],
    )
    d_inv = RingMatrix(
        POLY,
        [
            [Polynomial([diag[a].inv()]) if a == b else POLY.zero for b in range(n)]
            for a in range(n)
        ],
    )
    perm = list(range(n))
    rng.shuffle(perm)
    s = factors[0][0] * d * factors[1][0]
    s = s.permute_rows(perm)
    # (P M)^-1 = M^-1 P^T, whose k-th column is column perm[k] of M^-1
    s_inv = factors[1][1] * d_inv * factors[0][1]
    s_inv = s_inv.permute_cols(perm)
    return s, s_inv


def rand_invertible(rng: random.Random, n: int, ring_name: str):
    if ring_name == "gaussian":
        return rand_invertible_qi(rng, n)
    if ring_name == "polynomial":
        return rand_invertible_poly(rng, n)
    raise ValueError(ring_name)


def rand_offline_root(rng: random.Random, half: str | None = None) -> GaussianRational:
    """Gaussian rational with nonzero imaginary part (off the real line)."""
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    im = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    if half == "-" or (half is None and rng.random() < 0.5):
        im = -im
    return GaussianRational(re, im)


def rand_line_invertible_factored(
    rng: random.Random, max_factors: int = 6
) -> FactoredRational:
    """Balanced factored rational with all roots off the real line."""
    count = rng.randint(0, max_factors - 1)
    factors = {}
    for _ in range(count):
        root = rand_offline_root(rng)
        mult = rng.choice([-2, -1, 1, 2])
        factors[root] = factors.get(root, 0) + mult
    balance = sum(factors.values())
    if balance != 0:
        root = rand_offline_root(rng)
        factors[root] = factors.get(root, 0) - balance
    return FactoredRational(rand_nonzero_gr(rng), list(factors.items()))


def rand_half_plane_function(
    rng: random.Random, half: str = "+", max_deg: int = 2
) -> RationalFunction:
    """Rational function analytic and bounded in the given half-plane:
    poles in the opposite open half-plane, numerator degree <= denominator."""
    den_deg = rng.randint(0, max_deg)
    opposite = "-" if half == "+" else "+"
    den_roots = [rand_offline_root(rng, opposite) for _ in range(den_deg)]
    den = Polynomial.from_roots(1, den_roots)
    num = rand_poly(rng, den_deg, 3)
    while num.degree > den.degree:
        num = rand_poly(rng, den_deg, 3)
    f = RationalFunction(num, den)
    # reduction may cancel; boundedness is preserved by construction
    return f


def rand_appoly(
    rng: random.Random, max_terms: int = 4, denom: int = 4, span: int = 3
) -> APPoly:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        freq = Fraction(rng.randint(-6, 6), rng.randint(1, denom))
        terms.append((freq, rand_gr(rng, span, 2)))
    return APPoly(terms)


def rand_ap_plus(rng: random.Random, max_terms: int = 3) -> APPoly:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        freq = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        terms.append((freq, rand_gr(rng, 2, 2)))
    return APPoly(terms)


def rat_matrix(entries) -> RingMatrix:
    return RingMatrix(RAT, [[RationalFunction.coerce(e) for e in row] for row in entries])


def ap_matrix(entries) -> RingMatrix:
    return RingMatrix(AP, [[APPoly.coerce(e) for e in row] for row in entries])


def calibrate_sign_matrix(m: int, trials: int = 4, seed: int = 7) -> list[int]:
    """Recover the diagonal sign matrix S_m from the contract
    adjoint_submatrix(phi, I) * phi == det(phi_I) * S_m on random exact
    instances over Q(i).  Returns the diagonal as a list of +-1."""
    rng = random.Random(seed + m)
    diag = None
    done = 0
    while done < trials:
        n = m + rng.choice([0, 1, 2])
        phi = RingMatrix(
            QI,
            [
                [GaussianRational(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(m)]
                for _ in range(n)
            ],
        )
        subset = tuple(sorted(rng.sample(range(n), m)))
        d = phi.submatrix(subset, range(m)).det()
        if not d:
            continue
        prod = adjoint_submatrix(phi, subset) * phi
        inv_d = d.inv()
        signs = []
        ok = True
        for q in range(m):
            for p in range(m):
                ratio = prod[q, p] * inv_d
                if p == q:
                    if ratio == QI.one:
                        signs.append(1)
                    elif ratio == -QI.one:
                        signs.append(-1)
                    else:
                        ok = False
                elif ratio:
                    ok = False
        if not ok:
            raise AssertionError("product is not det times a diagonal sign matrix")
        if diag is None:
            diag = signs
        elif diag != signs:
            raise AssertionError("sign matrix is not constant across instances")
        done += 1
    return diag
