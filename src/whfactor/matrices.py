"""Dense matrices over a pluggable commutative ring.

Determinants use subset dynamic programming (Laplace expansion with shared
minors), which is exact in any commutative ring and adequate at the small
sizes this library targets (n up to ~8).  The same subset table serves
adjugates: one table per deleted column yields a whole row of cofactors.
Over the rational ring, minors and products first clear each row (the
right factor of a product: each column) to one polynomial denominator, run
over Q(i)[x], and canonicalize each returned entry once, instead of once
per sum and product term.
One entry scan answers every membership question the factorization routes,
the corona solvers and the Fredholm reports ask of a matrix or a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ShapeMismatch
from .rings import (
    APPoly,
    GaussianRational,
    MixedFunction,
    Polynomial,
    RationalFunction,
)


@dataclass(frozen=True)
class Ring:
    """Minimal ring descriptor: identity elements plus unit inversion."""

    name: str
    zero: object
    one: object

    def coerce(self, x):
        return type(self.one).coerce(x)

    def invert(self, x):
        if self.name == "gaussian":
            return x.inv()
        if self.name == "polynomial":
            if x.degree != 0:
                raise ZeroDivisionError("only nonzero constants are units in the polynomial ring")
            return Polynomial([x.coeffs[0].inv()])
        if self.name == "rational":
            if x.is_zero:
                raise ZeroDivisionError("zero rational function")
            return RationalFunction(x.den, x.num)
        if self.name == "ap":
            if not x.is_monomial:
                raise ZeroDivisionError("only monomials are units among almost periodic polynomials")
            freq, coeff = x.terms[0]
            return APPoly([(-freq, coeff.inv())])
        if self.name == "mixed":
            if len(x.terms) != 1:
                raise ZeroDivisionError("only single-term mixed functions are inverted here")
            freq, coeff = x.terms[0]
            return MixedFunction([(-freq, 1 / coeff)])
        raise ZeroDivisionError(f"no unit inversion for ring {self.name}")


QI = Ring("gaussian", GaussianRational(0), GaussianRational(1))
POLY = Ring("polynomial", Polynomial(), Polynomial([1]))
RAT = Ring("rational", RationalFunction(0), RationalFunction(1))
AP = Ring("ap", APPoly(), APPoly.coerce(1))
MIXED = Ring("mixed", MixedFunction(), MixedFunction.coerce(1))

RINGS = {r.name: r for r in (QI, POLY, RAT, AP, MIXED)}


class RingMatrix:
    """Immutable dense matrix; entries share one ring."""

    __slots__ = ("rows", "cols", "entries", "ring", "_det")

    def __init__(self, ring: Ring, entries):
        rows = [list(r) for r in entries]
        if not rows or not rows[0]:
            raise ShapeMismatch("empty matrix")
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatch("ragged rows")
        coerced = tuple(tuple(ring.coerce(x) for x in r) for r in rows)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", coerced)
        object.__setattr__(self, "_det", None)

    def __setattr__(self, name, value):
        raise AttributeError("RingMatrix is immutable")

    @staticmethod
    def identity(ring: Ring, n: int) -> "RingMatrix":
        return RingMatrix(
            ring, [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(ring: Ring, rows: int, cols: int) -> "RingMatrix":
        return RingMatrix(ring, [[ring.zero] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> "RingMatrix":
        return RingMatrix(self.ring, [self.entries[i]])

    def col(self, j: int) -> "RingMatrix":
        return RingMatrix(self.ring, [[r[j]] for r in self.entries])

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __add__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        return RingMatrix(
            self.ring,
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("subtraction shape mismatch")
        return RingMatrix(
            self.ring,
            [
                [a - b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self):
        return RingMatrix(self.ring, [[-a for a in r] for r in self.entries])

    def __mul__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"product shape mismatch: {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.ring is RAT and other.ring is RAT:
            rows = [_cleared(r) for r in self.entries]
            cols = [_cleared(c) for c in zip(*other.entries)]
            return RingMatrix(self.ring, [
                [RationalFunction(sum((x * y for x, y in zip(p, q)), Polynomial()), a * b)
                 for b, q in cols]
                for a, p in rows
            ])
        zero = self.ring.zero
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return RingMatrix(self.ring, out)

    def scale(self, c) -> "RingMatrix":
        c = self.ring.coerce(c)
        return RingMatrix(self.ring, [[a * c for a in r] for r in self.entries])

    def map(self, fn) -> "RingMatrix":
        return RingMatrix(self.ring, [[fn(a) for a in r] for r in self.entries])

    def transpose(self) -> "RingMatrix":
        return RingMatrix(
            self.ring,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def submatrix(self, row_idx, col_idx) -> "RingMatrix":
        return RingMatrix(
            self.ring, [[self.entries[i][j] for j in col_idx] for i in row_idx]
        )

    def delete_row(self, i: int) -> "RingMatrix":
        return self.submatrix(
            [r for r in range(self.rows) if r != i], range(self.cols)
        )

    def delete_col(self, j: int) -> "RingMatrix":
        return self.submatrix(
            range(self.rows), [c for c in range(self.cols) if c != j]
        )

    def hstack(self, other: "RingMatrix") -> "RingMatrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        return RingMatrix(
            self.ring, [list(a) + list(b) for a, b in zip(self.entries, other.entries)]
        )

    def vstack(self, other: "RingMatrix") -> "RingMatrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack column mismatch")
        return RingMatrix(self.ring, list(self.entries) + list(other.entries))

    def permute_rows(self, perm) -> "RingMatrix":
        return RingMatrix(self.ring, [self.entries[p] for p in perm])

    def permute_cols(self, perm) -> "RingMatrix":
        return RingMatrix(
            self.ring, [[r[p] for p in perm] for r in self.entries]
        )

    def det(self):
        """The determinant, taken once per matrix (the matrix is immutable)."""
        if self._det is None:
            if self.rows != self.cols:
                raise ShapeMismatch("determinant of a non-square matrix")
            table = minors_by_subset(self, self.cols)
            object.__setattr__(self, "_det", table[tuple(range(self.rows))])
        return self._det

    def adjugate(self) -> "RingMatrix":
        if self.rows != self.cols:
            raise ShapeMismatch("adjugate of a non-square matrix")
        n = self.rows
        if n == 1:
            return RingMatrix.identity(self.ring, 1)
        out = []
        for i in range(n):
            # row i: minors of the matrix without column i, keyed by the omitted row
            table = minors_by_subset(self.delete_col(i), n - 1)
            row = []
            for j in range(n):
                minor = table[tuple(r for r in range(n) if r != j)]
                row.append(minor if (i + j) % 2 == 0 else -minor)
            out.append(row)
        return RingMatrix(self.ring, out)

    def inverse(self) -> "RingMatrix":
        """Adjugate inverse; requires the determinant to be a unit of the ring."""
        d = self.det()
        inv_d = self.ring.invert(d)
        return self.adjugate().scale(inv_d)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                want = self.ring.one if i == j else self.ring.zero
                if not self.entries[i][j] == want:
                    return False
        return True

    def __repr__(self):
        body = "; ".join(
            "[" + ", ".join(repr(a) for a in r) + "]" for r in self.entries
        )
        return f"RingMatrix({self.ring.name}, {self.rows}x{self.cols}: {body})"


def minors_by_subset(m: RingMatrix, size: int):
    """Determinants of the (rows S, first size columns) submatrices for all
    row subsets S with |S| = size, keyed by S, sharing subproblems across
    subsets.  Over the rational ring the table runs over the rows cleared
    to one denominator d_i each, and each minor is built once, as
    det P_S / prod of d_i over S."""
    if size > m.cols:
        raise ShapeMismatch("subset size exceeds column count")
    if m.ring is not RAT:
        return _subset_minors(m.entries, size, m.ring)
    dens, rows = zip(*(_cleared(r[:size]) for r in m.entries))
    table = _subset_minors(rows, size, POLY)
    out = {}
    for subset, minor in table.items():
        den = POLY.one
        for i in subset:
            if dens[i].degree > 0:
                den = den * dens[i]
        out[subset] = RationalFunction(minor, den)
    return out


def _subset_minors(entries, size: int, ring: Ring):
    """The subset table of minors_by_subset over entries, rows of ring elements."""
    table: dict[tuple, object] = {(): ring.one}
    for k in range(1, size + 1):
        nxt = {}
        col = k - 1
        for subset in combinations(range(len(entries)), k):
            acc = ring.zero
            # expand along the last column; positions run top to bottom
            for pos, i in enumerate(subset):
                entry = entries[i][col]
                minor = table[subset[:pos] + subset[pos + 1 :]]
                term = entry * minor
                if (pos + k - 1) % 2 == 1:
                    term = -term
                acc = acc + term
            nxt[subset] = acc
        table = nxt
    return table


def _cleared(fractions):
    """(d, numerators): the monic lcm d of the rational functions'
    denominators, through Polynomial.gcd, and each f as num * (d / den),
    so that f == numerator / d; builds no RationalFunction."""
    d = POLY.one
    for f in fractions:
        den = f.den
        if den.degree > 0 and den != d:
            d = den if d.degree == 0 else d * (den // d.gcd(den))
    return d, [
        f.num if not f.num or f.den == d
        else f.num * (d if f.den.degree == 0 else d // f.den)
        for f in fractions
    ]


def _outside(entries, half, tol):
    """Positions of the entries outside the algebra, lazily in row-major
    order: the half-plane algebra of half ('+' or '-'; rational and almost
    periodic elements both answer in_half_algebra), or with half None the
    functions bounded on the real line.  Zero lies in every algebra and is
    not asked.  entries is a RingMatrix, with positions (i, j), or a
    sequence, with positions j."""
    if isinstance(entries, RingMatrix):
        cells = (((i, j), x) for i, row in enumerate(entries.entries) for j, x in enumerate(row))
    else:
        cells = enumerate(entries)
    for pos, x in cells:
        if x and not (x.bounded_on_line() if half is None else x.in_half_algebra(half, tol)):
            yield pos


def _require_inside(entries, half, tol, error, what: str) -> None:
    """Raise error naming the first entry of what outside the algebra (see _outside)."""
    pos = next(_outside(entries, half, tol), None)
    if pos is None:
        return
    at = f"({pos[0]},{pos[1]})" if isinstance(pos, tuple) else pos
    if half is None:
        raise error(f"{what} entry {at} is not bounded on the real line")
    raise error(f"{what} entry {at} is outside the {half} half-plane algebra")
