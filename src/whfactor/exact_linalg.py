"""One-sided invertibility of rectangular matrices over a commutative ring.

A tall matrix is left invertible exactly when the vector of its maximal
minors admits a Bezout combination equal to 1; the left inverse is then an
explicit sum of adjugate-style blocks weighted by the Bezout coefficients.
Completions extend a corank-one matrix and its left inverse to a mutually
inverse square pair with determinant (-1)**(n-1).

Sign convention.  For a row subset I the block ``adjoint_submatrix(phi, I)``
places the classical adjugate of phi_I into the columns indexed by I (row
positions inside I drive the cofactor signs), which gives

    adjoint_submatrix(phi, I) * phi == det(phi_I) * Identity

with the identity matrix on the right - i.e. the calibrated diagonal sign
matrix is the identity for every size.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

from .errors import (
    BezoutCertificateInvalid,
    NotALeftInverse,
    ShapeMismatch,
)
from .matrices import Ring, RingMatrix, minors_by_subset


@dataclass(frozen=True)
class MinorVector:
    """All maximal minors of a tall matrix, paired with their row subsets.

    Subsets are 0-based, lexicographically ordered; the order is part of the
    contract (certificates index into it).
    """

    subsets: tuple[tuple[int, ...], ...]
    values: tuple

    def __len__(self):
        return len(self.values)

    def subsets_one_based(self):
        return tuple(tuple(i + 1 for i in s) for s in self.subsets)


@dataclass(frozen=True)
class Completion:
    """Square extension of a corank-one pair: psi_e * phi_e = phi_e * psi_e = I."""

    phi_e: RingMatrix
    psi_e: RingMatrix
    det_value: object


@dataclass
class Diagnosis:
    """Outcome of a one-sided invertibility query.

    status is one of 'certificate', 'not_invertible', 'unresolved'.
    """

    status: str
    minors: MinorVector | None = None
    certificate: list | None = None
    witness: object = None
    inverse: RingMatrix | None = None
    notes: list = field(default_factory=list)


def maximal_minors(phi: RingMatrix) -> MinorVector:
    """Determinants of all maximal square submatrices of a tall matrix."""
    n, m = phi.rows, phi.cols
    if m > n:
        raise ShapeMismatch("matrix must have at least as many rows as columns")
    subsets = tuple(combinations(range(n), m))
    if m == 0:
        return MinorVector(subsets, (phi.ring.one,))
    table = minors_by_subset(phi, m)
    return MinorVector(subsets, tuple(table[s] for s in subsets))


def omitted_row_minors(phi: RingMatrix) -> list:
    """Minors of an n x (n-1) matrix indexed by the omitted row: the
    lexicographic (n-1)-row subsets omit rows n-1, ..., 0 in turn."""
    n, m = phi.rows, phi.cols
    if m != n - 1:
        raise ShapeMismatch("expected a corank-one matrix")
    return list(maximal_minors(phi).values[::-1])


def adjoint_submatrix(phi: RingMatrix, subset) -> RingMatrix:
    """Adjugate of the submatrix phi_I scattered into an m x n block.

    Column p is zero unless p is in I; then it carries the cofactors of the
    row of phi_I at p's position.  Satisfies M * phi == det(phi_I) * I.
    """
    n, m = phi.rows, phi.cols
    subset = tuple(subset)
    if len(subset) != m:
        raise ShapeMismatch("subset size must equal the column count")
    adj = phi.submatrix(subset, range(m)).adjugate()
    out = [[phi.ring.zero] * n for _ in range(m)]
    for q in range(m):
        for pos, p in enumerate(subset):
            out[q][p] = adj[q, pos]
    return RingMatrix(phi.ring, out)


def delta_left_inverse_from_psi(psi: RingMatrix, phi: RingMatrix) -> list:
    """Row of maximal minors of psi^T (= column-subset minors of psi); a left
    inverse of the minor column of phi whenever psi * phi = I."""
    if psi.cols != phi.rows or psi.rows != phi.cols:
        raise ShapeMismatch("inverse-candidate shapes do not match")
    if not (psi * phi).is_identity():
        raise NotALeftInverse("psi * phi is not the identity")
    return list(maximal_minors(psi.transpose()).values)


def _bezout_pairing(values, delta_star, ring: Ring):
    acc = ring.zero
    for c, d in zip(delta_star, values):
        acc = acc + ring.coerce(c) * d
    return acc


def left_inverse_general(phi: RingMatrix, delta_star) -> RingMatrix:
    """Left inverse from a Bezout certificate against the maximal minors
    (certificate indexed in the lexicographic subset order)."""
    mv = maximal_minors(phi)
    if len(delta_star) != len(mv):
        raise BezoutCertificateInvalid("certificate length mismatch")
    ring = phi.ring
    if not _bezout_pairing(mv.values, delta_star, ring) == ring.one:
        raise BezoutCertificateInvalid("certificate does not combine the minors to 1")
    psi = RingMatrix.zeros(ring, phi.cols, phi.rows)
    for c, subset in zip(delta_star, mv.subsets):
        c = ring.coerce(c)
        if not c:
            continue
        psi = psi + adjoint_submatrix(phi, subset).scale(c)
    if not (psi * phi).is_identity():
        raise AssertionError("constructed candidate failed the left-inverse identity")
    return psi


def left_inverse_corank1(phi: RingMatrix, delta_star) -> RingMatrix:
    """Left inverse of an n x (n-1) matrix from a certificate against the
    omitted-row minors: sum_j delta_star[j] * det(phi without row j) = 1.

    This is the general construction with the certificate read in
    lexicographic subset order, which omits rows n-1, ..., 0 in turn.
    """
    n, m = phi.rows, phi.cols
    if m != n - 1:
        raise ShapeMismatch("expected a corank-one matrix")
    if len(delta_star) != n:
        raise BezoutCertificateInvalid("certificate length must equal the row count")
    return left_inverse_general(phi, delta_star[::-1])


def complete(phi: RingMatrix, psi: RingMatrix) -> Completion:
    """Extend a corank-one pair to mutually inverse square matrices.

    The new column holds the signed column-subset minors of psi, the new row
    the signed omitted-row minors of phi; both determinants are (-1)**(n-1).
    """
    n, m = phi.rows, phi.cols
    if m != n - 1:
        raise ShapeMismatch("expected a corank-one matrix")
    if psi.rows != m or psi.cols != n:
        raise ShapeMismatch("left-inverse shape mismatch")
    if not (psi * phi).is_identity():
        raise NotALeftInverse("psi * phi is not the identity")
    ring = phi.ring
    col = [v if j % 2 == 0 else -v for j, v in enumerate(omitted_row_minors(psi.transpose()))]
    row = [v if j % 2 == 0 else -v for j, v in enumerate(omitted_row_minors(phi))]
    phi_e = phi.hstack(RingMatrix(ring, [[v] for v in col]))
    psi_e = psi.vstack(RingMatrix(ring, [row]))
    if not (psi_e * phi_e).is_identity() or not (phi_e * psi_e).is_identity():
        raise NotALeftInverse("completion failed its two-sided identity")
    want = ring.one if (n - 1) % 2 == 0 else -ring.one
    det_phi_e = phi_e.det()
    if not (det_phi_e == want and psi_e.det() == want):
        raise AssertionError("completion determinant is not (-1)**(n-1)")
    return Completion(phi_e, psi_e, det_phi_e)


def field_bezout_solver(values, ring: Ring):
    """Bezout certificate over a field: invert the first nonzero minor."""
    for k, v in enumerate(values):
        if v:
            cert = [ring.zero] * len(values)
            cert[k] = ring.invert(v)
            return cert
    return None


def one_sided_diagnose(phi: RingMatrix, side: str, solver) -> Diagnosis:
    """Reduce one-sided invertibility to a scalar Bezout problem on the
    maximal minors, delegated to the supplied solver.

    solver(values, ring) may return a coefficient list, None (unresolved),
    or a corona verdict, dispatched on its status: 'certificate',
    'failure' or 'unresolved'.
    """
    if side == "right":
        inner = one_sided_diagnose(phi.transpose(), "left", solver)
        if inner.inverse is not None:
            return replace(
                inner,
                inverse=inner.inverse.transpose(),
                notes=inner.notes + ["transposed from a left-invertibility run"],
            )
        return inner
    if side != "left":
        raise ValueError("side must be 'left' or 'right'")
    n, m = phi.rows, phi.cols
    if m > n:
        return Diagnosis(
            status="not_invertible",
            witness=None,
            notes=["more columns than rows: never left invertible"],
        )
    mv = maximal_minors(phi)
    if not any(bool(v) for v in mv.values):
        return Diagnosis(
            status="not_invertible",
            minors=mv,
            witness=None,
            notes=["all maximal minors vanish identically"],
        )
    verdict = solver(list(mv.values), phi.ring)
    if verdict is None:
        return Diagnosis(status="unresolved", minors=mv)
    status = getattr(verdict, "status", None)
    if status == "failure":
        return Diagnosis(
            status="not_invertible",
            minors=mv,
            witness=getattr(verdict, "witness", None),
            notes=[getattr(verdict, "reason", "")],
        )
    if status == "unresolved":
        return Diagnosis(
            status="unresolved",
            minors=mv,
            notes=[getattr(verdict, "reason", "")],
        )
    coeffs = getattr(verdict, "solution", verdict)
    inverse = left_inverse_general(phi, coeffs)
    return Diagnosis(
        status="certificate", minors=mv, certificate=list(coeffs), inverse=inverse
    )
