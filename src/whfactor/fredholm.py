"""Toeplitz-operator diagnostics from partial indices and structural
certificates.

A report never asserts more than its certificates prove: each verdict
carries a self-describing justification tag and the hypotheses that were
actually rechecked, so a report is a machine-checkable application of the
classification results rather than an oracle.  Kernel/cokernel dimensions
follow from partial indices (sum of negative parts / sum of positive
parts); strict equivalence copies the scalar determinant's dimensions to
the matrix operator, near equivalence only transfers Fredholmness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corona import CoronaCertificate, corona_solve_hplus, corona_solve_mplus
from .errors import (
    CertificateInvalid,
    HypothesisViolation,
    NotOrthogonal,
    NotUnitary,
    ShapeViolation,
)
from .matrices import MIXED, RAT, RingMatrix
from .rings import DEFAULT_TOL, GaussianRational, RationalFunction
from .scalar_wh import P_NOTE, winding_exact


@dataclass
class FredholmReport:
    """Diagnostics for the Toeplitz operator of a matrix symbol."""

    fredholm: str = "unknown"  # yes | no | unknown
    partial_indices: tuple | None = None
    dim_ker: int | None = None
    dim_coker: int | None = None
    index: int | None = None
    equivalence: str = "none-established"  # nearly | strictly | none-established
    justification: str | None = None
    coburn: str = "unknown"  # ker_zero | coker_zero | both | unknown
    p_note: str = P_NOTE
    notes: list = field(default_factory=list)
    scalar: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "fredholm": self.fredholm,
            "equivalence": self.equivalence,
            "justification": self.justification,
            "coburn": self.coburn,
            "p_note": self.p_note,
            "notes": list(self.notes),
        }
        if self.partial_indices is not None:
            out["partial_indices"] = list(self.partial_indices)
        for name in ("dim_ker", "dim_coker", "index"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        if self.scalar is not None:
            out["scalar"] = dict(self.scalar)
        return out


def report_from_indices(indices) -> FredholmReport:
    """Kernel/cokernel dimensions of a factored symbol from its partial
    indices: dim ker = sum |k_j| over k_j <= 0, dim coker = sum k_j over
    k_j >= 0, index = dim ker - dim coker = -sum k_j."""
    indices = tuple(int(k) for k in indices)
    dim_ker = sum(-k for k in indices if k <= 0)
    dim_coker = sum(k for k in indices if k >= 0)
    if all(k == 0 for k in indices):
        coburn = "both"
    elif all(k >= 0 for k in indices):
        coburn = "ker_zero"
    elif all(k <= 0 for k in indices):
        coburn = "coker_zero"
    else:
        coburn = "unknown"
    notes = []
    if dim_ker and dim_coker:
        notes.append("mixed index signs: both defect numbers are positive")
    return FredholmReport(
        fredholm="yes",
        partial_indices=indices,
        dim_ker=dim_ker,
        dim_coker=dim_coker,
        index=dim_ker - dim_coker,
        justification="indices-given",
        coburn=coburn,
        notes=notes,
    )


def scalar_symbol_report(f, tol: float = DEFAULT_TOL) -> dict:
    """Diagnostics of a scalar rational symbol: line invertibility, winding,
    and the resulting defect dimensions."""
    f = RationalFunction.coerce(f)
    if f.is_zero or not f.invertible_on_line():
        return {"invertible_on_line": False, "fredholm": "no"}
    k = winding_exact(f.factored(tol))
    inner = report_from_indices([k])
    return {
        "invertible_on_line": True,
        "fredholm": "yes",
        "winding": k,
        "dim_ker": inner.dim_ker,
        "dim_coker": inner.dim_coker,
        "index": inner.index,
    }


def _check_rat_square(G: RingMatrix) -> int:
    if G.ring is not RAT or G.rows != G.cols:
        raise ShapeViolation("expected a square rational-function matrix")
    return G.rows


def _check_matrix_membership(M: RingMatrix, level: str, half: str, tol: float, what: str):
    for i in range(M.rows):
        for j in range(M.cols):
            entry = M[i, j]
            if level == "H":
                ok = entry.in_half_algebra(half, tol)
            else:
                ok = entry.bounded_on_line()
            if not ok:
                raise CertificateInvalid(
                    f"{what} entry ({i},{j}) fails the {level}-level membership"
                )


def classify(
    G: RingMatrix,
    structure: str,
    level: str,
    omitted: int | None = None,
    phi_plus: RingMatrix | None = None,
    psi_minus: RingMatrix | None = None,
    phi_pair=None,
    psi_pair=None,
    tol: float = DEFAULT_TOL,
) -> FredholmReport:
    """Fredholm classification of T_G from a verified structural certificate.

    structure: 'row' (row-complement right-invertible), 'column'
    (column-complement left-invertible), or 'rh' (boundary-relation pair
    G*phi_plus = phi_minus).  level: 'H' for half-plane-analytic
    certificates (strict equivalence with the determinant operator, Coburn
    alternative inherited), 'M' for bounded-line certificates (near
    equivalence only).
    """
    n = _check_rat_square(G)
    if level not in ("H", "M"):
        raise ValueError("level must be 'H' or 'M'")
    for i in range(n):
        for j in range(n):
            if not G[i, j].bounded_on_line():
                raise CertificateInvalid(f"symbol entry ({i},{j}) is unbounded on the line")

    if structure == "row":
        if omitted is None or phi_plus is None:
            raise CertificateInvalid("row structure needs the omitted index and a right inverse")
        psi = G.delete_row(omitted)
        _check_matrix_membership(psi, level, "+", tol, "row complement")
        _check_matrix_membership(phi_plus, level, "+", tol, "right inverse")
        if not (psi * phi_plus).is_identity():
            raise CertificateInvalid("claimed right inverse fails its identity")
        tag = f"row-submatrix/{'strict' if level == 'H' else 'near'}"
    elif structure == "column":
        if omitted is None or psi_minus is None:
            raise CertificateInvalid("column structure needs the omitted index and a left inverse")
        phi = G.delete_col(omitted)
        _check_matrix_membership(phi, level, "-", tol, "column complement")
        _check_matrix_membership(psi_minus, level, "-", tol, "left inverse")
        if not (psi_minus * phi).is_identity():
            raise CertificateInvalid("claimed left inverse fails its identity")
        tag = f"column-submatrix/{'strict' if level == 'H' else 'near'}"
    elif structure == "rh":
        if phi_pair is None or psi_pair is None:
            raise CertificateInvalid("rh structure needs both solution pairs")
        phi_p, phi_m = phi_pair
        psi_p, psi_m = psi_pair
        _check_matrix_membership(phi_p, level, "+", tol, "phi_plus")
        _check_matrix_membership(psi_p, level, "+", tol, "psi_plus")
        _check_matrix_membership(phi_m, level, "-", tol, "phi_minus")
        _check_matrix_membership(psi_m, level, "-", tol, "psi_minus")
        if not G * phi_p == phi_m:
            raise CertificateInvalid("boundary relation G*phi_plus = phi_minus fails")
        if not (psi_p * phi_p).is_identity() or not (psi_m * phi_m).is_identity():
            raise CertificateInvalid("a claimed left inverse fails its identity")
        tag = f"boundary-relation-pair/{'strict' if level == 'H' else 'near'}"
    else:
        raise ValueError("structure must be 'row', 'column' or 'rh'")

    det = G.det()
    scal = scalar_symbol_report(det, tol)
    equivalence = "strictly" if level == "H" else "nearly"
    report = FredholmReport(
        equivalence=equivalence,
        justification=tag,
        scalar=scal,
    )
    if not scal["invertible_on_line"]:
        report.fredholm = "no"
        report.notes.append("det G is not invertible on the extended line")
        return report
    report.fredholm = "yes"
    if equivalence == "strictly":
        report.dim_ker = scal["dim_ker"]
        report.dim_coker = scal["dim_coker"]
        report.index = scal["index"]
        k = scal["winding"]
        report.coburn = "both" if k == 0 else ("ker_zero" if k > 0 else "coker_zero")
        report.notes.append(
            "defect dimensions copied from the scalar determinant operator"
        )
    return report


def _conjugate_transpose(G: RingMatrix) -> RingMatrix:
    return G.map(lambda f: f.conj_coeffs()).transpose()


def _diagonal_indices(G: RingMatrix, tol: float):
    n = G.rows
    for i in range(n):
        for j in range(n):
            if i != j and G[i, j]:
                return None
    indices = []
    for i in range(n):
        entry = G[i, i]
        if not entry.invertible_on_line():
            return None
        indices.append(winding_exact(entry.factored(tol)))
    return indices


def _constant_det(G: RingMatrix) -> GaussianRational:
    det = G.det()
    if not det.is_constant:
        raise HypothesisViolation("determinant is not constant")
    return det.constant_value()


def special_unitary(
    G: RingMatrix, det_constant=None, tol: float = DEFAULT_TOL
) -> FredholmReport:
    """Fredholm verdict for a symbol unitary on the line with constant
    determinant, driven by a corona check on its last row."""
    n = _check_rat_square(G)
    if not (G * _conjugate_transpose(G)).is_identity():
        raise NotUnitary("G * G^* is not the identity on the line")
    det_c = _constant_det(G)
    if det_constant is not None and not det_c == GaussianRational.coerce(det_constant):
        raise HypothesisViolation("determinant differs from the stated constant")
    for i in range(n):
        for j in range(n):
            if not G[i, j].bounded_on_line():
                raise HypothesisViolation(f"entry ({i},{j}) is unbounded on the line")
    last_row = [G[n - 1, j] for j in range(n)]
    verdict = corona_solve_mplus(last_row, "-", tol)
    if not isinstance(verdict, CoronaCertificate):
        raise HypothesisViolation(
            f"last row is not a corona tuple over the bounded lower algebra: "
            f"witness {verdict.witness}"
        )
    report = FredholmReport(
        fredholm="yes",
        equivalence="nearly",
        justification="unitary-constant-det",
        notes=["last-row corona certificate verified over the bounded lower algebra"],
    )
    strict = all(
        G[i, j].in_half_algebra("+", tol) for i in range(n - 1) for j in range(n)
    )
    if strict:
        inner = corona_solve_hplus(last_row, "-", tol)
        if isinstance(inner, CoronaCertificate):
            report.justification = "unitary-constant-det/strict"
            report.dim_ker = 0
            report.dim_coker = 0
            report.index = 0
            report.coburn = "both"
            report.notes.append("analytic-level hypotheses hold: operator invertible")
            return report
    diag = _diagonal_indices(G, tol)
    if diag is not None:
        inner = report_from_indices(diag)
        report.partial_indices = inner.partial_indices
        report.dim_ker = inner.dim_ker
        report.dim_coker = inner.dim_coker
        report.index = inner.index
        report.coburn = inner.coburn
        report.notes.append("diagonal symbol: indices from entrywise factorization")
    return report


def special_orthogonal(G: RingMatrix, tol: float = DEFAULT_TOL) -> FredholmReport:
    """Fredholm verdict for a complex-orthogonal symbol (G G^T = I) with
    constant determinant, via a corona check on its last row."""
    n = _check_rat_square(G)
    if not (G * G.transpose()).is_identity():
        raise NotOrthogonal("G * G^T is not the identity")
    _constant_det(G)
    for i in range(n):
        for j in range(n):
            if not G[i, j].bounded_on_line():
                raise HypothesisViolation(f"entry ({i},{j}) is unbounded on the line")
    last_row = [G[n - 1, j] for j in range(n)]
    verdict = corona_solve_mplus(last_row, "+", tol)
    if not isinstance(verdict, CoronaCertificate):
        raise HypothesisViolation(
            f"last row is not a corona tuple over the bounded upper algebra: "
            f"witness {verdict.witness}"
        )
    report = FredholmReport(
        fredholm="yes",
        equivalence="nearly",
        justification="orthogonal-constant-det",
        index=0,
        notes=[
            "orthogonality supplies the transpose of the row complement as its right inverse",
            "index 0 from the winding of the constant determinant (continuous symbol)",
        ],
    )
    strict = all(
        G[i, j].in_half_algebra("+", tol) for i in range(n - 1) for j in range(n)
    )
    if strict:
        inner = corona_solve_hplus(last_row, "+", tol)
        if isinstance(inner, CoronaCertificate):
            report.justification = "orthogonal-constant-det/strict"
            report.dim_ker = 0
            report.dim_coker = 0
            report.coburn = "both"
            report.notes.append("analytic-level hypotheses hold: operator invertible")
    return report


def continuous_except_line(G: RingMatrix, tol: float = DEFAULT_TOL) -> FredholmReport:
    """Near equivalence with the determinant operator for a symbol whose
    entries are rational (continuous on the extended line) outside a single
    row or column; the exceptional line may mix rational and exponential
    terms.

    The equivalence carries no index relation, so the matrix operator's
    index is left unset; determinant diagnostics are attached when the
    determinant lands in the rational or pure almost periodic ring.
    """
    if G.ring is not MIXED or G.rows != G.cols:
        raise ShapeViolation("expected a square mixed-ring matrix")
    n = G.rows
    rational_rows = [
        i for i in range(n) if all(G[i, j].is_rational for j in range(n))
    ]
    rational_cols = [
        j for j in range(n) if all(G[i, j].is_rational for i in range(n))
    ]
    if len(rational_rows) >= n - 1:
        mode = "row"
        clean = rational_rows[: n - 1]
        cells = [(i, j) for i in clean for j in range(n)]
    elif len(rational_cols) >= n - 1:
        mode = "column"
        clean = rational_cols[: n - 1]
        cells = [(i, j) for j in clean for i in range(n)]
    else:
        raise ShapeViolation(
            "more than one row and more than one column contain exponential terms"
        )
    for i, j in cells:
        if not G[i, j].rational_part().bounded_on_line():
            raise ShapeViolation(
                f"entry ({i},{j}) is not continuous on the extended line"
            )

    det = G.det()
    report = FredholmReport(
        equivalence="nearly",
        justification=f"continuous-except-one-{mode}",
        notes=["no index relation is available in this regime"],
    )
    if det.is_zero:
        report.fredholm = "no"
        report.scalar = {"det_ring": "zero"}
        return report
    if det.is_rational:
        scal = scalar_symbol_report(det.rational_part(), tol)
        scal["det_ring"] = "rational"
        report.scalar = scal
        report.fredholm = scal["fredholm"]
        return report
    if det.is_pure_ap:
        from .ap import mean_motion

        p = det.as_appoly()
        mm = mean_motion(p, tol=tol)
        scal = {
            "det_ring": "ap",
            "mean_motion": None if mm.kappa is None else mm.kappa,
            "method": mm.method,
        }
        report.scalar = scal
        if mm.kappa is None:
            report.fredholm = "unknown"
            report.notes.append(mm.note or "mean motion unresolved")
        elif mm.method in ("monomial", "dominant-coefficient"):
            report.fredholm = "yes" if mm.kappa == 0 else "no"
            if mm.kappa != 0:
                report.notes.append(
                    "nonzero mean motion: the determinant operator is not Fredholm"
                )
        else:
            report.fredholm = "unknown"
            report.notes.append(
                "mean motion only numerically estimated; no rigorous verdict"
            )
        return report
    report.fredholm = "unknown"
    report.scalar = {"det_ring": "mixed", "det": det}
    report.notes.append("determinant is genuinely mixed; returned for external analysis")
    return report
