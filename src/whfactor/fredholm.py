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
from typing import ClassVar

from .corona import CoronaCertificate, corona_solve_hplus, corona_solve_mplus
from .errors import (
    CertificateInvalid,
    HypothesisViolation,
    NotOrthogonal,
    NotUnitary,
    ShapeViolation,
)
from .matrices import AP, MIXED, RAT, RingMatrix, _outside, _require_inside
from .matrix_wh import _check_column_certificate, _check_rh_certificate, _check_row_certificate
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
    p_note: ClassVar[str] = P_NOTE
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
    _check_rat_square(G)
    if level not in ("H", "M"):
        raise ValueError("level must be 'H' or 'M'")
    _require_inside(G, None, tol, CertificateInvalid, "symbol")

    up, down = ("+", "-") if level == "H" else (None, None)
    try:
        if structure == "row":
            if omitted is None or phi_plus is None:
                raise CertificateInvalid(
                    "row structure needs the omitted index and a right inverse"
                )
            _check_row_certificate(G.delete_row(omitted), phi_plus, tol, up)
            tag = "row-submatrix"
        elif structure == "column":
            if omitted is None or psi_minus is None:
                raise CertificateInvalid(
                    "column structure needs the omitted index and a left inverse"
                )
            _check_column_certificate(G.delete_col(omitted), psi_minus, tol, down)
            tag = "column-submatrix"
        elif structure == "rh":
            if phi_pair is None or psi_pair is None:
                raise CertificateInvalid("rh structure needs both solution pairs")
            (phi_p, phi_m), (psi_p, psi_m) = phi_pair, psi_pair
            _check_rh_certificate(G, phi_p, phi_m, psi_p, psi_m, tol, up, down)
            tag = "boundary-relation-pair"
        else:
            raise ValueError("structure must be 'row', 'column' or 'rh'")
    except HypothesisViolation as exc:
        raise CertificateInvalid(str(exc)) from None
    tag += "/strict" if level == "H" else "/near"

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


def _unitary_or_orthogonal(G: RingMatrix, mode: str) -> GaussianRational:
    """Check G * G^* == I (mode 'unitary') or G * G^T == I ('orthogonal') and
    return det G, which must be constant; rational and almost periodic
    symbols alike (ap.ap_special shares it)."""
    if mode == "unitary":
        if not (G * G.map(lambda f: f.conj()).transpose()).is_identity():
            raise NotUnitary("G * G^* is not the identity on the line")
    elif mode == "orthogonal":
        if not (G * G.transpose()).is_identity():
            raise NotOrthogonal("G * G^T is not the identity")
    else:
        raise ValueError("mode must be 'unitary' or 'orthogonal'")
    det = G.det()
    if G.ring is AP:
        if det.support == (0,):
            return det.coeff(0)
    elif det.is_constant:
        return det.constant_value()
    raise HypothesisViolation("determinant is not constant")


def _last_row_corona(G: RingMatrix, mode: str, tol: float) -> bool:
    """The hypotheses shared by the unitary and orthogonal verdicts: G is a
    square rational matrix, unitary or orthogonal (mode) with constant
    determinant and bounded on the line; HypothesisViolation naming the
    witness otherwise.  The last row then has a corona certificate over the
    bounded lower (unitary) or upper (orthogonal) algebra, since
    sum |g_j|^2 == 1 (sum g_j^2 == 1) leaves it no common zero on the
    extended line; a failed check there is an AssertionError.  Answers
    whether the strict level holds too: every other row in the upper
    half-plane algebra and the last row a corona tuple over the analytic
    algebra on the same side."""
    n = _check_rat_square(G)
    _unitary_or_orthogonal(G, mode)
    _require_inside(G, None, tol, HypothesisViolation, "symbol")
    half, side = ("-", "lower") if mode == "unitary" else ("+", "upper")
    last_row = [G[n - 1, j] for j in range(n)]
    verdict = corona_solve_mplus(last_row, half, tol)
    if not isinstance(verdict, CoronaCertificate):
        identity = "sum |g_j|^2" if mode == "unitary" else "sum g_j^2"
        raise AssertionError(
            f"last row of a {mode} symbol failed the corona check over the bounded "
            f"{side} algebra, though {identity} == 1 on the extended line"
        )
    upper_rows = G.submatrix(range(n - 1), range(G.cols))
    return next(_outside(upper_rows, "+", tol), None) is None and isinstance(
        corona_solve_hplus(last_row, half, tol), CoronaCertificate
    )


def special_unitary(G: RingMatrix, tol: float = DEFAULT_TOL) -> FredholmReport:
    """Fredholm verdict for a symbol unitary on the line with constant
    determinant, driven by a corona check on its last row."""
    strict = _last_row_corona(G, "unitary", tol)
    report = FredholmReport(
        fredholm="yes",
        equivalence="nearly",
        justification="unitary-constant-det",
        notes=["last-row corona certificate verified over the bounded lower algebra"],
    )
    if strict:
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
    strict = _last_row_corona(G, "orthogonal", tol)
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
    if strict:
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
    bad = next(_outside((G[i, j].rational_part() for i, j in cells), None, tol), None)
    if bad is not None:
        i, j = cells[bad]
        raise ShapeViolation(f"entry ({i},{j}) is not continuous on the extended line")

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
