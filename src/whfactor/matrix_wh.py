"""Matrix Wiener-Hopf factorization of rational symbols from explicit
one-sided-inverse data.

Three routes are implemented.  Omitting a row whose complement is
right-invertible over the upper half-plane algebra (total index <= 0),
omitting a column whose complement is left-invertible over the lower
half-plane algebra (total index >= 0), and a boundary-relation route from a
pair of analytic solutions G*phi_plus = phi_minus (total index >= 0).  Each
route builds the square completions of the supplied data, conjugates the
symbol to a triangular form whose corner is det G, splits the off-diagonal
scalar with the weighted projections, and reassembles exact factors.

The off-corner entry is always projected after scaling by the inverse of
the plus determinant factor (gamma_plus**-1); with the unscaled entry the
assembled product reconstructs the symbol only when gamma_plus == 1.  The
correction is recorded in every construction trace.

The row and boundary-relation assemblies are ring-generic: the almost
periodic routes in ``ap`` run them with frequency splits and the diagonal
element e_kappa in place of the weighted projections and r**k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

from .errors import (
    HypothesisViolation,
    IndexNonzero,
    MembershipViolation,
    RHResidualNonzero,
    ShapeMismatch,
)
from .exact_linalg import complete
from .matrices import RAT, Ring, RingMatrix, _outside, _require_inside
from .rings import DEFAULT_TOL, RationalFunction
from .scalar_wh import P_NOTE, ScalarWH, pole_split, r_function, riesz_project

_R = r_function()


def _r_power(k: int) -> RationalFunction:
    return _R**k


@dataclass(frozen=True)
class WHFactorization:
    """Exact triple g_minus * diag(r**k_j) * g_plus == G with half-plane
    membership certificates on the factors and their inverses."""

    g_minus: RingMatrix
    partial_indices: tuple[int, ...]
    g_plus: RingMatrix
    bounded: ClassVar[bool] = True
    p_note: ClassVar[str] = P_NOTE
    trace: dict = field(default_factory=dict)

    def d_matrix(self) -> RingMatrix:
        return _diagonal(RAT, [_r_power(k) for k in self.partial_indices])

    def reconstruct(self) -> RingMatrix:
        return self.g_minus * self.d_matrix() * self.g_plus


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def as_dict(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "checks": [
                {"name": name, "pass": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
        }


@dataclass(frozen=True)
class _SymbolAlgebra:
    """What the shared assembly needs to know about one class of symbols.

    split_row(q, k, tol) -> (x_minus, x_plus, offending) with
    q == x_minus + unit(k) * x_plus, or offending frequencies when q does not
    split; split_rh(u, tol) -> (plus, minus) with u == plus + minus;
    unit(k) is the diagonal element of index k.  The row route returns
    refusal(offending, k) when a split reports offending frequencies.
    """

    ring: Ring
    split_row: Callable
    split_rh: Callable
    unit: Callable
    factorization: Callable
    refusal: Callable | None = None


def _rational_split_row(q, k, tol):
    proj = riesz_project(q, tol)
    return proj.minus_part, _r_power(-k) * proj.plus_part, ()


def _rational_split_rh(u, tol):
    proj = riesz_project(u, tol)
    return proj.plus_part, proj.minus_part


_RATIONAL = _SymbolAlgebra(RAT, _rational_split_row, _rational_split_rh, _r_power, WHFactorization)


def _require_square(G: RingMatrix, ring: Ring) -> int:
    if G.ring is not ring or G.rows != G.cols:
        raise ShapeMismatch(f"symbol must be a square {ring.name} matrix")
    return G.rows


# Each certificate shape is checked here once, for the rational and almost
# periodic routes and for fredholm.classify.  up/down name the algebras the
# halves must lie in: '+'/'-' for the half-plane algebras (H+/H- or AP+/AP-),
# None for functions bounded on the line (classify's M level).


def _check_row_certificate(psi, phi_plus, tol=DEFAULT_TOL, up="+"):
    """Row complement psi and its right inverse phi_plus, both in the upper
    algebra, with psi * phi_plus == I."""
    _require_inside(psi, up, tol, HypothesisViolation, "row complement")
    _require_inside(phi_plus, up, tol, HypothesisViolation, "right inverse")
    if not (psi * phi_plus).is_identity():
        raise HypothesisViolation("supplied matrix is not a right inverse of the row complement")


def _check_column_certificate(phi, psi_minus, tol=DEFAULT_TOL, down="-"):
    """Column complement phi and its left inverse psi_minus, both in the
    lower algebra, with psi_minus * phi == I."""
    _require_inside(phi, down, tol, HypothesisViolation, "column complement")
    _require_inside(psi_minus, down, tol, HypothesisViolation, "left inverse")
    if not (psi_minus * phi).is_identity():
        raise HypothesisViolation("supplied matrix is not a left inverse of the column complement")


def _check_rh_certificate(G, phi_plus, phi_minus, psi_plus, psi_minus, tol=DEFAULT_TOL,
                          up="+", down="-"):
    """Boundary-relation pair: phi_plus, psi_plus in the upper algebra,
    phi_minus, psi_minus in the lower one, G * phi_plus == phi_minus, and
    psi_plus, psi_minus left inverses of phi_plus, phi_minus."""
    _require_inside(phi_plus, up, tol, HypothesisViolation, "phi_plus")
    _require_inside(psi_plus, up, tol, HypothesisViolation, "psi_plus")
    _require_inside(phi_minus, down, tol, HypothesisViolation, "phi_minus")
    _require_inside(psi_minus, down, tol, HypothesisViolation, "psi_minus")
    if not G * phi_plus == phi_minus:
        raise RHResidualNonzero("G * phi_plus differs from phi_minus")
    if not (psi_plus * phi_plus).is_identity():
        raise HypothesisViolation("psi_plus is not a left inverse of phi_plus")
    if not (psi_minus * phi_minus).is_identity():
        raise HypothesisViolation("psi_minus is not a left inverse of phi_minus")


def _check_scalar_matches(scalar: ScalarWH, det: RationalFunction):
    if not scalar.reconstruct() == det:
        raise HypothesisViolation(
            "supplied scalar factorization does not reconstruct det G"
        )


def _move_last_perm(n: int, idx: int):
    perm = [i for i in range(n) if i != idx] + [idx]
    inverse = [0] * n
    for pos, p in enumerate(perm):
        inverse[p] = pos
    sign = -1 if (n - 1 - idx) % 2 == 1 else 1
    return perm, inverse, sign


def _scale_gamma_minus(scalar: ScalarWH, sign: int) -> ScalarWH:
    if sign == 1:
        return scalar
    gm = scalar.gamma_minus * (-1)
    return ScalarWH(gm, scalar.k, scalar.gamma_plus)


def _block_lower(ring: Ring, n: int, bottom_row, corner) -> RingMatrix:
    """[[I, 0], [bottom_row, corner]]."""
    rows = [[ring.one if j == i else ring.zero for j in range(n)] for i in range(n - 1)]
    rows.append(list(bottom_row) + [corner])
    return RingMatrix(ring, rows)


def _block_upper(ring: Ring, n: int, right_col, corner) -> RingMatrix:
    """[[I, right_col], [0, corner]]."""
    rows = [
        [ring.one if j == i else ring.zero for j in range(n - 1)] + [right_col[i]]
        for i in range(n - 1)
    ]
    rows.append([ring.zero] * (n - 1) + [corner])
    return RingMatrix(ring, rows)


def _diagonal(ring: Ring, elements) -> RingMatrix:
    n = len(elements)
    return RingMatrix(
        ring, [[e if i == j else ring.zero for j in range(n)] for i, e in enumerate(elements)]
    )


def _corner_sign(ring: Ring, n: int):
    """(-1)**(n-1), the determinant of every completion."""
    return ring.one if (n - 1) % 2 == 0 else -ring.one


def _divided(ring: Ring, values, g) -> list:
    g_inv = ring.invert(g)
    return [v * g_inv for v in values]


def _split_column(alg: _SymbolAlgebra, col, k, tol) -> tuple[list, list]:
    """Split every entry; the minus halves are shifted by unit(-k)."""
    shift = alg.unit(-k)
    plus, minus = [], []
    for u in col:
        p, m = alg.split_rh(u, tol)
        plus.append(p)
        minus.append(shift * m)
    return plus, minus


def _checked(alg: _SymbolAlgebra, G, g_minus, k, g_plus, route: str, trace: dict):
    """The factorization with indices (0, ..., 0, k), after the exact check
    that it reconstructs G."""
    # k * 0 is the zero of k's type: 0 for r**k, Fraction(0) for e_kappa
    indices = tuple([k * 0] * (G.rows - 1) + [k])
    F = alg.factorization(g_minus, indices, g_plus, trace=trace)
    if not F.reconstruct() == G:
        raise AssertionError(f"{route} assembly failed to reconstruct the symbol")
    return F


def _assemble_row(alg: _SymbolAlgebra, G, Gp, inv_perm, phi_plus, gm, gp, k, tol, trace):
    """Omitted-row assembly over Gp = G with the omitted row moved last,
    whose other rows psi satisfy psi * phi_plus == I and whose determinant
    is gm * unit(k) * gp.  trace(q_row, minus_row, plus_row) builds the
    route's trace from the split inputs and halves."""
    ring = alg.ring
    n = Gp.rows
    comp = complete(phi_plus, Gp.submatrix(range(n - 1), range(n)))
    ghat_phi = Gp.row(n - 1) * phi_plus
    q_row = _divided(ring, [ghat_phi[0, j] for j in range(n - 1)], gm)
    minus_row = []
    plus_row = []
    offending = set()
    for q in q_row:
        x_minus, x_plus, bad = alg.split_row(q, k, tol)
        if bad:
            offending.update(bad)
            continue
        minus_row.append(x_minus)
        plus_row.append(x_plus)
    if offending:
        return alg.refusal(tuple(sorted(offending)), k)

    g_minus = _block_lower(ring, n, [gm * m for m in minus_row], gm)
    g_plus = (
        _block_lower(ring, n, plus_row, ring.one)
        * _block_lower(ring, n, [ring.zero] * (n - 1), _corner_sign(ring, n) * gp)
        * comp.psi_e
    )
    return _checked(
        alg, G, g_minus.permute_rows(inv_perm), k, g_plus, "row-route",
        trace(q_row, minus_row, plus_row),
    )


def _assemble_rh(alg: _SymbolAlgebra, G, det, phi_plus, phi_minus, psi_plus, psi_minus,
                 gm, gp, k, tol, trace):
    """Boundary-relation assembly: the completions conjugate G to
    [[I, Q], [0, det]], and gp**-1 * Q is split.  trace(q_col) builds the
    route's trace from the corner column Q."""
    ring = alg.ring
    n = G.rows
    comp_plus = complete(phi_plus, psi_plus)
    comp_minus = complete(phi_minus, psi_minus)
    g0 = comp_minus.psi_e * G * comp_plus.phi_e
    for i in range(n - 1):
        for j in range(n - 1):
            want = ring.one if i == j else ring.zero
            if not g0[i, j] == want:
                raise AssertionError("conjugated symbol is not unit upper triangular")
    for j in range(n - 1):
        if g0[n - 1, j]:
            raise AssertionError("conjugated symbol has a nonzero bottom block")
    if not g0[n - 1, n - 1] == det:
        raise AssertionError("conjugated corner does not equal det G")

    q_col = [g0[i, n - 1] for i in range(n - 1)]
    alpha_plus, alpha_minus = _split_column(alg, _divided(ring, q_col, gp), k, tol)
    g_minus = comp_minus.phi_e * _block_upper(ring, n, alpha_minus, gm)
    g_plus = _block_upper(ring, n, [gp * a for a in alpha_plus], gp) * comp_plus.psi_e
    return _checked(alg, G, g_minus, k, g_plus, "boundary-relation", trace(q_col))


def factor_via_row(
    G: RingMatrix,
    omitted_row: int,
    phi_plus: RingMatrix,
    scalar: ScalarWH,
    tol: float = DEFAULT_TOL,
) -> WHFactorization:
    """Factor G from a right inverse of the submatrix left by omitting one
    row, all analytic in the upper half-plane; needs total index k <= 0."""
    n = _require_square(G, RAT)
    _require_inside(G, None, tol, HypothesisViolation, "symbol")
    if scalar.k > 0:
        raise HypothesisViolation("row route requires a non-positive index k")
    perm, inv_perm, sign = _move_last_perm(n, omitted_row)
    Gp = G.permute_rows(perm)
    # det Gp = sign * det G: check before the sign moves into gamma_minus
    _check_scalar_matches(scalar, G.det())
    scalar = _scale_gamma_minus(scalar, sign)

    _check_row_certificate(Gp.submatrix(range(n - 1), range(n)), phi_plus, tol)

    return _assemble_row(
        _RATIONAL, G, Gp, inv_perm, phi_plus,
        scalar.gamma_minus.expand(), scalar.gamma_plus.expand(), scalar.k, tol,
        lambda q_row, minus_row, plus_row: {
            "route": "row",
            "omitted_row": omitted_row,
            "permutation_sign": sign,
            "projection_input": q_row,
            "scalar": scalar,
        },
    )


def factor_via_column(
    G: RingMatrix,
    omitted_col: int,
    psi_minus: RingMatrix,
    scalar: ScalarWH,
    tol: float = DEFAULT_TOL,
) -> WHFactorization:
    """Dual route: a left inverse of the submatrix left by omitting one
    column, all analytic in the lower half-plane; needs total index k >= 0."""
    n = _require_square(G, RAT)
    _require_inside(G, None, tol, HypothesisViolation, "symbol")
    if scalar.k < 0:
        raise HypothesisViolation("column route requires a non-negative index k")
    perm, inv_perm, sign = _move_last_perm(n, omitted_col)
    Gp = G.permute_cols(perm)
    _check_scalar_matches(scalar, G.det())
    scalar = _scale_gamma_minus(scalar, sign)

    phi = Gp.submatrix(range(n), range(n - 1))
    _check_column_certificate(phi, psi_minus, tol)

    comp = complete(phi, psi_minus)
    gm = scalar.gamma_minus.expand()
    gp = scalar.gamma_plus.expand()
    psi_ghat = psi_minus * Gp.col(n - 1)
    u_col = _divided(RAT, [psi_ghat[i, 0] for i in range(n - 1)], gp)
    plus_col, minus_col = _split_column(_RATIONAL, u_col, scalar.k, tol)
    g_minus = comp.phi_e * _block_upper(RAT, n, minus_col, _corner_sign(RAT, n) * gm)
    g_plus = _block_upper(RAT, n, [gp * p for p in plus_col], gp)
    trace = {
        "route": "column",
        "omitted_col": omitted_col,
        "permutation_sign": sign,
        "projection_input": u_col,
        "scalar": scalar,
    }
    return _checked(
        _RATIONAL, G, g_minus, scalar.k, g_plus.permute_cols(inv_perm), "column-route", trace
    )


def factor_via_rh(
    G: RingMatrix,
    phi_plus: RingMatrix,
    phi_minus: RingMatrix,
    psi_plus: RingMatrix,
    psi_minus: RingMatrix,
    scalar: ScalarWH,
    tol: float = DEFAULT_TOL,
) -> WHFactorization:
    """Factor G from a corank-one pair of analytic solutions of the boundary
    relation G*phi_plus = phi_minus, with left inverses on both sides and
    total index k >= 0."""
    _require_square(G, RAT)
    _require_inside(G, None, tol, HypothesisViolation, "symbol")
    if scalar.k < 0:
        raise HypothesisViolation("boundary-relation route requires k >= 0")
    det_g = G.det()
    _check_scalar_matches(scalar, det_g)
    _check_rh_certificate(G, phi_plus, phi_minus, psi_plus, psi_minus, tol)

    return _assemble_rh(
        _RATIONAL, G, det_g, phi_plus, phi_minus, psi_plus, psi_minus,
        scalar.gamma_minus.expand(), scalar.gamma_plus.expand(), scalar.k, tol,
        lambda q_col: {
            "route": "rh",
            "corner_column": q_col,
            "triangular_corner": det_g,
            "alpha_correction": "projections applied to gamma_plus**-1 * Q "
            "(unscaled Q reconstructs only for gamma_plus == 1)",
            "scalar": scalar,
        },
    )


def _entry_report(M: RingMatrix, half: str, tol: float, label: str):
    bad = list(_outside(M, half, tol))
    ok = not bad
    detail = "all entries analytic and bounded" if ok else f"violations at {bad}"
    return (label, ok, detail)


def _det_report(det, half: str, tol: float, label: str):
    if det.is_zero:
        return (label, False, "determinant vanishes identically")
    if not det.invertible_on_line():
        return (label, False, "determinant has a zero or pole on the extended line")
    opposite = "-" if half == "+" else "+"
    bad = [
        (str(root), mult)
        for root, mult, tag in det.factored(tol).tags()
        if tag != opposite
    ]
    if bad:
        return (label, False, f"determinant has zeros/poles at {bad}")
    return (label, True, "determinant invertible off the closed half-plane")


def verify_factorization(
    G: RingMatrix, F: WHFactorization, tol: float = DEFAULT_TOL
) -> VerificationReport:
    """Recheck a factorization: exact product identity, index shape, and
    pole-location/boundedness certificates on the factors and their exact
    adjugate inverses."""
    checks = []
    product_ok = F.reconstruct() == G
    checks.append(
        (
            "product",
            product_ok,
            "g_minus * D * g_plus equals the symbol (exact zero residual)"
            if product_ok
            else "product differs from the symbol",
        )
    )
    checks.append(
        (
            "diagonal-shape",
            all(isinstance(ki, int) for ki in F.partial_indices),
            "middle factor is diag(r**k) with integer exponents",
        )
    )
    checks.append(_entry_report(F.g_plus, "+", tol, "gplus-analytic"))
    checks.append(_entry_report(F.g_minus, "-", tol, "gminus-analytic"))
    for name, M, half in (("g_plus", F.g_plus, "+"), ("g_minus", F.g_minus, "-")):
        label = name.replace("_", "") + "-inverse-analytic"
        try:
            checks.append(_entry_report(M.inverse(), half, tol, label))
        except ZeroDivisionError:
            checks.append((label, False, f"{name} is not invertible"))
    checks.append(_det_report(F.g_plus.det(), "+", tol, "det-gplus-invertible"))
    checks.append(_det_report(F.g_minus.det(), "-", tol, "det-gminus-invertible"))
    return VerificationReport(tuple(checks))


def _check_hardy_plus_vector(phi, tol: float):
    _require_inside(phi, "+", tol, MembershipViolation, "vector")
    for j, f in enumerate(phi):
        if not f.is_zero and f.num.degree >= f.den.degree:
            raise MembershipViolation(f"vector entry {j} does not vanish at infinity")


def apply_inverse(F: WHFactorization, phi, tol: float = DEFAULT_TOL):
    """Apply the inverse of the Toeplitz operator attached to a canonically
    factored symbol: g_plus**-1 P+ (g_minus**-1 phi), all by exact partial
    fractions.  phi entries must be strictly proper with lower half-plane poles."""
    if any(k != 0 for k in F.partial_indices):
        raise IndexNonzero("inverse formula needs all partial indices zero")
    phi = [RationalFunction.coerce(f) for f in phi]
    n = len(F.partial_indices)
    if len(phi) != n:
        raise ShapeMismatch("vector length does not match the symbol size")
    _check_hardy_plus_vector(phi, tol)
    col = RingMatrix(RAT, [[f] for f in phi])
    inner = F.g_minus.inverse() * col
    projected = []
    for i in range(n):
        plus, _ = pole_split(inner[i, 0], tol)
        projected.append([plus])
    result = F.g_plus.inverse() * RingMatrix(RAT, projected)
    return [result[i, 0] for i in range(n)]


def toeplitz_apply(G: RingMatrix, phi, tol: float = DEFAULT_TOL):
    """P+ (G * phi) for strictly proper analytic vectors: the Toeplitz action
    used to round-trip apply_inverse."""
    _require_square(G, RAT)
    col = RingMatrix(RAT, [[RationalFunction.coerce(f)] for f in phi])
    prod = G * col
    out = []
    for i in range(G.rows):
        plus, _ = pole_split(prod[i, 0], tol)
        out.append(plus)
    return out
