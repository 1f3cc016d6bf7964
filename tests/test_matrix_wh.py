"""Matrix factorization routes: worked examples multiplied out entry by
entry, permutation handling, hypothesis guards, verification certificates,
and the inverse-operator round trip."""

import random

import pytest

import util
from whfactor.errors import (
    CertificateInvalid,
    HypothesisViolation,
    IndexNonzero,
    RHResidualNonzero,
    WHError,
)
from whfactor.matrices import RAT, RingMatrix
from whfactor.matrix_wh import (
    WHFactorization,
    apply_inverse,
    factor_via_column,
    factor_via_rh,
    factor_via_row,
    toeplitz_apply,
    verify_factorization,
)
from whfactor.rings import APPoly, GaussianRational, Polynomial, RationalFunction
from whfactor.scalar_wh import r_function, riesz_project, wh_factor_scalar, winding_exact

I = GaussianRational(0, 1)
X = Polynomial.x()


def lin(root):
    return Polynomial([-GaussianRational.coerce(root), GaussianRational(1)])


def rf(num, den=None):
    return RationalFunction(num, den)


@pytest.fixture
def row_example():
    """G = [[1, 0], [a, r^-1]] with a = 1/(x^2+1); det G = r^-1, k = -1."""
    r = r_function()
    a = rf(1, X * X + 1)
    G = util.rat_matrix([[1, 0], [a, r**-1]])
    phi_plus = util.rat_matrix([[1], [0]])
    scalar = wh_factor_scalar(G.det().factored())
    return G, phi_plus, scalar, a


def test_factor_via_row_worked_example(row_example):
    G, phi_plus, scalar, a = row_example
    assert scalar.k == -1
    F = factor_via_row(G, 1, phi_plus, scalar)
    assert F.partial_indices == (0, -1)
    proj = riesz_project(a)
    r = r_function()
    assert F.g_minus == util.rat_matrix([[1, 0], [proj.minus_part, 1]])
    assert F.g_plus == util.rat_matrix([[1, 0], [r * proj.plus_part, 1]])
    assert F.reconstruct() == G
    assert verify_factorization(G, F).all_pass


def test_factor_via_row_already_factored():
    r = r_function()
    for n in (2, 3):
        entries = [
            [1 if i == j else 0 for j in range(n)] for i in range(n - 1)
        ]
        entries.append([0] * (n - 1) + [r**-2])
        G = util.rat_matrix(entries)
        phi_plus = util.rat_matrix(
            [[1 if i == j else 0 for j in range(n - 1)] for i in range(n)]
        )
        scalar = wh_factor_scalar(G.det().factored())
        F = factor_via_row(G, n - 1, phi_plus, scalar)
        assert F.partial_indices == tuple([0] * (n - 1) + [-2])
        assert F.g_minus.is_identity()
        assert F.g_plus.is_identity()


def test_factor_via_row_sign_guard(row_example):
    G, phi_plus, scalar, _ = row_example
    inverted = wh_factor_scalar((G.det() ** -1).factored())
    assert inverted.k == 1
    bad_G = util.rat_matrix(
        [[1, 0], [rf(1, X * X + 1), r_function()]]
    )
    with pytest.raises(HypothesisViolation):
        factor_via_row(bad_G, 1, phi_plus, inverted)


def test_factor_via_row_membership_guard():
    # submatrix entry with a pole in the upper half-plane is rejected
    r = r_function()
    m = rf(lin(-2 * I), lin(2 * I))  # pole at 2i: bounded but not analytic
    bad = util.rat_matrix([[m, 0], [0, r**-1]])
    phi_plus = util.rat_matrix([[rf(lin(2 * I), lin(-2 * I))], [0]])
    scalar = wh_factor_scalar(bad.det().factored())
    with pytest.raises(HypothesisViolation):
        factor_via_row(bad, 1, phi_plus, scalar)


def test_factor_via_row_non_last_row_permutation():
    r = r_function()
    a = rf(1, X * X + 1)
    # omit the FIRST row: the complement [[a, r^-1]] is not analytic, so
    # instead omit row 0 of a symbol built for it
    G = util.rat_matrix([[a, r**-1], [1, 0]])
    phi_plus = util.rat_matrix([[1], [0]])
    scalar = wh_factor_scalar(G.det().factored())
    F = factor_via_row(G, 0, phi_plus, scalar)
    assert F.reconstruct() == G
    assert F.partial_indices == (0, -1)
    assert verify_factorization(G, F).all_pass


def test_factor_via_column_transpose_dual(row_example):
    G, _, _, a = row_example
    # transpose with swapped half-planes: conjugate the worked example
    Gt = G.transpose().map(lambda f: f.conj())
    scalar = wh_factor_scalar(Gt.det().factored())
    assert scalar.k == 1
    psi_minus = util.rat_matrix([[1, 0]])
    F = factor_via_column(Gt, 1, psi_minus, scalar)
    assert F.partial_indices == (0, 1)
    assert F.reconstruct() == Gt
    assert verify_factorization(Gt, F).all_pass


def test_factor_via_column_guards():
    r = r_function()
    G = util.rat_matrix([[1, 0], [0, r**-1]])
    scalar = wh_factor_scalar(G.det().factored())
    assert scalar.k == -1
    with pytest.raises(HypothesisViolation):
        factor_via_column(G, 1, util.rat_matrix([[1, 0]]), scalar)


def test_factor_via_rh_worked_example():
    r = r_function()
    b = rf(1, X * X + 1)
    G = util.rat_matrix([[1, b], [0, r]])
    col = util.rat_matrix([[1], [0]])
    row = util.rat_matrix([[1, 0]])
    scalar = wh_factor_scalar(G.det().factored())
    F = factor_via_rh(G, col, col, row, row, scalar)
    assert F.partial_indices == (0, 1)
    proj = riesz_project(b)
    # assembled factors per the triangular-split construction
    assert F.g_minus == util.rat_matrix(
        [[1, rf(0) - (r**-1) * proj.minus_part], [0, -1]]
    )
    assert F.g_plus == util.rat_matrix([[1, proj.plus_part], [0, -1]])
    assert F.reconstruct() == G
    assert verify_factorization(G, F).all_pass
    # the conjugated-corner data is recorded
    assert F.trace["corner_column"] == [rf(0) - b]


def test_factor_via_rh_identity_and_guards():
    n = 3
    G = util.rat_matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
    phi = util.rat_matrix(
        [[1 if i == j else 0 for j in range(n - 1)] for i in range(n)]
    )
    psi = util.rat_matrix(
        [[1 if i == j else 0 for j in range(n)] for i in range(n - 1)]
    )
    scalar = wh_factor_scalar(G.det().factored())
    F = factor_via_rh(G, phi, phi, psi, psi, scalar)
    assert F.partial_indices == (0, 0, 0)
    assert F.reconstruct() == G

    r = r_function()
    G2 = util.rat_matrix([[1, 0], [0, r]])
    perturbed = util.rat_matrix([[1], [rf(1, lin(I))]])  # valid minus data
    col = util.rat_matrix([[1], [0]])
    row = util.rat_matrix([[1, 0]])
    scalar2 = wh_factor_scalar(G2.det().factored())
    with pytest.raises(RHResidualNonzero):
        factor_via_rh(G2, col, perturbed, row, row, scalar2)
    down = wh_factor_scalar((r**-1).factored())
    G3 = util.rat_matrix([[1, 0], [0, r**-1]])
    with pytest.raises(HypothesisViolation):
        factor_via_rh(G3, col, col, row, row, down)


def test_rh_with_nontrivial_gamma_plus():
    # det G = (x+i)/(x+2i) * r: gamma_plus != 1 exercises the corrected
    # projection scaling
    r = r_function()
    u = rf(lin(-I), lin(-2 * I))
    b = rf(1, X * X + 1)
    G = util.rat_matrix([[1, b], [0, u * r]])
    col = util.rat_matrix([[1], [0]])
    row = util.rat_matrix([[1, 0]])
    scalar = wh_factor_scalar(G.det().factored())
    assert scalar.k == 1
    assert not scalar.gamma_plus.expand() == rf(1)
    F = factor_via_rh(G, col, col, row, row, scalar)
    assert F.reconstruct() == G
    assert verify_factorization(G, F).all_pass


def test_row_and_rh_agree_on_index_multisets():
    # canonical symbol satisfying both routes: indices coincide
    b = rf(1, lin(-I) * lin(-I))
    G = util.rat_matrix([[1, b], [0, 1]])
    phi_plus = util.rat_matrix([[1], [0]])
    psi = util.rat_matrix([[1, 0]])
    scalar = wh_factor_scalar(G.det().factored())
    F_row = factor_via_row(G, 1, phi_plus, scalar)
    F_rh = factor_via_rh(G, phi_plus, phi_plus, psi, psi, scalar)
    assert sorted(F_row.partial_indices) == sorted(F_rh.partial_indices) == [0, 0]
    assert F_row.reconstruct() == G and F_rh.reconstruct() == G


def test_three_by_three_from_random_completion():
    rng = random.Random(97)
    for _ in range(5):
        # constant analytic submatrix with constant right inverse
        s, s_inv = util.rand_invertible_qi(rng, 3)
        psi_entries = [[rf(Polynomial([s[i, j]])) for j in range(3)] for i in range(2)]
        psi = RingMatrix(RAT, psi_entries)
        phi_plus = RingMatrix(
            RAT, [[rf(Polynomial([s_inv[i, j]])) for j in range(2)] for i in range(3)]
        )
        # cofactor row making det G = r^-1
        cof = []
        for j in range(3):
            sub = psi.submatrix(range(2), [c for c in range(3) if c != j])
            cof.append(sub.det() if j % 2 == 0 else rf(0) - sub.det())
        r = r_function()
        target = r**-1
        # choose weights w with sum w_j cof_j = 1, then last row = target * w
        nz = next(j for j in range(3) if cof[j])
        w = [rf(0)] * 3
        w[nz] = rf(1) / cof[nz]
        last = [target * w[j] for j in range(3)]
        G = RingMatrix(RAT, list(psi.entries) + [last])
        assert G.det() == target
        scalar = wh_factor_scalar(target.factored())
        F = factor_via_row(G, 2, phi_plus, scalar)
        assert F.partial_indices == (0, 0, -1)
        assert F.reconstruct() == G
        assert verify_factorization(G, F).all_pass


def test_verify_detects_tampering(row_example):
    G, phi_plus, scalar, a = row_example
    F = factor_via_row(G, 1, phi_plus, scalar)
    # swap the half-plane factors: product changes and certificates break
    swapped = WHFactorization(F.g_plus, F.partial_indices, F.g_minus)
    report = verify_factorization(G, swapped)
    assert not report.all_pass
    failed = {name for name, ok, _ in report.checks if not ok}
    assert "gplus-analytic" in failed or "gminus-analytic" in failed


def test_verify_identity_factorization():
    G = util.rat_matrix([[1, 0], [0, 1]])
    F = WHFactorization(G, (0, 0), G)
    report = verify_factorization(G, F)
    assert report.all_pass


def test_apply_inverse_worked_example():
    b = rf(1, X * X + 1)
    proj = riesz_project(b)
    gm = util.rat_matrix([[1, proj.minus_part], [0, 1]])
    gp = util.rat_matrix([[1, proj.plus_part], [0, 1]])
    F = WHFactorization(gm, (0, 0), gp)
    G = util.rat_matrix([[1, b], [0, 1]])
    assert F.reconstruct() == G
    phi = [rf(0), rf(1, lin(-I))]
    result = apply_inverse(F, phi)
    expect0 = rf(0) - proj.plus_part / rf(lin(-I))
    assert result == [expect0, rf(1, lin(-I))]
    assert toeplitz_apply(G, result) == phi


def test_apply_inverse_identity_and_guards():
    G = util.rat_matrix([[1, 0], [0, 1]])
    F = WHFactorization(G, (0, 0), G)
    phi = [rf(1, lin(-I)), rf(0)]
    assert apply_inverse(F, phi) == phi
    bad = WHFactorization(G, (0, -1), G)
    with pytest.raises(IndexNonzero):
        apply_inverse(bad, phi)


def test_sum_of_indices_equals_det_winding():
    rng = random.Random(103)
    r = r_function()
    for k in (-2, -1, 0):
        a = util.rand_half_plane_function(rng, "+")
        G = util.rat_matrix([[1, 0], [a, r**k]])
        scalar = wh_factor_scalar(G.det().factored())
        F = factor_via_row(G, 1, util.rat_matrix([[1], [0]]), scalar)
        assert sum(F.partial_indices) == winding_exact(G.det().factored()) == k


def test_factor_via_column_trivial_diagonal():
    r = r_function()
    G = util.rat_matrix([[1, 0], [0, r**2]])
    psi_minus = util.rat_matrix([[1, 0]])
    scalar = wh_factor_scalar(G.det().factored())
    F = factor_via_column(G, 1, psi_minus, scalar)
    assert F.partial_indices == (0, 2)
    assert F.g_minus.is_identity()
    assert F.g_plus.is_identity()


def test_factor_via_rh_three_by_three():
    # assemble a 3x3 boundary-relation instance from constant completions and
    # a nontrivial conjugated corner, then recover it
    from whfactor.exact_linalg import complete
    from whfactor.rings import GaussianRational as GR, Polynomial as P

    rng = random.Random(211)
    r = r_function()
    for k in (0, 1, 2):
        s, s_inv = util.rand_invertible_qi(rng, 3)
        t, t_inv = util.rand_invertible_qi(rng, 3)
        phi_plus = RingMatrix(
            RAT, [[rf(P([s[i, j]])) for j in range(2)] for i in range(3)]
        )
        psi_plus = RingMatrix(
            RAT, [[rf(P([s_inv[i, j]])) for j in range(3)] for i in range(2)]
        )
        phi_minus = RingMatrix(
            RAT, [[rf(P([t[i, j]])) for j in range(2)] for i in range(3)]
        )
        psi_minus = RingMatrix(
            RAT, [[rf(P([t_inv[i, j]])) for j in range(3)] for i in range(2)]
        )
        comp_plus = complete(phi_plus, psi_plus)
        comp_minus = complete(phi_minus, psi_minus)
        q = [rf(1, X * X + 1), rf(P([GR(0, 1)]), lin(-2 * I))]
        g0 = RingMatrix(
            RAT,
            [
                [rf(1), rf(0), q[0]],
                [rf(0), rf(1), q[1]],
                [rf(0), rf(0), r**k],
            ],
        )
        G = comp_minus.phi_e * g0 * comp_plus.psi_e
        assert G * phi_plus == phi_minus
        scalar = wh_factor_scalar(G.det().factored())
        assert scalar.k == k
        F = factor_via_rh(G, phi_plus, phi_minus, psi_plus, psi_minus, scalar)
        assert F.partial_indices == (0, 0, k)
        assert F.reconstruct() == G
        assert verify_factorization(G, F).all_pass


def _violated_certificates():
    """(id, call, class): one call per violated certificate part, each raising
    from the shared hypothesis checks of its route."""
    from whfactor.ap import ap_factor_via_rh, ap_factor_via_row
    from whfactor.fredholm import classify

    r = r_function()
    a = rf(1, X * X + 1)
    up_bad = rf(lin(-2 * I), lin(2 * I))  # bounded, pole at 2i: outside H+
    down_bad = rf(lin(2 * I), lin(-2 * I))  # bounded, pole at -2i: outside H-
    unbounded = rf(X)  # outside every algebra, M level included
    col = util.rat_matrix([[1], [0]])
    row = util.rat_matrix([[1, 0]])
    twice_col = util.rat_matrix([[2], [0]])
    twice_row = util.rat_matrix([[2, 0]])
    off_minus = util.rat_matrix([[1], [rf(1, lin(I))]])  # in H-, != G * col
    G_row = util.rat_matrix([[1, 0], [a, r**-1]])
    G_col = util.rat_matrix([[1, a], [0, r]])  # also the rh symbol
    s_row = wh_factor_scalar(G_row.det().factored())
    s_col = wh_factor_scalar(G_col.det().factored())

    E = APPoly.e
    A = util.ap_matrix([[E(0), 0], [0, E(1)]])
    ap_col = util.ap_matrix([[E(0)], [0]])
    ap_row = util.ap_matrix([[E(0), 0]])

    cases = [
        ("row-outside", lambda: factor_via_row(G_row, 1, util.rat_matrix([[up_bad], [0]]), s_row),
         HypothesisViolation),
        ("row-identity", lambda: factor_via_row(G_row, 1, twice_col, s_row), HypothesisViolation),
        ("column-outside", lambda: factor_via_column(
            G_col, 1, util.rat_matrix([[down_bad, 0]]), s_col), HypothesisViolation),
        ("column-identity", lambda: factor_via_column(G_col, 1, twice_row, s_col),
         HypothesisViolation),
        ("rh-outside", lambda: factor_via_rh(
            G_col, util.rat_matrix([[up_bad], [0]]), col, row, row, s_col), HypothesisViolation),
        ("rh-residual", lambda: factor_via_rh(G_col, col, off_minus, row, row, s_col),
         RHResidualNonzero),
        ("rh-identity", lambda: factor_via_rh(G_col, col, col, twice_row, row, s_col),
         HypothesisViolation),
        ("ap-row-outside", lambda: ap_factor_via_row(A, 1, util.ap_matrix([[E(-1)], [0]])),
         HypothesisViolation),
        ("ap-row-identity", lambda: ap_factor_via_row(A, 1, util.ap_matrix([[E(0, 2)], [0]])),
         HypothesisViolation),
        ("ap-rh-outside", lambda: ap_factor_via_rh(
            A, util.ap_matrix([[E(-1)], [0]]), ap_col, ap_row, ap_row), HypothesisViolation),
        ("ap-rh-residual", lambda: ap_factor_via_rh(
            A, ap_col, util.ap_matrix([[E(0)], [E(-1)]]), ap_row, ap_row), RHResidualNonzero),
        ("ap-rh-identity", lambda: ap_factor_via_rh(
            A, ap_col, ap_col, util.ap_matrix([[E(0, 2), 0]]), ap_row), HypothesisViolation),
    ]
    for level, up, down in (("H", up_bad, down_bad), ("M", unbounded, unbounded)):
        up_col = util.rat_matrix([[up], [0]])
        down_row = util.rat_matrix([[down, 0]])
        cases += [
            (f"classify-{level}-row-outside",
             lambda level=level, m=up_col: classify(G_row, "row", level, omitted=1, phi_plus=m)),
            (f"classify-{level}-row-identity",
             lambda level=level: classify(G_row, "row", level, omitted=1, phi_plus=twice_col)),
            (f"classify-{level}-column-outside",
             lambda level=level, m=down_row: classify(
                 G_col, "column", level, omitted=1, psi_minus=m)),
            (f"classify-{level}-column-identity",
             lambda level=level: classify(G_col, "column", level, omitted=1, psi_minus=twice_row)),
            (f"classify-{level}-rh-outside",
             lambda level=level, m=up_col: classify(
                 G_col, "rh", level, phi_pair=(m, col), psi_pair=(row, row))),
            (f"classify-{level}-rh-residual",
             lambda level=level: classify(
                 G_col, "rh", level, phi_pair=(col, off_minus), psi_pair=(row, row))),
            (f"classify-{level}-rh-identity",
             lambda level=level: classify(
                 G_col, "rh", level, phi_pair=(col, col), psi_pair=(twice_row, row))),
        ]
        cases[-7:] = [(name, call, CertificateInvalid) for name, call in cases[-7:]]
    return cases


_VIOLATED = _violated_certificates()


@pytest.mark.parametrize(
    "call,expected", [case[1:] for case in _VIOLATED], ids=[case[0] for case in _VIOLATED]
)
def test_violated_certificate_raises_its_exception_class(call, expected):
    """Each violated part of a row, column or boundary-relation certificate
    raises exactly the class its route documents, for rational and almost
    periodic symbols and for classify at both levels."""
    with pytest.raises(WHError) as info:
        call()
    assert info.type is expected, info.value
