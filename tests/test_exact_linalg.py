"""One-sided inversion: minors against a plain Laplace oracle, adjugate
blocks, Bezout-certificate inverses, completions, and the diagnose loop."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import util
from whfactor.corona import make_ap_solver, make_rational_solver
from whfactor.errors import BezoutCertificateInvalid, NotALeftInverse, ShapeMismatch
from whfactor.exact_linalg import (
    adjoint_submatrix,
    complete,
    delta_left_inverse_from_psi,
    field_bezout_solver,
    left_inverse_corank1,
    left_inverse_general,
    maximal_minors,
    omitted_row_minors,
    one_sided_diagnose,
)
from whfactor.matrices import AP, MIXED, POLY, QI, RAT, RingMatrix, minors_by_subset
from whfactor.rings import APPoly, GaussianRational, MixedFunction, Polynomial, RationalFunction


def laplace_det(m: RingMatrix):
    """Independent oracle: first-row cofactor expansion, no shared minors."""
    n = m.rows
    if n == 1:
        return m[0, 0]
    acc = m.ring.zero
    for j in range(n):
        sub = m.submatrix(range(1, n), [c for c in range(n) if c != j])
        term = m[0, j] * laplace_det(sub)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def test_det_matches_laplace_oracle():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = RingMatrix(QI, [[util.rand_gr(rng) for _ in range(n)] for _ in range(n)])
        assert m.det() == laplace_det(m)


X = Polynomial.x()
I = GaussianRational(0, 1)
# denominator 1, coprime poles, and (x+1)(x+i) and (x+1)^2 beside x+1
_POLES = [Polynomial([1]), X + 1, X + I, X - 2 * I, (X + 1) * (X + I), (X + 1) ** 2]
_NUMERATOR = st.lists(
    st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3)), max_size=3
).map(Polynomial)
# zero entries and non-monic numerators come from _NUMERATOR; a repeated
# pole gives a row or column entries over a shared denominator
_RAT_ENTRY = st.builds(RationalFunction, _NUMERATOR, st.sampled_from(_POLES))


def _rat_matrices(rows, cols):
    return st.lists(
        st.lists(_RAT_ENTRY, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda entries: RingMatrix(RAT, entries))


@st.composite
def _rat_matrix_and_size(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return draw(_rat_matrices(rows, cols)), draw(st.integers(0, cols))


_SHARED_POLES = RingMatrix(
    RAT,
    [
        [RationalFunction(3 * X, X + 1), RationalFunction(1, (X + 1) * (X + I))],
        [RationalFunction(0), RationalFunction(2 * I * X + 1, (X + 1) ** 2)],
    ],
)


@settings(max_examples=60, deadline=None)
@given(_rat_matrix_and_size())
@example((_SHARED_POLES, 2))
def test_rational_minors_match_laplace(m_size):
    """Every minor of the rational table (rows cleared to one denominator,
    one canonicalization per minor) equals the per-term Laplace oracle."""
    m, size = m_size
    table = minors_by_subset(m, size)
    assert list(table) == list(combinations(range(m.rows), size))
    for subset, minor in table.items():
        want = laplace_det(m.submatrix(subset, range(size))) if size else RAT.one
        assert minor == want, (subset, size)


@st.composite
def _rat_product_pair(draw):
    rows, inner, cols = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(_rat_matrices(rows, inner)), draw(_rat_matrices(inner, cols))


@settings(max_examples=60, deadline=None)
@given(_rat_product_pair())
@example((_SHARED_POLES, _SHARED_POLES.transpose()))
def test_rational_product_matches_per_term_sums(pair):
    """Rectangular rational products (rows of the left factor and columns
    of the right one cleared to one denominator) equal the entrywise sums
    canonicalized term by term."""
    a, b = pair
    product = a * b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = RationalFunction(0)
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            assert product[i, j] == acc, (i, j)


@settings(max_examples=30, deadline=None)
@given(_rat_matrix_and_size())
@example((_SHARED_POLES, 2))
def test_rational_minors_canonicalize_once_per_subset(m_size):
    """One rational minors_by_subset call builds exactly one
    RationalFunction per returned subset."""
    m, size = m_size
    built = []
    init = RationalFunction.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RationalFunction, "__init__", counting)
        table = minors_by_subset(m, size)
    assert len(built) == len(table)


def _rand_rational(rng):
    pole = Polynomial([rng.choice([1, GaussianRational(0, 1), GaussianRational(0, -2)]), 1])
    return RationalFunction(util.rand_poly(rng, 1), pole if rng.random() < 0.5 else 1)


RAND_ENTRY = {
    "gaussian": util.rand_gr,
    "polynomial": lambda rng: util.rand_poly(rng, 1),
    "rational": _rand_rational,
    "ap": lambda rng: util.rand_appoly(rng, 2),
    "mixed": lambda rng: MixedFunction([(rng.choice([0, 1]), _rand_rational(rng))]),
}
ALL_RINGS = [QI, POLY, RAT, AP, MIXED]


def laplace_cofactor(m: RingMatrix, i: int, j: int):
    """Signed cofactor (-1)**(i+j) det(m without row i and column j)."""
    n = m.rows
    if n == 1:
        return m.ring.one
    minor = laplace_det(
        m.submatrix([r for r in range(n) if r != i], [c for c in range(n) if c != j])
    )
    return minor if (i + j) % 2 == 0 else -minor


def rand_corank1_pair(ring, rng, n):
    """phi (n x n-1) and psi (n-1 x n) with psi * phi = I, cut from a product
    of two transvections with random off-diagonal entries and its inverse."""
    s = s_inv = RingMatrix.identity(ring, n)
    for _ in range(2):
        i, j = rng.sample(range(n), 2)
        c = RAND_ENTRY[ring.name](rng)
        e = [[ring.one if a == b else ring.zero for b in range(n)] for a in range(n)]
        e_inv = [list(r) for r in e]
        e[i][j], e_inv[i][j] = c, -c
        s, s_inv = s * RingMatrix(ring, e), RingMatrix(ring, e_inv) * s_inv
    return s.submatrix(range(n), range(n - 1)), s_inv.submatrix(range(n - 1), range(n))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_adjugate_matches_laplace_cofactors(ring):
    rng = random.Random(19)
    entry = RAND_ENTRY[ring.name]
    for n in range(1, 6):
        m = RingMatrix(ring, [[entry(rng) for _ in range(n)] for _ in range(n)])
        adj = m.adjugate()
        for i in range(n):
            for j in range(n):
                assert adj[i, j] == laplace_cofactor(m, j, i), (n, i, j)


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_complete_border_matches_laplace_minors(ring):
    rng = random.Random(23)
    for n in range(2, 6):
        phi, psi = rand_corank1_pair(ring, rng, n)
        comp = complete(phi, psi)
        for j in range(n):
            sign = ring.one if j % 2 == 0 else -ring.one
            psi_minor = laplace_det(psi.submatrix(range(n - 1), [c for c in range(n) if c != j]))
            phi_minor = laplace_det(phi.submatrix([r for r in range(n) if r != j], range(n - 1)))
            assert comp.phi_e[j, n - 1] == sign * psi_minor, (n, j)
            assert comp.psi_e[n - 1, j] == sign * phi_minor, (n, j)


def test_maximal_minors_worked_example():
    phi = RingMatrix(QI, [[1, 0], [0, 1], [2, 3]])
    mv = maximal_minors(phi)
    assert mv.subsets_one_based() == ((1, 2), (1, 3), (2, 3))
    assert [str(v) for v in mv.values] == ["1", "3", "-2"]


def test_maximal_minors_identity_block():
    for n in (3, 4, 5):
        rows = [[1 if i == j else 0 for j in range(n - 1)] for i in range(n - 1)]
        rows.append([0] * (n - 1))
        phi = RingMatrix(QI, rows)
        mv = maximal_minors(phi)
        by_subset = dict(zip(mv.subsets, mv.values))
        top = tuple(range(n - 1))
        assert by_subset[top] == QI.one
        assert all(not v for s, v in by_subset.items() if s != top)


def test_maximal_minors_rank_deficient():
    phi = RingMatrix(QI, [[1, 2], [2, 4], [3, 6]])
    assert all(not v for v in maximal_minors(phi).values)


def test_maximal_minors_against_direct_determinants():
    rng = random.Random(13)
    for _ in range(10):
        n, m = 5, rng.randint(1, 4)
        phi = RingMatrix(QI, [[util.rand_gr(rng) for _ in range(m)] for _ in range(n)])
        mv = maximal_minors(phi)
        for subset, value in zip(mv.subsets, mv.values):
            assert value == laplace_det(phi.submatrix(subset, range(m)))


def test_adjoint_submatrix_full_square():
    rng = random.Random(17)
    for _ in range(20):
        m = rng.randint(1, 4)
        phi = RingMatrix(QI, [[util.rand_gr(rng) for _ in range(m)] for _ in range(m)])
        star = adjoint_submatrix(phi, range(m))
        d = phi.det()
        prod = star * phi
        for q in range(m):
            for p in range(m):
                want = d if p == q else QI.zero
                assert prod[q, p] == want


def test_adjoint_submatrix_tall_and_singular():
    phi = RingMatrix(QI, [[1, 0], [0, 1], [2, 3]])
    for subset in ((0, 1), (0, 2), (1, 2)):
        star = adjoint_submatrix(phi, subset)
        d = phi.submatrix(subset, range(2)).det()
        prod = star * phi
        for q in range(2):
            for p in range(2):
                assert prod[q, p] == (d if p == q else QI.zero)
    singular = RingMatrix(QI, [[1, 2], [2, 4], [0, 1]])
    star = adjoint_submatrix(singular, (0, 1))
    prod = star * singular
    assert all(not prod[q, p] for q in range(2) for p in range(2))


def test_calibrated_signs_are_identity_up_to_m5():
    for m in range(1, 6):
        assert util.calibrate_sign_matrix(m) == [1] * m


def test_delta_left_inverse_examples():
    psi = RingMatrix(QI, [[1, 0, 0], [0, 1, 0]])
    phi = RingMatrix(QI, [[1, 0], [0, 1], [0, 0]])
    delta_star = delta_left_inverse_from_psi(psi, phi)
    assert [str(v) for v in delta_star] == ["1", "0", "0"]
    minors = maximal_minors(phi).values
    acc = QI.zero
    for c, d in zip(delta_star, minors):
        acc = acc + c * d
    assert acc == QI.one


def test_delta_left_inverse_square_case():
    rng = random.Random(19)
    s, s_inv = util.rand_invertible_qi(rng, 3)
    delta_star = delta_left_inverse_from_psi(s_inv, s)
    assert len(delta_star) == 1
    assert delta_star[0] * s.det() == QI.one
    with pytest.raises(NotALeftInverse):
        delta_left_inverse_from_psi(s, s)


def test_delta_left_inverse_randomized_pairing():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(2, 5)
        s, s_inv = util.rand_invertible_qi(rng, n)
        phi = s.submatrix(range(n), range(n - 1))
        psi = s_inv.submatrix(range(n - 1), range(n))
        delta_star = delta_left_inverse_from_psi(psi, phi)
        minors = maximal_minors(phi).values
        acc = QI.zero
        for c, d in zip(delta_star, minors):
            acc = acc + c * d
        assert acc == QI.one


def test_left_inverse_general_examples():
    phi = RingMatrix(QI, [[1, 0], [0, 1], [0, 0]])
    psi = left_inverse_general(phi, [1, 0, 0])
    assert (psi * phi).is_identity()
    phi2 = RingMatrix(QI, [[1, 0], [0, 1], [2, 3]])
    # lexicographic minors are [1, 3, -2]; [1, 0, 0] is a valid certificate
    psi2 = left_inverse_general(phi2, [1, 0, 0])
    assert (psi2 * phi2).is_identity()
    with pytest.raises(BezoutCertificateInvalid):
        left_inverse_general(phi2, [0, 0, 1])


def test_left_inverse_general_square_adjugate():
    rng = random.Random(37)
    s, s_inv = util.rand_invertible_qi(rng, 3)
    cert = [s.det().inv()]
    psi = left_inverse_general(s, cert)
    assert psi == s_inv


def test_left_inverse_corank1_examples():
    phi = RingMatrix(QI, [[1, 0], [0, 1], [2, 3]])
    assert [str(v) for v in omitted_row_minors(phi)] == ["-2", "3", "1"]
    psi = left_inverse_corank1(phi, [0, 0, 1])
    assert (psi * phi).is_identity()
    # scalar minor case: omitted-row minors of [[1],[0]] are [0, 1]
    phi2 = RingMatrix(QI, [[1], [0]])
    psi2 = left_inverse_corank1(phi2, [0, 1])
    assert psi2.entries == ((GaussianRational(1), GaussianRational(0)),)
    with pytest.raises(BezoutCertificateInvalid):
        left_inverse_corank1(phi2, [1, 0])


def test_left_inverse_corank1_random_polynomial():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 5)
        s, s_inv = util.rand_invertible_poly(rng, n)
        phi = s.submatrix(range(n), range(n - 1))
        psi = s_inv.submatrix(range(n - 1), range(n))
        delta_star = delta_left_inverse_from_psi(psi, phi)
        # reorder: general certificate is over lexicographic subsets; the
        # corank-one certificate wants omitted-row order (omitting row j
        # keeps the lexicographic subset at position n-1-j)
        cert = list(reversed(delta_star))
        built = left_inverse_corank1(phi, cert)
        assert (built * phi).is_identity()


def test_general_and_corank1_agree_as_left_inverses():
    rng = random.Random(43)
    for ring_name in ["gaussian"] * 10 + ["polynomial"] * 10:
        n = rng.randint(2, 5)
        s, s_inv = util.rand_invertible(rng, n, ring_name)
        phi = s.submatrix(range(n), range(n - 1))
        psi = s_inv.submatrix(range(n - 1), range(n))
        delta_star = delta_left_inverse_from_psi(psi, phi)
        a = left_inverse_general(phi, delta_star)
        b = left_inverse_corank1(phi, list(reversed(delta_star)))
        assert (a * phi).is_identity()
        assert a == b


def test_complete_worked_examples():
    phi = RingMatrix(QI, [[1, 0], [0, 1], [2, 3]])
    psi = RingMatrix(QI, [[1, 0, 0], [0, 1, 0]])
    comp = complete(phi, psi)
    n_col = [comp.phi_e[i, 2] for i in range(3)]
    assert [str(v) for v in n_col] == ["0", "0", "1"]
    n_row = [comp.psi_e[2, j] for j in range(3)]
    assert [str(v) for v in n_row] == ["-2", "-3", "1"]
    assert comp.det_value == QI.one  # (-1)**(3-1)

    phi2 = RingMatrix(QI, [[1], [0]])
    psi2 = RingMatrix(QI, [[1, 0]])
    comp2 = complete(phi2, psi2)
    assert comp2.phi_e.entries == (
        (GaussianRational(1), GaussianRational(0)),
        (GaussianRational(0), GaussianRational(-1)),
    )
    assert comp2.det_value == GaussianRational(-1)

    with pytest.raises(NotALeftInverse):
        complete(phi, RingMatrix(QI, [[1, 0, 0], [0, 0, 1]]))


def test_cauchy_binet_closure_randomized():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(2, 5)
        ring_name = rng.choice(["gaussian", "polynomial"])
        s, s_inv = util.rand_invertible(rng, n, ring_name)
        phi = s.submatrix(range(n), range(n - 1))
        psi = s_inv.submatrix(range(n - 1), range(n))
        ring = phi.ring
        acc = ring.zero
        for j in range(n):
            col_minor = psi.delete_col(j).det()
            row_minor = phi.delete_row(j).det()
            acc = acc + col_minor * row_minor
        assert acc == ring.one


def test_transposition_duality():
    rng = random.Random(53)
    s, s_inv = util.rand_invertible_qi(rng, 4)
    phi = s.submatrix(range(4), range(3))
    # phi^T is right invertible iff phi is left invertible
    diag_left = one_sided_diagnose(phi, "left", field_bezout_solver)
    diag_right = one_sided_diagnose(phi.transpose(), "right", field_bezout_solver)
    assert diag_left.status == diag_right.status == "certificate"
    assert diag_left.certificate == diag_right.certificate
    assert diag_right.inverse.transpose() == diag_left.inverse


def test_one_sided_diagnose_trivial_and_failures():
    phi = RingMatrix(QI, [[1, 0], [0, 1], [0, 0]])
    diag = one_sided_diagnose(phi, "left", field_bezout_solver)
    assert diag.status == "certificate"
    assert [str(c) for c in diag.certificate] == ["1", "0", "0"]
    assert (diag.inverse * phi).is_identity()

    deficient = RingMatrix(QI, [[1, 2], [2, 4], [3, 6]])
    assert one_sided_diagnose(deficient, "left", field_bezout_solver).status == "not_invertible"

    wide = RingMatrix(QI, [[1, 0, 0], [0, 1, 0]])
    assert one_sided_diagnose(wide, "left", field_bezout_solver).status == "not_invertible"


def test_one_sided_diagnose_with_corona_solver_real_zero_witness():
    from whfactor.rings import Polynomial

    x = Polynomial.x()
    i = GaussianRational(0, 1)
    # both maximal minors vanish at x = 2
    f1 = RationalFunction(x - 2, x + Polynomial([i]))
    f2 = RationalFunction((x - 2).scale(2), x + Polynomial([i * 3]))
    phi = RingMatrix(RAT, [[f1], [f2]])
    diag = one_sided_diagnose(phi, "left", make_rational_solver("M+"))
    assert diag.status == "not_invertible"
    assert diag.witness == GaussianRational(2)


def test_one_sided_diagnose_with_corona_solver_success():
    from whfactor.rings import Polynomial

    x = Polynomial.x()
    i = GaussianRational(0, 1)
    f1 = RationalFunction(x - Polynomial([i]), x + Polynomial([i]))
    f2 = RationalFunction(1, x + Polynomial([i]))
    phi = RingMatrix(RAT, [[f1], [f2]])
    diag = one_sided_diagnose(phi, "left", make_rational_solver("H+"))
    assert diag.status == "certificate"
    assert (diag.inverse * phi).is_identity()


def test_one_sided_diagnose_dispatches_ap_verdicts_on_status():
    E = APPoly.e
    solver = make_ap_solver("+")
    # no dominant constant coefficient: outside the implemented fragment
    undecided = RingMatrix(AP, [[E(0) + E(1)], [E(2)]])
    diag = one_sided_diagnose(undecided, "left", solver)
    assert diag.status == "unresolved"
    assert diag.witness is None and diag.inverse is None
    assert "dominant" in diag.notes[0]
    # common factor e[1] is not invertible in the plus algebra
    common = RingMatrix(AP, [[E(1)], [E(2)]])
    diag = one_sided_diagnose(common, "left", solver)
    assert diag.status == "not_invertible"
    assert diag.witness == E(1)
    assert diag.inverse is None


def test_shape_guards():
    with pytest.raises(ShapeMismatch):
        maximal_minors(RingMatrix(QI, [[1, 2, 3]]))
    with pytest.raises(ShapeMismatch):
        adjoint_submatrix(RingMatrix(QI, [[1], [2]]), (0, 1))
