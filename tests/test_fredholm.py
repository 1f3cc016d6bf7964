"""Diagnostics: defect-dimension arithmetic on exhaustive index lists, the
classification levels, unitary/orthogonal special cases, and the
continuous-except-one-line regime."""

from fractions import Fraction
from itertools import product

import pytest

import util
from whfactor.errors import (
    CertificateInvalid,
    HypothesisViolation,
    NotOrthogonal,
    NotUnitary,
    ShapeViolation,
)
from whfactor.fredholm import (
    classify,
    continuous_except_line,
    report_from_indices,
    scalar_symbol_report,
    special_orthogonal,
    special_unitary,
)
from whfactor.matrices import MIXED, RingMatrix
from whfactor.rings import (
    GaussianRational,
    MixedFunction,
    Polynomial,
    RationalFunction,
)
from whfactor.scalar_wh import r_function, wh_factor_scalar, winding_numeric

I = GaussianRational(0, 1)
X = Polynomial.x()


def lin(root):
    return Polynomial([-GaussianRational.coerce(root), GaussianRational(1)])


def rf(num, den=None):
    return RationalFunction(num, den)


def test_report_from_indices_examples():
    rep = report_from_indices([0, 0, -2])
    assert (rep.dim_ker, rep.dim_coker, rep.index) == (2, 0, 2)
    assert rep.coburn == "coker_zero"
    rep = report_from_indices([0, 0, 0])
    assert (rep.dim_ker, rep.dim_coker) == (0, 0)
    assert rep.coburn == "both"
    rep = report_from_indices([1, -1])
    assert (rep.dim_ker, rep.dim_coker, rep.index) == (1, 1, 0)
    assert rep.fredholm == "yes"


def test_report_from_indices_exhaustive():
    # every index list with |k| <= 3 and n <= 4, against independent sums
    for n in range(1, 5):
        for ks in product(range(-3, 4), repeat=n):
            rep = report_from_indices(ks)
            want_ker = sum(abs(k) for k in ks if k <= 0)
            want_coker = sum(k for k in ks if k >= 0)
            assert rep.dim_ker == want_ker
            assert rep.dim_coker == want_coker
            assert rep.index == want_ker - want_coker == -sum(ks)
            assert (rep.dim_ker * rep.dim_coker == 0) == (
                all(k >= 0 for k in ks) or all(k <= 0 for k in ks)
            )


def test_classify_strict_copies_scalar_dimensions():
    r = r_function()
    a = rf(1, X * X + 1)
    G = util.rat_matrix([[1, 0], [a, r**-1]])
    phi_plus = util.rat_matrix([[1], [0]])
    rep = classify(G, "row", "H", omitted=1, phi_plus=phi_plus)
    assert rep.equivalence == "strictly"
    assert rep.fredholm == "yes"
    assert (rep.dim_ker, rep.dim_coker) == (1, 0)
    assert rep.coburn == "coker_zero"
    assert rep.scalar["winding"] == -1
    # strict reports inherit the one-sided-kernel alternative
    assert rep.dim_ker == 0 or rep.dim_coker == 0


def test_classify_m_level_is_near_without_dimensions():
    r = r_function()
    m = rf(lin(-2 * I), lin(2 * I))  # bounded, pole at 2i
    G = util.rat_matrix([[m, 0], [rf(1, X * X + 1), r**-1 / m]])
    phi_plus = util.rat_matrix([[1 / m], [0]])
    rep = classify(G, "row", "M", omitted=1, phi_plus=phi_plus)
    assert rep.equivalence == "nearly"
    assert rep.dim_ker is None and rep.dim_coker is None
    assert rep.fredholm == "yes"


def test_classify_rejects_bad_certificate():
    r = r_function()
    G = util.rat_matrix([[1, 0], [0, r]])
    wrong = util.rat_matrix([[0], [1]])
    with pytest.raises(CertificateInvalid):
        classify(G, "row", "H", omitted=1, phi_plus=wrong)


def test_classify_rh_structure():
    r = r_function()
    b = rf(1, X * X + 1)
    G = util.rat_matrix([[1, b], [0, r]])
    col = util.rat_matrix([[1], [0]])
    row = util.rat_matrix([[1, 0]])
    rep = classify(G, "rh", "H", phi_pair=(col, col), psi_pair=(row, row))
    assert rep.equivalence == "strictly"
    assert (rep.dim_ker, rep.dim_coker) == (0, 1)


def test_classify_non_fredholm_det():
    # det vanishes at x = 0: both operators non-Fredholm
    sym = rf(X, lin(-I))
    G = util.rat_matrix([[1, 0], [0, sym]])
    phi_plus = util.rat_matrix([[1], [0]])
    rep = classify(G, "row", "H", omitted=1, phi_plus=phi_plus)
    assert rep.fredholm == "no"
    assert rep.equivalence == "strictly"
    assert rep.dim_ker is None


def test_special_unitary_diag_example():
    r = r_function()
    G = util.rat_matrix([[r, 0], [0, r**-1]])
    rep = special_unitary(G)
    assert rep.fredholm == "yes"
    assert rep.partial_indices == (1, -1)
    assert (rep.dim_ker, rep.dim_coker) == (1, 1)
    # Fredholm but not invertible, consistent with the entrywise picture
    assert rep.dim_ker > 0 and rep.dim_coker > 0
    entrywise = report_from_indices(
        [wh_factor_scalar(G[j, j].factored()).k for j in range(2)]
    )
    assert (entrywise.dim_ker, entrywise.dim_coker) == (rep.dim_ker, rep.dim_coker)


def test_special_unitary_identity_and_guards():
    G = util.rat_matrix([[1, 0], [0, 1]])
    rep = special_unitary(G)
    assert rep.fredholm == "yes"
    assert (rep.dim_ker, rep.dim_coker) == (0, 0)
    r = r_function()
    with pytest.raises(HypothesisViolation):
        special_unitary(util.rat_matrix([[r, 0], [0, r]]))  # det not constant
    with pytest.raises(NotUnitary):
        special_unitary(util.rat_matrix([[1, 1], [0, 1]]))


def test_special_orthogonal_rotation_example():
    c = rf(X * X - 1, X * X + 1)
    s = rf(Polynomial([0, 2]), X * X + 1)
    G = util.rat_matrix([[c, s], [rf(0) - s, c]])
    rep = special_orthogonal(G)
    assert rep.fredholm == "yes"
    assert rep.index == 0
    # numeric winding of the determinant confirms index 0
    det = G.det()
    assert det == rf(1)
    assert winding_numeric(lambda z: complex(1.0), grid=64) == 0


def test_special_orthogonal_refuses_a_non_orthogonal_symbol():
    # the last row of an orthogonal symbol has sum g_j^2 == 1 on the line, so
    # it never shares a real zero; what a bad symbol hits is NotOrthogonal:
    # with c, s as in a rotation, [[c, s], [s, c]] has G G^T != I
    c = rf(X * X - 1, X * X + 1)
    s = rf(Polynomial([0, 2]), X * X + 1)
    with pytest.raises(NotOrthogonal):
        special_orthogonal(util.rat_matrix([[c, s], [s, c]]))


def test_special_unitary_refuses_a_non_constant_det():
    # the last row of a unitary symbol has sum |g_j|^2 == 1 on the line, so
    # it never shares a real zero; what a bad symbol hits is the constant-det
    # HypothesisViolation: diag(r, r) is unitary with det r^2
    r = r_function()
    with pytest.raises(HypothesisViolation, match="determinant is not constant"):
        special_unitary(util.rat_matrix([[r, 0], [0, r]]))


def test_continuous_except_line_fully_rational():
    r = r_function()
    G = RingMatrix(
        MIXED,
        [
            [MixedFunction.coerce(1), MixedFunction.coerce(0)],
            [MixedFunction.coerce(rf(1, X * X + 1)), MixedFunction.coerce(r)],
        ],
    )
    rep = continuous_except_line(G)
    assert rep.equivalence == "nearly"
    assert rep.fredholm == "yes"
    assert rep.scalar["winding"] == 1
    assert rep.index is None  # no index relation in this regime


def test_continuous_except_line_exponential_row():
    r = r_function()
    e_half = MixedFunction([(Fraction(1, 2), rf(1))])
    G = RingMatrix(
        MIXED,
        [
            [MixedFunction.coerce(1), MixedFunction.coerce(0)],
            [e_half, MixedFunction.coerce(r)],
        ],
    )
    rep = continuous_except_line(G)
    assert rep.equivalence == "nearly"
    assert rep.fredholm == "yes"
    assert rep.scalar == {
        "det_ring": "rational",
        "invertible_on_line": True,
        "fredholm": "yes",
        "winding": 1,
        "dim_ker": 0,
        "dim_coker": 1,
        "index": -1,
    }


def test_continuous_except_line_pure_ap_det():
    e1 = MixedFunction([(Fraction(1), rf(1))])
    G = RingMatrix(
        MIXED,
        [
            [MixedFunction.coerce(1), MixedFunction.coerce(0)],
            [MixedFunction.coerce(rf(1, X * X + 1)), e1],
        ],
    )
    rep = continuous_except_line(G)
    assert rep.scalar["det_ring"] == "ap"
    assert rep.fredholm == "no"  # nonzero mean motion
    const = RingMatrix(
        MIXED,
        [
            [MixedFunction.coerce(1), MixedFunction.coerce(0)],
            [e1, MixedFunction.coerce(2)],
        ],
    )
    rep2 = continuous_except_line(const)
    assert rep2.fredholm == "yes"


def test_continuous_except_line_mixed_det_unknown():
    r = r_function()
    e1 = MixedFunction([(Fraction(1), rf(1))])
    G = RingMatrix(
        MIXED,
        [
            [MixedFunction.coerce(1), MixedFunction.coerce(1)],
            [e1, MixedFunction.coerce(r)],
        ],
    )
    rep = continuous_except_line(G)
    assert rep.fredholm == "unknown"
    assert rep.scalar["det_ring"] == "mixed"


def test_continuous_except_line_shape_guard():
    e1 = MixedFunction([(Fraction(1), rf(1))])
    G = RingMatrix(MIXED, [[e1, e1], [e1, e1]])
    with pytest.raises(ShapeViolation):
        continuous_except_line(G)


def test_scalar_symbol_report():
    r = r_function()
    rep = scalar_symbol_report(r**2)
    assert rep == {
        "invertible_on_line": True,
        "fredholm": "yes",
        "winding": 2,
        "dim_ker": 0,
        "dim_coker": 2,
        "index": -2,
    }
    assert scalar_symbol_report(rf(X, lin(-I)))["fredholm"] == "no"


def test_special_orthogonal_identity_is_strict():
    rep = special_orthogonal(util.rat_matrix([[1, 0], [0, 1]]))
    assert rep.fredholm == "yes"
    assert rep.justification == "orthogonal-constant-det/strict"
    assert (rep.dim_ker, rep.dim_coker, rep.index, rep.coburn) == (0, 0, 0, "both")
