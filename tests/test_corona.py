"""Corona solvers: Bezout identities verified exactly, witnesses verified by
evaluation, the bounded-vs-analytic distinction, and the almost periodic
fragment with its declared-approximation certificates."""

import math
import random
from fractions import Fraction

import pytest

import util
from whfactor.corona import (
    CoronaCertificate,
    CoronaFailure,
    Unresolved,
    corona_solve_ap,
    corona_solve_hplus,
    corona_solve_mplus,
)
from whfactor.errors import MembershipViolation
from whfactor.rings import (
    APPoly,
    GaussianRational,
    Polynomial,
    RationalFunction,
)

I = GaussianRational(0, 1)
X = Polynomial.x()
E = APPoly.e


def lin(root):
    return Polynomial([-GaussianRational.coerce(root), GaussianRational(1)])


def check_identity(solution, h):
    total = RationalFunction(0)
    for g, f in zip(solution, h):
        total = total + g * f
    assert total == RationalFunction(1)


def test_hplus_worked_example():
    h = [RationalFunction(lin(I), lin(-I)), RationalFunction(1, lin(-I))]
    out = corona_solve_hplus(h, "+")
    assert isinstance(out, CoronaCertificate)
    check_identity(out.solution, h)
    assert out.solution == [
        RationalFunction(1),
        RationalFunction(Polynomial([GaussianRational(0, 2)])),
    ]


def test_hplus_trivial_and_membership():
    out = corona_solve_hplus([RationalFunction(1)], "+")
    assert out.solution == [RationalFunction(1)]
    with pytest.raises(MembershipViolation):
        corona_solve_hplus([RationalFunction(1, lin(I))], "+")  # pole at i
    with pytest.raises(MembershipViolation):
        corona_solve_hplus([RationalFunction(X, Polynomial([1]))], "+")  # unbounded


def test_hplus_planted_real_zero():
    h = [
        RationalFunction(X - 1, lin(-I)),
        RationalFunction(X - 1, lin(GaussianRational(0, -3))),
    ]
    out = corona_solve_hplus(h, "+")
    assert isinstance(out, CoronaFailure)
    assert out.witness == GaussianRational(1)
    for f in h:
        assert f(out.witness) == GaussianRational(0)


def test_hplus_planted_interior_zero():
    # balanced entries (no zero at infinity) sharing only the zero at z
    z = GaussianRational(1, 2)
    h = [
        RationalFunction(lin(z), lin(-I)),
        RationalFunction(lin(z) * lin(-2 * I), lin(-I) ** 2),
    ]
    out = corona_solve_hplus(h, "+")
    assert isinstance(out, CoronaFailure)
    assert out.witness == z


def test_hplus_vanishing_at_infinity():
    h = [RationalFunction(1, lin(-I)), RationalFunction(1, lin(GaussianRational(0, -2)))]
    out = corona_solve_hplus(h, "+")
    assert isinstance(out, CoronaFailure)
    assert out.witness == "infinity"


def test_hminus_mirror():
    h = [RationalFunction(lin(-I), lin(I)), RationalFunction(1, lin(I))]
    out = corona_solve_hplus(h, "-")
    assert isinstance(out, CoronaCertificate)
    check_identity(out.solution, h)
    for g in out.solution:
        assert g.in_half_algebra("-")
    # mirrored witness
    h2 = [RationalFunction(X - 1, lin(I))]
    fail = corona_solve_hplus(h2, "-")
    assert fail.witness == GaussianRational(1)


def test_hplus_common_zero_on_the_imaginary_axis():
    # p vanishes at i(3 +- sqrt 5)/2, points no snap candidate verifies; on
    # the disk side they sit on the real axis, well inside the circle
    p = Polynomial([-1, -3 * I, 1])
    den = lin(-I)
    h = [RationalFunction(p, den**2), RationalFunction(X * p, den**3)]
    out = corona_solve_hplus(h, "+")
    assert isinstance(out, CoronaFailure)
    assert isinstance(out.witness, complex)
    assert abs(out.witness - 1j * (3 + 5**0.5) / 2) < 1e-9
    assert abs(p.eval_complex(out.witness)) < 1e-9
    mirrored = corona_solve_hplus([f.reflect() for f in h], "-")
    assert isinstance(mirrored, CoronaFailure)
    assert abs(mirrored.witness + 1j * (3 + 5**0.5) / 2) < 1e-9
    # the negated witness keeps a +0.0 real part
    assert math.copysign(1.0, mirrored.witness.real) == 1.0

def test_hplus_random_certificates():
    rng = random.Random(83)
    produced = 0
    for _ in range(60):
        h = [util.rand_half_plane_function(rng, "+") for _ in range(rng.randint(1, 3))]
        # ensure solvability: append a function with no zeros in the closed
        # upper half-plane (an invertible plus-algebra element)
        unit_root = util.rand_offline_root(rng, "-")
        h.append(RationalFunction(lin(unit_root), lin(util.rand_offline_root(rng, "-"))))
        out = corona_solve_hplus(h, "+")
        assert isinstance(out, CoronaCertificate)
        check_identity(out.solution, h)
        for g in out.solution:
            assert g.in_half_algebra("+")
        produced += 1
    assert produced == 60


def test_mplus_divides_out_common_inner_part():
    two_i = GaussianRational(0, 2)
    three_i = GaussianRational(0, 3)
    h = [
        RationalFunction(lin(two_i), lin(-I)),
        RationalFunction(lin(two_i) * lin(three_i), lin(-I) * lin(-I)),
    ]
    m_out = corona_solve_mplus(h, "+")
    assert isinstance(m_out, CoronaCertificate)
    check_identity(m_out.solution, h)
    # decomposition h_j = gr_factor * hct_tuple[j] reconstructs exactly
    for f, g in zip(h, m_out.hct_tuple):
        assert m_out.gr_factor * g == f
        assert g.in_half_algebra("+")
    gm, power, gp = m_out.gr_split
    from whfactor.scalar_wh import r_function

    assert gm.expand() * r_function() ** power * gp.expand() == m_out.gr_factor
    # over the analytic algebra the same tuple fails at the planted zero
    h_out = corona_solve_hplus(h, "+")
    assert isinstance(h_out, CoronaFailure)
    assert h_out.witness == two_i


def test_mplus_trivial_and_infinity_witness():
    out = corona_solve_mplus(
        [RationalFunction(1), RationalFunction(1, lin(-I))], "+"
    )
    assert isinstance(out, CoronaCertificate)
    assert out.solution == [RationalFunction(1), RationalFunction(0)]
    fail = corona_solve_mplus(
        [RationalFunction(1, lin(-I)), RationalFunction(X, lin(-I) * lin(I))], "+"
    )
    assert isinstance(fail, CoronaFailure)
    assert fail.witness == "infinity"


def test_mplus_real_zero_witness_verified():
    t = GaussianRational(Fraction(3, 2))
    h = [
        RationalFunction(lin(t) * lin(I * 5), lin(-I) ** 2),
        RationalFunction(lin(t), lin(GaussianRational(0, -4))),
    ]
    out = corona_solve_mplus(h, "+")
    assert isinstance(out, CoronaFailure)
    assert out.witness == t
    for f in h:
        assert f(t) == GaussianRational(0)


def test_mplus_handles_zero_entries_and_poles_in_upper_plane():
    # pole at 2i is allowed in the bounded algebra; common zero structure at
    # 2i must still be divided out correctly together with a zero entry
    two_i = GaussianRational(0, 2)
    h = [
        RationalFunction(0),
        RationalFunction(lin(two_i), lin(-I)),
        RationalFunction(lin(two_i) * lin(two_i), lin(I) * lin(-I)),
    ]
    out = corona_solve_mplus(h, "+")
    assert isinstance(out, CoronaCertificate)
    check_identity(out.solution, h)
    for g in out.solution:
        assert g.bounded_on_line()


def test_mplus_random_with_planted_verdicts():
    rng = random.Random(89)
    for trial in range(40):
        k = rng.randint(1, 3)
        h = [util.rand_half_plane_function(rng, rng.choice("+-")) for _ in range(k)]
        h = [f for f in h if f.bounded_on_line()]
        plant_failure = trial % 2 == 0
        if plant_failure:
            t = GaussianRational(rng.randint(-3, 3))
            zero = RationalFunction(lin(t), lin(-I))
            h = [f * zero for f in h] or [zero]
            out = corona_solve_mplus(h, "+")
            assert isinstance(out, CoronaFailure)
            for f in h:
                if out.witness == "infinity":
                    assert f.infinity_value() == GaussianRational(0)
                else:
                    assert f(out.witness) == GaussianRational(0)
        else:
            unit = RationalFunction(lin(util.rand_offline_root(rng)), lin(-I))
            h.append(unit)
            out = corona_solve_mplus(h, "+")
            assert isinstance(out, CoronaCertificate)
            check_identity(out.solution, h)
            for g in out.solution:
                assert g.bounded_on_line()


def test_ap_exact_monomial_certificate():
    out = corona_solve_ap([E(0)], "+")
    assert isinstance(out, CoronaCertificate)
    assert out.exact
    assert out.solution == [APPoly.coerce(1)]


def test_ap_declared_approximation():
    h = [E(0) + E(1, Fraction(1, 4)), E(2)]
    out = corona_solve_ap(h, "+")
    assert isinstance(out, CoronaCertificate)
    assert not out.exact
    total = APPoly()
    for g, p in zip(out.solution, h):
        total = total + g * p
    assert total + out.residual == APPoly.coerce(1)
    assert out.residual_bound <= Fraction(1, 2**39)


def test_ap_common_factor_failure():
    out = corona_solve_ap([E(1), E(2)], "+")
    assert isinstance(out, CoronaFailure)
    assert out.witness == E(1)


def test_ap_membership_violation():
    with pytest.raises(MembershipViolation):
        corona_solve_ap([E(1) + E(-1)], "+")


def test_ap_unresolved_fragment_boundary():
    out = corona_solve_ap([E(0) + E(1), E(2)], "+")
    assert isinstance(out, Unresolved)


def test_ap_minus_side():
    h = [E(0, 3) + E(-1), E(-2)]
    out = corona_solve_ap(h, "-")
    assert isinstance(out, CoronaCertificate)
    total = APPoly()
    for g, p in zip(out.solution, h):
        total = total + g * p
    if out.exact:
        assert total == APPoly.coerce(1)
    else:
        assert total + out.residual == APPoly.coerce(1)
        for g in out.solution:
            if not g.is_zero:
                assert g.max_freq() <= 0


def test_diagnose_and_scalar_corona_agree():
    # matrix one-sided invertibility reduces to the scalar problem on the
    # minors: both paths must return the same verdict
    from whfactor.exact_linalg import maximal_minors, one_sided_diagnose
    from whfactor.corona import make_rational_solver
    from whfactor.matrices import RAT, RingMatrix

    rng = random.Random(131)
    solver = make_rational_solver("H+")
    for trial in range(12):
        f1 = util.rand_half_plane_function(rng, "+")
        f2 = util.rand_half_plane_function(rng, "+")
        if trial % 3 == 0:
            t = GaussianRational(rng.randint(-2, 2))
            zero = RationalFunction(lin(t), lin(-I))
            f1, f2 = f1 * zero, f2 * zero
        phi = RingMatrix(RAT, [[f1], [f2]])
        diag = one_sided_diagnose(phi, "left", solver)
        direct = corona_solve_hplus(list(maximal_minors(phi).values), "+")
        if isinstance(direct, CoronaCertificate):
            assert diag.status == "certificate"
            assert (diag.inverse * phi).is_identity()
        else:
            assert diag.status == "not_invertible"
            assert diag.witness == direct.witness
