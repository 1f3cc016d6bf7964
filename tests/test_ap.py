"""Almost periodic layer: projection identities, mean motion methods, the
gap-guarded row factorization, the gap-free boundary-relation route, and
the unitary/orthogonal corona specials."""

import decimal
import random
from fractions import Fraction

import pytest

import util
from whfactor.ap import (
    APFactorization,
    MeanMotionResult,
    SplitUnavailable,
    ap_factor_via_rh,
    ap_factor_via_row,
    ap_project,
    ap_special,
    gap_split,
    mean_motion,
)
from whfactor.errors import (
    HypothesisViolation,
    NotUnitary,
    RHResidualNonzero,
    ZeroInput,
)
from whfactor.matrices import AP
from whfactor.rings import APPoly, GaussianRational

E = APPoly.e


def test_ap_project_examples():
    p = E(-1, 2) + E(0, 5) + E(2)
    assert ap_project(p, "+") == E(0, 5) + E(2)
    assert ap_project(p, "-") == E(-1, 2)
    plus = E(0, 3) + E(Fraction(1, 2))
    assert ap_project(plus, "+") == plus
    assert ap_project(plus, "-") == APPoly()


def test_ap_project_split_and_idempotence_random():
    rng = random.Random(107)
    for _ in range(200):
        p = util.rand_appoly(rng)
        plus = ap_project(p, "+")
        minus = ap_project(p, "-")
        assert plus + minus == p
        assert ap_project(plus, "+") == plus and ap_project(minus, "-") == minus
        assert all(f >= 0 for f in plus.support)
        assert all(f < 0 for f in minus.support)


def test_mean_motion_monomial_and_dominant():
    assert mean_motion(E(2)) == mean_motion(E(2))
    mm = mean_motion(E(2))
    assert mm.kappa == 2 and mm.method == "monomial"
    mm2 = mean_motion(E(1, 3) + E(-1))
    assert mm2.kappa == 1 and mm2.method == "dominant-coefficient"
    with pytest.raises(ZeroInput):
        mean_motion(APPoly())


def test_mean_motion_dominant_cross_checked_numerically():
    # dominant verdicts agree with the winding of the associated Laurent
    # polynomial computed without the dominance shortcut
    import cmath
    import math

    rng = random.Random(109)
    for _ in range(20):
        base = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        p = E(base, 5) + E(0, 1) + E(base * 2, 1)
        mm = mean_motion(p)
        assert mm.method == "dominant-coefficient" and mm.kappa == base
        b = base.denominator * 2 if base * 2 == int(base * 2) else base.denominator
        # direct argument accumulation over one period
        period_b = 1
        for f in p.support:
            period_b = period_b * f.denominator // math.gcd(period_b, f.denominator)
        samples = 4096
        total = 0.0
        prev = p.eval(0.0)
        for j in range(1, samples + 1):
            t = 2 * math.pi * period_b * j / samples
            cur = p.eval(t)
            total += cmath.phase(cur / prev)
            prev = cur
        est = Fraction(round(total / (2 * math.pi)), period_b)
        assert est == mm.kappa


def _brute_dominant(p: APPoly):
    """The frequency whose |coefficient| exceeds the others' sum, from
    60-digit moduli; a gap below 1e-40 is an exact tie at these sizes."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        mods = [
            (decimal.Decimal(c.re.numerator) / c.re.denominator) ** 2
            + (decimal.Decimal(c.im.numerator) / c.im.denominator) ** 2
            for _, c in p.terms
        ]
        mods = [m.sqrt() for m in mods]
        total = sum(mods)
        gap = decimal.Decimal("1e-40")
        winners = [f for (f, _), m in zip(p.terms, mods) if 2 * m - total > gap]
    assert len(winners) <= 1
    return winners[0] if winners else None


def test_dominant_frequency_matches_brute_force():
    rng = random.Random(113)
    freqs = [Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
    seen = set()
    for _ in range(400):
        p = APPoly()
        for f in rng.sample(freqs, rng.randint(1, 4)):
            p = p + E(f, util.rand_gr(rng, 4, 2) * rng.choice([1, 1, 2, 5]))
        if p.is_zero:
            continue
        want = _brute_dominant(p)
        seen.add(want)
        assert p.dominant_frequency() == want
        if want is not None and not p.is_monomial:
            assert mean_motion(p) == MeanMotionResult(want, "dominant-coefficient")
    assert None in seen and Fraction(0) in seen and len(seen) >= 4


def test_mean_motion_vanishing_unresolved():
    mm = mean_motion(E(1) + E(-1))  # 2 cos: vanishes on the line
    assert mm.kappa is None
    assert "vanishes" in mm.note


def test_mean_motion_numeric_estimate():
    # no dominant coefficient, still invertible: 3 terms around the circle
    p = E(1, 2) + E(0, 2) + E(-1, 3)
    mm = mean_motion(p)
    if mm.kappa is not None:
        assert mm.method in ("numeric-estimate", "dominant-coefficient")


def test_gap_split_rules():
    q = E(-1) + E(2, 4)
    x_minus, x_plus, bad = gap_split(q, Fraction(1))
    assert not bad
    assert x_minus == E(-1) and x_plus == E(1, 4)
    _, _, offenders = gap_split(E(Fraction(1, 2)), Fraction(1))
    assert offenders == (Fraction(1, 2),)
    # kappa = 0: plain frequency split, never unavailable
    xm, xp, none = gap_split(E(-2) + E(0, 7) + E(3), Fraction(0))
    assert not none and xm == E(-2) and xp == E(0, 7) + E(3)
    # negative kappa: always splittable
    xm2, xp2, none2 = gap_split(E(-1) + E(1), Fraction(-2))
    assert not none2
    assert xm2 + E(-2) * xp2 == E(-1) + E(1)


def test_ap_factor_via_row_worked_example():
    G = util.ap_matrix([[E(0), 0], [E(-1) + E(2, 4), E(1)]])
    phi_plus = util.ap_matrix([[E(0)], [0]])
    out = ap_factor_via_row(G, 1, phi_plus)
    assert isinstance(out, APFactorization)
    assert out.partial_ap_indices == (Fraction(0), Fraction(1))
    assert out.g_minus == util.ap_matrix([[E(0), 0], [E(-1), E(0)]])
    assert out.g_plus == util.ap_matrix([[E(0), 0], [E(1, 4), E(0)]])
    assert out.reconstruct() == G
    # membership certificates
    for i in range(2):
        for j in range(2):
            gm = out.g_minus[i, j]
            gp = out.g_plus[i, j]
            assert gm.is_zero or gm.max_freq() <= 0
            assert gp.is_zero or gp.min_freq() >= 0


def test_ap_factor_via_row_gap_fixture():
    # the (0, kappa) construction must refuse, naming the frequency 1/2
    G = util.ap_matrix([[E(0), 0], [E(Fraction(1, 2)), E(1)]])
    phi_plus = util.ap_matrix([[E(0)], [0]])
    out = ap_factor_via_row(G, 1, phi_plus)
    assert isinstance(out, SplitUnavailable)
    assert out.offending == (Fraction(1, 2),)
    assert out.kappa == 1


def test_ap_factor_via_row_canonical_random():
    rng = random.Random(113)
    for _ in range(50):
        q = util.rand_appoly(rng)
        c = util.rand_nonzero_gr(rng)
        G = util.ap_matrix([[E(0), 0], [q, E(0, c)]])
        phi_plus = util.ap_matrix([[E(0)], [0]])
        out = ap_factor_via_row(G, 1, phi_plus)
        assert isinstance(out, APFactorization)
        assert out.partial_ap_indices == (Fraction(0), Fraction(0))
        assert out.reconstruct() == G


def test_ap_factor_via_row_requires_monomial_det():
    G = util.ap_matrix([[E(0), 0], [0, E(0) + E(1)]])
    phi_plus = util.ap_matrix([[E(0)], [0]])
    with pytest.raises(HypothesisViolation):
        ap_factor_via_row(G, 1, phi_plus)


def test_ap_factor_via_row_supplied_det_factorization():
    G = util.ap_matrix([[E(0, 2), 0], [E(-1), E(1, 3)]])
    phi_plus = util.ap_matrix([[GaussianRational(1, 2) * 0 + E(0, Fraction(1, 2))], [0]])
    out = ap_factor_via_row(
        G, 1, phi_plus, det_factorization=(GaussianRational(2), Fraction(1), GaussianRational(3))
    )
    assert isinstance(out, APFactorization)
    assert out.reconstruct() == G
    assert sum(out.partial_ap_indices, Fraction(0)) == Fraction(1)


def test_ap_factor_via_row_rejects_a_zero_det_factor():
    # a singular symbol matches gamma_minus = 0; that is not a factorization
    G = util.ap_matrix([[E(0), 0], [0, 0]])
    phi_plus = util.ap_matrix([[E(0)], [0]])
    with pytest.raises(HypothesisViolation, match="nonzero constant"):
        ap_factor_via_row(G, 1, phi_plus, det_factorization=(0, Fraction(0), 1))


def test_index_sum_matches_mean_motion():
    rng = random.Random(127)
    for _ in range(10):
        q = util.rand_ap_plus(rng)
        G = util.ap_matrix([[E(0), 0], [q, E(2)]])
        phi_plus = util.ap_matrix([[E(0)], [0]])
        out = ap_factor_via_row(G, 1, phi_plus)
        if isinstance(out, SplitUnavailable):
            assert all(Fraction(0) < f < Fraction(2) for f in out.offending)
            continue
        mm = mean_motion(G.det())
        assert sum(out.partial_ap_indices, Fraction(0)) == mm.kappa


def test_ap_factor_via_rh_identity_and_canonical():
    G = util.ap_matrix([[E(0), E(-1) + E(0, 2)], [0, E(0)]])
    phi_plus = util.ap_matrix([[E(0)], [0]])
    phi_minus = util.ap_matrix([[E(0)], [0]])
    psi = util.ap_matrix([[E(0), 0]])
    out = ap_factor_via_rh(G, phi_plus, phi_minus, psi, psi)
    assert isinstance(out, APFactorization)
    assert out.partial_ap_indices == (Fraction(0), Fraction(0))
    assert out.reconstruct() == G

    ident = util.ap_matrix([[E(0), 0], [0, E(0)]])
    out2 = ap_factor_via_rh(ident, phi_plus, phi_minus, psi, psi)
    assert out2.partial_ap_indices == (Fraction(0), Fraction(0))
    assert out2.reconstruct() == ident


def test_ap_factor_via_rh_never_needs_gap():
    # scalar corner with frequencies inside (0, kappa): the minus-side shift
    # absorbs them, so the construction still succeeds and reconstructs
    G = util.ap_matrix([[E(0), E(Fraction(1, 2))], [0, E(1)]])
    phi_plus = util.ap_matrix([[E(0)], [0]])
    phi_minus = util.ap_matrix([[E(0)], [0]])
    psi = util.ap_matrix([[E(0), 0]])
    out = ap_factor_via_rh(G, phi_plus, phi_minus, psi, psi)
    assert isinstance(out, APFactorization)
    assert out.partial_ap_indices == (Fraction(0), Fraction(1))
    assert out.reconstruct() == G
    for i in range(2):
        for j in range(2):
            gm = out.g_minus[i, j]
            gp = out.g_plus[i, j]
            assert gm.is_zero or gm.max_freq() <= 0
            assert gp.is_zero or gp.min_freq() >= 0


def test_ap_factor_via_rh_guards():
    G = util.ap_matrix([[E(0), 0], [0, E(1)]])
    phi_plus = util.ap_matrix([[E(0)], [0]])
    phi_minus = util.ap_matrix([[E(0)], [E(-1)]])
    psi = util.ap_matrix([[E(0), 0]])
    with pytest.raises(RHResidualNonzero):
        ap_factor_via_rh(G, phi_plus, phi_minus, psi, psi)
    Gneg = util.ap_matrix([[E(0), 0], [0, E(-1)]])
    with pytest.raises(HypothesisViolation):
        ap_factor_via_rh(Gneg, phi_plus, phi_plus, psi, psi)


def test_ap_special_identity_and_constant_unitary():
    ident = util.ap_matrix([[E(0), 0], [0, E(0)]])
    rep = ap_special(ident, "unitary")
    assert rep.fredholm == "yes" and (rep.dim_ker, rep.dim_coker) == (0, 0)
    half = Fraction(1, 2)
    c = GaussianRational(half)
    s = GaussianRational(0, 1) * GaussianRational(Fraction(3, 2)) * 0 + GaussianRational(Fraction(3, 5))
    # constant rotation [[3/5, 4/5], [-4/5, 3/5]]
    G = util.ap_matrix(
        [
            [E(0, Fraction(3, 5)), E(0, Fraction(4, 5))],
            [E(0, Fraction(-4, 5)), E(0, Fraction(3, 5))],
        ]
    )
    rep2 = ap_special(G, "unitary")
    assert rep2.fredholm == "yes"
    rep3 = ap_special(G, "orthogonal")
    assert rep3.fredholm == "yes"


def test_ap_special_failure_stays_silent():
    # last row [e_-1, 0] over the lower algebra carries a non-invertible
    # common exponential factor: the sufficient criterion makes no claim
    G = util.ap_matrix([[0, E(1)], [E(-1), 0]])
    rep = ap_special(G, "unitary")
    assert rep.fredholm == "unknown"
    assert any("witness" in note for note in rep.notes)


def test_ap_special_unresolved_propagates():
    # unitary with constant determinant whose last row is outside the
    # dominant-coefficient fragment: a = (1 + e_1)/2, b = (1 - e_1)/2 give
    # a a* + b b* = 1 exactly, and [[a, b], [-b*, a*]] has det 1
    half = Fraction(1, 2)
    a = E(0, half) + E(1, half)
    b = E(0, half) - E(1, half)
    G = util.ap_matrix([[a, b], [-(b.conj()), a.conj()]])
    gstar = G.map(lambda p: p.conj()).transpose()
    assert (G * gstar).is_identity()
    assert G.det() == E(0)
    rep = ap_special(G, "unitary")
    assert rep.fredholm == "unknown"
    assert any("unresolved" in note for note in rep.notes)


def test_ap_special_guards():
    G = util.ap_matrix([[E(0), E(1)], [0, E(0)]])
    with pytest.raises(NotUnitary):
        ap_special(G, "unitary")
    # unitary on the line but with non-constant determinant
    G2 = util.ap_matrix([[E(1), 0], [0, E(0)]])
    with pytest.raises(HypothesisViolation):
        ap_special(G2, "unitary")


def test_ap_factor_via_row_non_last_row():
    # omitting a row other than the last goes through the permutation path
    G = util.ap_matrix([[E(-1) + E(2, 4), E(1)], [E(0), 0]])
    phi_plus = util.ap_matrix([[E(0)], [0]])
    out = ap_factor_via_row(G, 0, phi_plus)
    assert isinstance(out, APFactorization)
    assert out.partial_ap_indices == (Fraction(0), Fraction(1))
    assert out.reconstruct() == G
