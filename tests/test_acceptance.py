"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured evidence.  All comparisons are exact (zero tolerance) except
where a tolerance is stated explicitly."""

import json
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import util
from whfactor.ap import SplitUnavailable, ap_factor_via_row, ap_project
from whfactor.corona import (
    CoronaCertificate,
    CoronaFailure,
    corona_solve_hplus,
    corona_solve_mplus,
)
from whfactor.exact_linalg import (
    adjoint_submatrix,
    complete,
    delta_left_inverse_from_psi,
    maximal_minors,
)
from whfactor.fredholm import report_from_indices, special_orthogonal, special_unitary
from whfactor.matrices import QI, RAT, RingMatrix
from whfactor.matrix_wh import (
    WHFactorization,
    apply_inverse,
    factor_via_rh,
    factor_via_row,
    toeplitz_apply,
    verify_factorization,
)
from whfactor.rings import (
    APPoly,
    GaussianRational,
    Polynomial,
    RationalFunction,
)
from whfactor.scalar_wh import (
    r_function,
    riesz_project,
    wh_factor_scalar,
    winding_exact,
    winding_numeric,
)

REPO = pathlib.Path(__file__).resolve().parents[1]
DATA = REPO / "demos" / "data"

I = GaussianRational(0, 1)
X = Polynomial.x()
E = APPoly.e


def lin(root):
    return Polynomial([-GaussianRational.coerce(root), GaussianRational(1)])


def announce(number, detail):
    print(f"\nACCEPTANCE {number}: PASS - {detail}")


def test_criterion_1_one_sided_inversion_suite():
    """500 random instances over Q(i) and Q(i)[x]: inverse, minor pairing,
    and completion identities hold exactly; runtime under 60 s."""
    rng = random.Random(20240811)
    start = time.time()
    for trial in range(500):
        n = rng.choice([2, 3, 4, 5, 6])
        ring_name = "gaussian" if trial % 2 == 0 else "polynomial"
        s, s_inv = util.rand_invertible(rng, n, ring_name)
        phi = s.submatrix(range(n), range(n - 1))
        psi = s_inv.submatrix(range(n - 1), range(n))
        ring = phi.ring
        assert (psi * phi).is_identity()
        delta_star = delta_left_inverse_from_psi(psi, phi)
        minors = maximal_minors(phi).values
        acc = ring.zero
        for c, d in zip(delta_star, minors):
            acc = acc + c * d
        assert acc == ring.one
        comp = complete(phi, psi)
        assert (comp.psi_e * comp.phi_e).is_identity()
        assert (comp.phi_e * comp.psi_e).is_identity()
        want = ring.one if (n - 1) % 2 == 0 else -ring.one
        assert comp.phi_e.det() == want
        assert comp.psi_e.det() == want
    elapsed = time.time() - start
    assert elapsed < 60, f"suite took {elapsed:.1f}s"
    announce(1, f"500 exact instances (n in 2..6, two rings) in {elapsed:.1f}s")


def test_criterion_2_sign_calibration():
    """Calibrated sign matrices are the identity for m <= 5, diverging from
    the printed alternating-sign diagonal; shown symbolically at 2x2."""
    for m in range(1, 6):
        assert util.calibrate_sign_matrix(m) == [1] * m
    # symbolic 2x2: the cofactor block times the matrix is det * Identity,
    # not det * diag(-1, +1)
    import sympy

    a, b, c, d = sympy.symbols("a b c d")
    phi = sympy.Matrix([[a, b], [c, d]])
    star = sympy.Matrix([[d, -b], [-c, a]])  # the (q,p) cofactor layout
    product = sympy.simplify(star * phi)
    det = a * d - b * c
    assert product == sympy.Matrix([[det, 0], [0, det]])
    alternating = sympy.Matrix([[-det, 0], [0, det]])
    assert product != alternating
    # the exact-arithmetic block agrees with the symbolic identity
    rng = random.Random(5)
    phi_num = RingMatrix(QI, [[util.rand_gr(rng) for _ in range(2)] for _ in range(2)])
    prod = adjoint_submatrix(phi_num, (0, 1)) * phi_num
    det_num = phi_num.det()
    assert prod[0, 0] == det_num and prod[1, 1] == det_num
    announce(
        2,
        "calibrated sign matrices are identity for m <= 5; symbolic 2x2 shows "
        "divergence from the printed alternating diagonal",
    )


def test_criterion_3_corona_suite():
    """100 random rational tuples with planted structure: certificates are
    exact Bezout identities with correct membership, planted line zeros are
    rejected with the right witness, and the bounded-vs-analytic distinction
    appears on the planted-interior-zero family."""
    rng = random.Random(314159)
    solvable = rejected = 0
    for trial in range(100):
        k = rng.randint(1, 3)
        if trial % 2 == 0:
            h = [util.rand_half_plane_function(rng, "+") for _ in range(k)]
            unit = RationalFunction(
                lin(util.rand_offline_root(rng, "-")),
                lin(util.rand_offline_root(rng, "-")),
            )
            h.append(unit)
            out = corona_solve_hplus(h, "+")
            assert isinstance(out, CoronaCertificate)
            total = RationalFunction(0)
            for g, f in zip(out.solution, h):
                assert g.in_half_algebra("+")
                total = total + g * f
            assert total == RationalFunction(1)
            solvable += 1
        else:
            t = GaussianRational(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
            zero = RationalFunction(lin(t), lin(-I))
            h = [
                util.rand_half_plane_function(rng, "+") * zero
                for _ in range(k)
            ]
            h.append(zero)
            out = corona_solve_hplus(h, "+")
            assert isinstance(out, CoronaFailure)
            if out.witness == "infinity":
                assert all(f.infinity_value() == GaussianRational(0) for f in h)
            else:
                assert all(f(out.witness) == GaussianRational(0) for f in h)
            rejected += 1
    # bounded-vs-analytic distinction on the planted-interior-zero family
    two_i = GaussianRational(0, 2)
    fam = [
        RationalFunction(lin(two_i), lin(-I)),
        RationalFunction(lin(two_i) * lin(3 * I), lin(-I) * lin(-I)),
    ]
    m_out = corona_solve_mplus(fam, "+")
    assert isinstance(m_out, CoronaCertificate)
    for f, g in zip(fam, m_out.hct_tuple):
        assert m_out.gr_factor * g == f
    h_out = corona_solve_hplus(fam, "+")
    assert isinstance(h_out, CoronaFailure) and h_out.witness == two_i
    announce(
        3,
        f"{solvable} exact certificates, {rejected} witnessed rejections, "
        "bounded/analytic split exhibited",
    )


def test_criterion_4_scalar_factorization_suite():
    """100 random line-invertible factored symbols (<= 6 factors):
    reconstruction and analyticity exact; exact winding equals the numeric
    winding at grid 256, tol 1e-9; runtime under 30 s."""
    rng = random.Random(271828)
    start = time.time()
    for _ in range(100):
        f = util.rand_line_invertible_factored(rng, max_factors=6)
        wh = wh_factor_scalar(f)
        assert wh.reconstruct() == f.expand()
        assert all(tag == "+" for _, _, tag in wh.gamma_minus.tags())
        assert all(tag == "-" for _, _, tag in wh.gamma_plus.tags())
        assert winding_exact(f) == wh.k == winding_numeric(f, grid=256, tol=1e-9)
    elapsed = time.time() - start
    assert elapsed < 30, f"suite took {elapsed:.1f}s"
    announce(4, f"100 scalar factorizations with matching windings in {elapsed:.1f}s")


def test_criterion_5_matrix_factorization_examples():
    """The three worked matrix factorizations reconstruct exactly with
    indices (0,...,0,k) and full certificates; the inverse-operator round
    trip is exact on the canonical example."""
    r = r_function()
    a = RationalFunction(1, X * X + 1)
    # row route, det = r^-1
    G1 = util.rat_matrix([[1, 0], [a, r**-1]])
    F1 = factor_via_row(
        G1, 1, util.rat_matrix([[1], [0]]), wh_factor_scalar(G1.det().factored())
    )
    assert F1.partial_indices == (0, -1)
    assert F1.reconstruct() == G1
    assert verify_factorization(G1, F1).all_pass
    # boundary-relation route on [[1, a], [0, r]]
    G2 = util.rat_matrix([[1, a], [0, r]])
    col = util.rat_matrix([[1], [0]])
    row = util.rat_matrix([[1, 0]])
    F2 = factor_via_rh(G2, col, col, row, row, wh_factor_scalar(G2.det().factored()))
    assert F2.partial_indices == (0, 1)
    assert F2.reconstruct() == G2
    assert verify_factorization(G2, F2).all_pass
    # 3x3 assembled from a suite-1 style completion
    rng = random.Random(1729)
    s, s_inv = util.rand_invertible_qi(rng, 3)
    psi = RingMatrix(
        RAT,
        [[RationalFunction(Polynomial([s[i, j]])) for j in range(3)] for i in range(2)],
    )
    phi_plus = RingMatrix(
        RAT,
        [[RationalFunction(Polynomial([s_inv[i, j]])) for j in range(2)] for i in range(3)],
    )
    cof = []
    for j in range(3):
        sub = psi.submatrix(range(2), [c for c in range(3) if c != j])
        cof.append(sub.det() if j % 2 == 0 else RationalFunction(0) - sub.det())
    nz = next(j for j in range(3) if cof[j])
    w = [RationalFunction(0)] * 3
    w[nz] = RationalFunction(1) / cof[nz]
    last = [(r**-1) * w[j] for j in range(3)]
    G3 = RingMatrix(RAT, list(psi.entries) + [last])
    assert G3.det() == r**-1
    F3 = factor_via_row(G3, 2, phi_plus, wh_factor_scalar((r**-1).factored()))
    assert F3.partial_indices == (0, 0, -1)
    assert F3.reconstruct() == G3
    assert verify_factorization(G3, F3).all_pass
    # canonical round trip
    proj = riesz_project(a)
    gm = util.rat_matrix([[1, proj.minus_part], [0, 1]])
    gp = util.rat_matrix([[1, proj.plus_part], [0, 1]])
    F4 = WHFactorization(gm, (0, 0), gp)
    G4 = util.rat_matrix([[1, a], [0, 1]])
    phi = [RationalFunction(0), RationalFunction(1, lin(-I))]
    result = apply_inverse(F4, phi)
    assert toeplitz_apply(G4, result) == phi
    announce(5, "three worked factorizations verified; inverse round trip exact")


def test_criterion_6_diagnostics():
    """Defect-dimension arithmetic on exhaustive index lists (|k| <= 3,
    n <= 4); the unitary and orthogonal examples report the stated data."""
    checked = 0
    for n in range(1, 5):
        for ks in product(range(-3, 4), repeat=n):
            rep = report_from_indices(ks)
            assert rep.dim_ker == sum(abs(k) for k in ks if k <= 0)
            assert rep.dim_coker == sum(k for k in ks if k >= 0)
            assert rep.index == rep.dim_ker - rep.dim_coker == -sum(ks)
            checked += 1
    r = r_function()
    uni = special_unitary(util.rat_matrix([[r, 0], [0, r**-1]]))
    assert uni.fredholm == "yes" and (uni.dim_ker, uni.dim_coker) == (1, 1)
    c = RationalFunction(X * X - 1, X * X + 1)
    s = RationalFunction(Polynomial([0, 2]), X * X + 1)
    orth = special_orthogonal(
        util.rat_matrix([[c, s], [RationalFunction(0) - s, c]])
    )
    assert orth.fredholm == "yes" and orth.index == 0
    det = util.rat_matrix([[c, s], [RationalFunction(0) - s, c]]).det()
    assert det.is_constant
    assert winding_numeric(lambda z: complex(det.constant_value().to_complex()), grid=256) == 0
    announce(
        6,
        f"{checked} index lists match the defect formulas; unitary (1,1) and "
        "orthogonal index-0 examples confirmed",
    )


def test_criterion_7_almost_periodic_suite():
    """Projections split and idempotent on 200 random polynomials; the
    gap-respecting example factors with indices (0,1); 50 random canonical
    instances reconstruct; the gap fixture refuses, naming frequency 1/2."""
    rng = random.Random(606)
    for _ in range(200):
        p = util.rand_appoly(rng)
        plus, minus = ap_project(p, "+"), ap_project(p, "-")
        assert plus + minus == p
        assert ap_project(plus, "+") == plus
        assert ap_project(minus, "-") == minus
        assert all(f >= 0 for f in plus.support)
        assert all(f < 0 for f in minus.support)
    G = util.ap_matrix([[E(0), 0], [E(-1) + E(2, 4), E(1)]])
    phi_plus = util.ap_matrix([[E(0)], [0]])
    out = ap_factor_via_row(G, 1, phi_plus)
    assert out.partial_ap_indices == (Fraction(0), Fraction(1))
    assert out.reconstruct() == G
    for _ in range(50):
        q = util.rand_appoly(rng)
        c = util.rand_nonzero_gr(rng)
        Gc = util.ap_matrix([[E(0), 0], [q, E(0, c)]])
        res = ap_factor_via_row(Gc, 1, phi_plus)
        assert res.partial_ap_indices == (Fraction(0), Fraction(0))
        assert res.reconstruct() == Gc
    fixture = util.ap_matrix([[E(0), 0], [E(Fraction(1, 2)), E(1)]])
    refusal = ap_factor_via_row(fixture, 1, phi_plus)
    assert isinstance(refusal, SplitUnavailable)
    assert refusal.offending == (Fraction(1, 2),)
    announce(
        7,
        "200 projection splits, worked example (0,1), 50 canonical "
        "reconstructions, gap fixture refused naming 1/2",
    )


CLI_CORPUS = [
    ("minors", "minors.json"),
    ("left-inverse", "left_inverse.json"),
    ("right-inverse", "right_inverse.json"),
    ("complete", "complete.json"),
    ("corona", "corona_h.json"),
    ("corona", "corona_m.json"),
    ("corona", "corona_fail.json"),
    ("corona", "corona_ap.json"),
    ("wh-scalar", "wh_scalar.json"),
    ("wh-scalar", "wh_scalar_singular.json"),
    ("winding", "winding.json"),
    ("project", "project.json"),
    ("wh-matrix", "wh_matrix_row.json"),
    ("wh-matrix", "wh_matrix_rh.json"),
    ("wh-matrix", "wh_matrix_col.json"),
    ("ap-factor", "ap_row.json"),
    ("ap-factor", "ap_gap.json"),
    ("report", "report_indices.json"),
    ("report", "report_unitary.json"),
    ("report", "report_orthogonal.json"),
    ("report", "report_continuous.json"),
    ("apply-inverse", "apply_inverse.json"),
    ("verify", "verify.json"),
]


def _cli(command, path, cwd):
    return subprocess.run(
        [sys.executable, "-m", "whfactor.cli", command, "--input", str(path)],
        capture_output=True,
        cwd=cwd,
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Byte-identical outputs across two runs on the full corpus; every
    emitted factorization passes the verify command."""
    for command, name in CLI_CORPUS:
        first = _cli(command, DATA / name, REPO)
        second = _cli(command, DATA / name, REPO)
        assert first.stdout == second.stdout and first.stdout
        assert first.returncode == second.returncode
    verified = 0
    for name in ("wh_matrix_row.json", "wh_matrix_rh.json", "wh_matrix_col.json"):
        proc = _cli("wh-matrix", DATA / name, REPO)
        assert proc.returncode == 0
        fact = json.loads(proc.stdout)["result"]["factorization"]
        job = json.loads((DATA / name).read_text())
        path = tmp_path / f"rt_{name}"
        path.write_text(json.dumps({"matrix": job["matrix"], "factorization": fact}))
        check = _cli("verify", path, REPO)
        assert check.returncode == 0
        assert json.loads(check.stdout)["result"]["all_pass"] is True
        verified += 1
    announce(
        8,
        f"{len(CLI_CORPUS)} corpus jobs byte-identical across runs; "
        f"{verified} emitted factorizations re-verified",
    )
