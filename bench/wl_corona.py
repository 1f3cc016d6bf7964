"""`corona_factor` workload: a fixed, seeded mix of rational-symbol and
almost periodic jobs.

Every round holds the same number of jobs of each kind; only the instances
change with the seed, so a run's figures do not depend on how many rounds
fit in it.  The number of jobs per kind follows the trial mix of the
acceptance suite (tests/test_acceptance.py), scaled so that a round holds
as many planted-failure tuples as solvable ones, as criterion 3 does.
Solvable corona tuples come from the criterion-3 distribution conditioned
on their total denominator degree s (the size key that drives the
coefficient growth): strata s = 1..4 are drawn from the seed in fixed
counts per round.  The tail strata cost seconds per tuple and vary several
fold between tuples of one stratum, so seeded draws from them would make
runs on different seeds incomparable; instead every round carries the same
s = 6 and s = 5 tuples, drawn once from a fixed seed.  Stratum 7 (1 in 81
solvable tuples) is left out: its first tuple from that seed takes about
7 s, longer than a round.  The shapes that decide most of an instance's
cost are dealt from seeded decks (Shapes), so that a run's mix of shapes
stays close to the generators' odds on every seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count

import gen
from gen import ONE, I, lin
import harness
from harness import Job, expect
from whfactor import ap, corona, exact_linalg, fredholm, matrix_wh, scalar_wh
from whfactor.matrices import AP, RAT, RingMatrix
from whfactor.rings import APPoly, GaussianRational, Polynomial, RationalFunction

SETUP_ROUNDS = 1
ORACLE_PER_KIND = 1
# the job kinds of this mix follow the arithmetic kernel's speed by factors
# of 0.6 to 1.1 (measured per kind against 10 s windows), so one factor
# from the whole run's kernel times scales it (see harness.SpeedTrack)
KERNEL = harness.Kernel(harness.calibration_kernel, harness.COMPUTE.reference_s, window_s=None)

# seeded solvable tuples per round by total denominator degree s.  A
# criterion-3 tuple has 1-3 functions of denominator degree 0..2 plus a unit
# of degree 1, so s = 1..7 with odds 13:18:24:13:9:3:1; strata 1..4 are
# scaled here to 15 tuples
STRATA_PER_ROUND = {1: 3, 2: 4, 3: 5, 4: 3}
# fixed tuples per round, drawn in this order from TAIL_SEED
TAIL_STRATA = (6, 5)
TAIL_SEED = 20240811
SOLVABLE_PER_ROUND = sum(STRATA_PER_ROUND.values()) + len(TAIL_STRATA)
# trials per job kind in the acceptance suite: criterion 3 runs 50 solvable
# and 50 planted-failure tuples and one M+ family, criterion 4 runs 100
# scalar symbols, criterion 5 one Riesz projection, criterion 6 one unitary
# and one orthogonal report, criterion 7 200 projection pairs, 51 canonical
# row factorizations and one gap refusal.  Kinds it does not exercise
# (classify, mean_motion) get one job per round.
ACCEPTANCE_TRIALS = {
    "hplus_fail": 50,
    "mplus": 1,
    "scalar": 100,
    "riesz": 1,
    "fredholm": 0,
    "unitary": 1,
    "orthogonal": 1,
    "ap_factor": 51,
    "ap_gap": 1,
    "ap_project": 200,
    "mean_motion": 0,
}
# scaled so that a round holds as many failure tuples as solvable ones
PER_ROUND = {kind: max(1, round(n * SOLVABLE_PER_ROUND / 50))
             for kind, n in ACCEPTANCE_TRIALS.items()}
# (route, n, index k); index 0 adds the apply_inverse round trip.  Criterion
# 5's three worked factorizations would scale to one job per round; four run,
# so that both routes at n = 2 and n = 3 are in every round
MATRIX_JOBS = (("row", 2, -1), ("row", 3, 0), ("column", 2, 0), ("column", 3, 1))
# corona_solve_ap is not in the acceptance suite: one job per outcome
CORONA_AP_KINDS = ("certificate", "failure", "unresolved")

E = APPoly.e


def _status(out):
    return getattr(out, "status", type(out).__name__)


def _bezout_holds(solution, h, points):
    for p in points:
        acc = GaussianRational(0)
        for g, f in zip(solution, h):
            acc = acc + gen.evaluate(g, p) * gen.evaluate(f, p)
        expect(acc == ONE, f"sum g_j h_j != 1 at {p}")


def _oracle_bezout(solution, h):
    import oracle as o

    total = sum((o.entry(g) * o.entry(f) for g, f in zip(solution, h)), 0)
    o.require(o.is_zero(total - 1), "sum g_j h_j != 1")


# ------------------------------------------------------------ corona H+


def hplus_ok(job_id, kind, h, points):
    def run():
        return corona.corona_solve_hplus(h, "+")

    def check(out):
        expect(_status(out) == "certificate", f"expected a certificate, got {_status(out)}")
        expect(all(g.in_half_algebra("+") for g in out.solution), "solution outside H+")
        _bezout_holds(out.solution, h, points)

    return Job(job_id, kind, run, check, lambda out: _oracle_bezout(out.solution, h))


def _vanishes(h, w):
    if w == "infinity":
        expect(all(f.infinity_value() == GaussianRational(0) for f in h),
               "witness infinity is not a common zero")
    else:
        expect(isinstance(w, GaussianRational), f"inexact witness {w!r}")
        expect(all(gen.evaluate(f, w) == GaussianRational(0) for f in h),
               f"witness {w} is not a common zero")


def hplus_fail(job_id, h):
    def run():
        return corona.corona_solve_hplus(h, "+")

    def check(out):
        expect(_status(out) == "failure", f"expected a failure, got {_status(out)}")
        _vanishes(h, out.witness)

    def oracle(out):
        import oracle as o

        w = out.witness
        for f in h:
            if w == "infinity":
                o.require(o.sympy.limit(o.entry(f), o.X, o.sympy.oo) == 0, "no zero at infinity")
            else:
                o.require(o.value_at(o.entry(f), o.scalar(w)) == 0, f"f({w}) != 0")

    return Job(job_id, "hplus_fail", run, check, oracle)


def mplus(job_id, rng):
    z, w = gen.offline_root(rng, "+"), gen.offline_root(rng, "+")
    fam = [
        RationalFunction(lin(z), lin(-I)),
        RationalFunction(lin(z) * lin(w), lin(-I) * lin(-I)),
    ]
    points = gen.probe_points(rng)

    def run():
        return corona.corona_solve_mplus(fam, "+")

    def check(out):
        expect(_status(out) == "certificate", f"expected a certificate, got {_status(out)}")
        expect(all(out.gr_factor * g == f for f, g in zip(fam, out.hct_tuple)),
               "extracted factor does not rebuild the tuple")
        _bezout_holds(out.solution, fam, points)

    return Job(job_id, "mplus", run, check, lambda out: _oracle_bezout(out.solution, fam))


# ------------------------------------------------------------ scalar symbols


def scalar(job_id, rng, draws=None):
    f = gen.line_invertible_factored(rng, 6, draws)

    def run():
        wh = scalar_wh.wh_factor_scalar(f)
        return wh, scalar_wh.winding_exact(f), scalar_wh.winding_numeric(f, 256, 1e-9)

    def check(out):
        wh, k_exact, k_numeric = out
        expect(k_exact == wh.k == k_numeric, f"windings disagree: {k_exact}, {wh.k}, {k_numeric}")
        expect(wh.reconstruct() == f.expand(), "gamma_minus * r**k * gamma_plus != f")
        expect(all(tag == "+" for _, _, tag in wh.gamma_minus.tags()), "gamma_minus tags")
        expect(all(tag == "-" for _, _, tag in wh.gamma_plus.tags()), "gamma_plus tags")

    def oracle(out):
        import oracle as o

        def image(fr):
            acc = o.scalar(fr.lead)
            for root, mult in fr.factors:
                acc = acc * (o.X - o.scalar(root)) ** mult
            return acc

        wh = out[0]
        o.require(o.is_zero(image(wh.gamma_minus) * o.r_power(wh.k) * image(wh.gamma_plus)
                            - image(f)), "scalar factorization does not reconstruct f")

    return Job(job_id, "scalar", run, check, oracle)


def riesz(job_id, rng):
    phi = gen.half_plane_function(rng, "+") + gen.half_plane_function(rng, "-")

    def run():
        return scalar_wh.riesz_project(phi)

    def check(out):
        expect(out.plus_part + out.minus_part == phi, "plus + minus != phi")
        expect(out.plus_part.in_half_algebra("+"), "plus part outside H+")
        expect(out.minus_part.in_half_algebra("-"), "minus part outside H-")

    def oracle(out):
        import oracle as o

        o.require(o.is_zero(o.entry(out.plus_part) + o.entry(out.minus_part) - o.entry(phi)),
                  "plus + minus != phi")

    return Job(job_id, "riesz", run, check, oracle)


# ------------------------------------------------------------ matrix symbols


def matrix_job(job_id, rng, route, n, k):
    if route == "row":
        G, sub, _, _ = gen.row_structured(rng, n, k)
    else:
        G, sub, _, _ = gen.column_structured(rng, n, k)
    vec = [gen.strictly_proper_plus(rng) for _ in range(n)] if k == 0 else None
    points = gen.probe_points(rng)

    def run():
        if route == "row":
            diag = exact_linalg.one_sided_diagnose(sub, "right", corona.make_rational_solver("H+"))
        else:
            diag = exact_linalg.one_sided_diagnose(sub, "left", corona.make_rational_solver("H-"))
        if diag.status != "certificate":
            return diag, None, None, None
        sym = scalar_wh.wh_factor_scalar(G.det().factored())
        if route == "row":
            F = matrix_wh.factor_via_row(G, n - 1, diag.inverse, sym)
        else:
            F = matrix_wh.factor_via_column(G, n - 1, diag.inverse, sym)
        report = matrix_wh.verify_factorization(G, F)
        back = None
        if vec is not None:
            back = matrix_wh.toeplitz_apply(G, matrix_wh.apply_inverse(F, vec))
        return diag, F, report, back

    def check(out):
        diag, F, report, back = out
        expect(diag.status == "certificate", f"one-sided inverse unavailable: {diag.status}")
        expect(F.partial_indices == (0,) * (n - 1) + (k,), f"indices {F.partial_indices}")
        expect(report.all_pass, "verify_factorization rejected the factorization")
        inv = diag.inverse
        for p in points:
            gm, gp = gen.evaluate_matrix(F.g_minus, p), gen.evaluate_matrix(F.g_plus, p)
            d = gen.evaluate_matrix(F.d_matrix(), p)
            expect(gen.matmul(gen.matmul(gm, d), gp) == gen.evaluate_matrix(G, p),
                   f"g_minus * D * g_plus != G at {p}")
            s, v = gen.evaluate_matrix(sub, p), gen.evaluate_matrix(inv, p)
            prod = gen.matmul(s, v) if route == "row" else gen.matmul(v, s)
            expect(all(prod[i][j] == (ONE if i == j else 0) for i in range(n - 1)
                       for j in range(n - 1)), "one-sided inverse fails at a point")
        if vec is not None:
            expect(back == vec, "toeplitz_apply(apply_inverse(phi)) != phi")

    def oracle(out):
        import oracle as o

        diag, F, _, _ = out
        D = o.sympy.diag(*[o.r_power(kj) for kj in F.partial_indices])
        o.require_equal_matrices(o.matrix(F.g_minus) * D * o.matrix(F.g_plus), o.matrix(G),
                                 "g_minus * D * g_plus vs G")
        if route == "row":
            o.require_identity(o.matrix(sub) * o.matrix(diag.inverse), "psi * phi_plus")
        else:
            o.require_identity(o.matrix(diag.inverse) * o.matrix(sub), "psi_minus * phi")

    return Job(job_id, f"matrix_{route}", run, check, oracle)


# ------------------------------------------------------------ Fredholm reports


def classify_job(job_id, rng):
    n, k = rng.choice((2, 3)), rng.choice((-1, 0))
    G, _, phi_plus, _ = gen.row_structured(rng, n, k)

    def run():
        return fredholm.classify(G, "row", "H", omitted=n - 1, phi_plus=phi_plus)

    def check(rep):
        expect(rep.fredholm == "yes" and rep.index == -k, f"classify: {rep.fredholm} {rep.index}")

    return Job(job_id, "fredholm", run, check)


def unitary_job(job_id, rng):
    z = gen.offline_root(rng, "+")
    b = RationalFunction(lin(z), lin(z.conjugate()))
    rot = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
    diag = [b, RAT.one / b]
    G = RingMatrix(RAT, [[RationalFunction(rot[i][j]) * diag[j] for j in range(2)]
                         for i in range(2)])

    def run():
        return fredholm.special_unitary(G)

    def check(rep):
        expect(rep.fredholm == "yes", f"unitary report: {rep.fredholm}")

    return Job(job_id, "unitary", run, check)


def orthogonal_job(job_id, rng):
    a = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    x2 = Polynomial([0, 0, 1])
    den = x2 + Polynomial([a * a])
    c = RationalFunction(x2 - Polynomial([a * a]), den)
    s = RationalFunction(Polynomial([0, 2 * a]), den)
    G = RingMatrix(RAT, [[c, s], [-s, c]])

    def run():
        return fredholm.special_orthogonal(G)

    def check(rep):
        expect(rep.fredholm == "yes" and rep.index == 0, f"orthogonal: {rep.fredholm} {rep.index}")

    return Job(job_id, "orthogonal", run, check)


# ------------------------------------------------------------ almost periodic


def _ap_matrix(rows):
    return RingMatrix(AP, [[APPoly.coerce(e) for e in row] for row in rows])


def ap_factor_job(job_id, rng, gapped, draws=None):
    phi_plus = _ap_matrix([[E(0)], [0]])
    if gapped:
        kappa = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        terms = [(f, c) for f, c in gen.appoly(rng).terms if not 0 < f < kappa]
        G = _ap_matrix([[E(0), 0], [APPoly(terms), E(kappa)]])
    else:
        kappa = Fraction(0)
        G = _ap_matrix([[E(0), 0], [gen.appoly(rng, draws=draws), E(0, gen.nonzero_gr(rng))]])

    def run():
        return ap.ap_factor_via_row(G, 1, phi_plus)

    def check(out):
        expect(_status(out) != "split-unavailable", "unexpected spectral-gap refusal")
        expect(out.partial_ap_indices == (Fraction(0), kappa), f"indices {out.partial_ap_indices}")
        expect(out.reconstruct() == G, "g_minus * D * g_plus != G")

    return Job(job_id, "ap_factor", run, check)


def ap_gap_job(job_id, rng):
    kappa = Fraction(rng.randint(1, 4), rng.randint(1, 2))
    inside = kappa * Fraction(rng.randint(1, 3), 4)
    G = _ap_matrix([[E(0), 0], [E(inside, gen.nonzero_gr(rng)) + E(-1), E(kappa)]])
    phi_plus = _ap_matrix([[E(0)], [0]])

    def run():
        return ap.ap_factor_via_row(G, 1, phi_plus)

    def check(out):
        expect(_status(out) == "split-unavailable", f"expected a refusal, got {_status(out)}")
        expect(tuple(out.offending) == (inside,), f"offending {out.offending}, want {inside}")

    return Job(job_id, "ap_gap", run, check)


def ap_project_job(job_id, rng, draws=None):
    p = gen.appoly(rng, draws=draws)

    def run():
        return ap.ap_project(p, "+"), ap.ap_project(p, "-")

    def check(out):
        plus, minus = out
        expect(plus + minus == p, "projections do not sum to p")
        expect(all(f >= 0 for f in plus.support) and all(f < 0 for f in minus.support),
               "projection supports")

    return Job(job_id, "ap_project", run, check)


def mean_motion_job(job_id, rng):
    mu = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    terms = [(mu, GaussianRational(rng.randint(5, 8), rng.randint(-2, 2)))]
    for _ in range(rng.randint(0, 3)):
        f = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if f != mu:
            terms.append((f, gen.gr(rng, 1, 1)))
    p = APPoly(terms)

    def run():
        return ap.mean_motion(p)

    def check(out):
        expect(out.kappa == mu, f"mean motion {out.kappa}, want {mu}")

    return Job(job_id, "mean_motion", run, check)


def corona_ap_job(job_id, rng, want):
    if want == "certificate":
        lead = E(0, GaussianRational(rng.randint(4, 6)))
        h = [lead + E(Fraction(rng.randint(1, 6), 2), gen.gr(rng, 1, 1)), gen.appoly(rng)]
        h[1] = APPoly([(f, c) for f, c in h[1].terms if f >= 0])
    elif want == "failure":
        h = [E(Fraction(rng.randint(1, 4), 2), gen.nonzero_gr(rng)) * (E(0) + E(1)) for _ in range(2)]
    else:
        h = [E(0) + E(Fraction(rng.randint(1, 4), 2), 2), E(0) + E(1, 3) + E(2)]

    def run():
        return corona.corona_solve_ap(h, "+")

    def check(out):
        expect(_status(out) == want, f"expected {want}, got {_status(out)}")
        if want == "certificate":
            acc = APPoly()
            for g, f in zip(out.solution, h):
                acc = acc + g * f
            residual = out.residual if out.residual is not None else APPoly()
            expect(acc + residual == APPoly.coerce(1), "sum g_j h_j + residual != 1")

    return Job(job_id, f"corona_ap_{want}", run, check)


# ------------------------------------------------------------ stream


def tail_jobs(r):
    """The round's fixed heavy tuples, rebuilt from their seed so that no
    round reuses another's objects.  Their Bezout identity is checked at
    exact points in every round; they are left out of the sympy oracle,
    which needs over a minute for the s = 6 tuple."""
    rng = random.Random(TAIL_SEED)
    jobs = []
    for s in TAIL_STRATA:
        job = hplus_ok(f"hplus_tail/s{s}/r{r}", "hplus_tail", gen.hplus_solvable(rng, s),
                       gen.probe_points(rng))
        job.oracle = None
        jobs.append(job)
    return jobs


class Shapes:
    """Decks (gen.Deck) that deal the shapes of the instances whose cost
    depends most on their shape: the denominator degrees of corona tuples,
    per stratum for the solvable ones, the factor count of scalar symbols
    and the term count of AP polynomials.  The probabilities are those of
    the acceptance suite's generators; only the seed-to-seed spread of a
    run's mix of shapes shrinks."""

    def __init__(self, rng):
        cards = gen.tuple_shapes()
        self.failure = gen.Deck(rng, cards)
        self.solvable = {s: gen.Deck(rng, [c for c in cards if 1 + sum(c) == s])
                         for s in STRATA_PER_ROUND}
        self.scalar_factors = gen.Deck(rng, range(6))
        self.ap_factor_terms = gen.Deck(rng, range(5))
        self.ap_project_terms = gen.Deck(rng, range(5))


def one_round(rng, r, shapes):
    jobs = []
    for s, reps in STRATA_PER_ROUND.items():
        for i in range(reps):
            h = gen.hplus_solvable(rng, s, shapes.solvable[s].draw())
            jobs.append(hplus_ok(f"hplus_ok/s{s}/r{r}.{i}", "hplus_ok", h,
                                 gen.probe_points(rng)))
    makers = {
        "hplus_fail": lambda jid: hplus_fail(
            jid, gen.hplus_planted_failure(rng, shapes.failure.draw())),
        "mplus": lambda jid: mplus(jid, rng),
        "scalar": lambda jid: scalar(jid, rng, shapes.scalar_factors.draw()),
        "riesz": lambda jid: riesz(jid, rng),
        "fredholm": lambda jid: classify_job(jid, rng),
        "unitary": lambda jid: unitary_job(jid, rng),
        "orthogonal": lambda jid: orthogonal_job(jid, rng),
        "ap_factor": lambda jid: ap_factor_job(
            jid, rng, gapped=jid.endswith(".0"),
            draws=None if jid.endswith(".0") else shapes.ap_factor_terms.draw()),
        "ap_gap": lambda jid: ap_gap_job(jid, rng),
        "ap_project": lambda jid: ap_project_job(jid, rng, shapes.ap_project_terms.draw()),
        "mean_motion": lambda jid: mean_motion_job(jid, rng),
    }
    for kind, reps in PER_ROUND.items():
        for i in range(reps):
            jobs.append(makers[kind](f"{kind}/r{r}.{i}"))
    for route, n, k in MATRIX_JOBS:
        jobs.append(matrix_job(f"matrix_{route}/n{n}k{k}/r{r}", rng, route, n, k))
    for want in CORONA_AP_KINDS:
        jobs.append(corona_ap_job(f"corona_ap_{want}/r{r}", rng, want))
    jobs.extend(tail_jobs(r))
    # interleave kinds so that a round's cost is spread evenly
    random.Random(rng.random()).shuffle(jobs)
    return jobs


def rounds(seed: int):
    rng = random.Random(seed)
    shapes = Shapes(rng)
    for r in count():
        yield one_round(rng, r, shapes)


def warmup(seed: int, in_process: bool = True):
    """Untimed jobs that load what the package imports lazily (numpy)."""
    rng = random.Random(seed + 1)
    return [riesz("warmup/riesz", rng), scalar("warmup/scalar", rng)]
