"""`linalg` workload: one-sided inversion and completion over three rings.

A round holds one job per (ring, n) for n = 2..6: Q(i) (criterion-1 random
invertible matrices), Q(i)[x] (criterion-1 unimodular matrices) and the
same unimodular entries lifted into the rational-function ring.  Each job
takes the first n-1 columns phi of an invertible matrix and the first n-1
rows psi of its inverse, and runs maximal_minors, the minor-level left
inverse, left_inverse_general, complete and the determinant of both
completions.  Whether a unimodular matrix's two transvections are linked,
the shape that decides most of its jobs' cost, is dealt from a seeded deck
per n (gen.Deck) with the generator's odds of 1 in n.
"""

from __future__ import annotations

import random
from itertools import count

import gen
from harness import Job, expect
from whfactor import exact_linalg

SIZES = range(2, 7)
SETUP_ROUNDS = 2
ORACLE_PER_KIND = 1


def _job(job_id, kind, s, s_inv, n):
    phi = s.submatrix(range(n), range(n - 1))
    psi = s_inv.submatrix(range(n - 1), range(n))
    ring = phi.ring
    want = ring.one if (n - 1) % 2 == 0 else -ring.one

    def run():
        minors = exact_linalg.maximal_minors(phi)
        delta = exact_linalg.delta_left_inverse_from_psi(psi, phi)
        left = exact_linalg.left_inverse_general(phi, delta)
        comp = exact_linalg.complete(phi, psi)
        return minors, delta, left, comp, comp.phi_e.det(), comp.psi_e.det()

    def check(result):
        minors, delta, left, comp, det_phi, det_psi = result
        expect(len(minors.values) == n, "wrong number of maximal minors")
        acc = ring.zero
        for c, d in zip(delta, minors.values):
            acc = acc + c * d
        expect(acc == ring.one, "minor pairing is not 1")
        expect((left * phi).is_identity(), "left inverse fails psi * phi == I")
        expect(det_phi == want and det_psi == want, "completion det is not (-1)**(n-1)")

    def oracle(result):
        import oracle as o

        _, _, left, comp, _, _ = result
        sphi = o.matrix(phi)
        o.require_identity(o.matrix(left) * sphi, "left * phi")
        o.require_identity(o.matrix(comp.psi_e) * o.matrix(comp.phi_e), "psi_e * phi_e")
        o.require(o.is_zero(o.det(o.matrix(comp.phi_e)) - (-1) ** (n - 1)),
                  "det(phi_e) != (-1)**(n-1)")

    return Job(job_id, kind, run, check, oracle)


def rounds(seed: int):
    """Endless seeded stream of rounds; every job gets fresh objects."""
    rng = random.Random(seed)
    linked = {n: gen.Deck(rng, [True] + [False] * (n - 1)) for n in SIZES}
    for r in count():
        batch = []
        for n in SIZES:
            s, s_inv = gen.invertible_qi(rng, n)
            batch.append(_job(f"qi/n{n}/r{r}", "qi", s, s_inv, n))
            p, p_inv = gen.unimodular_poly(rng, n, linked[n].draw())
            batch.append(_job(f"poly/n{n}/r{r}", "poly", p, p_inv, n))
            batch.append(_job(f"rat/n{n}/r{r}", "rat", gen.lift_rational(p),
                              gen.lift_rational(p_inv), n))
        yield batch
