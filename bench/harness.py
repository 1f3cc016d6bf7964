"""Closed-loop job runner and the statistics the benchmark reports.

One client submits one job at a time and waits for it (a closed loop).  A
job's latency is the wall time of its call into the library (or of its
child process); checking the answer happens with the clock stopped.  A job
counts as failed when it raises, when its check rejects the answer or the
verdict, or when the independent oracle rejects it afterwards.

The host's CPU speed drifts by up to a factor of 1.6 between one ten-second
window and the next on a shared 2-vCPU VM, and that drift, not the program,
would decide the run-to-run spread.  So run_loop times a fixed calibration
kernel that runs no package code after every job, and each job's latency
is also reported scaled to the kernel's reference speed: seconds *
reference / (median kernel time around the job, or over the whole run; see
SpeedTrack).  The summary figures use the scaled times; the raw wall times
stay in Record.seconds.
"""

from __future__ import annotations

import bisect
import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator


class WrongResult(Exception):
    """A job returned an answer its check rejects."""


def expect(condition, message: str) -> None:
    if not condition:
        raise WrongResult(message)


@dataclass
class Job:
    """One unit of work: `run` is timed, `check` and `oracle` are not.

    check(result) raises on a wrong answer or an unexpected verdict;
    oracle(result), when present, is an independent re-check applied to a
    seeded sample after the timed loop.
    """

    id: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    oracle: Callable[[object], None] | None = None


@dataclass
class Record:
    job_id: str
    kind: str
    seconds: float
    error: str | None
    result: object = None
    oracle: Callable[[object], None] | None = None
    round: int = 0
    start: float = 0.0  # clock reading when the job started
    scale: float = 1.0  # reference / calibration kernel time around the job

    @property
    def ref_seconds(self) -> float:
        """The job's latency at the calibration kernel's reference speed."""
        return self.seconds * self.scale


# ------------------------------------------------------------ host speed

@dataclass(frozen=True)
class Kernel:
    """Fixed calibration work; its time at the reference speed, about its
    median time on the 2-vCPU VM (Python 3.11) the benchmark was defined
    on, kept constant so that scaled times compare across runs; and the
    window of kernel times that sets a job's speed (see SpeedTrack)."""

    run: Callable[[], object]
    reference_s: float
    window_s: float | None = 0.3


def calibration_kernel() -> int:
    """Fixed work of the kind the package does (rational arithmetic, big
    integer gcd, small lists), written against the standard library only so
    that no change to the package moves it."""
    a = Fraction(1, 3)
    for i in range(1, 90):
        a = a * Fraction(i + 1, i + 2) + Fraction(1, 7)
    x, y = 3 ** 120 + a.denominator, 7 ** 100
    acc = 0
    for i in range(60):
        acc += math.gcd(x + i, y + i)
    coeffs = [Fraction(i, 5) for i in range(40)]
    for _ in range(4):
        coeffs = [c * 3 - d for c, d in zip(coeffs, coeffs[1:] + coeffs[:1])]
    return acc + len(coeffs)


# the kernel for jobs that run in this process
COMPUTE = Kernel(calibration_kernel, 0.0012)


class SpeedTrack:
    """Calibration kernel times, each with the time it was taken.

    The host's speed has a fast component (one kernel time correlates with
    the next at 0.5, with one 0.5 s later at 0.1) and a slow one that moves
    whole seconds by a third.  So a job's speed is the median kernel time
    over the job and the kernel's window_s on either side of it, which
    follows the slow component and averages out the fast one.  That suits
    jobs whose time follows the kernel's one to one.  Where a workload's
    jobs follow it less than one to one, a factor per job would over-correct
    the jobs that ran in fast or slow seconds and widen the latency
    distribution; with window_s None one factor, from the median of all the
    run's kernel times, scales the whole run instead."""

    MIN_SAMPLES = 4

    def __init__(self, kernel: Kernel = COMPUTE, clock=time.perf_counter):
        self.kernel = kernel
        self.clock = clock
        self.at: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = self.clock()
        self.kernel.run()
        dt = self.clock() - t0
        self.at.append(t0)
        self.samples.append(dt)
        return dt

    def after(self, seconds: float) -> None:
        """Samples after an interval of `seconds`: one, plus up to 16 more
        that take about 2% of a long interval, so that a long job, which
        holds no samples, has enough next to it."""
        for _ in range(1 + min(16, int(0.02 * seconds / self.kernel.reference_s))):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """The kernel's reference time over its median time in the samples
        within window_s of [start, end], or in the MIN_SAMPLES nearest to it
        where the window holds fewer, or in all samples without a window."""
        if self.kernel.window_s is None:
            return self.kernel.reference_s / statistics.median(self.samples)
        lo = bisect.bisect_left(self.at, start - self.kernel.window_s)
        hi = bisect.bisect_right(self.at, end + self.kernel.window_s)
        window = self.samples[lo:hi]
        if len(window) < self.MIN_SAMPLES:
            def distance(i):
                return max(start - self.at[i], self.at[i] - end, 0.0)

            nearest = sorted(range(len(self.at)), key=distance)[:self.MIN_SAMPLES]
            window = [self.samples[i] for i in nearest]
        return self.kernel.reference_s / statistics.median(window)


def execute(job: Job, clock=time.perf_counter) -> Record:
    """Run one job, timing only job.run, then check its answer."""
    t0 = clock()
    try:
        result = job.run()
    except Exception as exc:  # a raising job is a failed job, not a crash
        dt = clock() - t0
        return Record(job.id, job.kind, dt, f"raised {type(exc).__name__}: {exc}")
    dt = clock() - t0
    try:
        job.check(result)
    except Exception as exc:
        return Record(job.id, job.kind, dt, f"check: {type(exc).__name__}: {exc}")
    if job.oracle is None:
        return Record(job.id, job.kind, dt, None)
    return Record(job.id, job.kind, dt, None, result, job.oracle)


def run_loop(
    rounds: Iterator[list],
    seconds: float,
    min_jobs: int = 100,
    max_jobs: int | None = None,
    clock=time.perf_counter,
    kernel: Kernel = COMPUTE,
) -> list[Record]:
    """Run whole rounds of jobs until the busy time reaches `seconds` and at
    least `min_jobs` jobs ran; with `max_jobs`, stop after exactly that many
    jobs instead (used to replay a run's jobs under tracing).  `kernel`
    calibrates the jobs' speed (see SpeedTrack)."""
    records: list[Record] = []
    track = SpeedTrack(kernel, clock)
    for _ in range(3):  # warm the kernel
        kernel.run()
    for _ in range(SpeedTrack.MIN_SAMPLES):
        track.sample()
    _loop(rounds, seconds, min_jobs, max_jobs, clock, records, track)
    for rec in records:
        rec.scale = track.scale(rec.start, rec.start + rec.seconds)
    return records


def _loop(rounds, seconds, min_jobs, max_jobs, clock, records, track) -> None:
    busy = 0.0
    for index, batch in enumerate(rounds):
        for job in batch:
            if max_jobs is not None and len(records) >= max_jobs:
                return
            start = clock()
            rec = execute(job, clock)
            track.after(rec.seconds)
            rec.start, rec.round = start, index
            if index:  # the oracle samples the first round; keep memory flat
                rec.result = rec.oracle = None
            records.append(rec)
            busy += rec.seconds
            if rec.error is not None:
                sys.stderr.write(f"job {rec.job_id} failed: {rec.error}\n")
        if max_jobs is None and busy >= seconds and len(records) >= min_jobs:
            return


def apply_oracle(records: list[Record], rng, per_kind: int) -> int:
    """Re-check a seeded sample of up to `per_kind` passing jobs of every
    kind that has an oracle, drawn from the first round (the only one whose
    results run_loop keeps); a rejection marks the job failed.  Returns the
    number of jobs checked."""
    by_kind: dict[str, list[Record]] = {}
    for rec in records:
        if rec.error is None and rec.oracle is not None:
            by_kind.setdefault(rec.kind, []).append(rec)
    checked = 0
    for kind in sorted(by_kind):
        pool = by_kind[kind]
        for rec in rng.sample(pool, min(per_kind, len(pool))):
            try:
                rec.oracle(rec.result)
            except Exception as exc:
                rec.error = f"oracle: {type(exc).__name__}: {exc}"
                sys.stderr.write(f"job {rec.job_id} failed: {rec.error}\n")
                traceback.print_exc(file=sys.stderr)
            checked += 1
    return checked


class TooFewSamples(ValueError):
    """A percentile was asked for with fewer than the required samples
    beyond it."""


def percentile(samples, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank q-quantile, refused unless at least `min_beyond`
    samples lie beyond it (so a p90 needs at least 100 samples)."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        raise TooFewSamples(
            f"p{round(q * 100)} of {n} samples has {n - rank} beyond it; "
            f"{min_beyond} required"
        )
    return sorted(samples)[rank - 1]


def summarize(records: list[Record], scaled: bool = True) -> dict:
    """End-to-end latency and throughput figures of one timed loop, from
    the jobs' times at the calibration kernel's reference speed, or with
    scaled=False from the raw wall times.  Throughput is verified jobs over
    the summed job time of the whole run: the run holds whole rounds, each
    with the same jobs per kind."""
    ms = [(r.ref_seconds if scaled else r.seconds) * 1000.0 for r in records]
    ok = sum(1 for r in records if r.error is None)
    return {
        "jobs": len(records),
        "ok": ok,
        "jobs_per_s": ok / (sum(ms) / 1000.0),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": percentile(ms, 0.9),
        "failed_ratio": (len(records) - ok) / len(records),
    }


def slowest(records: list[Record], count: int = 5) -> list:
    top = sorted(records, key=lambda r: r.seconds, reverse=True)[:count]
    return [[r.job_id, round(r.seconds * 1000.0, 3)] for r in top]


def kind_counts(records: list[Record]) -> dict:
    out: dict[str, int] = {}
    for r in records:
        out[r.kind] = out.get(r.kind, 0) + 1
    return dict(sorted(out.items()))
