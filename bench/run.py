"""Benchmark entry point.

    python3 bench/run.py --workload linalg|corona_factor|cli_corpus \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  With --trace 0 the run times the workload with no
instrumentation and prints the end-to-end metrics; with --trace 1 it times
half the budget untraced, replays the same jobs with per-module spans
installed, and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The line
before it records the seed, the job count per kind, the slowest jobs and
the end-to-end figures from raw wall times.

Timings are reported at the reference speed of the workload's calibration
kernel, timed around every job and every set-up process (harness.SpeedTrack;
"Host speed" in README.md); the process pins itself and its children to
one CPU so that the kernels and the jobs run on the same one.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "linalg": "wl_linalg",
    "corona_factor": "wl_corona",
    "cli_corpus": "wl_cli",
}
SETUP_SAMPLES = 15


def _import_package():
    if not (SRC / "whfactor" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'whfactor'}")
    sys.path.insert(0, str(SRC))
    import whfactor

    if pathlib.Path(whfactor.__file__).resolve().parent != (SRC / "whfactor").resolve():
        raise SystemExit(f"error: imported whfactor from {whfactor.__file__}, not {SRC}")
    return whfactor


def setup(workload: str, seed: int):
    """Import the package and generate the workload's first rounds.
    Returns (workload module, round stream, seconds taken)."""
    t0 = time.perf_counter()
    _import_package()
    wl = importlib.import_module(WORKLOADS[workload])
    stream = wl.rounds(seed)
    ready = [next(stream) for _ in range(wl.SETUP_ROUNDS)]
    return wl, itertools.chain(ready, stream), time.perf_counter() - t0


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, the one
    whose speed the calibration kernel measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreter processes, one at a time,
    each scaled to the calibration kernel's reference speed by eight kernel
    times taken just before it and eight just after.  Returns (scaled,
    raw)."""
    import harness

    track = harness.SpeedTrack()
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        for _ in range(8):
            track.sample()
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True, env=_child_env(), cwd=ROOT,
        )
        end = time.perf_counter()
        for _ in range(8):
            track.sample()
        seconds = float(out.stdout.split()[-1])
        raw.append(seconds)
        scaled.append(seconds * track.scale(start, end))
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _warm(wl, seed: int, in_process: bool) -> None:
    """Run the workload's untimed warm-up jobs, if it has any."""
    import harness

    for job in getattr(wl, "warmup", lambda seed, in_process: [])(seed, in_process):
        harness.execute(job)


def measure(wl, stream, seed: int, seconds: float):
    """Untraced timed loop; returns (records, peak RSS in MB)."""
    import harness

    _warm(wl, seed, in_process=False)
    records = harness.run_loop(stream, seconds, kernel=getattr(wl, "KERNEL", harness.COMPUTE))
    return records, peak_rss_mb(getattr(wl, "IN_CHILDREN", False))


def traced(workload: str, wl, stream, seed: int, seconds: float):
    """Time half the budget untraced, then replay the same jobs with spans
    installed.  Jobs that run as child processes cannot be traced from
    here, so for those both passes run the same jobs in-process."""
    import harness
    import spans

    in_children = getattr(wl, "IN_CHILDREN", False)
    if in_children:
        stream = wl.rounds(seed, in_process=True)
        replay = wl.rounds(seed, in_process=True)
    else:
        replay = wl.rounds(seed)
    kernel = harness.COMPUTE if in_children else getattr(wl, "KERNEL", harness.COMPUTE)
    _warm(wl, seed, in_process=True)
    plain = harness.run_loop(stream, seconds / 2, kernel=kernel)
    tracer = spans.Tracer()
    with tracer.installed():
        records = harness.run_loop(tracer.wrap_rounds(replay), 0, min_jobs=0,
                                   max_jobs=len(plain), kernel=kernel)
    tracer.write(HERE / "out" / f"spans-{workload}-{seed}.jsonl.gz")
    metrics = tracer.metrics(len(records))
    metrics["cli.import_ms"] = (spans.import_ms(ROOT, _child_env()), "ms")
    metrics["trace.overhead_ratio"] = (
        sum(r.ref_seconds for r in records) / sum(r.ref_seconds for r in plain), "ratio")
    return plain + records, metrics, tracer.missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wl, stream, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    import harness

    pin_to_one_cpu()
    missing = []
    raw = {}
    if args.trace:
        records, metrics, missing = traced(args.workload, wl, stream, args.seed, args.seconds)
    else:
        records, rss = measure(wl, stream, args.seed, args.seconds)
        # after the RSS reading, so that the set-up processes do not count
        # towards the peak of cli_corpus's children
        setup_s, raw["setup_s"] = setup_seconds(args.workload, args.seed)
    checked = harness.apply_oracle(records, random.Random(args.seed), wl.ORACLE_PER_KIND)
    failed = sum(1 for r in records if r.error is not None)
    if not args.trace:
        summary = harness.summarize(records)
        wall = harness.summarize(records, scaled=False)
        raw.update((k, wall[k]) for k in ("jobs_per_s", "job_ms_p50", "job_ms_p90"))
        raw["speed"] = statistics.median(r.scale for r in records)
        metrics = {
            "jobs_per_s": (summary["jobs_per_s"], "1/s"),
            "job_ms_p50": (summary["job_ms_p50"], "ms"),
            "job_ms_p90": (summary["job_ms_p90"], "ms"),
            "ok_ratio": (1.0 - summary["failed_ratio"], "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(records),
        "rounds": len({r.round for r in records}),
        "jobs_by_kind": harness.kind_counts(records),
        "slowest": harness.slowest(records),
        "oracle_checked": checked,
        "failed_ratio": failed / len(records),
        "unwrapped": missing,
        "raw": raw,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
