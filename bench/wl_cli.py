"""`cli_corpus` workload: the committed demos/data jobs as CLI processes.

A round is one pass over the 23 corpus jobs in the acceptance suite's
order.  Each job is a fresh `python -m whfactor.cli` process, one at a
time, under a PYTHONHASHSEED drawn from the seed and different for every
pass.  The check compares stdout bytes and the exit code with the golden
outputs in golden/cli_corpus.json.  For the traced run the same jobs go
through `whfactor.cli.main` in-process, with stdout captured.

Child jobs are calibrated (harness.SpeedTrack) by a kernel that is itself a
fresh interpreter importing a few standard-library modules: the in-process
arithmetic kernel follows the host's speed changes in compute, but over-
states them for process start and imports by about a third.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import count

from harness import Job, Kernel, expect

IN_CHILDREN = True
SETUP_ROUNDS = 1
ORACLE_PER_KIND = 0

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden" / "cli_corpus.json"


@dataclass
class Output:
    exit: int
    stdout: bytes

    @property
    def bytes_out(self) -> int:
        return len(self.stdout)


def start_interpreter() -> None:
    subprocess.run([sys.executable, "-c", "import argparse, decimal, fractions, json, statistics"],
                   check=True, capture_output=True, cwd=ROOT)


KERNEL = Kernel(start_interpreter, 0.055)


def load_corpus():
    """Golden entries, each with its job file read and parsed."""
    jobs = json.loads(GOLDEN.read_text(encoding="utf-8"))["jobs"]
    for job in jobs:
        json.loads((ROOT / job["input"]).read_text(encoding="utf-8"))
    return jobs


def _check(golden):
    want = golden["stdout"].encode("utf-8")

    def check(out: Output):
        expect(out.exit == golden["exit"], f"exit {out.exit}, golden {golden['exit']}")
        expect(out.stdout == want, "stdout differs from the golden bytes")

    return check


def child_job(job_id, golden, hash_seed: int) -> Job:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    argv = [sys.executable, "-m", "whfactor.cli", golden["command"], "--input", golden["input"]]

    def run():
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT)
        return Output(proc.returncode, proc.stdout)

    return Job(job_id, golden["command"], run, _check(golden))


def in_process_job(job_id, golden) -> Job:
    from whfactor import cli

    argv = [golden["command"], "--input", str(ROOT / golden["input"])]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return Output(code, out.getvalue().encode("utf-8"))

    return Job(job_id, golden["command"], run, _check(golden))


def rounds(seed: int, in_process: bool = False):
    corpus = load_corpus()
    rng = random.Random(seed)
    previous = None
    for p in count():
        hash_seed = rng.randrange(1, 2**32)
        while hash_seed == previous:
            hash_seed = rng.randrange(1, 2**32)
        previous = hash_seed
        batch = []
        for i, golden in enumerate(corpus):
            name = pathlib.Path(golden["input"]).stem
            job_id = f"{name}/pass{p}"
            if in_process:
                batch.append(in_process_job(job_id, golden))
            else:
                batch.append(child_job(f"{job_id}/hash{hash_seed}", golden, hash_seed))
        yield batch


def warmup(seed: int, in_process: bool = False):
    """One untimed pass of the first job (file cache, or imports in-process)."""
    corpus = load_corpus()
    if in_process:
        return [in_process_job(f"warmup/{i}", g) for i, g in enumerate(corpus)]
    return [child_job("warmup", corpus[0], seed + 1)]
