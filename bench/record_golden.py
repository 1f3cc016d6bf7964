"""Record the golden outputs of the `cli_corpus` workload.

    python3 bench/record_golden.py

Runs every corpus job as a fresh `python -m whfactor.cli` process under two
different hash seeds, requires byte-identical stdout and equal exit codes,
and writes bench/golden/cli_corpus.json.  The committed file was recorded
on the commit that introduced the benchmark; re-record only when a change
is meant to alter the command line's output.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden" / "cli_corpus.json"

# the order of the acceptance suite's CLI determinism check
CORPUS = [
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


def run_cli(command: str, rel_input: str, hash_seed: int) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    return subprocess.run(
        [sys.executable, "-m", "whfactor.cli", command, "--input", rel_input],
        capture_output=True, env=env, cwd=ROOT,
    )


def main() -> int:
    jobs = []
    for command, name in CORPUS:
        rel = f"demos/data/{name}"
        first, second = run_cli(command, rel, 1), run_cli(command, rel, 2 ** 31 - 1)
        if first.stdout != second.stdout or first.returncode != second.returncode:
            sys.stderr.write(f"{command} {rel}: output depends on the hash seed\n")
            return 1
        jobs.append({
            "command": command,
            "input": rel,
            "exit": first.returncode,
            "stdout": first.stdout.decode("utf-8"),
        })
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"jobs": jobs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(jobs)} jobs to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
