"""Command line: exit-code contract, byte determinism across runs, and the
verify round trip on emitted factorizations."""

import json
import math
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from whfactor import cli, exact_linalg, jsonio, matrices
from whfactor.matrices import minors_by_subset

REPO = pathlib.Path(__file__).resolve().parents[1]
DATA = REPO / "demos" / "data"
GOLDEN = REPO / "bench" / "golden" / "cli_corpus.json"

CORPUS = [
    ("minors", "minors.json", 0),
    ("left-inverse", "left_inverse.json", 0),
    ("right-inverse", "right_inverse.json", 0),
    ("complete", "complete.json", 0),
    ("corona", "corona_h.json", 0),
    ("corona", "corona_m.json", 0),
    ("corona", "corona_fail.json", 1),
    ("corona", "corona_ap.json", 0),
    ("wh-scalar", "wh_scalar.json", 0),
    ("wh-scalar", "wh_scalar_singular.json", 1),
    ("winding", "winding.json", 0),
    ("project", "project.json", 0),
    ("wh-matrix", "wh_matrix_row.json", 0),
    ("wh-matrix", "wh_matrix_rh.json", 0),
    ("wh-matrix", "wh_matrix_col.json", 0),
    ("ap-factor", "ap_row.json", 0),
    ("ap-factor", "ap_gap.json", 1),
    ("report", "report_indices.json", 0),
    ("report", "report_unitary.json", 0),
    ("report", "report_orthogonal.json", 0),
    ("report", "report_continuous.json", 0),
    ("apply-inverse", "apply_inverse.json", 0),
    ("verify", "verify.json", 0),
]


def run_cli(command, path, *extra):
    return subprocess.run(
        [sys.executable, "-m", "whfactor.cli", command, "--input", str(path), *extra],
        capture_output=True,
        cwd=REPO,
    )


@pytest.mark.parametrize("command,name,expected", CORPUS)
def test_corpus_exit_codes(command, name, expected):
    proc = run_cli(command, DATA / name)
    assert proc.returncode == expected, proc.stderr.decode()
    if expected in (0, 1):
        doc = json.loads(proc.stdout)
        assert doc["command"] == command
        assert doc["status"] == ("ok" if expected == 0 else "failure")


def test_minors_output_values():
    proc = run_cli("minors", DATA / "minors.json")
    doc = json.loads(proc.stdout)
    assert doc["result"]["subsets"] == [[1, 2], [1, 3], [2, 3]]
    values = doc["result"]["values"]
    assert [v["re"] for v in values] == [[1, 1], [3, 1], [-2, 1]]


def test_singular_symbol_reports_witness():
    proc = run_cli("wh-scalar", DATA / "wh_scalar_singular.json")
    doc = json.loads(proc.stdout)
    assert doc["result"]["witness"]["re"] == [1, 1]


def test_gap_fixture_names_offending_frequency():
    proc = run_cli("ap-factor", DATA / "ap_gap.json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    detail = doc["result"]["detail"]
    assert detail["offending_frequencies"] == [[1, 2]]
    assert detail["kappa"] == [1, 1]


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("minors", bad)
    assert proc.returncode == 2
    missing = tmp_path / "missing_field.json"
    missing.write_text(json.dumps({"ring": "gaussian"}))
    proc2 = run_cli("minors", missing)
    assert proc2.returncode == 2


def test_byte_determinism_across_runs():
    for command, name, _ in CORPUS:
        first = run_cli(command, DATA / name)
        second = run_cli(command, DATA / name)
        assert first.stdout == second.stdout, f"nondeterministic output for {name}"
        assert first.returncode == second.returncode


def test_wh_matrix_verify_roundtrip(tmp_path):
    # every emitted factorization re-verifies through the verify command
    for name in ("wh_matrix_row.json", "wh_matrix_rh.json", "wh_matrix_col.json"):
        proc = run_cli("wh-matrix", DATA / name)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        fact = doc["result"]["factorization"]
        assert doc["result"]["verify"]["all_pass"] is True
        job = json.loads((DATA / name).read_text())
        verify_job = {"matrix": job["matrix"], "factorization": fact}
        path = tmp_path / f"verify_{name}"
        path.write_text(json.dumps(verify_job))
        proc2 = run_cli("verify", path)
        assert proc2.returncode == 0, proc2.stdout.decode()
        doc2 = json.loads(proc2.stdout)
        assert doc2["result"]["all_pass"] is True


def test_flag_overrides_mode(tmp_path):
    # --omitted flag overrides the JSON field
    job = json.loads((DATA / "wh_matrix_row.json").read_text())
    del job["omitted"]
    path = tmp_path / "row.json"
    path.write_text(json.dumps(job))
    proc = run_cli("wh-matrix", path, "--mode", "row", "--omitted", "1")
    assert proc.returncode == 0


def test_auto_constructed_right_inverse(tmp_path):
    # drop the supplied right inverse: the corona solver synthesizes one
    job = json.loads((DATA / "wh_matrix_row.json").read_text())
    del job["phi_plus"]
    path = tmp_path / "auto.json"
    path.write_text(json.dumps(job))
    proc = run_cli("wh-matrix", path)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["verify"]["all_pass"] is True


def test_corpus_matches_golden_bytes(monkeypatch, capsys):
    # in-process run of every corpus job against the committed golden output
    monkeypatch.delenv("WHFACTOR_TOL", raising=False)
    jobs = json.loads(GOLDEN.read_text(encoding="utf-8"))["jobs"]
    assert len(jobs) == len(CORPUS)
    mismatched = []
    for job in jobs:
        code = cli.main([job["command"], "--input", str(REPO / job["input"])])
        out = capsys.readouterr().out.encode("utf-8")
        if code != job["exit"] or out != job["stdout"].encode("utf-8"):
            mismatched.append(job["input"])
    assert mismatched == []


@pytest.mark.parametrize("grid", ["4", "0"])
def test_winding_coarse_grid_is_a_validation_error(grid, capsys):
    code = cli.main(["winding", "--input", str(DATA / "winding.json"), "--grid", grid])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grid must be at least 8" in captured.err


CLASSIFY = {"kind": "classify", "matrix": [[1, 0], [0, 1]], "structure": "row", "level": "H"}
VERIFY = json.loads((DATA / "verify.json").read_text())["factorization"]
IMAG_ROOT = {"root": {"im": [1, 1]}}


@pytest.mark.parametrize(
    "command,name,override,flags,expected",
    [
        ("winding", "winding.json", {"grid": "abc"}, [], "grid must be an integer"),
        ("wh-matrix", "wh_matrix_row.json", {}, ["--omitted", "5"], "omitted must be in 0..1"),
        ("wh-matrix", "wh_matrix_row.json", {}, ["--omitted", "-1"], "omitted must be in 0..1"),
        ("wh-matrix", "wh_matrix_col.json", {"omitted": 5}, [], "omitted must be in 0..1"),
        ("wh-matrix", "wh_matrix_col.json", {"omitted": "one"}, [], "omitted must be an integer"),
        ("ap-factor", "ap_row.json", {"omitted": -1}, [], "omitted must be in 0..1"),
        ("ap-factor", "ap_row.json", {}, ["--omitted", "5"], "omitted must be in 0..1"),
        ("report", None, {**CLASSIFY, "omitted": 5}, [], "omitted must be in 0..1"),
        ("minors", None, {"ring": "gaussian", "matrix": [[1, 2], [3]]}, [], "matrix rows differ"),
        ("wh-matrix", "wh_matrix_row.json", {"omitted": 1.7}, [], "omitted must be an integer in 0..1"),
        ("wh-matrix", "wh_matrix_row.json", {"omitted": True}, [], "omitted must be an integer in 0..1"),
        ("wh-matrix", "wh_matrix_row.json", {"omitted": "1"}, [], "omitted must be an integer in 0..1"),
        ("winding", "winding.json", {"grid": 256.9}, [], "grid must be an integer at least 8"),
        (
            "wh-matrix", "wh_matrix_row.json",
            {"matrix": [[1, {"num": [1], "den": [0]}], [0, 1]]}, [],
            "denominator is identically zero",
        ),
        ("project", "project.json", {"symbol": {"num": [1], "den": [0, 0]}}, [], "identically zero"),
        ("winding", "winding.json", {"tolerance": "abc"}, [], "tolerance must be a positive finite"),
        ("winding", "winding.json", {"tolerance": True}, [], "tolerance must be a positive finite"),
        ("winding", "winding.json", {"tolerance": -1e-9}, [], "tolerance must be a positive finite"),
        ("winding", "winding.json", {}, ["--tolerance", "nan"], "--tolerance must be a positive"),
        (
            "wh-scalar", None, {"symbol": {"lead": 1, "factors": [{**IMAG_ROOT, "mult": "2"}]}}, [],
            "mult must be an integer",
        ),
        (
            "wh-matrix", "wh_matrix_row.json",
            {"scalar": {"gamma_minus": {"lead": 1}, "k": 1.5, "gamma_plus": {"lead": 1}}}, [],
            "k must be an integer",
        ),
        (
            "verify", "verify.json", {"factorization": {**VERIFY, "partial_indices": [0.5, 0]}}, [],
            "partial_indices must be an integer",
        ),
        ("report", "report_indices.json", {"indices": [1.5, 0]}, [], "indices must be an integer"),
        ("report", "report_indices.json", {"indices": 3}, [], "indices must be an array"),
        ("corona", "corona_h.json", {"tuple": 5}, [], "tuple must be an array"),
        ("corona", "corona_ap.json", {"tuple": [[5]]}, [], "term must be an object"),
        (
            "wh-scalar", None, {"symbol": {"lead": 1, "factors": [5]}}, [],
            "factor must be an object",
        ),
        (
            "ap-factor", "ap_row.json", {"det_factorization": 5}, [],
            "det_factorization must be an object",
        ),
        ("apply-inverse", "apply_inverse.json", {"vector": 5}, [], "vector must be an array"),
        (
            "left-inverse", "left_inverse.json", {"certificate": 5}, [],
            "certificate must be an array",
        ),
        (
            "report", None, {**CLASSIFY, "structure": "rh", "phi_pair": 5, "psi_pair": 5}, [],
            "phi_pair must be an array",
        ),
        (
            "report", None, {**CLASSIFY, "structure": "bogus"}, [],
            "structure must be one of row, column, rh, got 'bogus'",
        ),
        ("report", None, {**CLASSIFY, "level": "X"}, [], "level must be one of H, M, got 'X'"),
        ("minors", "minors.json", {"ring": []}, [], "unknown ring []"),
        ("minors", None, {"matrix": {"ring": {}, "entries": [[1], [2]]}}, [], "unknown ring {}"),
        (
            "left-inverse", "left_inverse.json", {"method": "bogus"}, [],
            "method must be one of general, corank1, got 'bogus'",
        ),
    ],
    ids=[
        "winding-grid-abc",
        "wh-matrix-row-flag-5",
        "wh-matrix-row-flag--1",
        "wh-matrix-col-field-5",
        "wh-matrix-col-field-one",
        "ap-factor-field--1",
        "ap-factor-flag-5",
        "report-classify-field-5",
        "minors-ragged",
        "wh-matrix-row-field-fractional",
        "wh-matrix-row-field-bool",
        "wh-matrix-row-field-string",
        "winding-grid-fractional",
        "wh-matrix-zero-den-entry",
        "project-zero-den-symbol",
        "tolerance-field-string",
        "tolerance-field-bool",
        "tolerance-field-negative",
        "tolerance-flag-nan",
        "wh-scalar-mult-string",
        "wh-matrix-scalar-k-fractional",
        "verify-partial-indices-fractional",
        "report-indices-fractional",
        "report-indices-scalar",
        "corona-tuple-scalar",
        "corona-ap-term-scalar",
        "wh-scalar-factor-item-scalar",
        "ap-factor-det-factorization-scalar",
        "apply-inverse-vector-scalar",
        "left-inverse-certificate-scalar",
        "report-classify-phi-pair-scalar",
        "report-classify-structure-bogus",
        "report-classify-level-X",
        "minors-ring-array",
        "minors-matrix-ring-object",
        "left-inverse-method-bogus",
    ],
)
def test_malformed_field_is_a_validation_error(
    command, name, override, flags, expected, tmp_path, capsys
):
    job = json.loads((DATA / name).read_text()) if name else {}
    job.update(override)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main([command, "--input", str(path), *flags])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.out == ""
    assert expected in captured.err


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1"])
def test_malformed_tolerance_variable_is_a_validation_error(value, monkeypatch, capsys):
    monkeypatch.setenv("WHFACTOR_TOL", value)
    code = cli.main(["winding", "--input", str(DATA / "winding.json")])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.out == ""
    assert "WHFACTOR_TOL must be a positive finite number" in captured.err


def test_value_beyond_float_range_is_a_named_verdict(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"symbol": {"num": [10**400, 1], "den": [1, 1]}}))
    code = cli.main(["wh-scalar", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    doc = json.loads(captured.out)
    assert doc["result"]["verdict"] == "FloatRangeExceeded"
    assert "float range" in doc["result"]["detail"]


@pytest.mark.parametrize("name", ["wh_matrix_row.json", "wh_matrix_rh.json", "wh_matrix_col.json"])
def test_wh_matrix_takes_the_symbol_determinant_once(name, monkeypatch, capsys):
    """One full-size minor table of the symbol per job, counting its row or
    column permutations: the route checks the scalar against the
    determinant that the scalar factorization was taken from."""
    G = jsonio.decode_matrix(json.loads((DATA / name).read_text())["matrix"], "rational")
    n = G.rows
    rows, cols = Counter(G.entries), Counter(G.transpose().entries)
    symbol_tables = []

    def counting(m, size):
        if size == n == m.rows and (
            Counter(m.entries) == rows or Counter(m.transpose().entries) == cols
        ):
            symbol_tables.append(m)
        return minors_by_subset(m, size)

    monkeypatch.setattr(matrices, "minors_by_subset", counting)
    monkeypatch.setattr(exact_linalg, "minors_by_subset", counting)
    assert cli.main(["wh-matrix", "--input", str(DATA / name)]) == 0
    capsys.readouterr()
    assert len(symbol_tables) == 1


UNSNAPPED_SYMBOL = {"num": [-1, {"im": -3}, 1], "den": [-1, {"im": 3}, 1]}


def run_in_process(command, job, tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main([command, "--input", str(path)])
    captured = capsys.readouterr()
    return code, (json.loads(captured.out) if captured.out else None), captured.err


def test_unsnapped_roots_wind_but_do_not_factor(tmp_path, capsys):
    code, doc, err = run_in_process("winding", {"symbol": UNSNAPPED_SYMBOL}, tmp_path, capsys)
    assert code == 0, err
    assert doc["result"] == {"exact": 2, "numeric": 2}
    code, doc, err = run_in_process("wh-scalar", {"symbol": UNSNAPPED_SYMBOL}, tmp_path, capsys)
    assert code == 1, err
    assert doc["result"]["verdict"] == "FactorizationInexact"


@pytest.mark.parametrize(
    "name,dropped",
    [("wh_matrix_col.json", ["psi_minus"]), ("wh_matrix_rh.json", ["psi_plus", "psi_minus"])],
)
def test_auto_constructed_one_sided_inverses(name, dropped, tmp_path, capsys):
    job = json.loads((DATA / name).read_text())
    for key in dropped:
        del job[key]
    code, doc, err = run_in_process("wh-matrix", job, tmp_path, capsys)
    assert code == 0, err
    assert doc["result"]["verify"]["all_pass"] is True


def test_auto_inverse_refusal_is_a_verdict(tmp_path, capsys):
    # the kept row [r, 0] vanishes at i, so it has no right inverse over H+
    r = {"num": [{"im": -1}, 1], "den": [{"im": 1}, 1]}
    r_inv = {"num": [{"im": 1}, 1], "den": [{"im": -1}, 1]}
    job = {"matrix": [[r, 0], [0, r_inv]], "mode": "row", "omitted": 1}
    code, doc, err = run_in_process("wh-matrix", job, tmp_path, capsys)
    assert code == 1, err
    assert doc["status"] == "failure"
    assert doc["result"]["verdict"] == "one-sided-inverse-unavailable"
    assert doc["result"]["diagnosis"]["status"] == "not_invertible"


def test_corona_common_zero_on_the_imaginary_axis(tmp_path, capsys):
    p = [-1, {"im": -3}, 1]
    x_p = [0, -1, {"im": -3}, 1]
    den2 = [-1, {"im": 2}, 1]  # (x + i)**2
    den3 = [{"im": -1}, -3, {"im": 3}, 1]  # (x + i)**3
    job = {"algebra": "H+", "tuple": [{"num": p, "den": den2}, {"num": x_p, "den": den3}]}
    code, doc, err = run_in_process("corona", job, tmp_path, capsys)
    assert code == 1, err
    assert doc["result"]["verdict"] == "corona-failed"
    re, im = doc["result"]["detail"]["witness"]["approx"]
    assert abs(re) < 1e-9 and abs(im - (3 + 5**0.5) / 2) < 1e-9
    # the tuple reflected through x -> -x, over H-: the witness is negated,
    # and its zero real part prints as 0.0, not -0.0
    mirrored = [
        {"num": [-1, {"im": 3}, 1], "den": [-1, {"im": -2}, 1]},
        {"num": [0, 1, {"im": -3}, -1], "den": [{"im": -1}, 3, {"im": 3}, -1]},
    ]
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"algebra": "H-", "tuple": mirrored}))
    assert cli.main(["corona", "--input", str(path)]) == 1
    out = capsys.readouterr().out
    assert "-0.0" not in out
    re, im = json.loads(out)["result"]["detail"]["witness"]["approx"]
    assert math.copysign(1.0, re) == 1.0 and abs(im + (3 + 5**0.5) / 2) < 1e-9
