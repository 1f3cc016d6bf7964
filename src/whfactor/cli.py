"""Batch command line: parse a JSON job, dispatch to the library, emit a
deterministic JSON report with exact verification markers.

Exit codes: 0 success; 1 a structural hypothesis, corona condition, or
frequency split failed (a structured verdict is still printed); 2 the input
could not be parsed or validated; 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .ap import SplitUnavailable, ap_factor_via_rh, ap_factor_via_row, ap_special
from .corona import CoronaCertificate, make_ap_solver, make_rational_solver
from .errors import WHError
from .exact_linalg import (
    complete,
    left_inverse_corank1,
    left_inverse_general,
    maximal_minors,
    one_sided_diagnose,
)
from .fredholm import (
    classify,
    continuous_except_line,
    report_from_indices,
    special_orthogonal,
    special_unitary,
)
from .jsonio import DecodeError
from .matrices import AP, RAT
from .matrix_wh import (
    apply_inverse,
    factor_via_column,
    factor_via_rh,
    factor_via_row,
    toeplitz_apply,
    verify_factorization,
)
from .rings import DEFAULT_TOL, RationalFunction
from .scalar_wh import riesz_project, wh_factor_scalar, winding_exact, winding_numeric

COMMANDS = (
    "minors",
    "left-inverse",
    "right-inverse",
    "complete",
    "corona",
    "wh-scalar",
    "wh-matrix",
    "ap-factor",
    "report",
    "verify",
    "winding",
    "project",
    "apply-inverse",
)


class JobFailure(Exception):
    """Computation ran and produced a negative verdict (exit code 1)."""

    def __init__(self, payload):
        self.payload = payload
        super().__init__("job failed")


def _emit(command: str, status: str, result) -> None:
    doc = {"command": command, "status": status, "result": jsonio.encode(result)}
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _opt(job: dict, args, name: str, default=None):
    flag = getattr(args, name.replace("-", "_"), None)
    if flag is not None:
        return flag
    return job.get(name, default)


def _int_opt(job, args, name: str, default, low: int, high: int | None = None) -> int:
    """An integer flag or job field in low..high (no upper bound if high is
    None); anything else, a bool, float or string included, is a DecodeError
    naming the field and its range."""
    return jsonio._integer(_opt(job, args, name, default), name, low, high)


def _tolerance(job, args) -> float:
    """--tolerance, else the job's "tolerance", else WHFACTOR_TOL, else the
    default; a DecodeError naming the source unless a positive finite number."""
    if args.tolerance is not None:
        name, value = "--tolerance", args.tolerance
    elif "tolerance" in job:
        name, value = "tolerance", job["tolerance"]
    elif "WHFACTOR_TOL" in os.environ:
        name, value = "WHFACTOR_TOL", os.environ["WHFACTOR_TOL"]
        try:
            value = float(value)
        except ValueError:
            pass
    else:
        return DEFAULT_TOL
    if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
        raise DecodeError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def _scalar_for(job, G, tol):
    if "scalar" in job:
        return jsonio.decode_scalar_wh(job["scalar"])
    return wh_factor_scalar(G.det().factored(tol), tol)


def _inverse(job, key: str, m, side: str, algebra: str, tol):
    """job[key] decoded when the job supplies it; otherwise the one-sided
    inverse of m built from a corona certificate over the algebra, or a
    JobFailure carrying the diagnosis when there is none."""
    if key in job:
        return jsonio.decode_matrix(job[key], "rational")
    diag = one_sided_diagnose(m, side, make_rational_solver(algebra, tol))
    if diag.status != "certificate":
        raise JobFailure(
            {
                "verdict": "one-sided-inverse-unavailable",
                "diagnosis": diag,
            }
        )
    return diag.inverse


def run_minors(job, args, tol):
    m = jsonio.decode_matrix(job["matrix"], job.get("ring"))
    return maximal_minors(m)


def run_one_sided(job, args, tol, side: str):
    m = jsonio.decode_matrix(job["matrix"], job.get("ring"))
    method = jsonio._choice(_opt(job, args, "method", "general"), "method", ("general", "corank1"))
    target = m if side == "left" else m.transpose()
    cert = job.get("certificate")
    if cert is None:
        raise DecodeError("a Bezout certificate is required")
    ring = target.ring
    dec = jsonio._ENTRY_DECODERS[ring.name]
    coeffs = [dec(c) for c in jsonio._expect(cert, list, "certificate")]
    if method == "corank1":
        inv = left_inverse_corank1(target, coeffs)
    else:
        inv = left_inverse_general(target, coeffs)
    if side == "right":
        inv = inv.transpose()
    return {"inverse": inv, "identity": "exact"}


def run_complete(job, args, tol):
    ring = job.get("ring", "rational")
    phi = jsonio.decode_matrix(job["phi"], ring)
    psi = jsonio.decode_matrix(job["psi"], ring)
    return complete(phi, psi)


def run_corona(job, args, tol):
    algebra = _opt(job, args, "algebra")
    if algebra is None and getattr(args, "half", None):
        algebra = "H" + ("+" if args.half == "plus" else "-")
    if algebra not in ("H+", "H-", "M+", "M-", "AP+", "AP-"):
        raise DecodeError("algebra must be one of H+, H-, M+, M-, AP+, AP-")
    if algebra.startswith("AP"):
        ring, solver = AP, make_ap_solver(algebra[2], tol)
    else:
        ring, solver = RAT, make_rational_solver(algebra, tol)
    dec = jsonio._ENTRY_DECODERS[ring.name]
    verdict = solver([dec(x) for x in jsonio._expect(job["tuple"], list, "tuple")], ring)
    if not isinstance(verdict, CoronaCertificate):
        raise JobFailure({"verdict": "corona-failed", "detail": verdict})
    return verdict


def run_wh_scalar(job, args, tol):
    symbol = jsonio.decode_symbol(job["symbol"])
    factored = symbol if not isinstance(symbol, RationalFunction) else symbol.factored(tol)
    wh = wh_factor_scalar(factored, tol)
    return {
        "factorization": wh,
        "verify": {"reconstruction": "exact-zero", "winding": wh.k},
    }


def run_winding(job, args, tol):
    grid = _int_opt(job, args, "grid", 256, 8)
    symbol = jsonio.decode_symbol(job["symbol"])
    factored = symbol if not isinstance(symbol, RationalFunction) else symbol.factored(tol)
    return {
        "exact": winding_exact(factored, tol),
        "numeric": winding_numeric(factored, grid, tol),
    }


def run_project(job, args, tol):
    symbol = jsonio.decode_rational(job["symbol"])
    proj = riesz_project(symbol, tol)
    return {"projection": proj, "verify": {"sum": "exact-zero"}}


def run_wh_matrix(job, args, tol):
    G = jsonio.decode_matrix(job["matrix"], "rational")
    mode = _opt(job, args, "mode", "row")
    scalar = _scalar_for(job, G, tol)
    if mode == "row":
        omitted = _int_opt(job, args, "omitted", G.rows - 1, 0, G.rows - 1)
        phi_plus = _inverse(job, "phi_plus", G.delete_row(omitted), "right", "H+", tol)
        fact = factor_via_row(G, omitted, phi_plus, scalar, tol)
    elif mode == "col":
        omitted = _int_opt(job, args, "omitted", G.cols - 1, 0, G.cols - 1)
        psi_minus = _inverse(job, "psi_minus", G.delete_col(omitted), "left", "H-", tol)
        fact = factor_via_column(G, omitted, psi_minus, scalar, tol)
    elif mode == "rh":
        phi_plus = jsonio.decode_matrix(job["phi_plus"], "rational")
        phi_minus = jsonio.decode_matrix(job["phi_minus"], "rational")
        psi_plus = _inverse(job, "psi_plus", phi_plus, "left", "H+", tol)
        psi_minus = _inverse(job, "psi_minus", phi_minus, "left", "H-", tol)
        fact = factor_via_rh(G, phi_plus, phi_minus, psi_plus, psi_minus, scalar, tol)
    else:
        raise DecodeError("mode must be row, col or rh")
    report = verify_factorization(G, fact, tol)
    return {"factorization": fact, "verify": report}


def run_ap_factor(job, args, tol):
    G = jsonio.decode_matrix(job["matrix"], "ap")
    mode = _opt(job, args, "mode", "row")
    detf = None
    if "det_factorization" in job:
        d = jsonio._expect(job["det_factorization"], dict, "det_factorization")
        detf = (
            jsonio.decode_gaussian(d["gamma_minus"]),
            jsonio.decode_fraction(d["kappa"]),
            jsonio.decode_gaussian(d["gamma_plus"]),
        )
    if mode == "row":
        omitted = _int_opt(job, args, "omitted", G.rows - 1, 0, G.rows - 1)
        phi_plus = jsonio.decode_matrix(job["phi_plus"], "ap")
        out = ap_factor_via_row(G, omitted, phi_plus, detf)
    elif mode == "rh":
        phi_plus = jsonio.decode_matrix(job["phi_plus"], "ap")
        phi_minus = jsonio.decode_matrix(job["phi_minus"], "ap")
        psi_plus = jsonio.decode_matrix(job["psi_plus"], "ap")
        psi_minus = jsonio.decode_matrix(job["psi_minus"], "ap")
        out = ap_factor_via_rh(G, phi_plus, phi_minus, psi_plus, psi_minus, detf)
    else:
        raise DecodeError("mode must be row or rh")
    if isinstance(out, SplitUnavailable):
        raise JobFailure({"verdict": "split-unavailable", "detail": out})
    return {"factorization": out, "verify": {"reconstruction": "exact-zero"}}


def run_report(job, args, tol):
    kind = job.get("kind", "indices")
    if kind == "indices":
        return report_from_indices(jsonio._indices(job["indices"], "indices"))
    if kind in ("unitary", "orthogonal"):
        G = jsonio.decode_matrix(job["matrix"], "rational")
        if kind == "unitary":
            return special_unitary(G, tol=tol)
        return special_orthogonal(G, tol)
    if kind in ("ap-unitary", "ap-orthogonal"):
        G = jsonio.decode_matrix(job["matrix"], "ap")
        return ap_special(G, kind.split("-")[1], tol)
    if kind == "continuous-except-line":
        G = jsonio.decode_matrix(job["matrix"], "mixed")
        return continuous_except_line(G, tol)
    if kind == "classify":
        G = jsonio.decode_matrix(job["matrix"], "rational")
        structure = jsonio._choice(job["structure"], "structure", ("row", "column", "rh"))
        level = jsonio._choice(job["level"], "level", ("H", "M"))
        kwargs = {"tol": tol}
        if "omitted" in job:
            kwargs["omitted"] = _int_opt(job, None, "omitted", None, 0, G.rows - 1)
        for key in ("phi_plus", "psi_minus"):
            if key in job:
                kwargs[key] = jsonio.decode_matrix(job[key], "rational")
        for key in ("phi_pair", "psi_pair"):
            if key in job:
                kwargs[key] = tuple(
                    jsonio.decode_matrix(m, "rational") for m in jsonio._expect(job[key], list, key)
                )
        return classify(G, structure, level, **kwargs)
    raise DecodeError(f"unknown report kind {kind!r}")


def run_verify(job, args, tol):
    G = jsonio.decode_matrix(job["matrix"], "rational")
    fact = jsonio.decode_wh_factorization(job["factorization"])
    report = verify_factorization(G, fact, tol)
    if not report.all_pass:
        raise JobFailure({"verdict": "verification-failed", "detail": report})
    return report


def run_apply_inverse(job, args, tol):
    fact = jsonio.decode_wh_factorization(job["factorization"])
    vec = [jsonio.decode_rational(x) for x in jsonio._expect(job["vector"], list, "vector")]
    result = apply_inverse(fact, vec, tol)
    G = fact.reconstruct()
    roundtrip = toeplitz_apply(G, result, tol)
    exact = all(a == b for a, b in zip(roundtrip, vec))
    return {
        "result": result,
        "verify": {"roundtrip": "exact-zero" if exact else "mismatch"},
    }


_RUNNERS = {
    "minors": run_minors,
    "left-inverse": lambda j, a, t: run_one_sided(j, a, t, "left"),
    "right-inverse": lambda j, a, t: run_one_sided(j, a, t, "right"),
    "complete": run_complete,
    "corona": run_corona,
    "wh-scalar": run_wh_scalar,
    "wh-matrix": run_wh_matrix,
    "ap-factor": run_ap_factor,
    "report": run_report,
    "verify": run_verify,
    "winding": run_winding,
    "project": run_project,
    "apply-inverse": run_apply_inverse,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whfactor",
        description="Exact Wiener-Hopf factorization and Toeplitz diagnostics",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="path to the JSON job file")
    parser.add_argument("--mode", choices=["row", "col", "rh"], default=None)
    parser.add_argument("--half", choices=["plus", "minus"], default=None)
    parser.add_argument("--algebra", default=None)
    parser.add_argument("--method", choices=["general", "corank1"], default=None)
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--grid", type=int, default=None)
    parser.add_argument("--omitted", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            job = json.load(fh)
        if not isinstance(job, dict):
            raise DecodeError("job file must hold a JSON object")
        tol = _tolerance(job, args)
    except (OSError, json.JSONDecodeError, DecodeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    runner = _RUNNERS[args.command]
    try:
        result = runner(job, args, tol)
    except JobFailure as jf:
        _emit(args.command, "failure", jf.payload)
        return 1
    except (DecodeError, KeyError) as exc:
        sys.stderr.write(f"input error: {exc!r}\n")
        return 2
    except WHError as exc:
        _emit(
            args.command,
            "failure",
            {
                "verdict": type(exc).__name__,
                "detail": str(exc),
                "witness": jsonio.encode(getattr(exc, "witness", None)),
            },
        )
        return 1
    except Exception as exc:  # pragma: no cover - internal errors
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    _emit(args.command, "ok", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
