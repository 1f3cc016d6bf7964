"""JSON encodings for every value the command line consumes or emits.

Scalars: a Gaussian rational is {"re": [p, q], "im": [p, q]} (integers may
stand in for [n, 1], and a bare [p, q] for a real rational).  Polynomials
are ascending coefficient arrays, rational functions {"num": ..., "den":
...}, factored forms {"lead": ..., "factors": [{"root": ..., "mult": k}]},
almost periodic polynomials [{"freq": [p, q], "coeff": ...}], and matrices
row-major nested arrays under a "ring" discriminator.
"""

from __future__ import annotations

from fractions import Fraction

from .ap import APFactorization, SplitUnavailable
from .corona import CoronaCertificate, CoronaFailure, Unresolved
from .errors import ZeroDenominator
from .exact_linalg import Completion, Diagnosis, MinorVector
from .fredholm import FredholmReport
from .matrices import RINGS, RingMatrix
from .matrix_wh import VerificationReport, WHFactorization
from .rings import (
    APPoly,
    FactoredRational,
    GaussianRational,
    MixedFunction,
    Polynomial,
    RationalFunction,
)
from .scalar_wh import ProjectionResult, ScalarWH


class DecodeError(ValueError):
    """Input JSON does not match the documented schema."""


# ---------------------------------------------------------------- encoding


def encode(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, complex):
        return {"approx": [obj.real, obj.imag]}
    if isinstance(obj, GaussianRational):
        return {"re": encode(obj.re), "im": encode(obj.im)}
    if isinstance(obj, Polynomial):
        return [encode(c) for c in obj.coeffs]
    if isinstance(obj, RationalFunction):
        return {"num": encode(obj.num), "den": encode(obj.den)}
    if isinstance(obj, FactoredRational):
        return {
            "lead": encode(obj.lead),
            "factors": [
                {"root": encode(root), "mult": mult} for root, mult in obj.factors
            ],
        }
    if isinstance(obj, (APPoly, MixedFunction)):
        return [{"freq": encode(f), "coeff": encode(c)} for f, c in obj.terms]
    if isinstance(obj, RingMatrix):
        return {
            "ring": obj.ring.name,
            "entries": [[encode(x) for x in row] for row in obj.entries],
        }
    if isinstance(obj, ScalarWH):
        return {
            "gamma_minus": encode(obj.gamma_minus),
            "k": obj.k,
            "gamma_plus": encode(obj.gamma_plus),
            "p_note": obj.p_note,
        }
    if isinstance(obj, ProjectionResult):
        return {"plus": encode(obj.plus_part), "minus": encode(obj.minus_part)}
    if isinstance(obj, WHFactorization):
        return {
            "ring": "rational",
            "g_minus": encode(obj.g_minus),
            "partial_indices": list(obj.partial_indices),
            "g_plus": encode(obj.g_plus),
            "bounded": obj.bounded,
            "p_note": obj.p_note,
            "trace": encode_mapping(obj.trace),
        }
    if isinstance(obj, VerificationReport):
        return obj.as_dict()
    if isinstance(obj, FredholmReport):
        return encode_mapping(obj.as_dict())
    if isinstance(obj, MinorVector):
        return {
            "subsets": [list(s) for s in obj.subsets_one_based()],
            "values": [encode(v) for v in obj.values],
        }
    if isinstance(obj, Completion):
        return {
            "phi_e": encode(obj.phi_e),
            "psi_e": encode(obj.psi_e),
            "det": encode(obj.det_value),
        }
    if isinstance(obj, Diagnosis):
        return encode_mapping(
            {
                "status": obj.status,
                "minors": obj.minors,
                "certificate": obj.certificate,
                "witness": obj.witness,
                "inverse": obj.inverse,
                "notes": obj.notes,
            }
        )
    if isinstance(obj, CoronaCertificate):
        out = {
            "status": "certificate",
            "algebra": obj.algebra,
            "solution": [encode(g) for g in obj.solution],
            "exact": obj.exact,
        }
        if obj.gr_factor is not None:
            out["gr_factor"] = encode(obj.gr_factor)
            out["hct_tuple"] = [encode(g) for g in obj.hct_tuple]
            gm, k, gp = obj.gr_split
            out["gr_split"] = {
                "minus_part": encode(gm),
                "power_of_r": k,
                "plus_part": encode(gp),
            }
        if obj.residual is not None:
            out["residual"] = encode(obj.residual)
            out["residual_bound"] = encode(obj.residual_bound)
        return out
    if isinstance(obj, CoronaFailure):
        return {
            "status": "failure",
            "witness": encode(obj.witness),
            "reason": obj.reason,
        }
    if isinstance(obj, Unresolved):
        return {"status": "unresolved", "reason": obj.reason, "notes": obj.notes}
    if isinstance(obj, (list, tuple)):
        return [encode(x) for x in obj]
    if isinstance(obj, dict):
        return encode_mapping(obj)
    if isinstance(obj, APFactorization):
        return {
            "ring": "ap",
            "g_minus": encode(obj.g_minus),
            "partial_ap_indices": [encode(mu) for mu in obj.partial_ap_indices],
            "g_plus": encode(obj.g_plus),
            "trace": encode_mapping(obj.trace),
        }
    if isinstance(obj, SplitUnavailable):
        return {
            "status": "split-unavailable",
            "offending_frequencies": [encode(f) for f in obj.offending],
            "kappa": encode(obj.kappa),
            "reason": obj.reason,
        }
    raise TypeError(f"no JSON encoding for {type(obj).__name__}")


def encode_mapping(d: dict) -> dict:
    return {str(k): encode(v) for k, v in d.items()}


# ---------------------------------------------------------------- decoding


def _integer(v, name: str, low: int | None = None, high: int | None = None) -> int:
    """A JSON integer (not a bool) in low..high, either end open when None;
    anything else is a DecodeError naming the field and its range."""
    if low is None:
        bound = ""
    elif high is None:
        bound = f" at least {low}"
    else:
        bound = f" in {low}..{high}"
    if type(v) is not int:
        raise DecodeError(f"{name} must be an integer{bound}, got {v!r}")
    if (low is not None and v < low) or (high is not None and v > high):
        raise DecodeError(f"{name} must be{bound}, got {v}")
    return v


def _expect(v, kind: type, name: str):
    """v itself when it is a JSON array (kind list) or object (kind dict)."""
    if not isinstance(v, kind):
        shape = "an array" if kind is list else "an object"
        raise DecodeError(f"{name} must be {shape}, got {v!r}")
    return v


def _choice(v, name: str, allowed: tuple[str, ...]) -> str:
    """v itself when it is one of the allowed strings; anything else is a
    DecodeError naming the field and the allowed values."""
    if not isinstance(v, str) or v not in allowed:
        raise DecodeError(f"{name} must be one of {', '.join(allowed)}, got {v!r}")
    return v


def decode_fraction(v) -> Fraction:
    if isinstance(v, bool):
        raise DecodeError("expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, list) and len(v) == 2 and all(isinstance(x, int) for x in v):
        if v[1] == 0:
            raise DecodeError("zero denominator in rational literal")
        return Fraction(v[0], v[1])
    raise DecodeError(f"cannot read a rational from {v!r}")


def decode_gaussian(v) -> GaussianRational:
    if isinstance(v, dict):
        if not set(v) <= {"re", "im"}:
            raise DecodeError(f"unexpected keys in scalar literal: {sorted(v)}")
        return GaussianRational(
            decode_fraction(v.get("re", 0)), decode_fraction(v.get("im", 0))
        )
    return GaussianRational(decode_fraction(v))


def decode_polynomial(v) -> Polynomial:
    if not isinstance(v, list):
        raise DecodeError("polynomial literal must be a coefficient array")
    return Polynomial([decode_gaussian(c) for c in v])


def decode_rational(v) -> RationalFunction:
    """{"num": ..., "den": ...} is a quotient; a bare array is read as
    polynomial coefficients; anything else as a constant scalar."""
    if isinstance(v, dict) and ("num" in v or "den" in v):
        num, den = decode_polynomial(v.get("num", [1])), decode_polynomial(v.get("den", [1]))
        try:
            return RationalFunction(num, den)
        except ZeroDenominator as exc:
            raise DecodeError(str(exc)) from None
    if isinstance(v, list):
        return RationalFunction(decode_polynomial(v))
    return RationalFunction(Polynomial([decode_gaussian(v)]))


def decode_factored(v) -> FactoredRational:
    if not isinstance(v, dict) or "lead" not in v:
        raise DecodeError("factored literal needs 'lead' and 'factors'")
    factors = []
    for item in _expect(v.get("factors", []), list, "factors"):
        item = _expect(item, dict, "factor")
        factors.append((decode_gaussian(item["root"]), _integer(item["mult"], "mult")))
    return FactoredRational(decode_gaussian(v["lead"]), factors)


def decode_appoly(v) -> APPoly:
    if isinstance(v, list):
        terms = [_expect(t, dict, "almost periodic term") for t in v]
        return APPoly(
            [(decode_fraction(t["freq"]), decode_gaussian(t["coeff"])) for t in terms]
        )
    return APPoly.coerce(decode_gaussian(v))


def decode_mixed(v) -> MixedFunction:
    if isinstance(v, list) and all(isinstance(t, dict) and "freq" in t for t in v):
        return MixedFunction(
            [(decode_fraction(t["freq"]), decode_rational(t["coeff"])) for t in v]
        )
    return MixedFunction.coerce(decode_rational(v))


_ENTRY_DECODERS = {
    "gaussian": decode_gaussian,
    "polynomial": decode_polynomial,
    "rational": decode_rational,
    "ap": decode_appoly,
    "mixed": decode_mixed,
}


def decode_matrix(v, ring_name: str | None = None) -> RingMatrix:
    if isinstance(v, dict):
        ring_name = v.get("ring", ring_name)
        v = v["entries"]
    if not isinstance(ring_name, str) or ring_name not in RINGS:
        raise DecodeError(f"unknown ring {ring_name!r}")
    if not isinstance(v, list) or not v or not all(isinstance(r, list) for r in v):
        raise DecodeError("matrix entries must be a nested array")
    if len({len(r) for r in v}) != 1:
        raise DecodeError(f"matrix rows differ in length: {[len(r) for r in v]}")
    dec = _ENTRY_DECODERS[ring_name]
    return RingMatrix(RINGS[ring_name], [[dec(x) for x in row] for row in v])


def decode_symbol(v):
    """A scalar symbol: factored if it carries 'lead', else rational."""
    if isinstance(v, dict) and "lead" in v:
        return decode_factored(v)
    return decode_rational(v)


def decode_scalar_wh(v) -> ScalarWH:
    v = _expect(v, dict, "scalar")
    return ScalarWH(
        decode_factored(v["gamma_minus"]),
        _integer(v["k"], "k"),
        decode_factored(v["gamma_plus"]),
    )


def _indices(v, name: str) -> tuple[int, ...]:
    """An array of integer (partial) indices."""
    return tuple(_integer(k, name) for k in _expect(v, list, name))


def decode_wh_factorization(v) -> WHFactorization:
    v = _expect(v, dict, "factorization")
    return WHFactorization(
        g_minus=decode_matrix(v["g_minus"], "rational"),
        partial_indices=_indices(v["partial_indices"], "partial_indices"),
        g_plus=decode_matrix(v["g_plus"], "rational"),
    )
