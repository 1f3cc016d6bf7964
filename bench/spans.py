"""Per-module spans for the traced run, installed from outside the package.

Tracer.installed() replaces each public function or method listed in WRAPS
by a wrapper, everywhere the package holds a reference to it (module
globals, module-level dicts, class attributes), and puts every original back
on exit.  A wrapper opens a span (name, start, end, parent span, job id);
a call made while the innermost open span belongs to the same layer opens
no span of its own, so recursion and same-layer helpers stay inside the
outer span.  Self time is a span's duration minus the time its child spans
cover.  Spans are kept in memory and written out after the run.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

import harness

# (layer, module, attribute path); a layer may wrap several functions
WRAPS = [
    ("rings.poly_gcd", "whfactor.rings", "Polynomial.gcd"),
    ("rings.poly_gcd", "whfactor.rings", "Polynomial.egcd"),
    ("rings.poly_divmod", "whfactor.rings", "Polynomial.__divmod__"),
    ("rings.rational_canon", "whfactor.rings", "RationalFunction.__init__"),
    ("rings.root_locate", "whfactor.rings", "factor_numeric"),
    ("rings.root_locate", "whfactor.rings", "RationalFunction.factored"),
    ("rings.root_locate", "whfactor.rings", "RationalFunction.in_half_algebra"),
    ("rings.mobius", "whfactor.rings", "mobius_to_disk"),
    ("rings.mobius", "whfactor.rings", "mobius_from_disk"),
    ("matrices.det", "whfactor.matrices", "RingMatrix.det"),
    ("matrices.adjugate", "whfactor.matrices", "RingMatrix.adjugate"),
    ("matrices.minors", "whfactor.matrices", "minors_by_subset"),
    ("exact_linalg.maximal_minors", "whfactor.exact_linalg", "maximal_minors"),
    ("exact_linalg.complete", "whfactor.exact_linalg", "complete"),
    ("exact_linalg.left_inverse", "whfactor.exact_linalg", "left_inverse_general"),
    ("exact_linalg.left_inverse", "whfactor.exact_linalg", "left_inverse_corank1"),
    ("exact_linalg.one_sided_diagnose", "whfactor.exact_linalg", "one_sided_diagnose"),
    ("corona.hplus", "whfactor.corona", "corona_solve_hplus"),
    ("corona.mplus", "whfactor.corona", "corona_solve_mplus"),
    ("corona.ap", "whfactor.corona", "corona_solve_ap"),
    ("scalar_wh.wh_factor", "whfactor.scalar_wh", "wh_factor_scalar"),
    ("scalar_wh.riesz_project", "whfactor.scalar_wh", "riesz_project"),
    ("scalar_wh.winding_exact", "whfactor.scalar_wh", "winding_exact"),
    ("scalar_wh.winding_numeric", "whfactor.scalar_wh", "winding_numeric"),
    ("matrix_wh.factor", "whfactor.matrix_wh", "factor_via_row"),
    ("matrix_wh.factor", "whfactor.matrix_wh", "factor_via_column"),
    ("matrix_wh.factor", "whfactor.matrix_wh", "factor_via_rh"),
    ("matrix_wh.verify", "whfactor.matrix_wh", "verify_factorization"),
    ("matrix_wh.apply_inverse", "whfactor.matrix_wh", "apply_inverse"),
    ("fredholm.classify", "whfactor.fredholm", "classify"),
    ("fredholm.special", "whfactor.fredholm", "special_unitary"),
    ("fredholm.special", "whfactor.fredholm", "special_orthogonal"),
    ("ap.factor", "whfactor.ap", "ap_factor_via_row"),
    ("ap.factor", "whfactor.ap", "ap_factor_via_rh"),
    ("ap.project", "whfactor.ap", "ap_project"),
    ("ap.mean_motion", "whfactor.ap", "mean_motion"),
    ("jsonio.decode", "whfactor.jsonio", "decode_*"),
    ("jsonio.encode", "whfactor.jsonio", "encode"),
    ("jsonio.encode", "whfactor.jsonio", "encode_mapping"),
    ("cli.dispatch", "whfactor.cli", "main"),
]

DET_RINGS = {"gaussian": "qi", "polynomial": "poly", "rational": "rat", "ap": "ap"}

# layers reported with a call count as well as self time, and the counters
# each reports; every other layer reports self time only
CALLS = (
    "rings.poly_gcd", "rings.poly_divmod", "rings.rational_canon", "rings.root_locate",
    "rings.mobius", "matrices.det.qi", "matrices.det.poly", "matrices.det.rat",
    "matrices.det.ap", "matrices.adjugate", "matrices.minors", "corona.hplus",
    "corona.mplus", "corona.ap",
)
SELF_ONLY = (
    "exact_linalg.maximal_minors", "exact_linalg.complete", "exact_linalg.left_inverse",
    "exact_linalg.one_sided_diagnose", "scalar_wh.wh_factor", "scalar_wh.riesz_project",
    "scalar_wh.winding_exact", "scalar_wh.winding_numeric", "matrix_wh.factor",
    "matrix_wh.verify", "matrix_wh.apply_inverse", "fredholm.classify", "fredholm.special",
    "ap.factor", "ap.project", "ap.mean_motion", "jsonio.decode", "jsonio.encode",
    "cli.dispatch",
)
COUNTERS = (
    ("rings.poly_gcd.max_in_bits", "bits"),
    ("rings.root_locate.snapped", "roots/job"),
    ("rings.root_locate.refused", "calls/job"),
    ("corona.hplus.failures", "calls/job"),
    ("corona.mplus.failures", "calls/job"),
    ("corona.ap.failures", "calls/job"),
    ("corona.ap.unresolved", "calls/job"),
    ("ap.factor.refusals", "calls/job"),
    ("jsonio.bytes_out", "bytes/job"),
)


def _coeff_bits(p) -> int:
    best = 0
    for c in getattr(p, "coeffs", ()):
        for part in (getattr(c, "re", 0), getattr(c, "im", 0)):
            best = max(best, abs(part.numerator).bit_length(), part.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.job_ids: list[str] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.max_bits = 0
        self.bookkeeping_s = 0.0
        # open spans: [span index, layer, start, child seconds]
        self._stack: list[list] = []
        self._patched: list = []
        self.missing: list[str] = []

    # -------------------------------------------------------- recording

    def _id(self, layer: str) -> int:
        if layer not in self._name_ids:
            self._name_ids[layer] = len(self.names)
            self.names.append(layer)
        return self._name_ids[layer]

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, layer: str, t0: float) -> list:
        idx = len(self.start)
        self.start.append(t0)
        self.end.append(t0)
        self.name.append(self._id(layer))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.job.append(len(self.job_ids) - 1)
        frame = [idx, layer, t0, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, t1: float) -> None:
        self._stack.pop()
        idx, layer, t0, child = frame
        self.end[idx] = t1
        duration = t1 - t0
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][3] += duration

    def _exclude(self, seconds: float) -> None:
        """Keep bookkeeping time out of the enclosing span's self time."""
        self.bookkeeping_s += seconds
        if self._stack:
            self._stack[-1][3] += seconds

    def run_job(self, job_id: str, fn):
        """Run one job under a root span; a result that reports the bytes
        the command line wrote adds them to jsonio.bytes_out."""
        self.job_ids.append(job_id)
        frame = self._open("job", perf_counter())
        try:
            out = fn()
        finally:
            self._close(frame, perf_counter())
        written = getattr(out, "bytes_out", None)
        if written is not None:
            self.count("jsonio.bytes_out", written)
        return out

    def wrap_rounds(self, rounds):
        for batch in rounds:
            yield [
                harness.Job(j.id, j.kind, (lambda j=j: self.run_job(j.id, j.run)), j.check, j.oracle)
                for j in batch
            ]

    # -------------------------------------------------------- wrappers

    def _wrapper(self, layer: str, fn):
        tracer = self
        stack = self._stack
        det = layer == "matrices.det"
        minors = layer == "matrices.minors"
        gcd = layer == "rings.poly_gcd"

        def wrapped(*args, **kwargs):
            if not stack:  # outside a job: the harness checking an answer
                return fn(*args, **kwargs)
            name = layer
            if det:
                name = "matrices.det." + DET_RINGS.get(args[0].ring.name, args[0].ring.name)
            top = stack[-1][1]
            if top == name or (minors and top.startswith("matrices.det.")):
                return fn(*args, **kwargs)
            if gcd:
                tb = perf_counter()
                tracer.max_bits = max(tracer.max_bits, *(_coeff_bits(a) for a in args))
                tracer._exclude(perf_counter() - tb)
            frame = tracer._open(name, perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "RootClassificationAmbiguous" and name == "rings.root_locate":
                    tracer.count("rings.root_locate.refused")
                raise
            finally:
                tracer._close(frame, perf_counter())
            tracer._tally(name, out)
            return out

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", layer)
        wrapped.__qualname__ = getattr(fn, "__qualname__", layer)
        wrapped.__doc__ = getattr(fn, "__doc__", None)
        return wrapped

    def _tally(self, name: str, out) -> None:
        status = getattr(out, "status", None)
        if name.startswith("corona."):
            if status == "failure":
                self.count(name + ".failures")
            elif status == "unresolved":
                self.count(name + ".unresolved")
        elif name == "ap.factor" and status == "split-unavailable":
            self.count("ap.factor.refusals")
        elif name == "rings.root_locate" and type(out).__name__ == "FactoredRational":
            self.count("rings.root_locate.snapped",
                       sum(1 for root, _ in out.factors if type(root).__name__ == "GaussianRational"))

    # -------------------------------------------------------- install

    def _targets(self):
        """Resolve WRAPS to (layer, owner, attribute, original)."""
        found = []
        for layer, module_name, path in WRAPS:
            module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
            if path.endswith("*"):
                prefix = path[:-1]
                for attr, value in sorted(vars(module).items()):
                    if attr.startswith(prefix) and callable(value):
                        found.append((layer, module, attr, value))
                continue
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            found.append((layer, owner, attr, original))
        return found

    def install(self) -> None:
        package = [m for n, m in sorted(sys.modules.items())
                   if (n == "whfactor" or n.startswith("whfactor.")) and m is not None]
        for layer, owner, attr, original in self._targets():
            wrapped = self._wrapper(layer, original)
            self._set(owner, attr, wrapped)
            if isinstance(owner, type):
                continue
            # every other module-level reference to the same function
            for module in package:
                for name, value in list(vars(module).items()):
                    if value is original and (module, name) != (owner, attr):
                        self._set(module, name, wrapped)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                self._set(value, key, wrapped)

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patched.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -------------------------------------------------------- results

    def metrics(self, jobs: int) -> dict:
        """Per-layer metrics, normalized per job of the traced pass."""
        per = 1.0 / max(jobs, 1)
        out = {}
        for layer in CALLS:
            out[f"{layer}.calls"] = (self.calls.get(layer, 0) * per, "calls/job")
            out[f"{layer}.self_ms"] = (self.self_s.get(layer, 0.0) * 1000.0 * per, "ms/job")
        for layer in SELF_ONLY:
            out[f"{layer}.self_ms"] = (self.self_s.get(layer, 0.0) * 1000.0 * per, "ms/job")
        for key, unit in COUNTERS:
            if key == "rings.poly_gcd.max_in_bits":
                out[key] = (float(self.max_bits), unit)
            else:
                out[key] = (self.counts.get(key, 0) * per, unit)
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start and end (seconds,
        relative to the first span), parent span index, job id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([
                    self.names[self.name[i]], round(self.start[i] - base, 9),
                    round(self.end[i] - base, 9), self.parent[i], self.job_ids[self.job[i]],
                ]) + "\n")


def import_ms(root, env, samples: int = 3) -> float:
    """Median cold `import whfactor.cli` time in fresh interpreters, in ms."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import whfactor.cli; print(repr((time.perf_counter() - t) * 1000.0))")
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code, str(root / "src")],
                             capture_output=True, text=True, check=True, env=env, cwd=root)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)
