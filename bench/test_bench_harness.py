"""Tests of the benchmark harness itself: the percentile rule, failure
accounting, the scaling to the calibration kernel's speed, and that the
traced run leaves the package as it found it."""

import itertools
import json
import pathlib
import random

import pytest

import harness
import spans
import wl_cli
import wl_linalg
from harness import Job, expect


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(harness.TooFewSamples):
        harness.percentile(list(range(99)), 0.9)
    assert harness.percentile(list(range(100)), 0.9) == 89
    assert harness.percentile(list(range(100, 0, -1)), 0.9) == 90


def _ok(i):
    return Job(f"ok/{i}", "ok", lambda: 2 + 2, lambda out: expect(out == 4, "wrong sum"))


def _raises(_):
    raise ZeroDivisionError("planted")


def test_wrong_answers_and_exceptions_count_as_failed():
    jobs = [_ok(i) for i in range(118)]
    jobs.append(Job("wrong", "bad", lambda: 5, lambda out: expect(out == 4, "wrong sum")))
    jobs.append(Job("raises", "bad", lambda: _raises(0), lambda out: None))
    records = harness.run_loop(iter([jobs]), seconds=0.0)
    assert len(records) == 120
    summary = harness.summarize(records)
    assert summary["failed_ratio"] == pytest.approx(2 / 120)
    assert summary["ok"] == 118
    assert {r.job_id for r in records if r.error} == {"wrong", "raises"}


def test_job_times_are_scaled_to_the_kernel_reference_speed():
    """A host at half the reference speed doubles the kernel's time and the
    job's alike; the scaled time is the job's time at reference speed."""
    ticks = itertools.count()
    step = 2 * harness.COMPUTE.reference_s
    records = harness.run_loop(iter([[_ok(i) for i in range(4)]]), 0.0, min_jobs=0,
                               clock=lambda: next(ticks) * step)
    assert [r.seconds for r in records] == pytest.approx([step] * 4)
    assert [r.ref_seconds for r in records] == pytest.approx([harness.COMPUTE.reference_s] * 4)


def test_oracle_rejection_counts_as_failed():
    def reject(_):
        raise AssertionError("planted oracle mismatch")

    jobs = [Job(f"j{i}", "k", lambda: 1, lambda out: None, reject) for i in range(3)]
    records = harness.run_loop(iter([jobs]), seconds=0.0, min_jobs=0)
    assert harness.apply_oracle(records, random.Random(0), per_kind=1) == 1
    assert sum(1 for r in records if r.error) == 1


def _snapshot():
    import sys

    seen = {}
    for name, module in sorted(sys.modules.items()):
        if name != "whfactor" and not name.startswith("whfactor."):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, item in vars(value).items():
                    seen[(name, attr, key)] = item
            elif isinstance(value, dict):
                for key, item in value.items():
                    seen[(name, attr, "[]", key)] = item
    return seen


def test_traced_run_restores_every_module_attribute():
    import whfactor.cli  # noqa: F401  (load every module the tracer patches)

    before = _snapshot()
    jobs = next(wl_linalg.rounds(1))[:6]
    golden = wl_cli.load_corpus()[0]
    jobs.append(wl_cli.in_process_job("minors", golden))
    tracer = spans.Tracer()
    with tracer.installed():
        assert any(before[k] is not v for k, v in _snapshot().items() if k in before)
        records = harness.run_loop(tracer.wrap_rounds(iter([jobs])), 0.0, min_jobs=0)
    after = _snapshot()
    assert all(r.error is None for r in records)
    assert tracer.missing == []
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert tracer.calls["matrices.det.qi"] > 0
    assert tracer.calls["jsonio.encode"] == 1 and tracer.calls["cli.dispatch"] == 1
    assert tracer.counts["jsonio.bytes_out"] == len(golden["stdout"].encode())


def test_self_times_partition_job_time():
    jobs = next(wl_linalg.rounds(2))[:9]
    tracer = spans.Tracer()
    with tracer.installed():
        records = harness.run_loop(tracer.wrap_rounds(iter([jobs])), 0.0, min_jobs=0)
    total_self = sum(tracer.self_s.values()) + tracer.bookkeeping_s
    total_jobs = sum(tracer.end[i] - tracer.start[i]
                     for i in range(len(tracer.start)) if tracer.parent[i] == -1)
    assert total_self == pytest.approx(total_jobs, rel=1e-6)
    assert total_jobs <= sum(r.seconds for r in records)


def test_traced_metrics_match_benchmark_json():
    """A per-layer name that drifts in either place would otherwise report a
    silent 0, the figure of a layer that is never called."""
    spec = json.loads((pathlib.Path(spans.__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name: unit for name, (_, unit) in spans.Tracer().metrics(1).items()}
    # the two run-level figures run.traced() adds to the tracer's own
    emitted["cli.import_ms"] = "ms"
    emitted["trace.overhead_ratio"] = "ratio"
    assert emitted == declared
