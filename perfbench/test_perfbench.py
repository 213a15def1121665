"""Tests of the benchmark's own arithmetic and tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
from layertrace import Span, Tracer, layer_of, rollup, self_times  # noqa: E402
from run import end_to_end, gate, quantile, tail  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("case", 0.0, 10.0, None, 0),
        Span("build", 1.0, 3.0, 0, 0),
        Span("simulate", 3.0, 7.0, 0, 0),
        Span("oracle", 7.0, 9.5, 0, 0),
        Span("build", 7.5, 8.0, 3, 0),
        Span("simulate", 8.0, 9.0, 3, 0),
    ]
    assert self_times(spans) == pytest.approx([1.5, 2.0, 4.0, 1.0, 0.5, 1.0])
    assert [layer_of(spans, i) for i in range(len(spans))] == [
        "case", "build", "simulate.base", "oracle", "build",
        "simulate.variant",
    ]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("case", 0.0, 10.0),
        Span("build", 2.0, 6.0, 0),
        Span("build", 4.0, 12.0, 0),  # overlaps its sibling and the end
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_rollup_scales_each_case_and_splits_styles():
    spans = [
        Span("generate", 0.0, 1.0),
        Span("case", 1.0, 5.0, None, 0),
        Span("simulate", 1.0, 3.0, 1, 0, style="fsm", pcycles=10),
        Span("case", 5.0, 9.0, None, 1),
        Span("simulate", 5.0, 8.0, 3, 1, style="fsm", pcycles=20),
    ]
    factors = {None: 1.0, 0: 0.5, 1: 2.0}
    layers, styles = rollup(spans, factors.__getitem__)
    assert layers["generate"].seconds == pytest.approx(1.0)
    assert layers["case"].seconds == pytest.approx(2 * 0.5 + 1 * 2.0)
    assert layers["simulate.base"].seconds == pytest.approx(1.0 + 6.0)
    assert styles["fsm"].pcycles == 30 and styles["fsm"].calls == 2


def test_rescaling_is_independent_of_host_speed():
    # A fixed synthetic workload on hosts running 0.5x to 3x as slow
    # normalizes to the same times.
    work = [0.05, 0.2, 0.08, 0.4, 0.1, 0.07, 0.3]
    for base in (0.5, 1.0, 3.0):
        slices = [calib.NOMINAL_SLICE_S * base] * (len(work) + 1)
        host = [w * base for w in work]
        ref = calib.rescale_intervals(host, slices)
        assert ref == pytest.approx(work)
        record = {
            "case_host_s": host,
            "slices_s": slices,
            "setup_host_s": 0.5 * base,
            "setup_slice_s": calib.NOMINAL_SLICE_S * base,
            "outcomes": [[i, "completed", 1, 1, 1, []] for i in range(7)],
            "peak_rss_mb": 50.0,
        }
        metrics = end_to_end(record, [record])
        assert metrics["cases_per_s"][0] == pytest.approx(len(work) / sum(work))
        assert metrics["setup_s"][0] == pytest.approx(0.5)


def test_rescaling_follows_drift_within_a_run():
    # The host slows down 2x halfway through; every case is calibrated
    # by slices measured at its own speed.
    work = [0.1] * 20
    speed = [1.0] * 10 + [2.0] * 11
    slices = [calib.NOMINAL_SLICE_S * s for s in speed]
    host = [w * s for w, s in zip(work, speed)]
    ref = calib.rescale_intervals(host, slices)
    # Case 9 ran across the change: its slices straddle both speeds.
    assert ref[:9] == pytest.approx(work[:9])
    assert ref[10:] == pytest.approx(work[10:])
    with pytest.raises(ValueError):
        calib.rescale_intervals(host, slices[:-1])


def test_tail_keeps_ten_values_beyond_it():
    values = [float(v) for v in range(100, 0, -1)]
    value, pct = tail(values)
    assert pct == pytest.approx(90.0) and value == pytest.approx(90.5, abs=0.1)
    assert sum(v > value for v in values) == 10
    assert quantile(values, 0.5) == pytest.approx(50.5)
    assert quantile([7.0], 0.5) == pytest.approx(7.0)


def test_gate_names_divergent_and_mismatched_runs():
    ok = [0, "completed", 5, 7, 100, []]
    bad = [1, "completed", 5, 7, 100, ["streams [sp] sink0: differs"]]
    untraced = {"outcomes": [ok, bad]}
    unrecorded = 10**9  # no recorded counts: only the outcome checks
    problems = gate("random", unrecorded, untraced, None)
    assert len(problems) == 1 and "case 1" in problems[0]
    traced = {"outcomes": [ok, [1, "timeout", 0, 0, 0, []]]}
    problems = gate("random", unrecorded, untraced, traced)
    assert any("traced outcomes differ" in p for p in problems)
    assert gate("random", unrecorded, {"outcomes": [ok]}, None) == []
    # Recorded counts are compared exactly.
    assert gate("random", 0, {"outcomes": [ok]}, None) != []


def _originals():
    import repro.lis.simulator as simulator
    import repro.verify.cases as cases
    import repro.verify.oracles as oracles
    import repro.verify.runner as runner

    return (
        runner.random_topology,
        cases.build_system,
        cases.plan_topology_activations,
        oracles.run_pipeline,
        simulator.Simulation.__dict__["run"],
    )


def test_wrappers_record_spans_and_restore_originals():
    from repro.verify import BatchConfig, make_cases, run_case

    before = _originals()
    tracer = Tracer()
    with tracer.installed():
        wrapped = _originals()
        assert all(w is not o for w, o in zip(wrapped, before))
        assert [w.__wrapped__ for w in wrapped] == list(before)
        (case,) = make_cases(BatchConfig(cases=1, cycles=20, seed=3))
        with tracer.case(case.index):
            traced = run_case(case)
    assert _originals() == before
    names = {span.name for span in tracer.spans}
    assert {"generate", "case", "build", "simulate", "oracle"} <= names
    assert all(s.case == case.index for s in tracer.spans if s.name != "generate")
    simulated = [s for s in tracer.spans if s.name == "simulate"]
    assert {s.style for s in simulated} == set(case.styles)
    assert all(s.pcycles > 0 for s in simulated)
    # Nothing leaks into an untraced run: no new spans, same outcome.
    count = len(tracer.spans)
    assert run_case(case) == traced
    assert len(tracer.spans) == count


def test_wrappers_restore_when_the_body_raises():
    before = _originals()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert _originals() == before


def test_reference_slice_is_independent_of_the_program_and_heap():
    source = Path(calib.__file__).read_text()
    assert "repro" not in source.split('"""', 2)[2]
    calib.reference_slice(10)
    gc.disable()
    try:
        before = gc.get_count()[0]
        calib.reference_slice()
        assert gc.get_count()[0] == before  # no GC-tracked objects live
    finally:
        gc.enable()
