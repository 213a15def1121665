"""Verify-campaign benchmark: verified cases per reference second.

Usage, from the repository root::

    python3 perfbench/run.py --workload random --seed 0 --seconds 40 --trace 0

Each workload (``workloads.py``) is a ``repro verify`` campaign at
``--jobs 1``: the cases ``repro.verify.make_cases`` generates from the
seed, each timed as one call to ``repro.verify.run_case`` in a fresh
interpreter (``worker.py``).

Host time on a shared 2-CPU VM drifts by far more than the bounds a
regression gate needs: two sets of raw wall-clock runs of the same
code disagreed by 13% on random-workload cases/s, by 10% on its tail
case time and by 7% on its set-up time, and a fixed pure-Python loop's
median moved between 34 and 52 ms across 3-second windows of one run,
with no steal time.  So every host time is measured next to a fixed
reference slice and reported in reference seconds (``calib.py``); the
raw host numbers are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same cases untraced and then traced, each in its own interpreter, and
prints the per-layer metrics (``layertrace.py``); the spans are written
to ``perfbench/out/``.  Every run checks correctness: every case
completes with no divergence, the exact counts of the first cases
match those recorded for the workload and seed (``expected.json``;
seeds 0-99), and a traced pass reproduces the untraced outcomes.  On a
failed check the metrics are still printed and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from workloads import GATE_CASES, WORKLOADS, load_expected

HERE = Path(__file__).resolve().parent
#: Fresh interpreters timed through set-up, besides the run's own.
SETUP_RUNS = 4
#: Every run must finish within this many seconds.
DEADLINE_S = 170.0
STYLES = (
    "fsm", "sp", "combinational", "rtl-sp", "rtl-fsm", "shiftreg",
    "rtl-shiftreg",
)


class WorkerError(RuntimeError):
    pass


def quantile(values: list[float], p: float, steps: int = 16) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile: a Beta-weighted
    mean of the order statistics around rank ``p * n``.  Per-case times
    carry host noise of 10-20% each, so a single order statistic in the
    tail moves with whichever case the noise reorders; the weighted
    mean of its neighbours does so less."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    step = 1 / (n * steps)
    weights = []
    for i in range(n):
        # Midpoint rule over [i/n, (i+1)/n] of the unnormalized Beta pdf.
        points = (i / n + (j + 0.5) * step for j in range(steps))
        weights.append(sum(
            math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
            for u in points
        ))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with at least ten values
    beyond it, and that percentile."""
    p = max(1, len(values) - 10) / len(values)
    return quantile(values, p), 100.0 * p


def passed(outcome: list) -> bool:
    """A case that completed with no divergence."""
    return outcome[1] == "completed" and not outcome[5]


def case_times(record: dict) -> list[float]:
    """A pass's per-case times in reference seconds."""
    return calib.rescale_intervals(record["case_host_s"], record["slices_s"])


def setup_seconds(record: dict) -> float:
    return calib.rescale(record["setup_host_s"], record["setup_slice_s"])


def gate(
    workload: str, seed: int, untraced: dict, traced: dict | None
) -> list[str]:
    """Every correctness failure of a run, as readable lines."""
    problems = []
    for record in (untraced, traced):
        if record is None:
            continue
        for outcome in record["outcomes"]:
            if not passed(outcome):
                index, status, *_, divergences = outcome
                problems.append(
                    f"case {index}: {status}, {len(divergences)} divergences"
                    + "".join(f"\n    {d}" for d in divergences[:3])
                )
    if traced is not None and traced["outcomes"] != untraced["outcomes"]:
        problems.append("traced outcomes differ from untraced outcomes")
    counts = gate_counts(untraced)
    expected = load_expected().get(workload, {}).get(str(seed))
    if expected is None:
        print(
            f"gate: no counts recorded for {workload} seed {seed}; "
            "exact-count check skipped",
            file=sys.stderr,
        )
    elif counts != expected:
        problems.append(
            f"first {GATE_CASES} cases: [process_cycles, sink_tokens, "
            f"checks] = {counts}, recorded {expected}"
        )
    return problems


def gate_counts(record: dict) -> list[int]:
    """[process_cycles, sink_tokens, checks] of the first cases."""
    head = record["outcomes"][:GATE_CASES]
    return [sum(o[4] for o in head), sum(o[3] for o in head),
            sum(o[2] for o in head)]


def end_to_end(untraced: dict, setups: list[dict]) -> dict:
    """name -> (value, unit, raw host value or None)."""
    times = case_times(untraced)
    host = untraced["case_host_s"]
    n = len(times)
    ok = sum(map(passed, untraced["outcomes"]))
    tail_ref, _ = tail(times)
    tail_host, _ = tail(host)
    setup_ref = [setup_seconds(r) for r in setups]
    return {
        "cases_per_s": (n / sum(times), "1/ref-s", n / sum(host)),
        "case_p50_ms": (
            quantile(times, 0.5) * 1e3, "ref-ms",
            quantile(host, 0.5) * 1e3,
        ),
        "case_tail_ms": (tail_ref * 1e3, "ref-ms", tail_host * 1e3),
        "setup_s": (
            statistics.median(setup_ref), "s",
            statistics.median(r["setup_host_s"] for r in setups),
        ),
        "peak_rss_mb": (untraced["peak_rss_mb"], "MB", None),
        "verified_frac": (ok / n, "ratio", None),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    """name -> (value, unit, None) from a traced and an untraced pass."""
    n = len(traced["outcomes"])
    layers = traced["layers"]
    times = case_times(traced)
    case_total = sum(times)

    def seconds(layer: str) -> float:
        return layers.get(layer, {}).get("seconds", 0.0)

    def ms_per_case(layer: str) -> float:
        return seconds(layer) * 1e3 / n

    kernel = traced["kernel"]
    lookups = kernel["hits"] + kernel["misses"]
    run_factor = calib.NOMINAL_SLICE_S / statistics.median(traced["slices_s"])
    slice_q = statistics.quantiles(untraced["slices_s"], n=4)
    outcomes = traced["outcomes"]
    _, tail_pct = tail(times)
    metrics = {
        "generate.ms": (seconds("generate") * 1e3, "ref-ms"),
        "build.ms_per_case": (ms_per_case("build"), "ref-ms"),
        "build.calls": (layers.get("build", {}).get("calls", 0), "count"),
        "kernel.compile_ms": (kernel["compile_ms"] * run_factor, "ref-ms"),
        "kernel.misses": (kernel["misses"], "count"),
        "kernel.hit_ratio": (
            kernel["hits"] / lookups if lookups else 0.0, "ratio"
        ),
        "simulate.base.ms_per_case": (ms_per_case("simulate.base"), "ref-ms"),
        "plan.ms_per_case": (ms_per_case("plan"), "ref-ms"),
        "oracle.ms_per_case": (ms_per_case("oracle"), "ref-ms"),
        "case.self_ms_per_case": (ms_per_case("case"), "ref-ms"),
        "trace.coverage": (1.0 - seconds("case") / case_total, "ratio"),
    }
    for style in STYLES:
        totals = traced["styles"].get(style)
        metrics[f"simulate.{style}.ns_per_pcycle"] = (
            totals["seconds"] * 1e9 / totals["pcycles"]
            if totals and totals["pcycles"] else 0.0,
            "ref-ns",
        )
    metrics.update({
        "sim.process_cycles": (sum(o[4] for o in outcomes), "count"),
        "sim.sink_tokens": (sum(o[3] for o in outcomes), "count"),
        "oracle.checks": (sum(o[2] for o in outcomes), "count"),
        "cases.timed": (n, "count"),
        "case_tail.pct": (tail_pct, "%"),
        "host.cases_per_s": (n / sum(untraced["case_host_s"]), "1/s"),
        "calib.slice_us": (slice_q[1] * 1e6, "us"),
        "calib.slice_us.q1": (slice_q[0] * 1e6, "us"),
        "calib.slice_us.q3": (slice_q[2] * 1e6, "us"),
        # Untraced over traced cases/ref-s, on the same cases.
        "trace.overhead": (
            case_total / sum(case_times(untraced)), "ratio"
        ),
    })
    return {k: (v, u, None) for k, (v, u) in metrics.items()}


def run_worker(args: list[str], deadline: float) -> dict:
    root = Path.cwd()
    env = dict(
        os.environ,
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
    )
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before " + " ".join(args))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"timed out: {' '.join(args)}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(
            f"worker {' '.join(args)} exited {proc.returncode}:\n"
            + proc.stderr[-2000:]
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Verify-campaign benchmark (reference-second metrics)."
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (Path.cwd() / "src" / "repro" / "verify" / "__init__.py").is_file():
        print(
            "perfbench: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    try:
        if args.trace:
            untraced = run_worker(["run", *common], deadline)
            spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
            traced = run_worker(
                ["run", *common, "--trace", "1", "--spans", str(spans)],
                deadline,
            )
        else:
            # The first interpreter may compile bytecode; it is not timed.
            run_worker(["setup", *common], deadline)
            setups = [
                run_worker(["setup", *common], deadline)
                for _ in range(SETUP_RUNS)
            ]
            untraced = run_worker(["run", *common], deadline)
            traced = None
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    problems = gate(args.workload, args.seed, untraced, traced)
    if traced is None:
        metrics = end_to_end(untraced, setups + [untraced])
    else:
        metrics = per_layer(untraced, traced)
    workload = WORKLOADS[args.workload]
    n = len(untraced["outcomes"])
    print(f"workload {args.workload} (repro verify {workload.flags} "
          f"--jobs 1 --seed {args.seed} --cases {n})")
    for name, (value, unit, host) in metrics.items():
        raw = "" if host is None else f"   host {host:.6g}"
        print(f"  {name:34s} {value:14.6g} {unit:8s}{raw}")
    if traced is None:
        times = case_times(untraced)
        _, pct = tail(times)
        q = statistics.quantiles(untraced["slices_s"], n=4)
        print(f"  case_tail_ms is p{pct:.1f} of {n} cases; calib.slice_us "
              f"median {q[1] * 1e6:.1f} (q1 {q[0] * 1e6:.1f}, "
              f"q3 {q[2] * 1e6:.1f}), nominal "
              f"{calib.NOMINAL_SLICE_S * 1e6:.0f}")
    for problem in problems:
        print(f"INCORRECT: {problem}")
    failed = n - sum(map(passed, untraced["outcomes"]))
    print(json.dumps({
        "correct": not problems,
        "attempted": n,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
