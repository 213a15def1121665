"""One fresh-interpreter pass of a workload (run by ``run.py``).

``setup`` mode times ``import repro.verify`` plus ``make_cases`` and
exits.  ``run`` mode does the same, then calls ``repro.verify.run_case``
once per case with a reference slice between cases; with ``--trace 1``
the layer functions are wrapped (``layertrace.py``) for the whole pass.
The last stdout line is a JSON record of raw host times; ``run.py``
rescales them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calib
from layertrace import Tracer, rollup
from workloads import WORKLOADS

SETUP_SLICES = 3


def outcome_record(case, outcome) -> list:
    """What the correctness gate compares for one case: index, status,
    checks, sink tokens, process-cycles, divergences."""
    processes = len(case.topology.processes)
    return [
        outcome.index,
        outcome.status,
        outcome.checks,
        outcome.sink_tokens,
        sum(outcome.cycles_executed.values()) * processes,
        [str(d) for d in outcome.divergences],
    ]


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    pre = [calib.reference_slice() for _ in range(SETUP_SLICES)]
    start = time.perf_counter()
    import repro.verify as verify

    with tracer.installed() if tracer else contextlib.nullcontext():
        cases = verify.make_cases(
            workload.batch_config(args.seed, workload.case_count(args.seconds))
        )
        setup_host = time.perf_counter() - start
        post = [calib.reference_slice() for _ in range(SETUP_SLICES)]
        record = {
            "setup_host_s": setup_host,
            "setup_slice_s": statistics.median(pre + post),
        }
        if args.mode == "setup":
            return record

        from repro.rtl.compile_sim import cache_stats

        kernel_before = cache_stats()
        slices = [calib.reference_slice()]
        case_host: list[float] = []
        outcomes: list[list] = []
        for case in cases:
            with tracer.case(case.index) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                outcome = verify.run_case(case)
                case_host.append(time.perf_counter() - t0)
            slices.append(calib.reference_slice())
            outcomes.append(outcome_record(case, outcome))
        kernel_after = cache_stats()
    record.update(
        case_host_s=case_host,
        slices_s=slices,
        outcomes=outcomes,
        kernel={
            key: kernel_after[key] - kernel_before[key]
            for key in ("hits", "misses", "compile_ms")
        },
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    )
    if tracer is not None:
        spans_path = Path(args.spans)
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(str(spans_path))
        setup_factor = calib.NOMINAL_SLICE_S / record["setup_slice_s"]
        factors = [
            calib.NOMINAL_SLICE_S / calib.adjacent_slice(slices, index)
            for index in range(len(cases))
        ]
        layers, styles = rollup(
            tracer.spans,
            lambda case: setup_factor if case is None else factors[case],
        )
        record["layers"] = {k: vars(v) for k, v in layers.items()}
        record["styles"] = {k: vars(v) for k, v in styles.items()}
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default="perfbench/out/spans.jsonl")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
