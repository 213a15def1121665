"""Record the exact counts the correctness gate expects.

For every workload and seed, runs the first ``GATE_CASES`` cases and
stores their summed [process_cycles, sink_tokens, checks] in
``expected.json``.  Run it only when a workload's definition changes,
from the repository root::

    PYTHONPATH=src python3 perfbench/record.py --seeds 100

A change meant only to speed the program up must leave these counts
identical.
"""

from __future__ import annotations

import argparse
import json

from repro.verify import make_cases, run_case

from run import gate_counts
from worker import outcome_record
from workloads import EXPECTED_PATH, GATE_CASES, WORKLOADS


def record(workload: str, seed: int) -> list[int]:
    cases = make_cases(WORKLOADS[workload].batch_config(seed, GATE_CASES))
    outcomes = [outcome_record(case, run_case(case)) for case in cases]
    for index, status, _, _, _, divergences in outcomes:
        if status != "completed" or divergences:
            raise SystemExit(
                f"{workload} seed {seed} case {index} fails: {divergences}"
            )
    return gate_counts({"outcomes": outcomes})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100,
                        help="record seeds 0 .. SEEDS-1")
    args = parser.parse_args()
    expected = {
        name: {str(seed): record(name, seed) for seed in range(args.seeds)}
        for name in WORKLOADS
    }
    EXPECTED_PATH.write_text(
        "{\n" + ",\n".join(
            f'  "{name}": ' + json.dumps(by_seed, separators=(",", ":"))
            for name, by_seed in expected.items()
        ) + "\n}\n"
    )


if __name__ == "__main__":
    main()
