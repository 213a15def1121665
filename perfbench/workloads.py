"""The benchmark's workloads: two campaigns ``repro verify`` runs.

Each one is a ``BatchConfig`` at ``--jobs 1`` whose case list comes
from ``repro.verify.make_cases`` under the run's seed.  The work of a
run is fixed by (workload, seed, seconds): ``ceil(seconds * rate)``
cases, ``rate`` being the workload's cases per reference second when
the benchmark was defined, so a run lasts about ``seconds`` there and
a faster program finishes the same cases sooner.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

#: The recorded exact counts of each workload's first ``GATE_CASES``
#: cases, per seed (written by ``record.py``).
EXPECTED_PATH = Path(__file__).with_name("expected.json")
GATE_CASES = 8


@dataclass(frozen=True)
class Workload:
    name: str
    flags: str  # the equivalent `repro verify` flags
    rate: float  # nominal cases per reference second
    config: dict = field(default_factory=dict)

    def case_count(self, seconds: int) -> int:
        return max(GATE_CASES, math.ceil(seconds * self.rate))

    def batch_config(self, seed: int, cases: int):
        """The ``repro.verify.BatchConfig`` of a run (imports the program)."""
        from repro.verify import BatchConfig

        return BatchConfig(
            cases=cases, seed=seed, jobs=1, profile="small",
            engine="compiled", **self.config,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload was chosen is recorded in BENCHMARK.json.
        Workload("random", "--profile small --cycles 300", rate=11.0),
        # 600 cycles already puts ~90% of case time in the per-cycle
        # simulator; a longer horizon would halve the cases a run
        # covers and widen the seed-to-seed spread of its mix by ~1.4x.
        Workload(
            "regular-long",
            "--traffic regular --cycles 600",
            rate=5.0,
            config={"traffic": "regular", "cycles": 600},
        ),
        # No `--perturb 2 --perturb-dynamic` campaign: the program
        # reports a divergence on some of its seeds (seed 11, case 44: a
        # resegmented variant moves no token in its horizon), and a
        # workload must run clean on every seed.
    )
}


def load_expected() -> dict:
    """``{workload: {seed: [process_cycles, sink_tokens, checks]}}``."""
    return json.loads(EXPECTED_PATH.read_text())
