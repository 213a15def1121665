"""Outside-in layer tracing of a verify campaign.

The traced run wraps the program's public layer functions from here,
binding each wrapper where its caller looks it up, and records one
span (name, start, end, parent, case id) per call.  Spans stay in
memory and are written out when the run ends.  Nothing in the program
changes, and :meth:`Tracer.installed` restores every original.

Layers (a simulation nested under the oracle fold is a perturbation
variant's re-simulation, so it gets its own layer):

* ``generate`` — ``repro.verify.runner.random_topology`` (``make_cases``)
* ``build`` — ``repro.verify.cases.build_system``
* ``plan`` — ``repro.verify.cases.plan_topology_activations``
* ``oracle`` — ``repro.verify.oracles.run_pipeline``
* ``simulate.base`` / ``simulate.variant`` — ``Simulation.run`` outside /
  inside ``oracle``
* ``case`` — the benchmark's own span around ``repro.verify.run_case``;
  its self time is what no layer accounts for.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

#: (span name, module, attribute path) of every wrapped layer function.
TARGETS = (
    ("generate", "repro.verify.runner", "random_topology"),
    ("build", "repro.verify.cases", "build_system"),
    ("plan", "repro.verify.cases", "plan_topology_activations"),
    ("oracle", "repro.verify.oracles", "run_pipeline"),
    ("simulate", "repro.lis.simulator", "Simulation.run"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    case: int | None = None
    # Simulation spans only: wrapper style and process-cycles simulated.
    style: str = ""
    pcycles: int = 0


def _annotate_simulation(span: Span, args: tuple, result: Any) -> None:
    system = args[0].system
    # build_system names systems "<topology>:<style>".
    span.style = system.name.rsplit(":", 1)[-1]
    span.pcycles = result.cycles * len(system.shells)


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._case: int | None = None

    def _open(self, name: str) -> Span:
        span = Span(
            name,
            0.0,
            parent=self._stack[-1] if self._stack else None,
            case=self._case,
        )
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        annotate = _annotate_simulation if name == "simulate" else None

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def case(self, index: int) -> Iterator[Span]:
        """The span of one case; every layer span inside carries its id."""
        self._case = index
        span = self._open("case")
        try:
            yield span
        finally:
            self._close(span)
            self._case = None

    @contextmanager
    def installed(self, targets=TARGETS) -> Iterator["Tracer"]:
        """Bind a wrapper over every target; restore the originals on
        exit, also when the body raises."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for name, module, path in targets:
                owner: Any = importlib.import_module(module)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct child
    spans cover (overlapping children count once)."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(
            children.get(index, ()), key=lambda i: spans[i].start
        ):
            lo = max(spans[child].start, reach)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def layer_of(spans: list[Span], index: int) -> str:
    """The layer a span's self time belongs to."""
    span = spans[index]
    if span.name != "simulate":
        return span.name
    parent = span.parent
    while parent is not None:
        if spans[parent].name == "oracle":
            return "simulate.variant"
        parent = spans[parent].parent
    return "simulate.base"


@dataclass
class LayerTotals:
    seconds: float = 0.0
    calls: int = 0
    pcycles: int = 0


def rollup(
    spans: list[Span], scale: Callable[[int | None], float]
) -> tuple[dict[str, LayerTotals], dict[str, LayerTotals]]:
    """Self time per layer and per base-simulation style.

    ``scale(case_id)`` converts the host seconds of a span of that case
    (None: outside any case) to reference seconds."""
    layers: dict[str, LayerTotals] = {}
    styles: dict[str, LayerTotals] = {}
    for index, own in enumerate(self_times(spans)):
        span = spans[index]
        seconds = own * scale(span.case)
        layer = layer_of(spans, index)
        totals = layers.setdefault(layer, LayerTotals())
        totals.seconds += seconds
        totals.calls += 1
        if layer == "simulate.base":
            per_style = styles.setdefault(span.style, LayerTotals())
            per_style.seconds += seconds
            per_style.calls += 1
            per_style.pcycles += span.pcycles
    return layers, styles
