"""Behavioural-vs-RTL equivalence checking for wrapper synthesis.

Two pieces:

* :class:`RTLShell` — a shell whose firing decisions come from
  cycle-accurately simulating a *generated wrapper module* (SP, FSM or
  shift-register RTL).  It drives the RTL's ``not_empty``/``not_full``
  inputs from the real FIFO ports and checks the RTL's
  ``pop``/``push``/``ip_enable`` outputs against the operation stream
  every shell executes (:mod:`repro.lis.shell`): the RTL supplies the
  firing decision, the shared executor performs it, and any strobe
  divergence raises :class:`EquivalenceError` with the offending cycle.
* :func:`co_simulate` — runs a behavioural wrapper and an RTL wrapper
  in twin systems fed identical stimuli and compares their cycle-level
  enable traces and token-level outputs.

This is the reproduction's answer to the paper's "functionally
equivalent to the FSMs" claim: we demonstrate it by simulation on
randomized irregular stimuli rather than assert it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..lis.pearl import Pearl
from ..lis.port import DEFAULT_PORT_DEPTH
from ..lis.shell import Shell, ShellError
from ..lis.simulator import Simulation
from ..lis.system import System
from ..rtl.module import Module
from ..rtl.simulator import Simulator
from .operations import SPProgram
from .rtlgen.common import sanitize


class EquivalenceError(AssertionError):
    """Raised when RTL and expected behaviour diverge."""


class RTLShell(Shell):
    """Patient process driven by simulated wrapper RTL.

    ``module`` must expose the uniform wrapper interface of
    :mod:`repro.core.rtlgen.common`.  ``program`` supplies the expected
    operation stream for SP wrappers; omitted, the pearl's schedule
    order is expected (FSM / shift-register wrappers).

    ``engine`` selects the RTL simulation backend (``"compiled"`` /
    ``"interp"``; None follows the simulator default).
    """

    style = "rtl"

    def __init__(
        self,
        pearl: Pearl,
        module: Module,
        program: SPProgram | None = None,
        port_depth: int = DEFAULT_PORT_DEPTH,
        engine: str | None = None,
    ) -> None:
        super().__init__(pearl, port_depth)
        self.module = module
        self.engine = engine
        self.program = program
        self.rtl = Simulator(module, engine=engine)
        ins = [sanitize(name) for name in pearl.schedule.inputs]
        outs = [sanitize(name) for name in pearl.schedule.outputs]
        expected = (
            tuple(f"{p}_not_empty" for p in ins)
            + tuple(f"{p}_not_full" for p in outs),
            tuple(f"{p}_pop" for p in ins) + tuple(f"{p}_push" for p in outs),
        )
        if self.rtl.interface != expected:
            raise ShellError(
                f"module {module.name!r} does not expose the wrapper "
                "interface in schedule port order"
            )
        self._apply_reset()

    def _apply_reset(self) -> None:
        self.rtl.poke("rst", 1)
        self.rtl.step()
        self.rtl.poke("rst", 0)

    def _wrapper_step(self, cycle: int) -> None:
        # Ready and strobe masks share the op masks' layout: inputs in
        # bits [0, n_in), outputs above them.
        enable, strobes = self.rtl.wrapper_cycle(self._ready())
        if not enable:
            if strobes:
                raise EquivalenceError(
                    f"{self.name!r} cycle {cycle}: pop/push strobes "
                    "asserted while ip_enable low"
                )
            self._tick(False)
            return
        if self._run_left:
            if strobes:
                raise EquivalenceError(
                    f"{self.name!r} cycle {cycle}: strobes asserted "
                    "during an expected free-run cycle"
                )
            self._free_run()
        else:
            op = self._ops[self._op_index]
            if strobes != op.mask:
                n_in = self._n_in
                low = (1 << n_in) - 1
                raise EquivalenceError(
                    f"{self.name!r} cycle {cycle}: RTL strobes "
                    f"(pop={strobes & low:#x}, push={strobes >> n_in:#x}) "
                    f"!= expected (pop={op.mask & low:#x}, "
                    f"push={op.mask >> n_in:#x}) at script position "
                    f"{self._op_index}"
                )
            self._fire(op)
        self._tick(True)

    def reset(self) -> None:
        super().reset()
        self.rtl = Simulator(self.module, engine=self.engine)
        self._apply_reset()


# -- twin-system co-simulation -------------------------------------------------


@dataclass
class Stimulus:
    """Input token streams (with gap patterns) and output stall patterns
    for a single patient process under test."""

    tokens: dict[str, Sequence[Any]]
    gaps: dict[str, Sequence[bool]] = field(default_factory=dict)
    stalls: dict[str, Sequence[bool]] = field(default_factory=dict)
    in_latency: dict[str, int] = field(default_factory=dict)
    out_latency: dict[str, int] = field(default_factory=dict)


@dataclass
class CoSimResult:
    """Outcome of one twin-system run."""

    cycles: int
    enable_a: list[bool]
    enable_b: list[bool]
    outputs_a: dict[str, list[Any]]
    outputs_b: dict[str, list[Any]]

    @property
    def traces_match(self) -> bool:
        return self.enable_a == self.enable_b

    @property
    def outputs_match(self) -> bool:
        return self.outputs_a == self.outputs_b

    def first_divergence(self) -> int | None:
        for index, (a, b) in enumerate(zip(self.enable_a, self.enable_b)):
            if a != b:
                return index
        return None


def _build_single(
    shell: Shell, stimulus: Stimulus, name: str
) -> tuple[System, dict[str, Any]]:
    system = System(name)
    system.add_patient(shell)
    schedule = shell.pearl.schedule
    for port in schedule.inputs:
        system.connect_source(
            f"src_{port}",
            list(stimulus.tokens.get(port, [])),
            shell,
            port,
            latency=stimulus.in_latency.get(port, 1),
            gaps=stimulus.gaps.get(port),
        )
    sinks = {}
    for port in schedule.outputs:
        sinks[port] = system.connect_sink(
            shell,
            port,
            f"snk_{port}",
            latency=stimulus.out_latency.get(port, 1),
            stalls=stimulus.stalls.get(port),
        )
    return system, sinks


def co_simulate(
    shell_a: Shell,
    shell_b: Shell,
    stimulus: Stimulus,
    cycles: int,
) -> CoSimResult:
    """Run two shells (same pearl type, fresh instances) under identical
    stimuli and collect enable traces + sink outputs."""
    shell_a.trace_enable = []
    shell_b.trace_enable = []
    system_a, sinks_a = _build_single(shell_a, stimulus, "cosim_a")
    system_b, sinks_b = _build_single(shell_b, stimulus, "cosim_b")
    Simulation(system_a).run(cycles)
    Simulation(system_b).run(cycles)
    return CoSimResult(
        cycles=cycles,
        enable_a=list(shell_a.trace_enable),
        enable_b=list(shell_b.trace_enable),
        outputs_a={k: list(v.received) for k, v in sinks_a.items()},
        outputs_b={k: list(v.received) for k, v in sinks_b.items()},
    )
