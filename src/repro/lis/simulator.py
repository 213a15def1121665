"""Cycle-accurate system simulator for latency-insensitive SoCs.

Executes the strict two-phase schedule of :mod:`repro.lis.signals`:
each cycle, every block's ``produce`` runs (outputs from registered
state), then every ``consume`` (inputs -> next state), then every
``commit``.  No fixed-point iteration is needed because no block has a
same-cycle input-to-output path.

Two drivers execute that schedule:

* :meth:`Simulation.step` calls each block's ``produce``, then each
  ``consume``, then each ``commit``, over the block list frozen when
  the :class:`Simulation` is constructed.  It is the reference
  semantics, and every run with watchers attached goes through it,
  one cycle at a time.
* :meth:`Simulation.run` without watchers executes the system's
  compiled cycle loop (:mod:`repro.lis.compiled`): one generated
  function per system structure, with the ports, relay stations,
  sources, sinks and stall injectors inlined, each shell's wrapper
  step called in place, and the deadlock window checked inline.
  Batch verification (:mod:`repro.verify`) and the throughput benches
  run in this mode; ``tests/test_lis_compiled.py`` holds it to the
  ``step()`` reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .compiled import compile_system, count_fallback
from .system import System


@dataclass
class SimulationResult:
    """Summary of one simulation run."""

    cycles: int
    shell_enabled: dict[str, int] = field(default_factory=dict)
    shell_stalled: dict[str, int] = field(default_factory=dict)
    shell_periods: dict[str, int] = field(default_factory=dict)
    sink_tokens: dict[str, int] = field(default_factory=dict)
    deadlocked: bool = False

    def utilization(self, shell_name: str) -> float:
        """Enabled fraction for ``shell_name``.

        Raises :class:`KeyError` for names the run never saw; a run of
        zero cycles reports 0.0 for every known shell.
        """
        enabled = self.shell_enabled[shell_name]
        if self.cycles == 0:
            return 0.0
        return enabled / self.cycles

    def throughput(self, sink_name: str) -> float:
        """Tokens per cycle delivered to ``sink_name``.

        Raises :class:`KeyError` for names the run never saw; a run of
        zero cycles reports 0.0 for every known sink.
        """
        tokens = self.sink_tokens[sink_name]
        if self.cycles == 0:
            return 0.0
        return tokens / self.cycles


class Simulation:
    """Drives a validated :class:`System`.

    The block set is frozen at construction: blocks added to the system
    afterwards are not simulated (construct a new :class:`Simulation`).
    """

    def __init__(self, system: System) -> None:
        system.validate()
        self.system = system
        self.cycle = 0
        self._watchers: list[Callable[[int], None]] = []
        self._shells = list(system.shells.values())
        self._blocks = system.blocks
        # The compiled loop, built on the first run (False: the system
        # cannot be lowered).
        self._compiled = None

    def add_watcher(self, fn: Callable[[int], None]) -> None:
        """``fn(cycle)`` runs after every commit (trace collection)."""
        self._watchers.append(fn)

    def step(self, cycles: int = 1) -> None:
        blocks = self._blocks
        watchers = self._watchers
        cycle = self.cycle
        try:
            for _ in range(cycles):
                for block in blocks:
                    block.produce(cycle)
                for block in blocks:
                    block.consume(cycle)
                for block in blocks:
                    block.commit()
                for watcher in watchers:
                    watcher(cycle)
                cycle += 1
        finally:
            self.cycle = cycle

    def run(
        self,
        cycles: int,
        deadlock_window: int | None = None,
    ) -> SimulationResult:
        """Run for ``cycles`` cycles; optionally stop early if no shell
        fires for ``deadlock_window`` consecutive cycles."""
        start = self.cycle
        run = False
        if not self._watchers:
            if self._compiled is None:
                self._compiled = compile_system(self._blocks) or False
            run = self._compiled
        if run:
            deadlocked = run(self, cycles, deadlock_window)
        else:
            count_fallback()
            deadlocked = self._run_steps(cycles, deadlock_window)
        executed = self.cycle - start
        return SimulationResult(
            cycles=executed,
            shell_enabled={
                name: shell.enabled_cycles
                for name, shell in self.system.shells.items()
            },
            shell_stalled={
                name: shell.stall_cycles
                for name, shell in self.system.shells.items()
            },
            shell_periods={
                name: shell.periods_completed
                for name, shell in self.system.shells.items()
            },
            sink_tokens={
                name: len(sink.received)
                for name, sink in self.system.sinks.items()
            },
            deadlocked=deadlocked,
        )

    def _run_steps(
        self, cycles: int, deadlock_window: int | None
    ) -> bool:
        """The ``step()`` reference of the compiled loop; returns
        whether the deadlock window tripped."""
        shells = self._shells
        # enabled_cycles counters only ever grow, so the sum moves
        # exactly when some shell made progress.
        last_total = sum(shell.enabled_cycles for shell in shells)
        quiet = 0
        for _ in range(cycles):
            self.step()
            if deadlock_window is not None:
                total = sum(shell.enabled_cycles for shell in shells)
                quiet = 0 if total != last_total else quiet + 1
                last_total = total
                if quiet >= deadlock_window:
                    return True
        return False

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 1_000_000,
    ) -> int:
        """Step until ``predicate()`` holds; returns cycles executed."""
        executed = 0
        while not predicate():
            if executed >= max_cycles:
                raise RuntimeError(
                    f"run_until exceeded {max_cycles} cycles "
                    f"(system {self.system.name!r} may be deadlocked)"
                )
            self.step()
            executed += 1
        return executed

    def reset(self) -> None:
        for block in self.system.blocks:
            block.reset()
        self.cycle = 0
