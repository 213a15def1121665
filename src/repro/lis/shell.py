"""Abstract synchronization shells (wrappers).

A shell turns a :class:`~repro.lis.pearl.Pearl` into a *patient
process*: it owns the pearl's FIFO ports, decides each cycle whether
the pearl clock fires, and performs the port pops/pushes of the sync
point being executed.

Every shell executes one cyclic *operation stream*, built when its
ports are bound: one head op per sync point, or its SP program's ops
(heads plus run-counter continuation ops).  :class:`Shell` alone
executes the stream; a wrapper style (:mod:`repro.core.wrappers`,
:class:`repro.core.equivalence.RTLShell`) supplies only its firing
decision:

* ``FSMWrapper`` — the current op's port subsets (Singh & Theobald);
* ``SPWrapper`` — its synchronization processor (the paper's);
* ``CombinationalWrapper`` — Carloni's all-ports condition;
* ``ShiftRegisterWrapper`` — Casu & Macchiarulo's static pattern;
* ``RTLShell`` — simulated wrapper RTL.

All styles execute the same schedule, so they are functionally
equivalent whenever they do not deadlock; they differ in *when* the
pearl clock fires, which is what the throughput benches measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pearl import Pearl
from .port import DEFAULT_PORT_DEPTH, InputPort, OutputPort
from .signals import Block, Link


class ShellError(RuntimeError):
    """Raised for wiring mistakes or schedule violations."""


@dataclass(frozen=True, slots=True)
class _Op:
    """One op of the stream.  A head op pops ``pops`` and pushes
    ``pushes`` ((name, port) pairs in schedule order) around
    ``on_sync``; a continuation op's fire cycle is free-run phase
    ``first_phase``.  ``run`` free-run cycles follow, ending before
    phase ``phase_end``.  ``mask``: inputs in bits [0, n_in), outputs
    above."""

    point: int
    head: bool
    pops: tuple[tuple[str, InputPort], ...]
    pushes: tuple[tuple[str, OutputPort], ...]
    outputs: frozenset[str]
    mask: int
    run: int
    first_phase: int
    phase_end: int


class Shell(Block):
    """Base patient-process wrapper around one pearl: executes the
    operation stream; styles decide when it advances."""

    style = "abstract"
    program = None  # an SP program's ops replace one op per point

    def __init__(
        self, pearl: Pearl, port_depth: int = DEFAULT_PORT_DEPTH
    ) -> None:
        super().__init__(pearl.name)
        self.pearl = pearl
        self.port_depth = port_depth
        self.in_ports: dict[str, InputPort] = {}
        self.out_ports: dict[str, OutputPort] = {}
        self._op_index = 0
        self._run_left = 0
        self._running: _Op | None = None
        self.enabled_cycles = 0
        self.stall_cycles = 0
        self.periods_completed = 0
        self.trace_enable: list[bool] | None = None

    # -- wiring ------------------------------------------------------------------

    def bind_input(self, port_name: str, link: Link) -> InputPort:
        return self._bind(
            "input", port_name, link, self.pearl.inputs, self.in_ports,
            InputPort,
        )

    def bind_output(self, port_name: str, link: Link) -> OutputPort:
        return self._bind(
            "output", port_name, link, self.pearl.outputs, self.out_ports,
            OutputPort,
        )

    def _bind(self, kind, port_name, link, names, ports, port_cls):
        if port_name not in names:
            raise ShellError(
                f"{self.name!r} has no {kind} port {port_name!r}"
            )
        if port_name in ports:
            raise ShellError(
                f"{kind} port {port_name!r} of {self.name!r} already bound"
            )
        port = ports[port_name] = port_cls(
            f"{self.name}.{port_name}", link, self.port_depth
        )
        return port

    def check_bound(self) -> None:
        """Reject unbound ports, then build the operation stream."""
        missing = [
            name for name in self.pearl.inputs if name not in self.in_ports
        ] + [
            name for name in self.pearl.outputs if name not in self.out_ports
        ]
        if missing:
            raise ShellError(
                f"patient process {self.name!r} has unbound ports: "
                f"{missing}"
            )
        schedule = self.pearl.schedule
        ins = [(name, self.in_ports[name]) for name in schedule.inputs]
        outs = [(name, self.out_ports[name]) for name in schedule.outputs]
        n_in = self._n_in = len(ins)
        self._in_bits = [(1 << bit, port) for bit, (_, port) in enumerate(ins)]
        self._out_bits = [
            (1 << (n_in + bit), port) for bit, (_, port) in enumerate(outs)
        ]
        if self.program is not None:
            specs = [
                (op.point_index, op.is_head, op.in_mask, op.out_mask,
                 op.run, op.first_phase)
                for op in self.program.ops
            ]
        else:
            specs = [
                (index, True, schedule.input_mask(point),
                 schedule.output_mask(point), point.run, 0)
                for index, point in enumerate(schedule.points)
            ]
        self._ops = []
        for point, head, in_mask, out_mask, run, first_phase in specs:
            pushes = tuple(
                pair for bit, pair in enumerate(outs) if out_mask >> bit & 1
            )
            self._ops.append(_Op(
                point=point,
                head=head,
                pops=tuple(
                    pair for bit, pair in enumerate(ins) if in_mask >> bit & 1
                ),
                pushes=pushes,
                outputs=frozenset(name for name, _ in pushes),
                mask=in_mask | out_mask << n_in,
                run=run,
                first_phase=first_phase,
                phase_end=run if head else first_phase + 1 + run,
            ))

    def _ports(self) -> list[InputPort | OutputPort]:
        return [*self.in_ports.values(), *self.out_ports.values()]

    # -- two-phase protocol ----------------------------------------------------------

    def produce(self, cycle: int) -> None:
        for port in self._ports():
            port.produce(cycle)

    def consume(self, cycle: int) -> None:
        for port in self._ports():
            port.consume(cycle)
        self._wrapper_step(cycle)

    def commit(self) -> None:
        for port in self._ports():
            port.commit()

    def reset(self) -> None:
        for port in self._ports():
            port.reset()
        self.pearl.on_reset()
        self._op_index = 0
        self._run_left = 0
        self._running = None
        self.enabled_cycles = 0
        self.stall_cycles = 0
        self.periods_completed = 0

    # -- firing decision (supplied by wrapper styles) -----------------------------

    def _sync_ready(self, op: _Op) -> bool:
        """May ``op``, the current op, fire this cycle?"""
        raise NotImplementedError

    def _run_gate_ok(self) -> bool:
        """May a free-run cycle proceed this cycle?  The paper's SP and
        the FSM grant free-run cycles unconditionally; Carloni's
        combinational wrapper keeps testing every port."""
        return True

    def _wrapper_step(self, cycle: int) -> None:
        if self._run_left:
            enabled = self._run_gate_ok()
            if enabled:
                self._free_run()
        else:
            op = self._ops[self._op_index]
            enabled = self._sync_ready(op)
            if enabled:
                self._fire(op)
        self._tick(enabled)

    def _ready(self) -> int:
        """Ready mask: bit i set when input i is not empty, bit n_in + j
        when output j is not full (schedule port order)."""
        ready = 0
        for bit, port in self._in_bits:
            if port.not_empty:
                ready |= bit
        for bit, port in self._out_bits:
            if port.not_full:
                ready |= bit
        return ready

    # -- the operation executor ------------------------------------------------------

    def _fire(self, op: _Op) -> None:
        """Execute ``op`` (the current op) and advance the stream."""
        if op.head:
            popped = {name: port.pop() for name, port in op.pops}
            pushed = self.pearl.on_sync(op.point, popped) or {}
            if pushed.keys() != op.outputs:
                raise ShellError(
                    f"pearl {self.pearl.name!r} produced {sorted(pushed)} "
                    f"at sync point {op.point}, schedule says "
                    f"{sorted(op.outputs)}"
                )
            for name, port in op.pushes:
                port.push(pushed[name])
        else:
            self.pearl.on_run(op.point, op.first_phase)
        self._running = op
        self._run_left = op.run
        index = self._op_index + 1
        if index == len(self._ops):
            index = 0
            self.periods_completed += 1
        self._op_index = index

    def _free_run(self) -> None:
        """One free-run cycle of the last fired op."""
        op = self._running
        self.pearl.on_run(op.point, op.phase_end - self._run_left)
        self._run_left -= 1

    def _tick(self, enabled: bool) -> None:
        """Account one cycle: the pearl clock fired or stalled."""
        if enabled:
            self.pearl._clocked()
            self.enabled_cycles += 1
        else:
            self.stall_cycles += 1
        if self.trace_enable is not None:
            self.trace_enable.append(enabled)

    # -- inspection -----------------------------------------------------------------------

    def utilization(self, cycles: int) -> float:
        """Fraction of system cycles in which the pearl clock fired."""
        if cycles <= 0:
            return 0.0
        return self.enabled_cycles / cycles
