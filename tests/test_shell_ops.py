"""The shared operation executor of :class:`repro.lis.shell.Shell`.

Every wrapper style supplies only its firing decision; the base shell
pops, calls the pearl, checks the output set, pushes and counts
free-run phases for all of them.  These tests pin the contracts that
follow from that: one pearl-fault error for every registered style,
and identical ``on_sync``/``on_run`` sequences for every style that
executes a schedule, including SP programs split into continuation
ops by a narrow run counter.
"""

from __future__ import annotations

import pytest

from repro.core.compiler import CompilerOptions, compile_schedule
from repro.core.equivalence import RTLShell
from repro.core.rtlgen import generate_fsm_wrapper, generate_sp_wrapper
from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.wrappers import FSMWrapper, SPWrapper
from repro.lis.pearl import FunctionPearl, Pearl
from repro.lis.shell import ShellError
from repro.lis.simulator import Simulation
from repro.lis.stream import bernoulli_gaps
from repro.lis.system import System
from repro.sched.generate import ProcessNode, random_schedule
from repro.verify.regular import StaticActivation
from repro.verify.styles import get_style, registered_styles

PERIODS = 4
CHUNK = 37


def _single(shell, tokens, seed=None):
    """``shell`` fed from one source per input (gapped when ``seed`` is
    given) and drained by one always-accepting sink per output."""
    system = System(f"single:{shell.style}")
    system.add_patient(shell)
    schedule = shell.pearl.schedule
    for index, port in enumerate(schedule.inputs):
        gaps = None
        if seed is not None:
            gaps = bernoulli_gaps(0.6, 31, seed + index)
        system.connect_source(
            f"src_{port}", tokens[port], shell, port, gaps=gaps
        )
    for port in schedule.outputs:
        system.connect_sink(shell, port, f"snk_{port}")
    return system


class TestPearlFaultContract:
    """A pearl that pushes the wrong output set is a ShellError naming
    the pearl and the sync point, whatever the wrapper style."""

    SCHEDULE = IOSchedule(
        ["x"], ["y"],
        [SyncPoint({"x"}, {"y"}), SyncPoint({"x"}, set(), run=2)],
    )

    @pytest.mark.parametrize("style", registered_styles())
    def test_wrong_output_set_raises_shell_error(self, style):
        # Pushes y at every point; the schedule's point 1 pushes nothing.
        pearl = FunctionPearl("bad", self.SCHEDULE, lambda i, p: {"y": 0})
        node = ProcessNode("bad", self.SCHEDULE, uniform=False)
        period = self.SCHEDULE.period_cycles
        activation = StaticActivation(
            prefix=(False,) * 3, pattern=(True,) * period
        )
        shell = get_style(style).build(
            pearl, node, port_depth=2, activation=activation
        )
        system = _single(shell, {"x": range(20)})
        with pytest.raises(ShellError, match=r"pearl 'bad' .* sync point 1"):
            Simulation(system).run(50)


class _Recorder(Pearl):
    """Logs every on_sync index and on_run (index, phase)."""

    def __init__(self, name, schedule):
        super().__init__(name, schedule)
        self.log = []

    def on_sync(self, index, popped):
        self.log.append(("sync", index))
        return dict.fromkeys(self.schedule.points[index].outputs, index)

    def on_run(self, index, phase):
        self.log.append(("run", index, phase))


def _long_run_schedule(seed: int) -> IOSchedule:
    """A random schedule with long free runs whose point 0 pops i0, so
    a run fed ``PERIODS`` periods of tokens ends parked at point 0."""
    schedule = random_schedule(seed, max_ports=3, max_points=5, max_run=40)
    first, *rest = schedule.points
    first = SyncPoint(first.inputs | {"i0"}, first.outputs, first.run)
    return IOSchedule(schedule.inputs, schedule.outputs, [first, *rest])


def _expected_log(schedule: IOSchedule) -> list:
    log = []
    for _ in range(PERIODS):
        for index, point in enumerate(schedule.points):
            log.append(("sync", index))
            log += [("run", index, phase) for phase in range(point.run)]
    return log


class TestFreeRunPhaseParity:
    """fsm, sp (auto run counter and a 1-bit one, which splits every
    free run longer than 1 into continuation ops), rtl-sp on both
    programs and rtl-fsm drive the pearl through the same calls."""

    @pytest.mark.parametrize("seed", range(10))
    def test_on_run_and_on_sync_sequences_match(self, seed):
        schedule = _long_run_schedule(seed)
        narrow = CompilerOptions(run_width=1, fuse=False)
        programs = {
            "auto": compile_schedule(schedule, CompilerOptions(fuse=False)),
            "narrow": compile_schedule(schedule, narrow),
        }
        assert any(not op.is_head for op in programs["narrow"].ops) == any(
            point.run > 1 for point in schedule.points
        )
        makers = {
            "fsm": lambda p: FSMWrapper(p),
            "sp": lambda p: SPWrapper(p),
            "sp-narrow": lambda p: SPWrapper(
                p, options=CompilerOptions(run_width=1)
            ),
            "rtl-fsm": lambda p: RTLShell(p, generate_fsm_wrapper(schedule)),
        }
        for label, program in programs.items():
            module = generate_sp_wrapper(program, schedule=schedule)
            makers[f"rtl-sp-{label}"] = (
                lambda p, m=module, prog=program: RTLShell(p, m, program=prog)
            )
        tokens = {
            port: range(
                PERIODS
                * sum(port in point.inputs for point in schedule.points)
            )
            for port in schedule.inputs
        }
        expected = _expected_log(schedule)
        chunks = PERIODS * 3 * schedule.period_cycles // CHUNK + 10
        for label, make in makers.items():
            pearl = _Recorder("rec", schedule)
            shell = make(pearl)
            simulation = Simulation(_single(shell, tokens, seed=seed))
            for _ in range(chunks):
                simulation.run(CHUNK)
                if isinstance(shell, SPWrapper):
                    assert shell._op_index == shell.processor.addr, label
            assert pearl.log == expected, label
            assert shell.periods_completed == PERIODS, label

    def test_narrow_counter_splits_runs(self):
        """The parity seeds do exercise continuation ops."""
        narrow = CompilerOptions(run_width=1, fuse=False)
        assert any(
            not op.is_head
            for seed in range(10)
            for op in compile_schedule(_long_run_schedule(seed), narrow).ops
        )
