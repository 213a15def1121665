"""Parity of the compiled system loop against the ``step()`` reference.

``Simulation.run`` without watchers executes the generated cycle loop
of :mod:`repro.lis.compiled`; with a watcher attached it steps the
object phases one cycle at a time.  Every test here builds two fresh,
identical systems, runs one each way and demands the same results,
sink streams, enable traces and the same state in every block: port
FIFOs and counters, relay buffers and occupancy telemetry, endpoint
counters and arrival cycles, stall-injector counts, link wires, pearl
state and, for RTL-in-the-loop shells, every net of the wrapper RTL
peeked after the run (the compiled engine settles those lazily).
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.wrappers import FSMWrapper, ShiftRegisterWrapper
from repro.core.equivalence import RTLShell
from repro.lis.compiled import (
    SYSTEM_CACHE_MAX,
    compile_system,
    system_cache_stats,
)
from repro.lis.pearl import FunctionPearl
from repro.lis.signals import VOID, Block
from repro.lis.simulator import Simulation
from repro.lis.stall import LinkStall, apply_stall_plan
from repro.lis.stream import bernoulli_gaps, burst_gaps
from repro.lis.system import System
from repro.sched.generate import (
    PROFILE_PRESETS,
    derive_variants,
    random_topology,
)
from repro.verify.cases import build_system, simulate_topology
from repro.verify.regular import plan_topology_activations
from repro.verify.styles import registered_styles, styles_for_traffic

TOPOLOGIES = 20
CYCLES = 300
WINDOW = 64


def _simple(value) -> bool:
    return value is VOID or isinstance(
        value, (bool, int, float, str, list, tuple, deque, type(None))
    )


def _state(obj) -> dict:
    """Every plain-data attribute of ``obj`` (containers as lists)."""
    return {
        name: repr(list(value) if isinstance(value, deque) else value)
        for name, value in vars(obj).items()
        if _simple(value)
    }


def _snapshot(system: System) -> dict:
    """The complete observable state of a system after a run."""
    snap = {}
    for block in system.blocks:
        snap[block.name] = _state(block)
        ports = getattr(block, "_ports", None)
        if ports is not None:
            for port in ports():
                snap[port.name] = _state(port)
            snap[f"{block.name}.pearl"] = _state(block.pearl)
        if isinstance(block, RTLShell):
            rtl = block.rtl
            snap[f"{block.name}.rtl"] = {
                name: rtl.peek_flat(name) for name in rtl.flat_names()
            } | {"cycle": rtl.cycle}
    for link in system.links:
        snap[link.name] = (repr(link.data.value), link.stop.stop)
    return snap


def _run(system: System, reference: bool, cycles: int, window):
    simulation = Simulation(system)
    if reference:
        simulation.add_watcher(lambda cycle: None)
    before = system_cache_stats()["fallbacks"]
    result = simulation.run(cycles, deadlock_window=window)
    fallbacks = system_cache_stats()["fallbacks"] - before
    assert fallbacks == int(reference), "wrong execution path"
    assert simulation.cycle == result.cycles
    return result


def _assert_parity(make, cycles=CYCLES, window=WINDOW):
    """Build twice with ``make()``, run compiled vs reference, compare."""
    compiled_system = make()
    reference_system = make()
    compiled = _run(compiled_system, False, cycles, window)
    reference = _run(reference_system, True, cycles, window)
    assert compiled == reference
    assert _snapshot(compiled_system) == _snapshot(reference_system)
    return compiled


def _topologies(traffic: str):
    profile = PROFILE_PRESETS["regular" if traffic == "regular" else "small"]
    return [random_topology(seed, profile) for seed in range(TOPOLOGIES)]


def _activations(topology, stalls=()):
    reference = simulate_topology(
        topology, "fsm", CYCLES, WINDOW, trace=True, stalls=stalls
    )
    assert reference.error is None
    return plan_topology_activations(
        topology, CYCLES, WINDOW, reference_traces=reference.traces
    )


def _maker(topology, style, engine=None, stalls=(), activations=None):
    def make():
        system, _shells, _sinks = build_system(
            topology, style, trace=True, engine=engine,
            activations=activations,
        )
        if stalls:
            apply_stall_plan(system, stalls)
        return system

    return make


class TestStyleParity:
    @pytest.mark.parametrize("traffic", ["random", "regular"])
    def test_every_style_on_seeded_topologies(self, traffic):
        styles = styles_for_traffic(traffic)
        progressed = 0
        for topology in _topologies(traffic):
            activations = (
                _activations(topology) if traffic == "regular" else None
            )
            for style in styles:
                result = _assert_parity(
                    _maker(topology, style, activations=activations)
                )
                progressed += sum(result.sink_tokens.values()) > 0
        assert progressed > len(styles) * TOPOLOGIES // 2

    def test_registry_is_covered(self):
        covered = set(styles_for_traffic("random"))
        covered |= set(styles_for_traffic("regular"))
        assert covered == set(registered_styles())

    @pytest.mark.parametrize("traffic", ["random", "regular"])
    def test_dynamic_stall_variants(self, traffic):
        stalled = 0
        for topology in _topologies(traffic)[:10]:
            (variant,) = derive_variants(
                topology, 1, seed=topology.seed, dynamic=True,
                horizon=CYCLES,
            )
            assert variant.stalls
            activations = (
                _activations(variant.topology, variant.stalls)
                if traffic == "regular"
                else None
            )
            for style in styles_for_traffic(traffic):
                system = _maker(
                    variant.topology, style, stalls=variant.stalls,
                    activations=activations,
                )
                _assert_parity(system)
                stalled += 1
        assert stalled

    def test_interp_engine_rtl_shells(self):
        for topology in _topologies("regular")[:4]:
            activations = _activations(topology)
            for style in ("rtl-sp", "rtl-fsm", "rtl-shiftreg"):
                _assert_parity(
                    _maker(
                        topology, style, engine="interp",
                        activations=activations,
                    ),
                    cycles=120,
                )

    def test_no_deadlock_window_and_resumed_runs(self):
        topology = _topologies("random")[3]
        _assert_parity(_maker(topology, "rtl-sp"), window=None)
        # A second run continues from the state the first left behind.
        for reference in (False, True):
            system = _maker(topology, "sp")()
            simulation = Simulation(system)
            if reference:
                simulation.add_watcher(lambda cycle: None)
            simulation.step(7)
            simulation.run(50)
            simulation.run(60, deadlock_window=5)
            if reference:
                snap_reference = _snapshot(system)
            else:
                snap_compiled = _snapshot(system)
        assert snap_compiled == snap_reference


def _pass_pearl(name: str, schedule: IOSchedule) -> FunctionPearl:
    return FunctionPearl(
        name, schedule, lambda index, popped: {"y": popped["x"]}
    )


def _endpoint_system(wrapper=FSMWrapper) -> System:
    """Jittery source, limited and stalling sink, relay stations and a
    reset marking: every endpoint option the generator never draws."""
    schedule = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"}, run=1)])
    system = System("endpoints")
    a = system.add_patient(wrapper(_pass_pearl("a", schedule)))
    b = system.add_patient(wrapper(_pass_pearl("b", schedule)))
    system.connect_source(
        "src", range(40), a, "x", latency=3,
        gaps=bernoulli_gaps(0.6, 11, seed=3),
    )
    system.connect(a, "y", b, "x", latency=2, initial_tokens=[99])
    system.connect_sink(
        b, "y", "snk", latency=2, stalls=burst_gaps(3, 2), limit=17
    )
    apply_stall_plan(
        system,
        [LinkStall("a.y->b.x.seg1", 20, 6), LinkStall("src->a.x", 5, 3)],
    )
    return system


class TestEndpointsAndFallback:
    def test_endpoint_options(self):
        result = _assert_parity(_endpoint_system, cycles=200)
        assert result.sink_tokens["snk"] == 17

    def test_exception_propagates_at_the_same_cycle(self):
        # A shift-register wrapper firing on an empty input raises.
        def make():
            schedule = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])
            system = System("blind")
            shell = system.add_patient(
                ShiftRegisterWrapper(_pass_pearl("p", schedule))
            )
            system.connect_source(
                "src", range(5), shell, "x", gaps=burst_gaps(1, 3)
            )
            system.connect_sink(shell, "y", "snk")
            return system

        errors = []
        for reference in (False, True):
            simulation = Simulation(make())
            if reference:
                simulation.add_watcher(lambda cycle: None)
            with pytest.raises(Exception) as info:
                simulation.run(50)
            errors.append((str(info.value), simulation.cycle))
        assert errors[0] == errors[1]

    def test_unknown_block_falls_back_to_step(self):
        class Probe(Block):
            def __init__(self):
                super().__init__("probe")
                self.seen = 0

            def produce(self, cycle):
                self.seen += 1

            def consume(self, cycle):
                pass

            def commit(self):
                pass

            def reset(self):
                self.seen = 0

        system = _endpoint_system()
        system.add_instrument(Probe())
        assert compile_system(system.blocks) is None
        before = system_cache_stats()["fallbacks"]
        result = Simulation(system).run(30)
        assert system_cache_stats()["fallbacks"] == before + 1
        assert result.cycles == 30
        assert system.instruments[-1].seen == 30

    def test_styles_of_one_topology_share_one_code_object(self):
        topology = random_topology(11)
        before = system_cache_stats()
        sources = {
            compile_system(build_system(topology, style)[0].blocks).source
            for style in styles_for_traffic("random")
        }
        after = system_cache_stats()
        assert len(sources) == 1
        assert after["misses"] - before["misses"] <= 1
        assert after["hits"] - before["hits"] >= 4
        assert SYSTEM_CACHE_MAX >= 2


class TestRtlLazySettle:
    def test_peek_after_run_matches_interp(self):
        """Compiled RTL shells defer the settle after each cycle; a
        peek after the run must see the settled values the interp
        engine computes eagerly."""
        topology = _topologies("random")[5]
        peeks = []
        for engine in ("compiled", "interp"):
            system, shells, _ = build_system(
                topology, "rtl-fsm", engine=engine
            )
            Simulation(system).run(90)
            peeks.append(
                {
                    name: {
                        net: shell.rtl.peek(net)
                        for net in ("ip_enable", *shell.rtl.interface[1])
                    }
                    for name, shell in shells.items()
                }
            )
        assert peeks[0] == peeks[1]
