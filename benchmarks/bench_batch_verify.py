"""Batch-verification engine benchmarks.

Two measurements:

* ``Simulation.run`` (the compiled system loop of
  :mod:`repro.lis.compiled`, allocation-free SP stepping) against a
  faithful replica of the seed ``Simulation.step`` loop — the
  acceptance bar is >= 1.5x on the bench_throughput-style ring
  workload;
* end-to-end ``repro verify`` throughput in cases/second, which is
  what bounds how much topology space a CI budget can cover.

The seed replica reproduces the seed's driver loop (per-cycle block
list copy, per-block attribute dispatch, watcher sweep), its shell
dispatch (`_ports` generators, mask loops over dict lookups) and its
per-cycle ``SPAction`` allocation, running on today's port/link
internals — i.e. exactly the code paths this PR replaced.
"""

from __future__ import annotations

import os
import time

from repro.core.processor import SPAction, SPState, SyncProcessor
from repro.core.schedule import IOSchedule, SyncPoint
from repro.core.wrappers import (
    CombinationalWrapper,
    FSMWrapper,
    SPWrapper,
)
from repro.lis.pearl import FunctionPearl
from repro.lis.simulator import Simulation
from repro.lis.system import System
from repro.verify import (
    BEHAVIOURAL_STYLES,
    BatchConfig,
    BatchRunner,
    CaseOutcome,
    Divergence,
    MixPearl,
    StyleRun,
    VerifyCase,
    make_cases,
    run_case,
    topology_marked_graph,
)
from repro.verify.cases import _credit_tokens, relay_peak_occupancy
from repro.verify.oracles import (
    check_cycle_exact,
    check_loop_bounds,
    check_relay_peak,
    check_stream_prefixes,
    throughput_slack,
    uniform_loop_bounds,
)

from _bench_common import write_result

N_NODES = 3
CYCLES = 15000
ROUNDS = 3
REQUIRED_SPEEDUP = 1.5


# -- faithful seed replica ------------------------------------------------------


class _SeedSyncProcessor(SyncProcessor):
    """The seed's step(): allocates one SPAction per cycle."""

    def step(self, in_ready, out_ready):
        self.cycles += 1
        state = self.state
        addr = self.addr
        if state is SPState.RESET:
            self.state = SPState.READ_OP
            return SPAction(False, 0, 0, None, state, addr)
        if state is SPState.FREE_RUN:
            self.enabled_cycles += 1
            self.run_counter -= 1
            if self.run_counter == 0:
                self.state = SPState.READ_OP
            return SPAction(True, 0, 0, None, state, addr)
        op = self.program.ops[addr]
        if not self._ready(op, in_ready, out_ready):
            self.stall_cycles += 1
            return SPAction(False, 0, 0, None, state, addr)
        self.enabled_cycles += 1
        next_addr = addr + 1
        if next_addr == len(self.program.ops):
            next_addr = 0
            self.periods_completed += 1
        self.addr = next_addr
        if op.run > 0:
            self.state = SPState.FREE_RUN
            self.run_counter = op.run
            self._running_op = op
        return SPAction(True, op.in_mask, op.out_mask, op, state, addr)


class _SeedSPWrapper(SPWrapper):
    """The seed's shell dispatch: generator ports, dict-lookup masks,
    no phase flattening."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.processor = _SeedSyncProcessor(self.program)

    def _ports(self):
        yield from self.in_ports.values()
        yield from self.out_ports.values()

    def phase_parts(self):
        return [self.produce], [self.consume], [self.commit]

    def _wrapper_step(self, cycle):
        in_ready = 0
        for bit, name in enumerate(self.pearl.schedule.inputs):
            if self.in_ports[name].not_empty:
                in_ready |= 1 << bit
        out_ready = 0
        for bit, name in enumerate(self.pearl.schedule.outputs):
            if self.out_ports[name].not_full:
                out_ready |= 1 << bit
        action = self.processor.step(in_ready, out_ready)
        if not action.enable:
            self.stall_cycles += 1
            if self.trace_enable is not None:
                self.trace_enable.append(False)
            return
        if action.op is not None:
            op = action.op
            if op.is_head:
                popped = {
                    name: self.in_ports[name].pop()
                    for bit, name in enumerate(self.pearl.schedule.inputs)
                    if op.in_mask >> bit & 1
                }
                pushed = dict(
                    self.pearl.on_sync(op.point_index, popped) or {}
                )
                for name, value in sorted(pushed.items()):
                    self.out_ports[name].push(value)
                self._phase_next = 0
            else:
                self.pearl.on_run(op.point_index, op.first_phase)
                self._phase_next = op.first_phase + 1
            self._running_point = op.point_index
        else:
            self.pearl.on_run(self._running_point, self._phase_next)
            self._phase_next += 1
        self.pearl._clocked()
        self.enabled_cycles += 1
        self.periods_completed = self.processor.periods_completed
        if self.trace_enable is not None:
            self.trace_enable.append(True)


def _seed_step_loop(system, cycles):
    """The seed driver: per-cycle list copy, attribute dispatch, and an
    (empty) watcher sweep.  Validation happens outside the timed
    region, mirroring the fast path's Simulation() construction."""
    watchers = []
    cycle = 0
    for _ in range(cycles):
        blocks = system.blocks
        for block in blocks:
            block.produce(cycle)
        for block in blocks:
            block.consume(cycle)
        for block in blocks:
            block.commit()
        for watcher in watchers:
            watcher(cycle)
        cycle += 1


def _ring(wrapper_cls):
    schedule = IOSchedule(["x"], ["y"], [SyncPoint({"x"}, {"y"})])

    def make(name):
        def fn(index, popped):
            return {"y": popped["x"]}

        return FunctionPearl(name, schedule, fn)

    system = System("ring")
    shells = [
        system.add_patient(wrapper_cls(make(f"n{i}")))
        for i in range(N_NODES)
    ]
    for i in range(N_NODES):
        system.connect(
            shells[i], "y", shells[(i + 1) % N_NODES], "x",
            initial_tokens=[0] if i == N_NODES - 1 else (),
        )
    return system, shells


def _time_pair():
    """One round: (seed loop seconds, fast path seconds), on identical
    fresh ring workloads."""
    seed_system, seed_shells = _ring(_SeedSPWrapper)
    seed_system.validate()
    started = time.perf_counter()
    _seed_step_loop(seed_system, CYCLES)
    seed_elapsed = time.perf_counter() - started

    fast_system, fast_shells = _ring(SPWrapper)
    simulation = Simulation(fast_system)
    started = time.perf_counter()
    simulation.run(CYCLES)
    fast_elapsed = time.perf_counter() - started

    # Both executions must do identical work.
    assert [s.enabled_cycles for s in seed_shells] == [
        s.enabled_cycles for s in fast_shells
    ]
    return seed_elapsed, fast_elapsed


def test_fast_path_beats_seed_step_loop(benchmark):
    rows = benchmark.pedantic(
        lambda: [_time_pair() for _ in range(ROUNDS)],
        rounds=1,
        iterations=1,
    )
    best_seed = min(seed for seed, _fast in rows)
    best_fast = min(fast for _seed, fast in rows)
    speedup = best_seed / best_fast
    assert speedup >= REQUIRED_SPEEDUP, (
        f"fast path only {speedup:.2f}x over the seed step loop"
    )

    benchmark.extra_info.update(
        cycles=CYCLES,
        seed_ms=round(best_seed * 1e3, 1),
        fast_ms=round(best_fast * 1e3, 1),
        speedup=round(speedup, 2),
    )
    lines = [
        f"Simulation.run (compiled loop) vs seed step loop "
        f"({N_NODES}-process SP ring, {CYCLES} cycles, "
        f"best of {ROUNDS})",
        "",
        f"{'variant':>12} | {'ms/run':>8} {'cycles/s':>12}",
        "-" * 38,
        f"{'seed loop':>12} | {best_seed * 1e3:>8.1f} "
        f"{CYCLES / best_seed:>12.0f}",
        f"{'fast path':>12} | {best_fast * 1e3:>8.1f} "
        f"{CYCLES / best_fast:>12.0f}",
        "",
        f"speedup: {speedup:.2f}x (required >= {REQUIRED_SPEEDUP}x)",
    ]
    write_result("batch_verify_fastpath.txt", "\n".join(lines))


def test_batch_verify_throughput(benchmark):
    config = BatchConfig(
        cases=12,
        seed=0,
        jobs=1,
        cycles=200,
        styles=BEHAVIOURAL_STYLES,
    )

    def batch():
        return BatchRunner(config).run()

    report = benchmark.pedantic(batch, rounds=1, iterations=1)
    assert report.ok, report.summary()
    rate = len(report.outcomes) / report.duration_s

    benchmark.extra_info.update(
        cases=len(report.outcomes),
        checks=report.checks,
        cases_per_s=round(rate, 1),
    )
    lines = [
        "Batch differential verification throughput "
        f"({config.cases} topologies, {config.cycles} cycles, "
        f"styles {', '.join(config.styles)})",
        "",
        f"cases/s:      {rate:.1f}",
        f"cross-checks: {report.checks}",
        f"sink tokens:  {sum(o.sink_tokens for o in report.outcomes)}",
        "",
        "Every case simulates the same random topology once per "
        "wrapper style and cross-checks sink streams, enable traces "
        "and analytic throughput bounds.",
    ]
    write_result("batch_verify_throughput.txt", "\n".join(lines))


def test_regular_traffic_verify_throughput(benchmark):
    """Regular-traffic batches run two extra styles (behavioural and
    RTL shift-register) plus the static-activation planning pass; this
    tracks their cases/second so the oracle's widest mode stays cheap
    enough for CI smoke batches."""
    config = BatchConfig(
        cases=8,
        seed=0,
        jobs=1,
        cycles=200,
        traffic="regular",
    )

    def batch():
        return BatchRunner(config).run()

    report = benchmark.pedantic(batch, rounds=1, iterations=1)
    assert report.ok, report.summary()
    rate = len(report.outcomes) / report.duration_s

    benchmark.extra_info.update(
        cases=len(report.outcomes),
        checks=report.checks,
        cases_per_s=round(rate, 1),
        styles=len(config.styles),
    )
    lines = [
        "Regular-traffic batch verification throughput "
        f"({config.cases} topologies, {config.cycles} cycles, "
        f"{len(config.styles)} styles incl. shiftreg + rtl-shiftreg)",
        "",
        f"cases/s:      {rate:.1f}",
        f"cross-checks: {report.checks}",
        f"sink tokens:  {sum(o.sink_tokens for o in report.outcomes)}",
        "",
        "Each case plans every process's static activation from the "
        "FSM reference run, then holds both shift-register styles to "
        "the same stream/trace/throughput cross-checks.",
    ]
    write_result("batch_verify_regular.txt", "\n".join(lines))


def test_dynamic_perturbed_verify_throughput(benchmark):
    """Dynamic perturbation adds stall-plan derivation, injector
    blocks on the hot simulation loop, and (in all-styles mode) one
    run per style per variant; this tracks its cases/second so the
    `--perturb-dynamic --perturb-styles all` CI smoke stays
    predictable."""
    perturb = 2
    config = BatchConfig(
        cases=8,
        seed=0,
        jobs=1,
        cycles=200,
        styles=BEHAVIOURAL_STYLES,
        perturb=perturb,
        perturb_dynamic=True,
        perturb_styles="all",
    )

    def batch():
        return BatchRunner(config).run()

    report = benchmark.pedantic(batch, rounds=1, iterations=1)
    assert report.ok, report.summary()
    rate = len(report.outcomes) / report.duration_s

    benchmark.extra_info.update(
        cases=len(report.outcomes),
        checks=report.checks,
        cases_per_s=round(rate, 1),
        perturb=perturb,
    )
    lines = [
        "Dynamic latency-perturbation verification throughput "
        f"({config.cases} topologies, {config.cycles} cycles, "
        f"{perturb} variants/case incl. mid-run stall plans, "
        "all-styles mode)",
        "",
        f"cases/s:      {rate:.1f}",
        f"cross-checks: {report.checks}",
        f"sink tokens:  {sum(o.sink_tokens for o in report.outcomes)}",
        "",
        "Each case leads its variant rotation with a dynamic variant "
        "(seeded mid-run link/relay stalls over the unchanged "
        "topology) and runs every variant under every behavioural "
        "style, with per-variant stream, throughput, relay and "
        "cycle-exact checks.",
    ]
    write_result("batch_verify_dynamic.txt", "\n".join(lines))


# -- pre-refactor run_case replica ---------------------------------------------


def _monolith_make_shell(style, node, port_depth):
    """The pre-registry style dispatch: a hardcoded if-chain."""
    pearl = MixPearl(node.name, node.schedule)
    if style == "fsm":
        return FSMWrapper(pearl, port_depth)
    if style == "sp":
        return SPWrapper(pearl, port_depth)
    if style == "combinational":
        return CombinationalWrapper(pearl, port_depth)
    raise ValueError(f"unknown verify style {style!r}")


def _monolith_build(topology, style):
    system = System(f"{topology.name}:{style}")
    shells = {}
    for node in topology.processes:
        shell = _monolith_make_shell(style, node, topology.port_depth)
        shell.trace_enable = []
        system.add_patient(shell)
        shells[node.name] = shell
    for index, channel in enumerate(topology.channels):
        system.connect(
            shells[channel.producer], channel.out_port,
            shells[channel.consumer], channel.in_port,
            latency=channel.latency,
            initial_tokens=_credit_tokens(
                topology.seed, index, channel.tokens
            ),
        )
    for source in topology.sources:
        system.connect_source(
            source.name,
            range(source.base, source.base + source.n_tokens),
            shells[source.consumer], source.in_port,
            latency=source.latency, gaps=source.gaps,
        )
    sinks = {}
    for sink in topology.sinks:
        sinks[sink.name] = system.connect_sink(
            shells[sink.producer], sink.out_port, sink.name,
            latency=sink.latency, stalls=sink.stalls,
        )
    return system, shells, sinks


def _monolith_run_case(case):
    """A faithful replica of the pre-refactor monolithic run_case:
    if-chain style dispatch plus direct inline check calls (no
    registry lookups, no oracle-object pipeline) — the baseline the
    refactored run_case must stay within 0.9x of."""
    from fractions import Fraction

    outcome = CaseOutcome(
        index=case.index, seed=case.seed,
        topology_stats=case.topology.stats(),
    )
    runs = {}
    for style in case.styles:
        try:
            system, shells, sinks = _monolith_build(
                case.topology, style
            )
            result = Simulation(system).run(
                case.cycles, deadlock_window=case.deadlock_window
            )
            run = StyleRun(
                streams={
                    name: list(sink.received)
                    for name, sink in sinks.items()
                },
                traces={
                    name: list(shell.trace_enable or [])
                    for name, shell in shells.items()
                },
                periods=dict(result.shell_periods),
                executed=result.cycles,
                relay_peak=relay_peak_occupancy(system),
                deadlocked=result.deadlocked,
            )
        except Exception as exc:
            run = StyleRun(
                streams={}, traces={}, periods={}, executed=0,
                error=f"{type(exc).__name__}: {exc}",
            )
        runs[style] = run
        outcome.cycles_executed[style] = run.executed
        if run.error is not None:
            outcome.divergences.append(
                Divergence("exception", style, "*", run.error)
            )
    reference = next(
        (s for s in case.styles if runs[s].error is None), None
    )
    if reference is not None:
        outcome.sink_tokens = sum(
            len(stream) for stream in runs[reference].streams.values()
        )
        check_stream_prefixes(runs, reference, outcome)
        check_cycle_exact(runs, outcome)
    for style, run in runs.items():
        if run.error is None:
            check_relay_peak("relay", style, run, outcome)
    graph = topology_marked_graph(case.topology)
    outcome.checks += 1
    assert abs(
        graph.throughput_enumerated() - graph.throughput_parametric()
    ) <= Fraction(1, 10**6)
    if case.topology.uniform:
        bounds = uniform_loop_bounds(case.topology, graph)
        if bounds:
            slack = throughput_slack(case.topology)
            for style, run in runs.items():
                if run.error is None:
                    check_loop_bounds(
                        "analytic", style, bounds, slack, run, outcome
                    )
    return outcome


def test_refactored_run_case_not_slower_than_monolith(benchmark):
    """The registry/oracle-pipeline run_case must deliver at least
    0.9x the plain-batch throughput of the pre-refactor monolith
    replica on identical cases (best of 3 rounds)."""
    required_ratio = 0.9
    rounds = 3
    config = BatchConfig(
        cases=10, seed=0, jobs=1, cycles=200,
        styles=BEHAVIOURAL_STYLES,
    )
    cases = make_cases(config)

    def time_pair():
        started = time.perf_counter()
        monolith = [_monolith_run_case(case) for case in cases]
        monolith_s = time.perf_counter() - started
        started = time.perf_counter()
        refactored = [run_case(case) for case in cases]
        refactored_s = time.perf_counter() - started
        # Both must verify the same work and find nothing.
        assert all(o.ok for o in monolith)
        assert all(o.ok for o in refactored)
        assert [o.sink_tokens for o in monolith] == [
            o.sink_tokens for o in refactored
        ]
        return monolith_s, refactored_s

    rows = benchmark.pedantic(
        lambda: [time_pair() for _ in range(rounds)],
        rounds=1,
        iterations=1,
    )
    best_monolith = min(m for m, _r in rows)
    best_refactored = min(r for _m, r in rows)
    ratio = best_monolith / best_refactored
    assert ratio >= required_ratio, (
        f"registry/pipeline run_case at {ratio:.2f}x of the "
        f"monolith replica (required >= {required_ratio}x)"
    )

    benchmark.extra_info.update(
        cases=len(cases),
        monolith_ms=round(best_monolith * 1e3, 1),
        refactored_ms=round(best_refactored * 1e3, 1),
        ratio=round(ratio, 2),
    )
    lines = [
        "Registry/oracle-pipeline run_case vs pre-refactor monolith "
        f"replica ({len(cases)} behavioural cases, "
        f"{config.cycles} cycles, best of {rounds})",
        "",
        f"{'variant':>12} | {'ms/batch':>9} {'cases/s':>9}",
        "-" * 36,
        f"{'monolith':>12} | {best_monolith * 1e3:>9.1f} "
        f"{len(cases) / best_monolith:>9.1f}",
        f"{'refactored':>12} | {best_refactored * 1e3:>9.1f} "
        f"{len(cases) / best_refactored:>9.1f}",
        "",
        f"throughput ratio: {ratio:.2f}x "
        f"(required >= {required_ratio}x)",
    ]
    write_result("batch_verify_refactor_guard.txt", "\n".join(lines))


def test_perturbed_verify_throughput(benchmark):
    """Latency-perturbed batches simulate each case K extra times (one
    run per derived variant, plus per-variant marked-graph analysis);
    this tracks the metamorphic oracle's cases/second so the CI smoke
    budget for `--perturb` stays predictable."""
    perturb = 3
    config = BatchConfig(
        cases=8,
        seed=0,
        jobs=1,
        cycles=200,
        styles=BEHAVIOURAL_STYLES,
        perturb=perturb,
        perturb_floorplan=True,
    )

    def batch():
        return BatchRunner(config).run()

    report = benchmark.pedantic(batch, rounds=1, iterations=1)
    assert report.ok, report.summary()
    rate = len(report.outcomes) / report.duration_s

    benchmark.extra_info.update(
        cases=len(report.outcomes),
        checks=report.checks,
        cases_per_s=round(rate, 1),
        perturb=perturb,
    )
    lines = [
        "Latency-perturbation verification throughput "
        f"({config.cases} topologies, {config.cycles} cycles, "
        f"{perturb} variants/case incl. floorplan-driven)",
        "",
        f"cases/s:      {rate:.1f}",
        f"cross-checks: {report.checks}",
        f"sink tokens:  {sum(o.sink_tokens for o in report.outcomes)}",
        "",
        "Each case derives latency-perturbed topology variants "
        "(re-segmented channels, extra feed-forward pipelining, "
        "floorplan-planned relay counts), simulates each under the "
        "reference style and checks stream invariance, per-variant "
        "marked-graph bounds and relay occupancy.",
    ]
    write_result("batch_verify_perturb.txt", "\n".join(lines))


# -- supervised-pool overhead guard --------------------------------------------


def test_supervised_pool_overhead(benchmark):
    """Supervision (pipe-per-worker channels, deadline bookkeeping,
    sentinel waits) must cost at most 10% of fault-free throughput:
    the supervised pool is required to deliver >= 0.9x the
    cases/second of a plain ``ProcessPoolExecutor.map`` fan-out on
    identical fault-free batches (best of 3 rounds)."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.verify.runner import run_cases_supervised

    required_ratio = 0.9
    rounds = 3
    jobs = 2
    config = BatchConfig(
        cases=12, seed=0, jobs=jobs, cycles=200,
        styles=BEHAVIOURAL_STYLES,
    )
    cases = make_cases(config)

    def time_pair():
        started = time.perf_counter()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            plain = list(pool.map(run_case, cases))
        plain_s = time.perf_counter() - started
        started = time.perf_counter()
        supervised = run_cases_supervised(cases, jobs=jobs, retries=0)
        supervised_s = time.perf_counter() - started
        # Identical work, identical results, nothing faulted.
        assert all(o.status == "completed" for o in supervised)
        assert [
            (o.index, o.checks, o.sink_tokens) for o in plain
        ] == [
            (o.index, o.checks, o.sink_tokens) for o in supervised
        ]
        return plain_s, supervised_s

    rows = benchmark.pedantic(
        lambda: [time_pair() for _ in range(rounds)],
        rounds=1,
        iterations=1,
    )
    best_plain = min(p for p, _s in rows)
    best_supervised = min(s for _p, s in rows)
    ratio = best_plain / best_supervised
    assert ratio >= required_ratio, (
        f"supervised pool at {ratio:.2f}x of the plain pool "
        f"(required >= {required_ratio}x)"
    )

    benchmark.extra_info.update(
        cases=len(cases),
        plain_ms=round(best_plain * 1e3, 1),
        supervised_ms=round(best_supervised * 1e3, 1),
        ratio=round(ratio, 2),
    )
    lines = [
        "Supervised worker pool vs plain ProcessPoolExecutor.map "
        f"({len(cases)} behavioural cases, {config.cycles} cycles, "
        f"jobs={jobs}, fault-free, best of {rounds})",
        "",
        f"{'variant':>12} | {'ms/batch':>9} {'cases/s':>9}",
        "-" * 36,
        f"{'plain':>12} | {best_plain * 1e3:>9.1f} "
        f"{len(cases) / best_plain:>9.1f}",
        f"{'supervised':>12} | {best_supervised * 1e3:>9.1f} "
        f"{len(cases) / best_supervised:>9.1f}",
        "",
        f"throughput ratio: {ratio:.2f}x "
        f"(required >= {required_ratio}x)",
        "",
        "Supervision buys crash isolation, per-case deadlines and "
        "retry/backoff; this guard holds its fault-free overhead "
        "under 10%.",
    ]
    write_result("batch_verify_supervised_guard.txt", "\n".join(lines))


# -- telemetry overhead guard --------------------------------------------------


def test_telemetry_overhead(benchmark, tmp_path):
    """Telemetry is liveness-only and must stay near-free: a fully
    instrumented batch (active session, rollup, JSONL event stream)
    has to deliver >= 0.95x the cases/second of the same batch with
    telemetry off (best of 3 rounds)."""
    from repro.verify import telemetry
    from repro.verify.telemetry import EventWriter, TelemetrySession

    # Quick (CI smoke) mode widens the bar: batch times on a loaded CI
    # box jitter by far more than the real probe cost, so the smoke
    # only catches structural overhead; the full run holds the 0.95x
    # acceptance bar.
    required_ratio = 0.85 if os.environ.get(
        "REPRO_BENCH_QUICK"
    ) == "1" else 0.95
    # Rounds are interleaved off/on pairs and the guard takes the
    # median of per-pair ratios — back-to-back pairing cancels the
    # slow CPU-frequency drift a min-of-rounds would trip over.
    rounds = 5
    config = BatchConfig(
        cases=12, seed=0, jobs=1, cycles=200,
        styles=BEHAVIOURAL_STYLES,
    )
    # One untimed batch warms the synthesis/elaboration caches, so the
    # first timed round measures steady state rather than cold start.
    BatchRunner(config).run()

    def time_pair(round_index):
        started = time.perf_counter()
        plain = BatchRunner(config).run()
        plain_s = time.perf_counter() - started

        session = TelemetrySession()
        session.attach_writer(
            EventWriter(
                tmp_path / f"events{round_index}.jsonl", session.t0
            )
        )
        telemetry.activate(session)
        started = time.perf_counter()
        observed = BatchRunner(config).run()
        observed_s = time.perf_counter() - started
        telemetry.deactivate()
        session.writer.close()
        # Liveness-only: identical outcomes, and the stream observed
        # the whole batch.
        assert plain.ok and observed.ok
        assert [o.sink_tokens for o in plain.outcomes] == [
            o.sink_tokens for o in observed.outcomes
        ]
        assert session.rollup.spans["case"]["count"] == config.cases
        return plain_s, observed_s

    rows = benchmark.pedantic(
        lambda: [time_pair(i) for i in range(rounds)],
        rounds=1,
        iterations=1,
    )
    from statistics import median

    best_plain = median(p for p, _o in rows)
    best_observed = median(o for _p, o in rows)
    ratio = median(p / o for p, o in rows)
    assert ratio >= required_ratio, (
        f"telemetry-on batch at {ratio:.2f}x of telemetry-off "
        f"(required >= {required_ratio}x)"
    )

    benchmark.extra_info.update(
        cases=config.cases,
        off_ms=round(best_plain * 1e3, 1),
        on_ms=round(best_observed * 1e3, 1),
        ratio=round(ratio, 2),
    )
    lines = [
        "Telemetry-instrumented batch vs telemetry-off "
        f"({config.cases} behavioural cases, {config.cycles} cycles, "
        f"rollup + JSONL event stream, median of {rounds})",
        "",
        f"{'variant':>14} | {'ms/batch':>9} {'cases/s':>9}",
        "-" * 38,
        f"{'telemetry off':>14} | {best_plain * 1e3:>9.1f} "
        f"{config.cases / best_plain:>9.1f}",
        f"{'telemetry on':>14} | {best_observed * 1e3:>9.1f} "
        f"{config.cases / best_observed:>9.1f}",
        "",
        f"throughput ratio: {ratio:.2f}x "
        f"(required >= {required_ratio}x)",
        "",
        "Probes are single-global-check no-ops when off; when on, "
        "spans/counters feed a streaming rollup and a line-flushed "
        "JSONL event stream.",
    ]
    write_result("batch_verify_telemetry_guard.txt", "\n".join(lines))
