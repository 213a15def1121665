"""Compiled system loop: lower a built LIS system to one Python function.

:meth:`Simulation.step <repro.lis.simulator.Simulation.step>` calls
every block's ``produce``, ``consume`` and ``commit`` through bound
methods, and every port, relay station and stream endpoint reads its
wires through attribute chains.  :func:`compile_system` instead emits
the whole cycle loop of one system as straight-line source, the way
:mod:`repro.rtl.compile_sim` does for wrapper RTL:

* the produce phases of input/output ports, relay stations, sources,
  sinks and stall injectors are inlined, with every link wire a local
  variable;
* the consume phase is each shell's ``_wrapper_step(cycle)``, called
  in block order; the ports', relays' and endpoints' own consume
  decisions are folded into their commits (they read only wires and
  registered state, which nothing changes between the two phases);
* per-cycle transients (``_arrived``, ``_pop_head``, ``_sent_head``,
  wire values) are locals; every persistent counter is loaded into a
  local when the run starts and stored back when it ends, also when a
  shell raises, so the blocks hold exactly the state the
  ``step()`` reference leaves behind;
* the deadlock window is checked inline.

The generated function takes the block objects as an argument, so its
source depends only on the system's structure (block kinds and order,
wiring, port depths, endpoint patterns) and every wrapper style of
one topology shares a single compiled code object.  Random topologies
never repeat across cases, so the cache keeps only
:data:`SYSTEM_CACHE_MAX` entries.

A system holding a block this module cannot lower (an unknown block
type, or a shell that overrides a whole phase) is not compiled:
:func:`compile_system` returns None and the simulator runs the
``step()`` reference instead, which :func:`system_cache_stats` counts
as a ``fallbacks``.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Sequence

from .port import InputPort, OutputPort
from .relay_station import RELAY_CAPACITY, RelayStation
from .shell import Shell
from .signals import VOID, Block
from .stall import StallInjector
from .stream import Sink, Source

#: Compiled loops kept per process (one topology's styles share one).
SYSTEM_CACHE_MAX = 2

_CACHE: OrderedDict[str, Callable] = OrderedDict()
_STATS: dict[str, float] = {
    "hits": 0, "misses": 0, "compile_ms": 0.0, "fallbacks": 0,
}


def system_cache_stats() -> dict[str, float]:
    """Snapshot of the system-compile counters: ``hits`` / ``misses``
    (code-cache consults), ``compile_ms`` (time compiling missed
    sources) and ``fallbacks`` (runs that took the ``step()`` path:
    watchers attached, or a system :func:`compile_system` cannot
    lower).  Cumulative per process."""
    return dict(_STATS)


def count_fallback() -> None:
    """Record one run on the ``step()`` path."""
    _STATS["fallbacks"] += 1


class _Lowering:
    """Source fragments for one system, in block order.

    Every object, container and counter the loop touches arrives as a
    parameter of the generated function (so its body holds no load
    statements, which would double its compile time); ``loads`` says
    where each parameter's value is read when a run starts, ``stores``
    where each mutable local is written back when it ends.
    """

    def __init__(self) -> None:
        self.params: list[str] = []
        self.loads: list[tuple[object, str | None]] = []
        self.stored: list[str] = []
        self.stores: list[tuple[object, str]] = []
        self.produce: list[str] = []
        self.consume: list[str] = []
        self.commit: list[str] = []
        self.shells: list[str] = []
        self._wires: dict[int, str] = {}

    def param(self, name: str, obj: object, attr: str | None = None) -> str:
        """Parameter ``name``: ``obj`` itself, or its ``attr`` as read
        when the run starts."""
        self.params.append(name)
        self.loads.append((obj, attr))
        return name

    def state(self, name: str, obj: object, attr: str) -> str:
        """A local mirroring ``obj.attr`` for the run, stored back
        when it ends."""
        self.stored.append(self.param(name, obj, attr))
        self.stores.append((obj, attr))
        return name

    def wire(self, wire, attr: str) -> str:
        """The local holding one link wire (``value`` or ``stop``)."""
        name = self._wires.get(id(wire))
        if name is None:
            name = self._wires[id(wire)] = f"w{len(self._wires)}"
            self.state(name, wire, attr)
        return name

    # -- blocks ---------------------------------------------------------

    def input_port(self, k: str, port: InputPort) -> None:
        data = self.wire(port._data, "value")
        stop = self.wire(port._stop, "stop")
        self.param(k, port)
        self.param(f"{k}f", port, "_fifo")
        received = self.state(f"{k}r", port, "tokens_received")
        stalls = self.state(f"{k}s", port, "stall_cycles")
        depth = port.depth
        self.produce.append(f"{stop} = len({k}f) >= {depth}")
        # A token arriving this cycle is appended before the wrapper's
        # pops are applied: popleft and append commute.
        self.commit += [
            f"if len({k}f) < {depth}:",
            f"    if {data} is not VOID: {k}f.append({data}); {received} += 1",
            f"else: {stalls} += 1",
            f"if {k}._popped:",
            f"    for _ in range({k}._popped): {k}f.popleft()",
            f"    {k}._popped = 0",
        ]

    def output_port(self, k: str, port: OutputPort) -> None:
        data = self.wire(port._data, "value")
        stop = self.wire(port._stop, "stop")
        self.param(f"{k}f", port, "_fifo")
        self.param(f"{k}p", port, "_pushed")
        sent = self.state(f"{k}t", port, "tokens_sent")
        stalls = self.state(f"{k}s", port, "stall_cycles")
        self.produce.append(f"{data} = {k}f[0] if {k}f else VOID")
        self.commit += [
            f"if {k}f:",
            f"    if {stop}: {stalls} += 1",
            f"    else: {k}f.popleft(); {sent} += 1",
            f"if {k}p: {k}f.extend({k}p); {k}p.clear()",
        ]

    def relay(self, k: str, station: RelayStation) -> None:
        up = self.wire(station._up_data, "value")
        up_stop = self.wire(station._up_stop, "stop")
        down = self.wire(station._down_data, "value")
        down_stop = self.wire(station._down_stop, "stop")
        buffer = self.param(f"{k}b", station, "_buffer")
        sent = self.state(f"{k}t", station, "tokens_forwarded")
        full = self.state(f"{k}u", station, "full_cycles")
        peak = self.state(f"{k}m", station, "max_occupancy")
        cap = RELAY_CAPACITY
        self.produce += [
            f"{down} = {buffer}[0] if {buffer} else VOID",
            f"{up_stop} = len({buffer}) >= {cap}",
        ]
        self.commit += [
            f"n = a = len({buffer})",
            f"if a and not {down_stop}: "
            f"{buffer}.popleft(); {sent} += 1; n -= 1",
            f"if {up} is not VOID and a < {cap}: "
            f"{buffer}.append({up}); n += 1",
            f"if n >= {cap}: {full} += 1",
            f"if n > {peak}: {peak} = n",
        ]

    def source(self, k: str, source: Source) -> None:
        data = self.wire(source._data, "value")
        stop = self.wire(source._stop, "stop")
        tokens = self.param(f"{k}i", source, "_iter")
        gaps = self.param(f"{k}g", source, "_gaps")
        pending = self.state(f"{k}p", source, "_pending")
        sent = self.state(f"{k}t", source, "tokens_sent")
        blocked = self.state(f"{k}k", source, "blocked_cycles")
        offer = (
            pending
            if source._gaps == [True]
            else f"{pending} if {gaps}[c % {len(source._gaps)}] else VOID"
        )
        self.produce += [
            f"if {pending} is VOID: {pending} = next({tokens}, VOID)",
            f"{data} = {offer}",
        ]
        self.commit += [
            f"if {data} is not VOID:",
            f"    if {stop}: {blocked} += 1",
            f"    else: {pending} = VOID; {sent} += 1",
        ]

    def sink(self, k: str, sink: Sink) -> None:
        data = self.wire(sink._data, "value")
        stop = self.wire(sink._stop, "stop")
        received = self.param(f"{k}r", sink, "received")
        accepts = self.param(f"{k}a", sink, "_accepts")
        first = self.state(f"{k}f", sink, "first_arrival_cycle")
        last = self.state(f"{k}l", sink, "last_arrival_cycle")
        accepting = f"{accepts}[c % {len(sink._accepts)}]"
        if sink._accepts == [True]:
            accepting = "True"
        if sink._limit is not None:
            accepting = f"{accepting} and len({received}) < {sink._limit}"
        self.produce.append(
            f"{stop} = False"
            if accepting == "True"
            else f"{stop} = not ({accepting})"
        )
        self.commit += [
            f"if {data} is not VOID and not {stop}:",
            f"    {received}.append({data}); {last} = c",
            f"    if {first} is None: {first} = c",
        ]

    def stall(self, k: str, injector: StallInjector) -> None:
        data = self.wire(injector._data, "value")
        stop = self.wire(injector._stop, "stop")
        cycles = self.param(f"{k}c", injector, "_cycles")
        stalled = self.state(f"{k}s", injector, "stalled_cycles")
        self.produce += [
            f"if c in {cycles}:",
            f"    {data} = VOID; {stop} = True; {stalled} += 1",
        ]

    def shell(self, k: str, shell: Shell) -> bool:
        cls = type(shell)
        if (
            cls.produce is not Shell.produce
            or cls.consume is not Shell.consume
            or cls.commit is not Shell.commit
        ):
            return False
        for index, port in enumerate(shell._ports()):
            lower = _PORTS.get(type(port))
            if lower is None:
                return False
            lower(self, f"{k}_{index}", port)
        self.param(k, shell)
        step = self.param(f"{k}w", shell, "_wrapper_step")
        self.consume.append(f"{step}(c)")
        self.shells.append(k)
        return True

    def block(self, index: int, block: Block) -> bool:
        k = f"b{index}"
        if isinstance(block, Shell):
            return self.shell(k, block)
        lower = _BLOCKS.get(type(block))
        if lower is None:
            return False
        lower(self, k, block)
        return True

    def source_text(self) -> str:
        enabled = " + ".join(f"{k}.enabled_cycles" for k in self.shells)
        enabled = enabled or "0"
        body = self.produce + self.consume + self.commit
        return "\n".join(
            [
                f"def run(cycles, window, out, c, {', '.join(self.params)}):",
                "    end = c + cycles",
                "    deadlocked = False",
                f"    last = {enabled}",
                "    quiet = 0",
                "    try:",
                "        while c < end:",
                *("            " + line for line in body),
                "            c += 1",
                "            if window is not None:",
                f"                total = {enabled}",
                "                quiet = 0 if total != last else quiet + 1",
                "                last = total",
                "                if quiet >= window:",
                "                    deadlocked = True",
                "                    break",
                "    finally:",
                f"        out[:] = (c, {', '.join(self.stored)})",
                "    return deadlocked",
                "",
            ]
        )


_PORTS = {
    InputPort: _Lowering.input_port,
    OutputPort: _Lowering.output_port,
}
_BLOCKS = {
    RelayStation: _Lowering.relay,
    Source: _Lowering.source,
    Sink: _Lowering.sink,
    StallInjector: _Lowering.stall,
}


def compile_system(
    blocks: Sequence[Block],
) -> Callable[..., bool] | None:
    """Lower ``blocks`` (a simulation's frozen block order) to one
    cycle loop; None when some block cannot be lowered.

    The result is ``run(sim, cycles, window) -> deadlocked``: it
    advances ``sim.cycle`` by the cycles it executed, stopping early
    once no shell fired for ``window`` consecutive cycles (``None``:
    never).
    """
    lowering = _Lowering()
    for index, block in enumerate(blocks):
        if not lowering.block(index, block):
            return None
    source = lowering.source_text()
    run = _CACHE.get(source)
    if run is None:
        _STATS["misses"] += 1
        started = time.perf_counter()
        namespace = {"VOID": VOID}
        exec(compile(source, "<compiled-lis>", "exec"), namespace)
        run = namespace["run"]
        _STATS["compile_ms"] += (time.perf_counter() - started) * 1e3
        _CACHE[source] = run
        if len(_CACHE) > SYSTEM_CACHE_MAX:
            _CACHE.popitem(last=False)
    else:
        _STATS["hits"] += 1
        _CACHE.move_to_end(source)
    loads = lowering.loads
    stores = lowering.stores

    def bound(sim, cycles: int, window: int | None) -> bool:
        out: list = []
        try:
            return run(
                cycles, window, out, sim.cycle,
                *[
                    obj if attr is None else getattr(obj, attr)
                    for obj, attr in loads
                ],
            )
        finally:
            if out:
                sim.cycle = out[0]
                for (obj, attr), value in zip(stores, out[1:]):
                    setattr(obj, attr, value)

    bound.source = source
    return bound
