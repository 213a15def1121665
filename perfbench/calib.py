"""Reference-slice calibration: host seconds to reference seconds.

The host this benchmark runs on drifts: a fixed pure-Python loop's
median can move by half again across windows of a few seconds, with
no steal time and with process CPU time equal to wall time, so neither
CPU-time metrics nor more repetitions remove it.  So every host-time
measurement is taken next to a fixed *reference slice* and rescaled by
``NOMINAL_SLICE_S / measured slice``: one reference second is the time
in which the host runs ``1 / NOMINAL_SLICE_S`` reference slices.

The slice imports nothing from the program under test and allocates
no GC-tracked objects (only small ints and one float), so no program
change and no heap growth can move it.  This module is stdlib-only.
"""

from __future__ import annotations

import time

#: Loop iterations of one reference slice.
SLICE_ITERS = 30_000
#: The slice's nominal duration: what defines one reference second.
NOMINAL_SLICE_S = 6.0e-3


def reference_slice(iters: int = SLICE_ITERS) -> float:
    """Run the fixed reference loop once; return its host seconds."""
    start = time.perf_counter()
    x = 1
    i = iters
    while i:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        i -= 1
    return time.perf_counter() - start


def rescale(host_s: float, slice_s: float) -> float:
    """Host seconds measured beside a slice of ``slice_s`` host seconds,
    in reference seconds."""
    return host_s * NOMINAL_SLICE_S / slice_s


def adjacent_slice(slices: list[float], index: int) -> float:
    """The calibrating slice time of the ``index``-th timed interval,
    which ran between ``slices[index]`` and ``slices[index + 1]``.

    Only the two adjacent slices count: host speed changes within a
    few hundred milliseconds, so wider windows calibrate worse."""
    return (slices[index] + slices[index + 1]) / 2


def rescale_intervals(
    host_s: list[float], slices: list[float]
) -> list[float]:
    """Rescale consecutive intervals, each bracketed by slices
    (``len(slices) == len(host_s) + 1``), to reference seconds."""
    if len(slices) != len(host_s) + 1:
        raise ValueError("need one slice before and after each interval")
    return [
        rescale(t, adjacent_slice(slices, i)) for i, t in enumerate(host_s)
    ]
