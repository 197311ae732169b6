"""Host-speed calibration: a fixed kernel timed next to the workload.

The reference box is a shared 2-core VM that runs the same Python work up
to 2x slower for minutes at a time (stolen time slices plus the cold
caches they leave behind).  No estimator over raw walls is steady under
that, so every measured process interleaves short bursts of a fixed
kernel with its rounds and divides its host times by the slowdown the
bursts saw.  The kernel is deliberately shaped like the simulator's inner
loop (heap pushes and pops, dict probes, small tuple
allocation, sha256), because a pure arithmetic loop slows far less than
the simulator does when the host is busy.

It shares no code with ``src/repro``, but it is not independent of it: the
bursts run in the measured process right after a round, on the caches and
allocator state the round left behind (which is why a burst turns the
collector off).  A simulator change that grows the heap or the cache
footprint can slow the bursts too, raise the slowdown and so divide away
part of its own regression.  ``host.slowdown`` and
``host.round_wall_ms_raw_p50`` are reported, and printed by ``compare``
beside every calibrated verdict, so that this shows.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import statistics
import time

#: Seconds one burst takes on the reference box when it is quiet.  Only a
#: scale: calibrated times read like raw times measured on a quiet box.
REFERENCE_BURST_S = 0.015

_TABLE_MASK = (1 << 13) - 1
_BURST_STEPS = 12000


class Calibrator:
    """Owns the kernel's table; ``burst()`` runs it once and times it."""

    def __init__(self) -> None:
        self._table = {i: (b"x" * 32, i, str(i)) for i in range(_TABLE_MASK + 1)}

    def burst(self) -> float:
        """Seconds one pass of the kernel took."""
        table, heap = self._table, []
        push, pop, sha = heapq.heappush, heapq.heappop, hashlib.sha256
        # A collection inside the burst would scan the workload's heap and
        # tie the kernel's time to the simulator's memory use.
        collecting = gc.isenabled()
        gc.disable()
        began = time.perf_counter()
        for i in range(_BURST_STEPS):
            key = (i * 2654435761) & _TABLE_MASK
            item = table[key]
            push(heap, (float(key % 1000) + i * 1e-6, i, item))
            if len(heap) > 256:
                pop(heap)
            if not i & 7:
                table[key] = (sha(repr(item).encode()).digest(), i, item[2])
        elapsed = time.perf_counter() - began
        if collecting:
            gc.enable()
        return elapsed


def slowdown(bursts: list[float]) -> float:
    """How much slower than the quiet reference the host ran while these
    bursts were taken (1.0 = as fast as the reference)."""
    return statistics.fmean(bursts) / REFERENCE_BURST_S
