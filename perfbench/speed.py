"""Timings scaled to a reference CPU speed.

The benchmark runs on shared virtual machines whose CPU speed flips between
states up to 1.9 times apart, from one stretch of seconds to the next. Run
medians of plain wall-clock time then depend on how much of a run fell into
each state (20-second medians of ``explore_mixed`` item latency spread 40%
over six minutes on a 2-vCPU VM), so no run length makes them steady.

Right after every measured item the benchmark therefore times ``probe``, a
fixed reference workload of the kind that dominates timeclaw's CPU time (a
Python loop of numpy reductions over a short series, as in series
profiling), and scales the item's process CPU time by ``REF_S / probe
time``. The ratio of an item's time to a probe run next to it hardly moves
when the machine changes state: over four minutes, its 20-second medians
spread 1.9% on ``explore_mixed`` and 2.6% on ``infer_store``, where plain
latency spread 29% and 12%. A timing is reported as it would read on a
machine where one probe takes ``REF_S``. Modelled backend waits (a sleep) do
not depend on CPU speed; they are added unscaled.

Wall time the process spends neither on a CPU nor in the modelled wait is
left out of the timings and reported as ``blocked_s``: waiting for the disk,
mostly file writes the kernel holds back while other tenants load the shared
disk, or for a CPU the hypervisor has given to another tenant. With a writer
calling fsync on the same disk, the blocked time
of ``explore_mixed``'s slowest tenth of episodes rose from 6 to 35 ms while
their CPU time stayed at 33 ms, and a set of ten runs that counted it spread
``item_p90_ms`` 27%. The price is that a change making timeclaw block more
(an fsync, say) shows in the blocked share, not in the timings.

The probe is the benchmark's own code, so a change to timeclaw cannot change
the probe's work; the collector is paused while it runs so that the
program's heap does not add collection time to it. What the item before it
left in the caches makes a probe about 5% slower than a second probe right
after it, so a change to the program's cache footprint moves its scaled
timings by a few percent at most. A program that left threads or processes
running between items would slow the probe and be flattered; timeclaw at
``--parallel 1`` does not.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Nominal probe time: a probe that takes REF_S leaves a timing unchanged.
# About the median probe time on a 2-vCPU Intel Xeon VM at 2.0 GHz.
REF_S = 0.003

_SERIES = np.sin(np.arange(120) * (2 * np.pi / 24)) + np.arange(120) / 60.0


def _reference_work() -> None:
    for _ in range(4):
        for lag in range(2, 14):
            a, b = _SERIES[:-lag], _SERIES[lag:]
            float(np.mean((a - a.mean()) * (b - b.mean())) / (np.std(a) * np.std(b)))


def probe() -> float:
    """Seconds one run of the reference workload takes, collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def warm_up(runs: int = 20) -> None:
    for _ in range(runs):
        probe()


@dataclass
class Meter:
    """Times a block of work at reference speed, probing after each item.

    ``start`` and ``stop`` bracket the block; ``wrap`` times each item and
    probes after it. Every stretch of time between two probes (an item and
    the gap before it; the tail of the block up to ``stop``'s probe) counts
    as its process CPU time scaled by the factor of the probe that ends it,
    plus the backend wait in it, which ``waited`` returns (seconds so far)
    and which is not scaled. The rest of the wall time, when the process
    was neither on a CPU nor in the backend wait, is ``blocked_s``.
    """

    waited: Callable[[], float] = lambda: 0.0
    raw: list[float] = field(default_factory=list)  # wall-clock item latencies
    cpus: list[float] = field(default_factory=list)  # CPU time of each item
    waits: list[float] = field(default_factory=list)  # backend wait within each item
    factors: list[float] = field(default_factory=list)  # REF_S / the probe after each item
    wall_s: float = 0.0  # the block's wall-clock time, probes excluded
    scaled_s: float = 0.0  # the block's time at reference speed
    blocked_s: float = 0.0  # wall time off the CPU and outside the backend wait
    item_probe_s: float = 0.0  # time spent probing after items
    _mark: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def _now(self) -> tuple[float, float, float]:
        return time.perf_counter(), time.process_time(), self.waited()

    def start(self) -> None:
        self._mark = self._now()

    def _close(self) -> tuple[float, float]:
        """Probe; count the stretch since the last probe at its speed.
        Returns the factor and the probe's duration."""
        (t0, c0, w0), (t1, c1, w1) = self._mark, self._now()
        took = probe()
        factor = REF_S / took
        self.wall_s += t1 - t0
        self.scaled_s += (c1 - c0) * factor + (w1 - w0)
        self.blocked_s += (t1 - t0) - (c1 - c0) - (w1 - w0)
        self.start()
        return factor, took

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            t0, c0, w0 = self._now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1, c1, w1 = self._now()
                self.raw.append(t1 - t0)
                self.cpus.append(c1 - c0)
                self.waits.append(w1 - w0)
                factor, took = self._close()
                self.factors.append(factor)
                self.item_probe_s += took

        return timed

    def stop(self) -> float:
        """End the block; returns its time at reference speed."""
        self._close()
        return self.scaled_s

    def items(self) -> list[float]:
        """Each item's latency at reference speed."""
        return [c * k + w for c, w, k in zip(self.cpus, self.waits, self.factors)]
