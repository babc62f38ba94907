"""Timing that cancels the host's speed drift.

On a shared 2-CPU host the speed of plain Python code drifts by 30% and
more within seconds, with CPU time tracking wall time (the drift is not
steal time).  A fixed probe — dict and tuple work, no ``repro`` code —
runs right before and right after every timed sample; the sample is
reported rescaled to the speed at which the probe takes
``PROBE_REFERENCE_S``:

    scaled = raw * PROBE_REFERENCE_S / mean(probe before, probe after)

so a scaled time reads as seconds on a host where the probe takes
``PROBE_REFERENCE_S``.  Raw times are kept and printed too.  The probe
runs with the collector off, so the program's heap does not leak into
the scale.
"""

from __future__ import annotations

import gc
import time

#: Median probe time on the host the benchmark was written on (2 CPUs).
PROBE_REFERENCE_S = 0.020


def probe() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        table: dict = {}
        start = time.perf_counter()
        for i in range(60_000):
            key = (i, i ^ 7)
            table[key] = table.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sample:
    """One timed call: ``raw`` seconds and ``scaled`` seconds."""

    __slots__ = ("raw", "scaled")

    def __init__(self, raw: float, scaled: float) -> None:
        self.raw = raw
        self.scaled = scaled


def timed(fn, *args):
    """``(fn(*args), Sample)``, bracketed by probes."""
    before = probe()
    start = time.perf_counter()
    out = fn(*args)
    raw = time.perf_counter() - start
    after = probe()
    return out, Sample(raw, raw * PROBE_REFERENCE_S * 2 / (before + after))
