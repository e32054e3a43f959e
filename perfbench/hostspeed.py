"""How fast the shared host runs right now, from a fixed reference slice.

On a shared virtual machine the same work runs up to 1.5x faster or slower
from one minute to the next, with the load of other tenants, and no
statistic within one run removes drift between runs. So every timed CLI
call (or short chunk of calls) is followed by one reference slice: a fixed
piece of the benchmark's own work, half interpreter work (parse, group and
sort records) and half small-array numpy, the two kinds of work metrovec
does. A call's time is reported at the reference speed::

    seconds = wall seconds * REF_S / (mean of the slices just before and after)

The slice calls no metrovec code, so a change to the program moves the
reported time as much as it moves the wall time, while a slow spell of the
host slows the slices as well and cancels out.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_S = 0.020  # seconds of one reference slice at the reference speed (about
               # its median on a 2-vCPU Intel Xeon VM, one BLAS thread)
WARMUP = 5     # slices run and discarded when the clock is made
ROUNDS = 5     # rounds of interpreter and array work in one slice


class HostSpeed:
    """Reference slices between timed calls; ``mark`` turns the wall time
    since the previous mark into reference-speed time."""

    def __init__(self):
        rng = np.random.default_rng(0)  # the same slice in every run
        coords = rng.uniform(-1.0, 1.0, (3000, 2))
        self.lines = [f"sv{i:05d},{lat:.6f},{lon:.6f},n{i % 97:03d}" for i, (lat, lon) in enumerate(coords)]
        self.X = rng.standard_normal((2000, 16))
        self.W = rng.standard_normal((16, 32))
        for _ in range(WARMUP):
            self.slice()
        self.prev = self.slice()
        self.slices: list[float] = []

    def slice(self) -> float:
        """Run the reference work once; return its wall seconds."""
        start = time.perf_counter()
        for _ in range(ROUNDS):
            groups: dict[str, list] = {}
            for line in self.lines:
                sv, lat, lon, nid = line.split(",")
                groups.setdefault(nid, []).append((float(lat), float(lon), sv))
            for members in groups.values():
                members.sort()
            H = np.tanh(self.X @ self.W)
            H.T @ H
            d = ((self.X[:100, None, :] - self.X[None, :200, :]) ** 2).sum(axis=-1)
            np.argpartition(d, 5, axis=1)
        return time.perf_counter() - start

    def mark(self) -> float:
        """Run one slice and return the factor that brings wall time spent
        since the previous mark to the reference speed."""
        now = self.slice()
        self.slices.append(now)
        factor = REF_S / ((self.prev + now) / 2)
        self.prev = now
        return factor

    def summary(self) -> dict:
        """Quartiles of the run's slice times, for the run metadata."""
        q = statistics.quantiles(self.slices, n=4) if len(self.slices) >= 2 else [math.nan] * 3
        return {"ref_s": REF_S, "slices": len(self.slices), "slice_s_quartiles": q}

