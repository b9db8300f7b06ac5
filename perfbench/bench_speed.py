"""Machine speed probe: a fixed kernel timed between operations.

The shared machine the benchmark runs on changes speed by up to 1.7x within a
minute (other tenants on the same cores), and Python loops and small dense
linear algebra, which is what projspec does, slow down together. A run times
this kernel after every operation and scales each operation's seconds by
PROBE_REF_S / (the median probe time around it), so that its figures read as
seconds on a machine where the probe takes PROBE_REF_S. The kernel uses numpy
only, never projspec, so a change to projspec cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_REF_S = 0.002  # nominal probe time; the scaled figures are seconds at this speed
PROBE_N = 24
PROBE_POINTS = 512
WINDOW = 4  # an operation's speed is the median of the probes within this many operations of it


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.m = rng.normal(size=(PROBE_N, PROBE_N)) + 1j * rng.normal(size=(PROBE_N, PROBE_N))
        self.coeffs = [complex(c) for c in rng.normal(size=PROBE_N) + 1j * rng.normal(size=PROBE_N)]
        self.points = [complex(z) for z in np.exp(2j * np.pi * np.arange(PROBE_POINTS) / PROBE_POINTS)]
        for _ in range(5):
            self.kernel()

    def kernel(self):
        """Small eigen-, singular-value and QR solves, then Horner's rule in
        plain Python at PROBE_POINTS points: the mix of a projspec operation."""
        total = np.abs(np.linalg.eigvals(self.m)).sum() + np.linalg.svd(self.m, compute_uv=False).sum()
        q, _ = np.linalg.qr(self.m)
        total += abs(np.trace(q @ self.m))
        for z in self.points:
            acc = 0j
            for c in self.coeffs:
                acc = acc * z + c
            total += abs(acc)
        return total

    def sample(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def median(self, count: int) -> float:
        return statistics.median(self.sample() for _ in range(count))


def scales(probes: list[float]) -> list[float]:
    """PROBE_REF_S over the median probe time within WINDOW of each position."""
    out = []
    for i in range(len(probes)):
        near = probes[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(PROBE_REF_S / statistics.median(near))
    return out
