"""A fixed reference computation that tracks the speed of the shared host.

The machine the benchmark runs on lends it a few cores of a shared host, and
the same work runs up to half again slower for minutes at a time, depending
on what else the host is doing. ``HostProbe`` times a small computation that
never changes (no tacsense code is involved) between the benchmark's
operations. An operation's time divided by the probe time around it is then
a measure of the program's own cost that the host's drift largely cancels
out of. The probe mixes the kinds of work the workloads do: interpreted
Python, an image-sized filter, nearest-neighbour queries and text parsing.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

# The median probe time on a 2-vCPU Xeon VM at 2.0 GHz; normalised times are
# expressed in seconds of that host.
REFERENCE_PROBE_S = 0.032


class HostProbe:
    """The reference computation on inputs made once, from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.image = rng.normal(size=(580, 580))
        self.tree = cKDTree(rng.normal(size=(4000, 3)))
        self.queries = rng.normal(size=(4000, 3))
        self.text = "\n".join("%.9g %.9g %.9g" % tuple(row) for row in
                              rng.normal(size=(4000, 3)).astype(np.float32).tolist())
        self.seconds()  # warm up

    def seconds(self) -> float:
        """Wall time of one run of the reference computation."""
        t0 = time.perf_counter()
        total = 0
        for i in range(40000):
            total += i * i
        ndimage.gaussian_filter(self.image, 3.0)
        for _ in range(2):
            self.tree.query(self.queries)
        np.array(self.text.split(), dtype=np.float64)
        return time.perf_counter() - t0
