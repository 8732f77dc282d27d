"""Host-speed probe: a fixed pure-Python graph kernel.

The benchmark runs on shared machines whose CPU flips, every few
seconds, between a fast state and one about 1.5x slower as other
tenants come and go.  ``probe()`` times one fixed kernel of about 5 ms
-- breadth-first searches over a 40 x 40 grid, the kind of dict-and-
deque work the compiler does -- that does not depend on the code under
test.  A time measured between two probes on the same CPU is reported
at the reference speed, where the probe takes :data:`REFERENCE_S`::

    reported = measured * REFERENCE_S / mean(probe before, probe after)
"""

from __future__ import annotations

import time
from collections import deque
from typing import List

#: Probe time of the reference host speed (this probe's time in the fast
#: state of the 2-vCPU Xeon VMs the baselines come from is about 4 ms).
REFERENCE_S = 0.005
#: Probes per reading; a reading is their median.
PER_READING = 3

_SIDE = 40
_ADJ = [[j for j in ((i - _SIDE) if i >= _SIDE else -1,
                     (i + _SIDE) if i < _SIDE * (_SIDE - 1) else -1,
                     (i - 1) if i % _SIDE else -1,
                     (i + 1) if (i + 1) % _SIDE else -1) if j >= 0]
        for i in range(_SIDE * _SIDE)]
_SOURCES = (0, 777, 1599, 820)


def probe() -> float:
    """Wall seconds of one fixed kernel."""
    t0 = time.perf_counter()
    for source in _SOURCES:
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in _ADJ[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        sorted(dist.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - t0


def probes(n: int) -> List[float]:
    return [probe() for _ in range(n)]


def reading() -> float:
    """Median of :data:`PER_READING` probes."""
    return sorted(probes(PER_READING))[PER_READING // 2]


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between readings *before* and
    *after* to the reference speed."""
    return 2.0 * REFERENCE_S / (before + after)
