"""Host-speed probe: a fixed reference snippet timed between tasks.

The benchmark shares a few cores of a host whose speed drifts by up to a
factor of two over tens of seconds to minutes, with the load of other
tenants.  A task's wall time therefore depends on when it ran.  The probe
times a fixed snippet that has nothing to do with dctkit, in the same
process, right after every task.  It mixes what dctkit's hot path does:
interpreted integer arithmetic, small tuple and dict churn, and small
int64 numpy products reduced mod p.  A task's time divided by the host's
local slow-down factor (the median of the probes around it, over
``REFERENCE_S``) is the time it would have taken at the reference speed.

The factor depends only on the host, never on dctkit's code, so a slower
dctkit still reads slower by the same share.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

REFERENCE_S = 1.0e-3
"""The snippet's time at the reference speed, a round figure close to its
median (0.9 ms) on the 2-core Intel Xeon host of the recorded baseline."""

AROUND = 2
"""A task's slow-down is the median of the two probes before it and the two
after it, so one probe disturbed by an interrupt does not count."""

_P = 5
_BASE = (np.arange(64, dtype=np.int64).reshape(8, 8) * 7 + 3) % _P


def _snippet() -> int:
    s = 0
    for i in range(3000):
        s += (i * i) % 7
    table = {}
    for i in range(300):
        table[(i, i % 3)] = [i, i + 1]
    a = _BASE
    for _ in range(100):
        a = (a @ _BASE) % _P
    return s + len(table) + int(a[0, 0])


def probe() -> float:
    """Seconds the reference snippet takes now."""
    t0 = time.perf_counter()
    _snippet()
    return time.perf_counter() - t0


def slowdown(samples: Sequence[float]) -> float:
    """The host's slow-down factor from a handful of probes taken together."""
    return statistics.median(samples) / REFERENCE_S


def local_slowdowns(probes: Sequence[float], around: int = AROUND) -> List[float]:
    """For each task, the slow-down factor over the probes around it.

    ``probes[i]`` was taken right after task ``i``, so the probes right
    before task ``i`` are ``probes[i - around: i]``.
    """
    return [
        slowdown(probes[max(0, i - around): i + around]) for i in range(len(probes))
    ]
