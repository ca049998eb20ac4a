"""Speed gauge: scales measured times to a fixed reference speed.

The benchmark runs on a shared host whose speed drifts by up to half over
seconds to hours (a neighbour's load, not time lost to scheduling: CPU time
and wall time agree). Runs of the same code then differ more than any useful
regression bound. So the benchmark times a fixed kernel between short blocks
of ops and scales each op's time by REFERENCE_S / (kernel time around its
block): a slower host slows both and the ratio stays. A change to faultlab
moves only the ops, so it moves the scaled times as it moves the raw ones.

The kernel resembles faultlab's hot path and is frozen here, apart from the
package: the nodal stamping of a small sequence network into a complex
admittance matrix held in dicts and NumPy arrays, a dense solve, and the
branch currents read back through dicts. Nothing here imports faultlab;
importing this module loads NumPy.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# the kernel's time at the reference speed; scaled times read as milliseconds
# of a host on which one kernel call takes this long
REFERENCE_S = 1.5e-3
KERNEL_REPS = 50
# a gauge reading is the median of at least KERNEL_CALLS kernel calls, and
# lasts about READING_SHARE of the block of ops it follows: the longer the
# block, the more its speed differs from a snapshot at its ends
KERNEL_CALLS = 3
READING_SHARE = 0.03

NODES = ("src", "n1", "n2", "n3", "n4")
# (from, to, impedance); n4 also has a shunt to ground
BRANCHES = (
    ("src", "n1", 0.01 + 0.10j),
    ("n1", "n2", 0.02 + 0.12j),
    ("n2", "n3", 0.03 + 0.14j),
    ("n3", "n4", 0.04 + 0.16j),
    ("src", "n2", 0.05 + 0.30j),
    ("n1", "n4", 0.02 + 0.20j),
)
SHUNT = ("n4", 0.5 + 0.1j)


def _ladder(scale: float) -> complex:
    """Solve the network with every impedance scaled; the summed branch current."""
    pinned = {"src": 1.0 + 0j}
    index = {node: k for k, node in enumerate(n for n in NODES if n not in pinned)}
    y = np.zeros((len(index), len(index)), dtype=complex)
    j = np.zeros(len(index), dtype=complex)
    for na, nb, z in BRANCHES:
        adm = 1.0 / (z * scale)
        ia, ib = index.get(na), index.get(nb)
        if ia is not None:
            y[ia, ia] += adm
            if ib is not None:
                y[ia, ib] -= adm
            else:
                j[ia] += adm * pinned[nb]
        if ib is not None:
            y[ib, ib] += adm
            if ia is not None:
                y[ib, ia] -= adm
            else:
                j[ib] += adm * pinned[na]
    node, z = SHUNT
    y[index[node], index[node]] += 1.0 / (z * scale)
    sol = np.linalg.solve(y, j)
    v = dict(pinned)
    for name, k in index.items():
        v[name] = complex(sol[k])
    return sum((v[na] - v[nb]) / (z * scale) for na, nb, z in BRANCHES)


def kernel_seconds() -> float:
    """Time of one kernel call: KERNEL_REPS solves of the network."""
    start = time.perf_counter()
    total = 0j
    for rep in range(KERNEL_REPS):
        total += _ladder(1.0 + 0.01 * rep)
    seconds = time.perf_counter() - start
    if not abs(total) > 0:  # use the result, so that the work is done
        raise RuntimeError("calibration kernel returned zero current")
    return seconds


def reading(calls: int = KERNEL_CALLS) -> float:
    """One gauge reading: the median time of `calls` kernel calls."""
    return statistics.median(kernel_seconds() for _ in range(calls))


@dataclass
class Gauge:
    """Scales the times of consecutive blocks by the readings around each block."""

    last: float = 0.0
    readings: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        kernel_seconds()  # untimed: the first solve sets up NumPy's LAPACK path
        self.last = self._read(KERNEL_CALLS)

    def _read(self, calls: int) -> float:
        value = reading(calls)
        self.readings.append(value)
        return value

    def scale(self, seconds: list[float]) -> list[float]:
        """Times of the block just measured, at the reference speed."""
        calls = max(KERNEL_CALLS, round(READING_SHARE * sum(seconds) / REFERENCE_S))
        before, self.last = self.last, self._read(calls)
        factor = REFERENCE_S / ((before + self.last) / 2)
        return [s * factor for s in seconds]
