"""Host-speed correction for the end-to-end item timings.

The machines this benchmark runs on are often shared: their speed drifts by
a quarter or more over tens of seconds to minutes, and a guest sees none of
it (no steal time; thread CPU time equals wall time).  Ten runs made one
after another then disagree by more than any change worth detecting.

A ``Tracker`` times a fixed reference task of the benchmark's own between
items, at most every ``EVERY_S``.  ``factor()`` is ``NOMINAL_S`` over the
mean of those times, less the highest and lowest tenth: multiplied by it, a
run's timings read as they would on a host where the reference task takes
``NOMINAL_S``.  Not the median: the samples fall into a fast and a slow
mode, and the median jumped between them from one run to the next.  The
reference task never calls pdmsi, so a change to the program moves a
corrected time one for one; only the host's drift cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Reference seconds that corrected timings are scaled to: about what the task
# takes on the 2-vCPU host of the committed baseline.
NOMINAL_S = 0.006
EVERY_S = 0.5

_GEN = np.random.default_rng(0)
_SMALL = _GEN.standard_normal((4, 4))
_SMALL = _SMALL + _SMALL.T
_STACK = _GEN.standard_normal((16, 4, 4))
_STACK = _STACK + _STACK.transpose(0, 2, 1)
_SQUARE = _GEN.standard_normal((48, 48))
_EIGHT = _GEN.standard_normal((2, 8, 8)) + 1j * _GEN.standard_normal((2, 8, 8))


def reference_task() -> float:
    """Fixed work in the workloads' mix: a pure-Python loop, many small numpy
    calls, larger kernels, 64 x 64 complex krons and products as in the
    (8,8) tomography items, and random draws streamed through memory.

    Each part alone tracked the drift of ``sampling`` rounds less closely
    than their sum did.
    """
    total = 0.0
    for i in range(10000):
        total += i * i
    for _ in range(50):
        np.linalg.eigh(_SMALL)
        total += np.kron(_SMALL, _SMALL).sum() + (_SMALL @ _SMALL)[0, 0]
    for _ in range(15):
        np.linalg.eigh(_STACK)
        total += (_SQUARE @ _SQUARE)[0, 0]
    for _ in range(10):
        big = np.kron(_EIGHT[0], _EIGHT[1])
        total += np.trace(big @ big).real
    gen = np.random.default_rng(1)
    total += gen.random(100_000).sum() + gen.choice(4, size=20_000, p=[0.1, 0.2, 0.3, 0.4]).sum()
    return total


class Tracker:
    """Reference-task timings over a run, and the correction factor they give."""

    def __init__(self):
        self.took: list[float] = []
        self.last = -EVERY_S

    def maybe_sample(self) -> None:
        """Time the reference task, unless it was timed in the last ``EVERY_S``."""
        start = time.perf_counter()
        if start - self.last < EVERY_S:
            return
        reference_task()
        self.last = time.perf_counter()
        self.took.append(self.last - start)

    def factor(self) -> float:
        """``NOMINAL_S`` over the trimmed mean reference time: multiply times by it, divide rates."""
        took = sorted(self.took)
        cut = len(took) // 10
        return NOMINAL_S / statistics.mean(took[cut:len(took) - cut])
