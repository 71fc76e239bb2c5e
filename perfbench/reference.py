"""A fixed reference task that tracks how fast the machine is right now.

On a small shared machine the same work can run 1.4x slower for seconds or
minutes while a neighbour is busy.  The benchmark runs this task between
items (outside the timed region) and reports item times scaled to the speed
at which the task takes ``NOMINAL_S``: ``scaled = measured * NOMINAL_S /
reference``.  The task mixes interpreted integer arithmetic with numpy FFTs
(small, so the measuring process's peak RSS barely moves), the two kinds of
work the program does, and it belongs to the benchmark, so no change to the
program can move it.
"""

from __future__ import annotations

import time

import numpy as np

# about the task's time on an idle 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4); only ratios matter when two commits are compared
NOMINAL_S = 0.02

_LOOP = 70_000
_FFT_POINTS = 1 << 14
_FFT_ROUNDS = 4


class Reference:
    def __init__(self):
        self._buf = np.exp(1j * np.arange(_FFT_POINTS) * 0.001)

    def measure(self) -> float:
        """Seconds the fixed task takes now."""
        start = time.perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc = (acc + i * i) % 1000003
        for _ in range(_FFT_ROUNDS):
            np.fft.ifft(np.fft.fft(self._buf))
        return time.perf_counter() - start


def scale(seconds: float, reference_s: float) -> float:
    return seconds * NOMINAL_S / reference_s
