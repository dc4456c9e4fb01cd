"""The reference kernel and the host-speed correction.

The host's speed drifts from one process to the next and within a
process, by more than the benchmark's bounds. Every timed unit therefore
runs beside a fixed reference kernel: its raw time is divided by the
kernel's time, sampled right before, during and right after it in the
same process, and multiplied by the kernel's nominal time, a constant.
What remains is the unit's time on a host running at nominal speed.

The kernel mixes an interpreted Python loop (dict and string work, float
arithmetic) with small numpy calls and, every 25 steps, a matrix-vector
product the size of the paper's pretrained LSTM input projection: the
blend of interpreter, numpy-call and BLAS cost that the program spends
its time on. It must not import seqtag: a change to the program must not
change the yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median CPU time of one reference_kernel() call on the reference host
# (2-CPU Intel Xeon VM, Python 3.11, numpy 2.4, OpenBLAS on one thread).
# Corrected times are seconds of that host at that speed.
NOMINAL_S = 0.0125

# kernel calls on each side of a timed unit
KERNEL_REPEATS = 5

# CPU seconds between kernel samples taken inside a unit
SAMPLE_PERIOD_S = 0.1

# Units and kernel are timed in process CPU time, not wall time: time the
# process spends waiting for a CPU that another process holds is not the
# program's. The program is single-threaded with BLAS pinned to one
# thread and does no blocking I/O beyond writing its model file, so its
# CPU time is its running time on an idle host.
clock = time.process_time

_N_STEPS = 2000
_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((16, 16))
_VEC = _rng.standard_normal(16)
_WIDE = _rng.standard_normal((1024, 300))
_WIDE_X = _rng.standard_normal(300)


def reference_kernel():
    """One fixed unit of mixed interpreter and numpy work; returns a
    checksum so the work cannot be skipped."""
    table = {}
    acc = 0.0
    h = _VEC.copy()
    for step in range(_N_STEPS):
        z = _SMALL @ h
        h = np.tanh(z) * 0.5
        acc += float(h[step & 15])
        key = f"k{step % 97}"
        table[key] = table.get(key, 0) + step
        if step % 25 == 0:
            acc += float((_WIDE @ _WIDE_X)[step % 1024]) * 1e-6
            acc += float(np.exp(-np.abs(_WIDE[step % 1024])).sum()) * 1e-6
    return acc + len(table)


def kernel_samples(repeats=KERNEL_REPEATS):
    """CPU times of `repeats` kernel calls."""
    times = []
    for _ in range(repeats):
        started = clock()
        reference_kernel()
        times.append(clock() - started)
    return times


class Timed:
    """One corrected timing: raw seconds, the kernel seconds beside it,
    the corrected seconds and the unit's result."""

    __slots__ = ("raw_s", "kernel_s", "value", "result")

    def __init__(self, raw_s, kernel_s, result):
        self.raw_s = raw_s
        self.kernel_s = kernel_s
        self.value = raw_s / kernel_s * NOMINAL_S
        self.result = result

    @property
    def factor(self):
        """Nominal over measured kernel time: >1 when the host ran slow."""
        return NOMINAL_S / self.kernel_s


class Bracket:
    """Times units back to back between kernel samples; the samples after
    one unit are the ones before the next.

    Host speed changes within a multi-second unit, so samples taken only
    at its edges miss most of what the unit saw. While a unit runs,
    `poke` (called from hooks on the program's public functions) takes
    one more kernel sample whenever SAMPLE_PERIOD_S of CPU time has
    passed; its time is left out of the unit's. The unit's kernel time is
    the mean over the samples before, during and after it.
    """

    def __init__(self):
        self._last = kernel_samples()
        self._inside = None
        self._spent = 0.0
        self._next = 0.0

    def poke(self):
        if self._inside is None:
            return
        started = clock()
        if started >= self._next:
            reference_kernel()
            ended = clock()
            self._inside.append(ended - started)
            self._spent += ended - started
            self._next = ended + SAMPLE_PERIOD_S

    def timed(self, fn, *args, **kwargs):
        before = self._last
        self._inside, self._spent = [], 0.0
        started = clock()
        self._next = started + SAMPLE_PERIOD_S
        try:
            result = fn(*args, **kwargs)
        finally:
            raw = clock() - started - self._spent
            inside, self._inside = self._inside, None
        self._last = kernel_samples()
        return Timed(raw, statistics.fmean(before + inside + self._last), result)


def timed(fn, *args, **kwargs):
    """Run fn once between kernel samples."""
    return Bracket().timed(fn, *args, **kwargs)


def warm_up():
    """Run the kernel until numpy's first-call costs are paid."""
    for _ in range(3):
        reference_kernel()
