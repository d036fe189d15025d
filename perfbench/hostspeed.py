"""Host speed calibration, so that timings from a shared host can be compared.

On a shared VM the same command runs up to 1.5x slower from one few
seconds to the next, in CPU time as much as in wall time: the host's
other tenants slow the core, they do not take it away.  A fixed task
that imitates the program's mix of work is timed in the benchmark
process, on the same CPU as the commands, before, during and after
every measured command, and the command's CPU time is multiplied by
``REFERENCE_S`` over the median of those task times.  A slowdown of
the host then largely cancels, while a change to the program does not
touch the calibration task.  The results read as CPU seconds on a host
that runs the task in ``REFERENCE_S``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
from time import thread_time

import numpy as np

# Median CPU seconds of one task on an unloaded 2-vCPU Xeon (Sapphire
# Rapids, KVM), Python 3.11, numpy 2.4, OpenBLAS with one thread.
REFERENCE_S = 0.032
# Tasks timed before and after each command.
REPEATS = 4
# Seconds between tasks timed while a command runs.
SAMPLE_EVERY_S = 0.5

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((120, 120))
_POINTS = _RNG.random((160, 30))
_BIG = _RNG.random(600_000)
_INDEX = _RNG.integers(0, _BIG.size, 450_000)
_ROWS = [{"id": i, "value": float(x)} for i, x in enumerate(_BIG[:1300])]


def task() -> float:
    """One fixed unit of work; returns a checksum so no step can be skipped.

    Equal shares of interpreted Python, JSON, small matrix products,
    memory-bound array passes, random gathers, k-NN distances and small
    least-squares solves.  A host slowdown stretches these kinds of work
    by between 1.2x (memory-bound) and 1.9x (JSON), so the task takes a
    mix of them, as the program does.
    """
    total = 0.0
    for i in range(45_000):
        total += (i % 7) * 0.5
    total += sum(row["value"] for row in json.loads(json.dumps(_ROWS)))
    m = _MATRIX
    for _ in range(30):
        m = np.tanh(m @ _MATRIX * 0.01)
    total += float(m.sum())
    total += float(np.exp(-_BIG).sum())
    total += float(_BIG[_INDEX].sum())
    d = ((_POINTS[:, None, :] - _POINTS[None, :, :]) ** 2).sum(-1)
    total += float(np.argpartition(d, 20, axis=1)[:, 0].sum())
    for row in range(40):
        total += float(np.linalg.lstsq(_POINTS[:20].T, _POINTS[row], rcond=None)[0][0])
    return total


def calibrate() -> list[float]:
    """CPU seconds of each of ``REPEATS`` runs of ``task``."""
    times = []
    for _ in range(REPEATS):
        t0 = thread_time()
        task()
        times.append(thread_time() - t0)
    return times


class Clock:
    """Turns the CPU seconds of a command into reference seconds.

    The task runs ``REPEATS`` times before and after each command, and
    once every ``SAMPLE_EVERY_S`` seconds while it runs, from a thread
    of the benchmark process on the command's CPU.  The command then
    waits for the task, but its CPU time does not count the wait.  The
    host's speed changes within seconds, so only times taken around and
    during the command follow it; ``scale`` divides ``REFERENCE_S`` by
    their median.
    """

    def __init__(self):
        self.last = calibrate()
        self.during: list[float] = []
        self.task_s = list(self.last)

    @contextlib.contextmanager
    def sampling(self):
        """Time the task every ``SAMPLE_EVERY_S`` seconds while the body runs."""
        stop = threading.Event()

        def sample():
            while not stop.wait(SAMPLE_EVERY_S):
                t0 = thread_time()
                task()
                self.during.append(thread_time() - t0)

        thread = threading.Thread(target=sample, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def scale(self) -> float:
        """Calibrate again; the factor for the command since the previous calibration."""
        now = calibrate()
        times = self.last + self.during + now
        self.task_s += times[len(self.last):]
        self.last, self.during = now, []
        return REFERENCE_S / statistics.median(times)
