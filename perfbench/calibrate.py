"""Reference kernel that tracks the speed of the machine while a run measures.

On a shared machine the same code runs up to 1.8 times slower for seconds
to minutes at a time, in CPU time as well as wall time.  So while a run
measures, a timer interrupts it every ``TICK_S`` and times a fixed
kernel; that time is taken out of the operation it interrupted.  Each
operation's time is then also reported scaled to the speed at which the
kernel takes ``REFERENCE_S``: an operation timed at ``t`` while the
kernel's mean speed around it was ``1 / c`` counts as
``t * REFERENCE_S / c``.
The kernel does what the package's inner loops do (small numpy arrays,
trigonometry, einsum, a 3x3 solve, Python calls) and never calls the
package, so a change to the package moves only ``t``.
"""
import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 3.0e-3      # kernel time on the defining machine when it ran fastest
TICK_S = 0.1              # interval between kernel runs while measuring
WINDOW_S = 0.5            # ticks this close to an operation give its speed
REPEATS = 5               # kernel runs of a one-off calibration; the median counts


def _kernel() -> float:
    x = np.array([0.1, 0.2, 0.3])
    acc = 0.0
    for _ in range(150):
        c, s = np.cos(x[0]), np.sin(x[0])
        g = np.array([[1.0, -0.5 * c, -0.5 * s], [-0.5 * c, 1.0, 0.0],
                      [-0.5 * s, 0.0, 1.0]])
        d = np.zeros((3, 3, 3))
        d[0, 1, 0] = d[1, 0, 0] = 0.5 * s
        gam = 0.5 * (np.transpose(d, (2, 0, 1)) + np.transpose(d, (0, 2, 1))
                     - d)
        q = np.einsum("jkr,j,k->r", gam, x, x)
        acc += float(np.linalg.solve(g, q + x)[0])
        x = x + 1e-3
    return acc


def kernel_seconds() -> list:
    """Wall times of REPEATS back-to-back kernel runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return times


def factor(kernel_times) -> float:
    """Scale factor to reference speed, from kernel times seen nearby.

    Work done in a stretch of time is the integral of the speed, so the
    factor averages the kernel's speed (1 / time), not its time.
    """
    return REFERENCE_S * statistics.fmean(1.0 / k for k in kernel_times)


class Sampler:
    """Runs the kernel on a wall-clock timer while the block executes.

    Python runs the handler between bytecodes of the main thread, so a
    tick lies wholly inside or wholly outside any interval the measured
    code times with ``time.perf_counter``.
    """

    def __init__(self):
        self.starts: list = []
        self.walls: list = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.starts.append(t0)
        self.walls.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def inside(self, start: float, end: float) -> float:
        """Kernel time spent inside [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.walls[lo:hi])

    def around(self, start: float, end: float) -> list:
        """Kernel times of the ticks within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if lo == hi:                     # no tick that close: the nearest one
            lo = max(0, min(lo, len(self.starts) - 1))
            hi = lo + 1
        return self.walls[lo:hi]
