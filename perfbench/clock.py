"""Timing in reference seconds, steady on a host whose speed drifts.

A shared host can run a process at speeds that differ by half, for
seconds to minutes at a time.  Every timed block is therefore calibrated
by a short kernel that slows with the program: the kernel runs just
before and after the block, and every ``SAMPLE_EVERY_S`` while it runs
(from a SIGALRM handler).  The block is reported in reference seconds:
wall seconds, less the samples' own time, times ``REFERENCE_S`` over the
mean kernel time.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time
from collections import defaultdict


# V = 2 + sin(x), compiled the way sturmjumps.expr compiles a formula
_V = eval("lambda x: (2.0+sin(x))", {"sin": math.sin, "__builtins__": {}})

# Dormand-Prince 5(4) tableau
_C = (0.2, 0.3, 0.8, 8.0 / 9.0)
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_B = (35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
_E = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)


def _kernel(lam=3.0, b=0.6, rtol=1e-10):
    """Pruefer phase of u'' = -lam^2 V u on [0, b] by adaptive Dormand-Prince 5(4).

    A frozen stand-in for the program's hot path: the same kind of
    interpreted stepping, closures and math calls, so it slows with the
    program when the host does.  A plain arithmetic loop tracked the
    program about half as well.
    """
    v, cos = _V, math.cos
    s = lam
    q0, hs = lam * lam / s, 0.5 * s
    a2, a3, a4, a5, a6 = _A
    b1, b3, b4, b5, b6 = _B
    e1, e3, e4, e5, e6, e7 = _E
    c2, c3, c4, c5 = _C

    def f(x, th):
        q = q0 * v(x)
        if not q > 0.0:
            raise ArithmeticError(x)
        return hs + 0.5 * q + (hs - 0.5 * q) * cos(2.0 * th)

    x, y, h, err_prev = 0.0, 0.0, 0.01, 1.0
    atol = rtol * math.pi
    k1 = f(x, y)
    while x < b:
        if x + h > b:
            h = b - x
        k2 = f(x + c2 * h, y + h * (a2[0] * k1))
        k3 = f(x + c3 * h, y + h * (a3[0] * k1 + a3[1] * k2))
        k4 = f(x + c4 * h, y + h * (a4[0] * k1 + a4[1] * k2 + a4[2] * k3))
        k5 = f(x + c5 * h, y + h * (a5[0] * k1 + a5[1] * k2 + a5[2] * k3 + a5[3] * k4))
        k6 = f(x + h, y + h * (a6[0] * k1 + a6[1] * k2 + a6[2] * k3 + a6[3] * k4 + a6[4] * k5))
        y_new = y + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
        k7 = f(x + h, y_new)
        err = abs(h) * abs(e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
        err /= atol + rtol * max(abs(y), abs(y_new))
        if err <= 1.0:
            x, y, k1 = x + h, y_new, k7
            fac = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 1e-10 else 10.0
            h *= min(10.0, max(0.2, fac))
            err_prev = max(err, 1e-10)
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    return y


def calibrate() -> float:
    """Seconds the calibration kernel takes now (best of three)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


# the calibration kernel's time on the reference CPU
REFERENCE_S = 3e-4
SAMPLE_EVERY_S = 0.02


class Clock:
    """Times blocks of work in reference seconds, one total per pass.

    ``block(solve=True)`` adds to the pass total that ``solve_s`` reports;
    ``count(key)`` inside a block times one N(lambda) answer.
    """

    def __init__(self):
        self.passes: list[float] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._total = 0.0
        self._pending: list[tuple[str, float]] = []
        self._last = calibrate()
        self._samples: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self._samples.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def block(self, solve: bool = True):
        before, self._pending, self._samples = self._last, [], []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._last = calibrate()
        elapsed -= sum(self._samples)
        times = [before, self._last, *self._samples]
        cap = 2.0 * statistics.median(times)  # a sample hit by an interrupt says nothing of the block
        scale = REFERENCE_S / statistics.fmean(min(t, cap) for t in times)
        if solve:
            self._total += elapsed * scale
        for key, seconds in self._pending:
            self.counts[key].append(seconds * scale)

    @contextlib.contextmanager
    def count(self, key: str):
        t0 = time.perf_counter()
        yield
        self._pending.append((key, time.perf_counter() - t0))

    def end_pass(self):
        self.passes.append(self._total)
        self._total = 0.0

    def solve_s(self) -> float:
        return statistics.median(self.passes)

    def count_ms(self) -> list[float]:
        """Per answer, the median over passes, in reference milliseconds."""
        return [1e3 * statistics.median(v) for v in self.counts.values()]
