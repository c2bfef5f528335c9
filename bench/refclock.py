"""Reference timings taken next to the program, to take host speed out of timings.

On a shared host the speed of the same code drifts by up to 2x from minute to
minute (neighbours on the sibling hyperthread, memory bandwidth, clock
changes).  The benchmark times a reference right next to the operations it
measures and reports their time in units of the reference's time, scaled by
the reference's nominal duration back to seconds: "seconds on a host where
the reference takes its nominal time".  Neither reference runs qcdiv code, so
no change to qcdiv moves them.

* In-process work is referred to ``kernel``, which mixes the interpreter work
  qcdiv does (calls, attribute access, float math, small tuples and objects),
  so contention slows both alike.
* Work in child processes is referred to a bare interpreter start
  (``python -c pass``), which also pays process creation.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import time

# Nominal durations on an uncontended core of the 2-core host the bounds were set on.
NOMINAL_S = 1.25e-3
INTERPRETER_NOMINAL_S = 0.06


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x, self.y = x, y


def _step(p: _Point, a: float) -> float:
    return math.sqrt(p.x * p.x + p.y * a) + max(p.x, a)


def kernel() -> float:
    s = 0.0
    for i in range(2000):
        p = _Point(i * 0.5, 1.0)
        s += _step(p, 1.5) - abs(-s * 1e-9)
        t = (p.x, p.y, s)
        s += t[0] * 1e-12
    return s


def seconds() -> float:
    """One timed run of the kernel, with the collector off so the program's heap does not count."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def interpreter_seconds(env: dict) -> float:
    """Wall time of one ``python -c pass`` child with the given environment."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, capture_output=True, timeout=60,
                   check=True)
    return time.perf_counter() - t0
