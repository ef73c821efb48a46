"""A fixed pure-Python kernel that measures how fast the machine runs now.

The speed of a shared machine drifts by tens of percent within a minute,
and every op of every workload drifts with it.  The kernel below does the
same kind of work as the package's hot loops (frozen-dataclass intervals,
sorted breakpoints, a cell-by-cell coefficient overlay) on fixed inputs,
but it is benchmark-owned code that never changes with the package.  It is
timed right before and right after each op; dividing the op's time by the
mean of the two and multiplying by REFERENCE_S gives the op's time at the
reference speed.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

# Median of reference_s() on the 2-vCPU Xeon VM of the first baseline.
REFERENCE_S = 1.3e-3


@dataclass(frozen=True)
class _Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError("interval has lo > hi")


def _pieces():
    rng = random.Random(20261017)
    out = []
    for _ in range(12):
        x0, x1 = sorted((rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
        y0, y1 = sorted((rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
        out.append((complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)), (_Interval(x0, x1), _Interval(y0, y1))))
    return tuple(out)


_PIECES = _pieces()


def _kernel() -> int:
    xs = sorted({p for _, (cx, _) in _PIECES for p in (cx.lo, cx.hi)})
    ys = sorted({p for _, (_, cy) in _PIECES for p in (cy.lo, cy.hi)})
    cells = []
    for xlo, xhi in zip(xs, xs[1:]):
        for ylo, yhi in zip(ys, ys[1:]):
            v = 0j
            for c, (cx, cy) in _PIECES:
                if cx.lo <= xlo and xhi <= cx.hi and cy.lo <= ylo and yhi <= cy.hi:
                    v += c
            if v:
                cells.append((_Interval(xlo, xhi), _Interval(ylo, yhi), v))
    return len(cells)


def reference_s() -> float:
    """Seconds one run of the kernel takes now.

    The cyclic garbage collector is paused meanwhile, so a collection of
    the package's objects never lands in the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """`seconds` measured between two reference timings, at the reference speed."""
    return seconds * 2.0 * REFERENCE_S / (ref_before + ref_after)
