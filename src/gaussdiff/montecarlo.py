"""Monte-Carlo cross-check of the closed-form measures.

Draws plane points from the product Gaussian (each coordinate is normal
with variance 1/2, matching the density exp(-x*x-y*y)/pi) and estimates a
region's mass as the hit fraction.  This is the independent route used to
cross-validate the erf/exp closed forms; with 10**6 samples the standard
error on a mass around 0.5 is about 5e-4.

`region_mask` states the membership rule: a rectangle piece holds the
samples with xlo < x <= xhi and ylo < y <= yhi, a ring piece those with
lo < np.hypot(x, y) <= hi.  `mc_measures` and `mc_plane_measures` count
hits without building masks, and each estimate is bitwise
`float(region_mask(region, x, y).mean())`:

- **Counts per endpoint.**  On each axis (x, y, radius) the samples with
  v <= t are counted once per distinct endpoint t.  A piece ]lo, hi] then
  has C(hi) - C(lo) hits: {v <= lo} is a subset of {v <= hi}, and a NaN
  lies in neither, as it lies in no piece.  The pieces of a canonical
  region are disjoint, so their counts add up to the mask's count, and
  count / n is the same correctly rounded quotient as the mask's mean.
- **Strips.**  A rectangle whose y side is the full line ]-inf, inf] needs
  its x counts only, while every sample of the block has -inf < y <= inf
  (a count on the y axis says so); likewise with the axes swapped.  Other
  rectangles, and strips in a block that fails that test, are counted on
  their joint mask.
- **Radii.**  r <= t is decided on s = x*x + y*y, outside a band around
  t*t of relative half-width `_BAND` = 2**-46 (64 ulp of 1); only the
  samples inside it, NaN included, go through `np.hypot`.  Bound: with
  u = 2**-53 and R the exact radius, |s - R*R| <= 3u R*R + 2**-1073 (two
  rounded squares that may underflow, one rounded sum), and t*t is
  rounded once.  When t*t is a normal float, s < t*t (1 - 2**-46)
  therefore gives R*R < t*t (1 - 2**-46 + 9u), and a hypot within 16 ulp
  of R (C libraries' are within 1) stays <= t; s > t*t (1 + 2**-46) gives
  hypot > t in the same way.  A t whose t*t is below the normal range (t = 0
  included) sends every sample with s <= 2**-1020 to the band, and one
  whose t*t overflows (t = inf included) every sample with s >= 2**1020;
  outside those bands R > 2**-510.5 > t, or R < 2**510 (1 + 2u) < t.  So
  every decision is `np.hypot`'s, and the radius is never built for the
  whole sample set.
- **Blocks.**  Samples are counted in blocks of `_BLOCK` = 2**16 points.
  `mc_plane_measures(regions, n, seed)` draws the x coordinates of
  `plane_samples(n, seed)` whole and the y coordinates block by block from
  the same generator, which continues the stream bitwise, so it holds x
  (8n bytes) and a few block-sized arrays, never y, radii or masks for
  all n samples.  One worker thread draws the next y block while the
  current one is counted; it alone uses the generator after x, in block
  order, so the stream is unchanged, and it ends with the call.  Given no
  samples, the estimates raise `ValueError`.
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import closing
from typing import Iterable, Iterator, Sequence

import numpy as np

from .measure import NEG_INF, POS_INF, GridRegion, Region

__all__ = ["plane_samples", "region_mask", "mc_measure", "mc_measures", "mc_plane_measures"]

_SCALE = math.sqrt(0.5)

#: samples per block: 512 KiB per float64 block array
_BLOCK = 1 << 16

#: relative half-width of the band around t*t left to np.hypot (see the module docstring)
_BAND = 2.0**-46
_NORMAL_MIN = sys.float_info.min
_TINY_BAND = (0.0, 2.0**-1020)  # t*t below the normal range
_HUGE_BAND = (2.0**1020, POS_INF)  # t*t overflows


def plane_samples(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """n Gaussian plane points as (x, y) coordinate arrays."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, _SCALE, size=(2, int(n)))
    return pts[0], pts[1]


def _plane_blocks(n: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """`plane_samples(n, seed)` in blocks of `_BLOCK` points: x drawn whole, y block by block.

    One worker thread draws the y blocks in order, each when the previous
    one is handed over, so drawing block i + 1 overlaps the caller's
    counting of block i (numpy draws without holding the GIL).  The worker
    is the only user of the generator once x is drawn, so the stream is
    bitwise `plane_samples(n, seed)`.  It is joined when the blocks run out
    or the iterator is closed.
    """
    n = int(n)
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, _SCALE, size=n)
    starts = range(0, n, _BLOCK)
    ask, ready = threading.Semaphore(), threading.Semaphore(0)
    slot: list = [None]  # the last block drawn, or the exception that stopped the draws
    closed = False

    def draw() -> None:
        try:
            for i in starts:
                ask.acquire()
                if closed:
                    return
                slot[0] = rng.normal(0.0, _SCALE, size=min(_BLOCK, n - i))
                ready.release()
        except BaseException as exc:
            slot[0] = exc
            ready.release()

    worker = threading.Thread(target=draw, name="gaussdiff-plane-blocks", daemon=True)
    worker.start()
    try:
        for i in starts:
            ready.acquire()
            y = slot[0]
            if isinstance(y, BaseException):
                raise y
            ask.release()  # the next block is drawn while this one is counted
            yield x[i : i + _BLOCK], y
    finally:
        closed = True
        ask.release()
        worker.join()


def region_mask(region: Region, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean membership of the sample points in the region."""
    mask = np.zeros(x.shape, dtype=bool)
    if isinstance(region, GridRegion):
        xe, ye = region._ends.tolist()
        for xlo, xhi, ylo, yhi in zip(xe[::2], xe[1::2], ye[::2], ye[1::2]):
            mask |= (x > xlo) & (x <= xhi) & (y > ylo) & (y <= yhi)
        return mask
    r = np.hypot(x, y)
    re = region._ends[0].tolist()
    for lo, hi in zip(re[::2], re[1::2]):
        mask |= (r > lo) & (r <= hi)
    return mask


def _squares(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x*x + y*y, the squared radii that decide r <= t outside the hypot band."""
    with np.errstate(over="ignore"):  # an inf square decides hypot > t, or falls in the band
        s = x * x
        s += y * y
    return s


def _band(t: float) -> tuple[float, float]:
    """(lo, hi): s < lo decides hypot <= t, s > hi decides hypot > t, the rest is hypot's."""
    t2 = t * t
    if t2 < _NORMAL_MIN:
        return _TINY_BAND
    if t2 == POS_INF:
        return _HUGE_BAND
    return t2 * (1.0 - _BAND), t2 * (1.0 + _BAND)


class _BlockCounts:
    """Hit counts of one block of samples, each per-endpoint count made once."""

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x, self.y = x, y
        self.size = x.size
        self._s = None
        self._le: dict[tuple[str, float], int] = {}

    def le(self, axis: str, t: float) -> int:
        """Samples of the block whose x, y or radius ("r") is at most t."""
        key = (axis, t)
        count = self._le.get(key)
        if count is None:
            if axis == "r":
                count = self._radius_le(t)
            else:
                v = self.x if axis == "x" else self.y
                count = int(np.count_nonzero(v <= t))
            self._le[key] = count
        return count

    def _radius_le(self, t: float) -> int:
        if self._s is None:
            self._s = _squares(self.x, self.y)
        s = self._s
        lo, hi = _band(t)
        below = int(np.count_nonzero(s < lo))
        if below + int(np.count_nonzero(s > hi)) == self.size:
            return below
        band = ~((s < lo) | (s > hi))  # NaN s included
        return below + int(np.count_nonzero(np.hypot(self.x[band], self.y[band]) <= t))

    def _full_line(self, axis: str) -> bool:
        """Every sample of the block lies in ]-inf, inf] on the axis."""
        return self.le(axis, POS_INF) - self.le(axis, NEG_INF) == self.size

    def hits(self, region: Region) -> int:
        """Samples of the block in the region: the sum over its disjoint pieces.

        The region's endpoints are read as Python floats, the keys of the counts.
        """
        if not isinstance(region, GridRegion):
            re = region._ends[0].tolist()
            return sum(self.le("r", hi) - self.le("r", lo) for lo, hi in zip(re[::2], re[1::2]))
        xe, ye = region._ends.tolist()
        count = 0
        for xlo, xhi, ylo, yhi in zip(xe[::2], xe[1::2], ye[::2], ye[1::2]):
            if ylo == NEG_INF and yhi == POS_INF and self._full_line("y"):
                count += self.le("x", xhi) - self.le("x", xlo)
            elif xlo == NEG_INF and xhi == POS_INF and self._full_line("x"):
                count += self.le("y", yhi) - self.le("y", ylo)
            else:
                x, y = self.x, self.y
                count += int(np.count_nonzero((x > xlo) & (x <= xhi) & (y > ylo) & (y <= yhi)))
        return count


def _estimates(
    regions: Sequence[Region], blocks: Iterable[tuple[np.ndarray, np.ndarray]]
) -> list[float]:
    """Hit fractions of the regions over all samples of the blocks."""
    hits = [0] * len(regions)
    n = 0
    for x, y in blocks:
        counts = _BlockCounts(x, y)
        for i, region in enumerate(regions):
            hits[i] += counts.hits(region)
        n += x.size
    if n == 0:
        raise ValueError("no samples to estimate the masses from")
    # Python ints, so that count / n is a Python float, not a numpy scalar
    return [h / n for h in hits]


def mc_measures(regions: Sequence[Region], x: np.ndarray, y: np.ndarray) -> list[float]:
    """Estimated Gaussian masses of the regions from one sample set.

    Each value is bitwise `float(region_mask(region, x, y).mean())`.
    """
    x, y = np.ravel(x), np.ravel(y)
    blocks = ((x[i : i + _BLOCK], y[i : i + _BLOCK]) for i in range(0, x.size, _BLOCK))
    return _estimates(regions, blocks)


def mc_plane_measures(regions: Sequence[Region], n: int, seed: int = 0) -> list[float]:
    """Bitwise `mc_measures(regions, *plane_samples(n, seed))`, drawing y one block at a time."""
    with closing(_plane_blocks(n, seed)) as blocks:  # joins the worker if counting raises
        return _estimates(regions, blocks)


def mc_measure(region: Region, x: np.ndarray, y: np.ndarray) -> float:
    """Estimated Gaussian mass of the region from the given sample."""
    return mc_measures([region], x, y)[0]
