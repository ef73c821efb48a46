"""Monte-Carlo cross-check of the closed-form measures.

Draws plane points from the product Gaussian (each coordinate is normal
with variance 1/2, matching the density exp(-x*x-y*y)/pi) and estimates a
region's mass as the hit fraction.  This is the independent route used to
cross-validate the erf/exp closed forms; with 10**6 samples the standard
error on a mass around 0.5 is about 5e-4.

`mc_measures` estimates a list of regions from one sample set.  It
computes the radius of every sample once, and only if some region is
radial, and drops it after the last radial region.  It counts the hits of
each piece instead of building the region's mask: the pieces of a
canonical region are disjoint, so their counts add up to the mask's count,
and count / n is the same correctly rounded quotient as the mask's mean.
`region_mask` and the counts share one membership rule, `_hits`.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .measure import GridRegion, Region

__all__ = ["plane_samples", "region_mask", "mc_measure", "mc_measures"]


def plane_samples(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """n Gaussian plane points as (x, y) coordinate arrays."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, math.sqrt(0.5), size=(2, int(n)))
    return pts[0], pts[1]


def _hits(
    region: Region, x: np.ndarray, y: np.ndarray, r: Optional[np.ndarray]
) -> Iterator[np.ndarray]:
    """Boolean membership of the samples in each piece of the region, read off its columns.

    Rectangles test x and y; rings test the radii r, given for a radial region.
    """
    if r is None:
        xe, ye = region._ends
        for xlo, xhi, ylo, yhi in zip(xe[::2], xe[1::2], ye[::2], ye[1::2]):
            yield (x > xlo) & (x <= xhi) & (y > ylo) & (y <= yhi)
        return
    (re,) = region._ends
    for lo, hi in zip(re[::2], re[1::2]):
        yield (r > lo) & (r <= hi)


def region_mask(region: Region, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean membership of the sample points in the region."""
    mask = np.zeros(x.shape, dtype=bool)
    r = None if isinstance(region, GridRegion) else np.hypot(x, y)
    for hits in _hits(region, x, y, r):
        mask |= hits
    return mask


def mc_measures(regions: Sequence[Region], x: np.ndarray, y: np.ndarray) -> list[float]:
    """Estimated Gaussian masses of the regions from one sample set.

    Each value is bitwise `float(region_mask(region, x, y).mean())`.
    """
    last = max((i for i, reg in enumerate(regions) if not isinstance(reg, GridRegion)), default=-1)
    r = np.hypot(x, y) if last >= 0 else None
    out = []
    for i, region in enumerate(regions):
        radii = None if isinstance(region, GridRegion) else r
        # Python ints, so that count / n is a Python float, not a numpy scalar
        hits = sum(int(np.count_nonzero(h)) for h in _hits(region, x, y, radii))
        out.append(hits / x.size)
        if i == last:
            r = radii = None  # no radial region follows
    return out


def mc_measure(region: Region, x: np.ndarray, y: np.ndarray) -> float:
    """Estimated Gaussian mass of the region from the given sample."""
    return mc_measures([region], x, y)[0]
