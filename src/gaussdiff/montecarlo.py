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
from typing import Optional, Sequence

import numpy as np

from .measure import GridRegion, Piece, Region, _pieces

__all__ = ["plane_samples", "region_mask", "mc_measure", "mc_measures"]


def plane_samples(n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """n Gaussian plane points as (x, y) coordinate arrays."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, math.sqrt(0.5), size=(2, int(n)))
    return pts[0], pts[1]


def _hits(piece: Piece, x: np.ndarray, y: np.ndarray, r: Optional[np.ndarray]) -> np.ndarray:
    """Boolean membership of the samples in one rectangle, or in one ring given the radii r."""
    if r is None:
        cx, cy = piece
        return (x > cx.lo) & (x <= cx.hi) & (y > cy.lo) & (y <= cy.hi)
    return (r > piece.lo) & (r <= piece.hi)


def region_mask(region: Region, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boolean membership of the sample points in the region."""
    mask = np.zeros(x.shape, dtype=bool)
    r = None if isinstance(region, GridRegion) else np.hypot(x, y)
    for piece in _pieces(region):
        mask |= _hits(piece, x, y, r)
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
        hits = sum(int(np.count_nonzero(_hits(p, x, y, radii))) for p in _pieces(region))
        out.append(hits / x.size)
        if i == last:
            r = radii = None  # no radial region follows
    return out


def mc_measure(region: Region, x: np.ndarray, y: np.ndarray) -> float:
    """Estimated Gaussian mass of the region from the given sample."""
    return mc_measures([region], x, y)[0]
