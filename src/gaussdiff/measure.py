"""Exact plane-region algebra and closed-form Gaussian measures.

Two closed set families carry every computation in this package:

* grid regions: finite unions of axis-aligned rectangles whose sides are
  half-open intervals ]lo, hi] with extended-real endpoints;
* radial regions: finite unions of origin-centred annuli, identified with
  half-open radius intervals ]lo, hi], lo >= 0.

Regions are normalised on construction to a canonical form: pairwise
disjoint cells, maximally merged, deterministically ordered.  Structural
equality is therefore set equality, and Boolean operations never accumulate
redundant pieces.  Interval endpoints are only ever copied, never combined
arithmetically, so the set algebra is exact.

Measures: on the line, nu has density exp(-x*x)/sqrt(pi), hence
nu(]a, b]) = (erf(b) - erf(a)) / 2 with erf(+-inf) = +-1.  On the plane,
mu is the product nu (x) nu, so rectangles factorise, and an annulus with
radii r <= R has mass exp(-r*r) - exp(-R*R).  Both closed forms use only
the C library's erf and exp, accurate to a few ulp.  mu is atomless, so the
half-open boundary convention is measure-neutral; it is fixed once here and
used uniformly everywhere (a consequence worth knowing: the origin belongs
to no radial region, and a degenerate strip ]a, a] is empty).

All values are immutable and all functions pure; everything is safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence, Union

__all__ = [
    "NEG_INF",
    "POS_INF",
    "GRID",
    "RADIAL",
    "FamilyMismatchError",
    "Interval",
    "FULL_LINE",
    "GridRegion",
    "RadialRegion",
    "Region",
    "rect",
    "vertical_strip",
    "horizontal_strip",
    "left_half_plane",
    "lower_left_quadrant",
    "annulus",
    "disk",
    "full_plane",
    "empty_region",
    "nu_mass",
    "mu_grid",
    "mu_radial",
    "region_measure",
    "region_union",
    "region_intersect",
    "region_difference",
    "region_complement",
    "region_symdiff",
    "region_contains",
    "region_to_json",
    "region_from_json",
]

NEG_INF = float("-inf")
POS_INF = float("inf")

GRID = "grid"
RADIAL = "radial"


class FamilyMismatchError(ValueError):
    """A Boolean operation attempted to mix grid and radial regions."""


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Half-open interval ]lo, hi] of extended reals; lo == hi is empty."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if lo > hi:
            raise ValueError(f"interval ]{lo}, {hi}] has lo > hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float) -> bool:
        return self.lo < x <= self.hi

    def covers(self, other: "Interval") -> bool:
        """Set inclusion other <= self."""
        return other.is_empty or (self.lo <= other.lo and other.hi <= self.hi)


FULL_LINE = Interval(NEG_INF, POS_INF)


def _canon_1d(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
    """Union of arbitrary intervals as a sorted, disjoint, separated tuple."""
    live = sorted((iv for iv in intervals if not iv.is_empty), key=lambda iv: (iv.lo, iv.hi))
    out: list[Interval] = []
    for iv in live:
        if out and iv.lo <= out[-1].hi:
            if iv.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return tuple(out)


def _covers_1d(intervals: Sequence[Interval], lo: float, hi: float) -> bool:
    # elementary slab ]lo, hi] never straddles an endpoint of `intervals`
    return any(iv.lo <= lo and hi <= iv.hi for iv in intervals)


def _combine_1d(
    a: Sequence[Interval],
    b: Sequence[Interval],
    keep: Callable[[bool, bool], bool],
) -> tuple[Interval, ...]:
    """Pointwise Boolean combination of two disjoint-interval sets.

    The result only contains points covered by a or b, so `keep` must map
    (False, False) to False; complements are taken against an explicit
    universe interval passed as one of the operands.
    """
    pts = sorted({p for iv in (*a, *b) for p in (iv.lo, iv.hi)})
    out: list[Interval] = []
    for lo, hi in zip(pts, pts[1:]):
        if keep(_covers_1d(a, lo, hi), _covers_1d(b, lo, hi)):
            if out and out[-1].hi == lo:
                out[-1] = Interval(out[-1].lo, hi)
            else:
                out.append(Interval(lo, hi))
    return tuple(out)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def _canon_grid(
    cells: Iterable[tuple[Interval, Interval]],
) -> tuple[tuple[Interval, Interval], ...]:
    """Canonical form of a union of rectangles.

    Vertical-slab decomposition: sort all x-endpoints, compute the 1-D union
    of y-sides over each slab, then merge adjacent slabs with identical
    y-profiles.  The output is the unique maximally merged, sorted, disjoint
    cell list for the underlying point set.
    """
    live = [(cx, cy) for cx, cy in cells if not cx.is_empty and not cy.is_empty]
    if not live:
        return ()
    xs = sorted({p for cx, _ in live for p in (cx.lo, cx.hi)})
    cols: list[tuple[Interval, tuple[Interval, ...]]] = []
    for lo, hi in zip(xs, xs[1:]):
        profile = _canon_1d(cy for cx, cy in live if cx.lo <= lo and hi <= cx.hi)
        if not profile:
            continue
        if cols and cols[-1][0].hi == lo and cols[-1][1] == profile:
            cols[-1] = (Interval(cols[-1][0].lo, hi), profile)
        else:
            cols.append((Interval(lo, hi), profile))
    return tuple((cx, cy) for cx, prof in cols for cy in prof)


@dataclass(frozen=True)
class GridRegion:
    """Finite union of half-open rectangles, kept canonical."""

    cells: tuple[tuple[Interval, Interval], ...] = ()

    family: ClassVar[str] = GRID

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", _canon_grid(self.cells))

    @property
    def is_empty(self) -> bool:
        return not self.cells

    def contains_point(self, w: complex) -> bool:
        x, y = w.real, w.imag
        return any(cx.contains(x) and cy.contains(y) for cx, cy in self.cells)


@dataclass(frozen=True)
class RadialRegion:
    """Finite union of origin-centred annuli ]lo, hi] in the radius."""

    rings: tuple[Interval, ...] = ()

    family: ClassVar[str] = RADIAL

    def __post_init__(self) -> None:
        for ring in self.rings:
            if ring.lo < 0:
                raise ValueError(f"annulus radius bound {ring.lo} is negative")
        object.__setattr__(self, "rings", _canon_1d(self.rings))

    @property
    def is_empty(self) -> bool:
        return not self.rings

    def contains_point(self, w: complex) -> bool:
        r = abs(w)
        return any(ring.contains(r) for ring in self.rings)


Region = Union[GridRegion, RadialRegion]


def _canonical_region(cls: type, pieces: tuple) -> Region:
    """A region of `cls` whose `pieces` the caller knows to be canonical.

    Skips the canonicalising sweep of `__post_init__`; a single non-empty
    rectangle or ring is always canonical.  Nothing is checked here.
    """
    region = object.__new__(cls)
    object.__setattr__(region, "cells" if cls is GridRegion else "rings", pieces)
    return region


_RADIAL_UNIVERSE = Interval(0.0, POS_INF)


def _require_same_family(a: Region, b: Region) -> None:
    if a.family != b.family:
        raise FamilyMismatchError(
            f"cannot combine a {a.family} region with a {b.family} region"
        )


def _grid_profile(r: GridRegion, lo: float, hi: float) -> tuple[Interval, ...]:
    return tuple(cy for cx, cy in r.cells if cx.lo <= lo and hi <= cx.hi)


def _grid_combine(a: GridRegion, b: GridRegion, keep) -> GridRegion:
    xs = sorted(
        {p for cx, _ in (*a.cells, *b.cells) for p in (cx.lo, cx.hi)}
        | {NEG_INF, POS_INF}
    )
    cells: list[tuple[Interval, Interval]] = []
    for lo, hi in zip(xs, xs[1:]):
        prof = _combine_1d(_grid_profile(a, lo, hi), _grid_profile(b, lo, hi), keep)
        cx = Interval(lo, hi)
        cells.extend((cx, cy) for cy in prof)
    return GridRegion(tuple(cells))


def _radial_combine(a: RadialRegion, b: RadialRegion, keep) -> RadialRegion:
    return RadialRegion(_combine_1d(a.rings, b.rings, keep))


def _combine(a: Region, b: Region, keep) -> Region:
    _require_same_family(a, b)
    if isinstance(a, GridRegion):
        return _grid_combine(a, b, keep)
    return _radial_combine(a, b, keep)


def region_union(a: Region, b: Region) -> Region:
    return _combine(a, b, lambda ia, ib: ia or ib)


def region_intersect(a: Region, b: Region) -> Region:
    return _combine(a, b, lambda ia, ib: ia and ib)


def region_difference(a: Region, b: Region) -> Region:
    return _combine(a, b, lambda ia, ib: ia and not ib)


def region_symdiff(a: Region, b: Region) -> Region:
    return _combine(a, b, lambda ia, ib: ia != ib)


def region_complement(a: Region) -> Region:
    if isinstance(a, GridRegion):
        return _grid_combine(a, full_plane(GRID), lambda ia, ib: ib and not ia)
    return _radial_combine(
        a, RadialRegion((_RADIAL_UNIVERSE,)), lambda ia, ib: ib and not ia
    )


def region_contains(outer: Region, inner: Region) -> bool:
    """Set inclusion inner <= outer, decided exactly on endpoints."""
    return region_difference(inner, outer).is_empty


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def rect(x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> GridRegion:
    return GridRegion(((Interval(x_lo, x_hi), Interval(y_lo, y_hi)),))


def vertical_strip(x_lo: float, x_hi: float) -> GridRegion:
    return rect(x_lo, x_hi, NEG_INF, POS_INF)


def horizontal_strip(y_lo: float, y_hi: float) -> GridRegion:
    return rect(NEG_INF, POS_INF, y_lo, y_hi)


def left_half_plane(x: float) -> GridRegion:
    return rect(NEG_INF, x, NEG_INF, POS_INF)


def lower_left_quadrant(x: float, y: float) -> GridRegion:
    return rect(NEG_INF, x, NEG_INF, y)


def annulus(r_lo: float, r_hi: float) -> RadialRegion:
    return RadialRegion((Interval(r_lo, r_hi),))


def disk(r: float) -> RadialRegion:
    return annulus(0.0, r)


def full_plane(family: str) -> Region:
    if family == GRID:
        return GridRegion(((FULL_LINE, FULL_LINE),))
    if family == RADIAL:
        return RadialRegion((_RADIAL_UNIVERSE,))
    raise ValueError(f"unknown region family {family!r}")


def empty_region(family: str) -> Region:
    if family == GRID:
        return GridRegion()
    if family == RADIAL:
        return RadialRegion()
    raise ValueError(f"unknown region family {family!r}")


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def nu_mass(iv: Interval) -> float:
    """Mass of ]lo, hi] under the line measure with density exp(-x*x)/sqrt(pi)."""
    return 0.5 * (math.erf(iv.hi) - math.erf(iv.lo))


def mu_grid(r: GridRegion) -> float:
    """Plane Gaussian mass of a grid region (rectangles factorise)."""
    return sum(nu_mass(cx) * nu_mass(cy) for cx, cy in r.cells)


def _ring_mass(ring: Interval) -> float:
    return math.exp(-ring.lo * ring.lo) - math.exp(-ring.hi * ring.hi)


def mu_radial(r: RadialRegion) -> float:
    """Plane Gaussian mass of a radial region."""
    return sum(_ring_mass(ring) for ring in r.rings)


def region_measure(r: Region) -> float:
    if isinstance(r, GridRegion):
        return mu_grid(r)
    return mu_radial(r)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _endpoint_to_json(v: float):
    if v == NEG_INF:
        return "-inf"
    if v == POS_INF:
        return "inf"
    return v


def _endpoint_from_json(v) -> float:
    if v == "-inf":
        return NEG_INF
    if v == "inf":
        return POS_INF
    return float(v)


def _interval_to_json(iv: Interval) -> list:
    return [_endpoint_to_json(iv.lo), _endpoint_to_json(iv.hi)]


def _interval_from_json(v) -> Interval:
    return Interval(_endpoint_from_json(v[0]), _endpoint_from_json(v[1]))


def region_to_json(r: Region) -> dict:
    if isinstance(r, GridRegion):
        return {
            "family": GRID,
            "cells": [[_interval_to_json(cx), _interval_to_json(cy)] for cx, cy in r.cells],
        }
    return {"family": RADIAL, "rings": [_interval_to_json(ring) for ring in r.rings]}


def region_from_json(d: dict) -> Region:
    family = d["family"]
    if family == GRID:
        return GridRegion(
            tuple(
                (_interval_from_json(cx), _interval_from_json(cy))
                for cx, cy in d["cells"]
            )
        )
    if family == RADIAL:
        return RadialRegion(tuple(_interval_from_json(ring) for ring in d["rings"]))
    raise ValueError(f"unknown region family {family!r}")
