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

One overlay kernel (the coordinate-compressed sweep of Klee's rectangle
problem) computes all of it.  Its pieces are endpoint tuples, not
Intervals: a rectangle is (x_lo, x_hi, y_lo, y_hi) and a ring (lo, hi).
They are passed column-wise, one flat lo, hi, lo, hi, ... sequence per
axis; `_ends` lays region pieces out that way, and simple functions
store their terms and atoms that way.  The kernel sorts the distinct x
and y endpoints of a list of weighted pieces once (radii for rings: the
same kernel in one dimension); each piece covers a contiguous block of
elementary cells and adds its weight to that block as one slice of a
complex grid, in piece order.  A predicate on the cell sums keeps some
cells; runs of kept, equal neighbours merge along y, then equal whole
columns along x.  The result is the canonical cell list, and it is used
four ways:

* construction weights every non-empty piece 1 and keeps sums != 0; a
  single non-empty rectangle or ring is canonical already and is kept
  as given;
* a Boolean weights the left operand's pieces 1 and the right's 2.  Both
  are canonical, so a cell sums to 0 (in neither), 1 (left only), 2
  (right only) or 3 (both): union keeps != 0, intersection == 3,
  difference == 1 and symmetric difference 1 or 2.  The complement is
  the difference from the full plane, and inclusion an empty difference;
* simple functions (simplefn.py) weight each piece with its term's
  complex coefficient and keep the cells whose modulus clears a
  threshold; the merged runs are their atoms;
* a support check weights a function's (disjoint) atoms 1 and the
  bound's pieces 2; the support lies inside iff no cell sums to 1.

A zero spelled -0.0 in one piece and 0.0 in another is one breakpoint of
the sweep, so the result spells it the same way everywhere.

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
from typing import Callable, ClassVar, Sequence, Union

import numpy as np

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


def _side(lo: float, hi: float) -> list[float]:
    """The endpoints of ]lo, hi] as floats [lo, hi]; NaN and lo > hi raise ValueError."""
    lo = float(lo)
    hi = float(hi)
    if lo != lo or hi != hi:  # NaN
        raise ValueError("interval endpoints must not be NaN")
    if lo > hi:
        raise ValueError(f"interval ]{lo}, {hi}] has lo > hi")
    return [lo, hi]


def _nonnegative(r_lo: float) -> None:
    if r_lo < 0:
        raise ValueError(f"annulus radius bound {r_lo} is negative")


@dataclass(frozen=True, slots=True)
class Interval:
    """Half-open interval ]lo, hi] of extended reals; lo == hi is empty."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = _side(self.lo, self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def is_empty(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: float) -> bool:
        return self.lo < x <= self.hi


FULL_LINE = Interval(NEG_INF, POS_INF)

#: A rectangle (x-side, y-side) of a grid region, or a ring of a radial one.
Piece = Union[tuple[Interval, Interval], Interval]


# ---------------------------------------------------------------------------
# the overlay kernel
# ---------------------------------------------------------------------------


def _ends(pieces: Sequence[Piece], family: str) -> list[list[float]]:
    """The kernel's form of rectangles (cx, cy) or rings: endpoints per axis.

    Piece i spans ]e[2i], e[2i+1]] on the axis of sequence e.
    """
    if family == RADIAL:
        return [[p for ring in pieces for p in (ring.lo, ring.hi)]]
    return [
        [p for cx, _ in pieces for p in (cx.lo, cx.hi)],
        [p for _, cy in pieces for p in (cy.lo, cy.hi)],
    ]


def _from_ends(ends: Sequence[Sequence[float]]) -> list[Piece]:
    """The rectangles or rings of the kernel's endpoint sequences (inverse of `_ends`)."""
    if len(ends) == 1:
        (re,) = ends
        return [Interval(lo, hi) for lo, hi in zip(re[::2], re[1::2])]
    xe, ye = ends
    return [
        (Interval(xlo, xhi), Interval(ylo, yhi))
        for xlo, xhi, ylo, yhi in zip(xe[::2], xe[1::2], ye[::2], ye[1::2])
    ]


def _piece_ends(
    family: str, sides: Sequence[tuple[float, float]]
) -> tuple[list[float], ...] | None:
    """`_ends` of one rectangle (x-side, y-side) or ring given by its sides; None if empty.

    Each side (lo, hi) is checked as Interval checks it, and a ring as
    RadialRegion checks it, with the same exceptions.  As in a region, a
    piece with an empty side is empty.
    """
    ends = tuple([_side(lo, hi) for lo, hi in sides])
    if family == RADIAL:
        _nonnegative(ends[0][0])
    for lo, hi in ends:
        if lo == hi:
            return None
    return ends


def _cell_sums(
    weights: Sequence[complex], ends: Sequence[Sequence[float]]
) -> tuple[list[list[float]], np.ndarray]:
    """Sorted distinct endpoints per axis, and every elementary cell's sum.

    `weights[i]` is the weight of piece i, whose endpoints `ends` holds as
    `_ends` lays them out.  A piece covers a contiguous block of elementary
    cells, so its weight is added to that block as one slice; cells receive
    their additions in piece order, starting from 0j, exactly as a per-cell
    loop would.  Each axis keeps the spelling of a zero it meets first.
    """
    # `block += c` on a view; `sums[...] += c` would also copy the block back
    axes = [sorted(set(e)) for e in ends]
    sums = np.zeros([len(a) - 1 for a in axes], dtype=complex)
    if len(axes) == 1:
        (rs,), (re,) = axes, ends
        ir = dict(zip(rs, range(len(rs))))
        for c, lo, hi in zip(weights, re[::2], re[1::2]):
            block = sums[ir[lo] : ir[hi]]
            block += c
        return axes, sums
    (xs, ys), (xe, ye) = axes, ends
    ix = dict(zip(xs, range(len(xs))))
    iy = dict(zip(ys, range(len(ys))))
    for c, xlo, xhi, ylo, yhi in zip(weights, xe[::2], xe[1::2], ye[::2], ye[1::2]):
        block = sums[ix[xlo] : ix[xhi], iy[ylo] : iy[yhi]]
        block += c
    return axes, sums


def _runs(edges: Sequence[float], values: Sequence, tol: float) -> list[list]:
    """[lo, hi, v] runs of consecutive kept cells (abs(v) > tol) with equal values."""
    runs: list[list] = []
    for lo, hi, v in zip(edges, edges[1:], values):
        if abs(v) <= tol:
            continue
        if runs and runs[-1][1] == lo and runs[-1][2] == v:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, v])
    return runs


def _merged(axes: list[list[float]], values: list, tol: float) -> list[list]:
    """Runs of the kept cells (1-D), or [x_lo, x_hi, y-runs] columns (2-D).

    Kept neighbouring cells with equal values merge into y-runs, then
    neighbouring columns with equal runs merge.
    """
    if len(axes) == 1:
        return _runs(axes[0], values, tol)
    xs, ys = axes
    columns: list[list] = []
    for xlo, xhi, column in zip(xs, xs[1:], values):
        profile = _runs(ys, column, tol)
        if not profile:
            continue
        if columns and columns[-1][1] == xlo and columns[-1][2] == profile:
            columns[-1][1] = xhi
        else:
            columns.append([xlo, xhi, profile])
    return columns


def _overlay(
    weights: Sequence[complex],
    ends: Sequence[Sequence[float]],
    tol: float,
    keep: Callable = lambda sums: sums,
) -> list[list]:
    """`_merged` runs or columns of the cells whose value `keep(sum)` has abs > tol.

    With fewer than two pieces numpy is skipped: a single (non-empty)
    piece is its own elementary cell, valued 0j + w as `_cell_sums` would
    value it.  This is the endpoint form of `_canon`'s rule that a single
    piece is canonical as given.
    """
    if not weights:
        return []
    if len(weights) == 1:
        value = keep(0j + weights[0])
        return _merged([list(e) for e in ends], [value] if len(ends) == 1 else [[value]], tol)
    axes, sums = _cell_sums(weights, ends)
    return _merged(axes, keep(sums).tolist(), tol)


def _sweep(
    weights: Sequence[int],
    ends: Sequence[Sequence[float]],
    keep: Callable[[np.ndarray], np.ndarray],
) -> tuple:
    """Canonical pieces of the union of the cells whose weight sum `keep` accepts."""
    # a bool mask: abs(True) > 0 keeps a cell, and kept neighbours are equal
    merged = _overlay(weights, ends, 0.0, keep)
    if len(ends) == 1:
        return tuple(Interval(lo, hi) for lo, hi, _ in merged)
    # one y-side per distinct run; an axis spells each endpoint one way
    sides: dict[tuple[float, float], Interval] = {}
    cells = []
    for xlo, xhi, profile in merged:
        cx = Interval(xlo, xhi)
        for ylo, yhi, _ in profile:
            cy = sides.get((ylo, yhi))
            if cy is None:
                cy = sides[ylo, yhi] = Interval(ylo, yhi)
            cells.append((cx, cy))
    return tuple(cells)


def _nonzero(sums: np.ndarray) -> np.ndarray:
    return sums != 0


def _canon(live: list, family: str) -> tuple:
    """Canonical form of the union of non-empty pieces."""
    if len(live) == 1:
        return tuple(live)
    return _sweep([1] * len(live), _ends(live, family), _nonzero)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GridRegion:
    """Finite union of half-open rectangles, kept canonical."""

    cells: tuple[tuple[Interval, Interval], ...] = ()

    family: ClassVar[str] = GRID

    def __post_init__(self) -> None:
        live = [(cx, cy) for cx, cy in self.cells if not cx.is_empty and not cy.is_empty]
        object.__setattr__(self, "cells", _canon(live, GRID))

    @property
    def is_empty(self) -> bool:
        return not self.cells

    def contains_point(self, w: complex) -> bool:
        x, y = w.real, w.imag
        return any(cx.contains(x) and cy.contains(y) for cx, cy in self.cells)


@dataclass(frozen=True, slots=True)
class RadialRegion:
    """Finite union of origin-centred annuli ]lo, hi] in the radius."""

    rings: tuple[Interval, ...] = ()

    family: ClassVar[str] = RADIAL

    def __post_init__(self) -> None:
        for ring in self.rings:
            _nonnegative(ring.lo)
        live = [ring for ring in self.rings if not ring.is_empty]
        object.__setattr__(self, "rings", _canon(live, RADIAL))

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


def _pieces(r: Region) -> tuple[Piece, ...]:
    return r.cells if isinstance(r, GridRegion) else r.rings


def _combine(a: Region, b: Region, keep) -> Region:
    # both operands are canonical (disjoint pieces), so a cell sums to
    # 0 (in neither), 1 (only in a), 2 (only in b) or 3 (in both)
    _require_same_family(a, b)
    pa, pb = _pieces(a), _pieces(b)
    weights = [1] * len(pa) + [2] * len(pb)
    return _canonical_region(type(a), _sweep(weights, _ends(pa + pb, a.family), keep))


def region_union(a: Region, b: Region) -> Region:
    return _combine(a, b, _nonzero)


def region_intersect(a: Region, b: Region) -> Region:
    return _combine(a, b, lambda s: s == 3)


def region_difference(a: Region, b: Region) -> Region:
    return _combine(a, b, lambda s: s == 1)


def region_symdiff(a: Region, b: Region) -> Region:
    return _combine(a, b, lambda s: (s == 1) | (s == 2))


def region_complement(a: Region) -> Region:
    return region_difference(full_plane(a.family), a)


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


def _nu(lo: float, hi: float) -> float:
    return 0.5 * (math.erf(hi) - math.erf(lo))


def nu_mass(iv: Interval) -> float:
    """Mass of ]lo, hi] under the line measure with density exp(-x*x)/sqrt(pi)."""
    return _nu(iv.lo, iv.hi)


def mu_grid(r: GridRegion) -> float:
    """Plane Gaussian mass of a grid region (rectangles factorise)."""
    return sum(nu_mass(cx) * nu_mass(cy) for cx, cy in r.cells)


def _ring(lo: float, hi: float) -> float:
    return math.exp(-lo * lo) - math.exp(-hi * hi)


def mu_radial(r: RadialRegion) -> float:
    """Plane Gaussian mass of a radial region."""
    return sum(_ring(ring.lo, ring.hi) for ring in r.rings)


def _ends_measure(ends: Sequence[Sequence[float]]) -> float:
    """Gaussian mass of disjoint pieces laid out by `_ends`.

    Bitwise `region_measure` of the region of those pieces, in that order.
    """
    if len(ends) == 1:
        (re,) = ends
        return sum(_ring(lo, hi) for lo, hi in zip(re[::2], re[1::2]))
    xe, ye = ends
    return sum(
        _nu(xlo, xhi) * _nu(ylo, yhi)
        for xlo, xhi, ylo, yhi in zip(xe[::2], xe[1::2], ye[::2], ye[1::2])
    )


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
