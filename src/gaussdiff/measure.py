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

A region holds its canonical pieces as endpoint columns in one float64
array with a row per axis (x and y for rectangles, the radius for
rings): row e is the flat column lo, hi, lo, hi, ..., piece i spanning
]e[2i], e[2i+1]] on its axis.  Simple functions (simplefn.py) lay out
their terms and atoms the same way, but in one list of floats per axis.
The two meet at the readers that need Python floats, each of which calls
`.tolist()` once: `indicator(r)` and
`SimpleFunction(...)` (which take a region's pieces into a function),
the inclusion walk (`region_contains`, and `supported_in`: a function's
atoms against a bound's region), the masses
(`_piece_masses`), `contains_point`, json, the `cells`/`rings` views, the
Monte-Carlo counts, and the kernel's small grids below.  The constructors
check their sides with `_piece_ends` and build the arrays directly; a
Boolean concatenates its operands' arrays, and the kernel hands back the
result's.  No Interval is built on the way.  The `cells` (or `rings`) of
a region, a tuple of Intervals, is a view built on first read and cached.

One overlay kernel (the coordinate-compressed sweep of Klee's rectangle
problem) computes all of it.  It sorts the distinct x and y endpoints of a
list of weighted pieces once (radii for rings: the same kernel in one
dimension); each piece covers a contiguous block of elementary cells.  A
predicate on the cell sums keeps some cells; runs of kept, equal
neighbours merge along y, then equal whole columns along x.  The result is
the canonical cell list, as values and endpoint columns.

The kernel has two forms, chosen by grid size alone.  A grid of fewer
than `_ARRAY_CELLS` elementary cells is merged in Python, whose fixed cost
is lower.  A larger grid is merged on numpy arrays.  A region operation's
integer weights are summed on its arrays from start to end
(`_parts_sums`): `_axis` gives each sorted axis and every endpoint's
index on it, and a summed-area table (Crow 1984) gives every cell's
cover count, exactly: each piece adds its weight at the corners of its
block in a difference grid, `np.bincount` adds the corners up, and two
running sums give the counts.  Only pieces too few for a grid of
`_ARRAY_CELLS` cells go through lists, as a function's columns do:
`_cell_sums` adds each piece's weight to its block as one slice of a
complex grid, in piece order from 0j.  The rounding of a float sum
depends on the order of its additions, and piece order is the order a
per-cell loop adds in.  The array merge finds the kept cells (Python's
abs decides those within a few ulp of the threshold), the ends of the
y-runs by comparing each cell with its neighbour and the equal columns
by comparing whole columns; it then reads the output columns off the
sorted axes by index.  Both forms give the same values and columns.  A
function's array form (`_array_merged`) also hands back its pieces'
moduli and masses as float64 arrays, for the gauges, computed from the
arrays it read the pieces off: moduli by `np.hypot` of the kept values
(the libm hypot Python's complex abs calls), masses from one erf (or
exp) per axis endpoint and each piece's sides as index arrays into the
sorted axes (`_indexed_masses`, bitwise `_piece_masses`).  Regions,
which are never gauged, stop at the runs (`_array_runs`).  The kernel is
used in three ways; inclusion needs no grid:

* construction weights every non-empty piece 1 and keeps sums != 0; a
  single non-empty rectangle or ring is canonical already and is kept
  as given;
* a Boolean weights the left operand's pieces 1 and the right's 2.  Both
  are canonical, so a cell sums to 0 (in neither), 1 (left only), 2
  (right only) or 3 (both): union keeps != 0, intersection == 3,
  difference == 1 and symmetric difference 1 or 2.  The complement is
  the difference from the full plane;
* simple functions (simplefn.py) weight each piece with its term's
  complex coefficient and keep the cells whose modulus clears a
  threshold; the merged runs are their atoms;
* inclusion (`region_contains`, and `supported_in` with a function's
  disjoint atoms as the inner pieces) walks the outer region's canonical
  x-columns and their y-runs on lists, finding each inner piece's first
  column by bisection (`_inside`), at every region size.

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
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from typing import Callable, ClassVar, Iterable, Sequence, Union

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
    """An operation mixed grid and radial regions, or got a region of the wrong family."""


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def _side(lo: float, hi: float) -> list[float]:
    """The endpoints of ]lo, hi] as floats [lo, hi]; NaN and lo > hi raise ValueError.

    Every endpoint enters through here, and `+ 0.0` turns -0.0 into 0.0, so
    no endpoint anywhere is -0.0: a zero has one spelling.
    """
    lo = float(lo) + 0.0
    hi = float(hi) + 0.0
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

#: A region's endpoint columns: a float64 array of shape (axes, 2 * pieces),
#: each row one axis's flat lo, hi, lo, hi, ... column.
_Ends = np.ndarray
#: A function's endpoint columns: the same layout, one list of floats per axis.
_Columns = tuple[list[float], ...]


# ---------------------------------------------------------------------------
# the overlay kernel
# ---------------------------------------------------------------------------

#: Elementary cells from which the kernel merges runs on numpy arrays;
#: smaller grids keep the Python loops.  Set where the two forms broke even
#: on the benchmark workloads' own overlays while regions held lists (2 vCPU
#: Xeon): the array form took about 80% of the loops' time on their 64-127
#: cell grids, the same on 32-63 cells and about a third more on 16-31.
#: With regions held as arrays, a union's whole array path breaks even with
#: the list path at about 20-30 cells in 1-D and 120-130 cells in 2-D.
_ARRAY_CELLS = 64


def _piece_ends(family: str, sides: Sequence[tuple[float, float]]) -> _Columns | None:
    """Endpoint columns of one rectangle (x-side, y-side) or ring given by its sides, or None.

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


def _joined(family: str, columns: Iterable[Sequence[Sequence[float]]]) -> _Columns:
    """The endpoint columns of the pieces of all `columns`, in order, on the axes of `family`."""
    out = ([], []) if family == GRID else ([],)
    for ends in columns:
        for acc, e in zip(out, ends):
            acc += e
    return out


def _cell_sums(
    weights: Sequence[complex], ends: Sequence[Sequence[float]]
) -> tuple[list[list[float]], np.ndarray]:
    """Sorted distinct endpoints per axis, and every elementary cell's complex sum.

    `weights[i]` is the weight of piece i, whose endpoints `ends` holds as
    endpoint columns of floats.  A piece covers a contiguous block of
    elementary cells, and its weight is added to the block as one slice
    of a complex grid; cells receive their additions in piece order,
    starting from 0j, exactly as a per-cell loop would.  Integer weights
    (a region's pieces too few for `_cover_counts`) are summed the same
    way; their callers read the sums only through comparisons with small
    integers, where an integer sum and its complex twin agree.
    """
    axes = [sorted(set(e)) for e in ends]
    # `block += c` on a view; `sums[...] += c` would also copy the block back
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


def _cover_counts(weights: np.ndarray, ends: _Ends) -> tuple[list[np.ndarray], np.ndarray]:
    """Sorted distinct endpoints per axis, and every elementary cell's sum of integer weights.

    `weights[i]` is the weight of piece i, whose endpoints `ends` holds as
    float64 endpoint columns (a region's, one row per axis).  `_axis` gives each axis and
    every endpoint's index on it.  The sums come from a summed-area table
    (Crow 1984): each piece adds its weight at its block's low corner and
    subtracts it past each high side (inclusion-exclusion on the 2**d
    corners of a difference grid one larger per axis), `np.bincount` adds
    up the corners, and a running sum along every axis leaves each cell
    the sum of the weights of the pieces covering it.  The weights are
    small integers, so every sum and partial sum is an integer that
    float64 holds exactly, in any order of addition.
    """
    axes, at = [], []
    for e in ends:
        axis, index = _axis(e)
        axes.append(axis)
        at.append(index.reshape(-1, 2))  # the [lo, hi] indices of each piece
    if len(axes) == 1:
        diff = np.bincount(at[0].ravel(), (weights[:, None] * _SIGNS_1D).ravel(), len(axes[0]))
        return axes, np.cumsum(diff, out=diff)[:-1]
    nx, ny = len(axes[0]), len(axes[1])
    # flat corner indices [lo, lo], [lo, hi], [hi, lo], [hi, hi] (x, y) of each piece
    corners = at[0][:, _CORNER_X] * ny + at[1][:, _CORNER_Y]
    diff = np.bincount(corners.ravel(), (weights[:, None] * _SIGNS_2D).ravel(), nx * ny)
    diff = diff.reshape(nx, ny)
    # running sums in place: a grid-sized temporary fewer per axis
    np.cumsum(diff, 0, out=diff)
    np.cumsum(diff, 1, out=diff)
    return axes, diff[:-1, :-1]


def _axis(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of one endpoint column, and each endpoint's index among them.

    What `np.unique(e, return_inverse=True)` computes, by the same
    argsort, without its fixed cost (about 5 us a call on a 2 vCPU Xeon,
    half the time of this on a Boolean's short columns).  The order is
    that of `sorted(set(e))`: no endpoint is NaN or -0.0.
    """
    order = e.argsort()
    ends = e[order]
    new = np.empty(len(ends), dtype=bool)
    new[:1] = True
    np.not_equal(ends[1:], ends[:-1], out=new[1:])
    index = np.empty(len(ends), dtype=np.intp)
    index[order] = new.cumsum() - 1
    return ends[new], index


_SIGNS_1D = np.array([1, -1])
_CORNER_X, _CORNER_Y, _SIGNS_2D = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [1, -1, -1, 1]])


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


def _merged(axes: list[list[float]], values: list, tol: float) -> tuple[list, _Columns]:
    """Values and endpoint columns of the merged kept cells (abs(v) > tol).

    Kept neighbouring cells with equal values merge into runs along the
    last axis; in 2-D, neighbouring columns (x-slabs) with equal runs then
    merge.  Piece i of the result has the value values[i] and spans
    ]e[2i], e[2i+1]] on the axis of column e; pieces are ordered by x, then
    by y.  This is the kernel's one output format.
    """
    if len(axes) == 1:
        runs = _runs(axes[0], values, tol)
        return [v for _, _, v in runs], ([p for lo, hi, _ in runs for p in (lo, hi)],)
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
    out: list = []
    xe: list[float] = []
    ye: list[float] = []
    for xlo, xhi, profile in columns:
        for ylo, yhi, v in profile:
            out.append(v)
            xe += (xlo, xhi)
            ye += (ylo, yhi)
    return out, (xe, ye)


def _overlay(
    weights: Sequence[complex], ends: Sequence[Sequence[float]], tol: float
) -> tuple[list, _Columns, tuple | None]:
    """`_merged` values and columns of the cells whose sum has abs > tol, and their arrays.

    With fewer than two pieces numpy is skipped: a single (non-empty)
    piece is its own elementary cell, valued 0j + w as `_cell_sums` would
    value it.  This is the endpoint form of `_canon`'s rule that a single
    piece is canonical as given.  A grid of at least `_ARRAY_CELLS` cells
    is merged on arrays by `_array_merged`, which also hands back the
    pieces' moduli and masses as arrays; a smaller one by `_merged`, and
    the arrays are None.  Both give the same values and columns.
    """
    if not weights:
        return [], tuple([] for _ in ends), None
    if len(weights) == 1:
        value = 0j + weights[0]
        if abs(value) <= tol:  # dropped as `_runs` drops a cell
            return [], tuple([] for _ in ends), None
        return [value], tuple(list(e) for e in ends), None
    axes, sums = _cell_sums(weights, ends)
    if sums.size < _ARRAY_CELLS:
        return *_merged(axes, sums.tolist(), tol), None
    return _array_merged(axes, sums, tol)


def _kept(values: np.ndarray, tol: float) -> np.ndarray:
    """The cells `_runs` keeps, abs(v) > tol or NaN, decided as Python's abs decides them.

    numpy's complex modulus may differ from Python's by a few ulp, so
    Python's abs re-decides the cells within 16 ulp of tol.  It also
    re-decides the cells whose numpy modulus is infinite: there Python's
    abs raises OverflowError for finite parts, as `_runs` would.
    """
    mag = np.abs(values)
    kept = ~(mag <= tol)
    if values.dtype.kind == "c":
        recheck = (np.abs(mag - tol) <= 16 * np.spacing(tol)) | np.isinf(mag)
        for at in zip(*np.nonzero(recheck)):
            kept[at] = not abs(values[at].item()) <= tol
    return kept


def _array_merged(
    axes: list[list[float]], values: np.ndarray, tol: float
) -> tuple[list, _Columns, tuple[np.ndarray, np.ndarray]]:
    """`_merged(axes, values.tolist(), tol)` with every cell visited by numpy, and its arrays.

    The merged runs are found by `_array_runs`, whose cell grids are freed
    before the output lists are built.  No Python list is built per run:
    the endpoint columns are read off the axes by index (`_column`) and
    the values are the first cells' `.tolist()` values.  The arrays are
    two float64 arrays: the values' moduli (`np.hypot`, bitwise Python's
    abs) and the pieces' masses (`_indexed_masses`, bitwise
    `_piece_masses`).  They are computed after the lists, so a build's
    peak memory does not grow by them.
    """
    out, at = _array_runs(axes, values, tol)
    merged = out.tolist(), tuple(_column(axis, *sides) for axis, sides in zip(axes, at))
    return *merged, (np.hypot(out.real, out.imag), _indexed_masses(axes, at))


def _array_runs(
    axes: list[list[float]], values: np.ndarray, tol: float
) -> tuple[np.ndarray, tuple]:
    """The first cell's value of each merged run, and per axis the run's (lo, hi) axis indices.

    Unkept cells read as 0, which no kept cell equals (its abs exceeds tol
    >= 0, or it is NaN; with tol < 0 or NaN every cell is kept).  On those
    masked values a kept cell continues the y-run below it iff it equals
    that cell; == is transitive here (a NaN equals nothing), so this is
    `_runs`' comparison with the run's first value.  A column continues
    the one to its left iff the two are equal as a whole, which is
    `_merged`'s comparison of their runs.
    """
    kept = _kept(values, tol)
    masked = np.where(kept, values, np.zeros((), values.dtype))
    if len(axes) == 1:
        masked, kept = masked[None], kept[None]
    else:
        # the first column of each group of equal columns, then the end
        edges = np.ones(len(kept) + 1, dtype=bool)
        edges[1:-1] = (masked[1:] != masked[:-1]).any(axis=1)
        edges = np.flatnonzero(edges)
        nonempty = kept[edges[:-1]].any(axis=1)
        heads, tails = edges[:-1][nonempty], edges[1:][nonempty]
        masked, kept = masked[heads], kept[heads]
    # change[:, j]: no run continues from cell j - 1 to cell j
    change = np.ones((len(kept), kept.shape[1] + 1), dtype=bool)
    change[:, 1:-1] = masked[:, 1:] != masked[:, :-1]
    rows, lo = np.nonzero(kept & change[:, :-1])
    _, hi = np.nonzero(kept & change[:, 1:])
    at = ((lo, hi + 1),)
    if len(axes) == 2:
        at = ((heads[rows], tails[rows]),) + at
    return masked[rows, lo], at


def _column(axis: list[float], lo: np.ndarray, hi: np.ndarray) -> list[float]:
    """The endpoint column axis[lo[0]], axis[hi[0]], axis[lo[1]], ... of index arrays.

    Read through an object array, so the column holds the axis's own float
    objects, as `_merged`'s columns do, rather than a new float per endpoint.
    """
    return np.array(axis, dtype=object)[_interleaved(lo, hi)].tolist()


def _interleaved(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The index array lo[0], hi[0], lo[1], hi[1], ...: an endpoint column's layout."""
    at = np.empty(2 * len(lo), dtype=np.intp)
    at[::2] = lo
    at[1::2] = hi
    return at


def _parts_sums(parts: Sequence[_Ends]) -> tuple[list, np.ndarray]:
    """Sorted distinct endpoints per axis, and every elementary cell's integer sum.

    The pieces of part k (float64 endpoint columns) weigh k + 1.  n pieces
    make (2n - 1)**d cells at most: enough pieces for `_ARRAY_CELLS` cells
    are summed by `_cover_counts`, and the axes are arrays.  Fewer pieces
    are summed by `_cell_sums` on `.tolist()`, and the axes are lists.
    """
    sizes = [part.shape[1] // 2 for part in parts]
    if (2 * sum(sizes) - 1) ** len(parts[0]) >= _ARRAY_CELLS:
        weights = np.repeat(np.arange(1, len(parts) + 1), sizes)
        return _cover_counts(weights, np.concatenate(parts, axis=1))
    weights = []
    for k, n in enumerate(sizes, 1):
        weights += [k] * n
    return _cell_sums(weights, np.concatenate(parts, axis=1).tolist())


def _sweep(parts: Sequence[_Ends], keep: Callable[[np.ndarray], np.ndarray]) -> _Ends:
    """Float64 endpoint columns of the canonical pieces of the cells whose sum `keep` accepts.

    The region form of the overlay kernel; the pieces of part k weigh
    k + 1 (see `_parts_sums`).  Fewer than two pieces are canonical as
    given, a single one kept iff `keep` accepts its weight.  A grid of
    fewer than `_ARRAY_CELLS` cells is merged by `_merged`'s loops on
    lists; a larger one by `_array_runs`, and the runs' columns are read
    off the sorted axes by index.  `keep` gives a bool mask: abs(True) > 0
    keeps a cell, and kept neighbours are equal.
    """
    if sum(part.shape[1] for part in parts) // 2 < 2:
        for k, part in enumerate(parts, 1):
            if len(part[0]) and keep(k):
                return part
        return _empty(len(parts[0]))
    axes, sums = _parts_sums(parts)
    kept = keep(sums)
    if kept.size < _ARRAY_CELLS:
        axes = [a if isinstance(a, list) else a.tolist() for a in axes]
        return _array_columns(_merged(axes, kept.tolist(), 0.0)[1])
    _, at = _array_runs(axes, kept, 0.0)
    return np.array([axis[_interleaved(*sides)] for axis, sides in zip(axes, at)])


def _nonzero(sums: np.ndarray) -> np.ndarray:
    return sums != 0


def _canon(ends: _Ends) -> _Ends:
    """Endpoint columns of the canonical form of the union of non-empty pieces."""
    return _sweep((ends,), _nonzero)


def _inside(inner: _Columns, outer: _Columns) -> bool:
    """Whether the non-empty pieces of `inner` lie inside the union of those of `outer`.

    Both are endpoint columns as lists of floats: a region's `.tolist()`,
    or a function's atoms as the inner pieces.  `outer` is canonical, and
    no cell grid is built: this walks its canonical structure.  An empty
    inner always lies inside.

    In 1-D the outer rings are sorted, disjoint and never adjacent, so
    their endpoints rise strictly, and ]lo, hi] lies inside iff one ring
    ]a, b] holds it: `bisect_right` of lo is odd (a <= lo < b), and
    hi <= b.  In 2-D the outer pieces group into x-columns, consecutive
    pieces with one x-side; the columns are sorted and disjoint (so their
    high ends tell them apart), and the y-runs of a column are such rings.
    A rectangle lies inside iff the columns that meet its x-side cover it
    with no gap and each holds its y-side in one run.  Its first column is
    found by `bisect_right` on the columns' high ends, so a rectangle
    costs a bisection plus the columns it spans.
    """
    if not inner[0]:
        return True
    if len(outer) == 1:
        (runs,), ends = outer, iter(inner[0])
        for lo, hi in zip(ends, ends):
            k = bisect_right(runs, lo)
            if not (k & 1 and hi <= runs[k]):
                return False
        return True
    col_lo: list[float] = []
    col_hi: list[float] = []
    col_runs: list[list[float]] = []
    xs, ys = map(iter, outer)
    for xlo, xhi, ylo, yhi in zip(xs, xs, ys, ys):
        if col_hi and xhi == col_hi[-1]:
            col_runs[-1] += (ylo, yhi)
        else:
            col_lo.append(xlo)
            col_hi.append(xhi)
            col_runs.append([ylo, yhi])
    columns = len(col_hi)
    xs, ys = map(iter, inner)
    for xlo, xhi, ylo, yhi in zip(xs, xs, ys, ys):
        i = bisect_right(col_hi, xlo)  # the first column reaching past xlo
        at = xlo  # ]xlo, at] is covered so far
        while at < xhi:
            if i == columns or col_lo[i] > at:
                return False
            runs = col_runs[i]
            k = bisect_right(runs, ylo)
            if not (k & 1 and yhi <= runs[k]):
                return False
            at = col_hi[i]
            i += 1
    return True


def _empty(axes: int) -> _Ends:
    """The endpoint columns of no piece, on `axes` axes."""
    return np.empty((axes, 0))


def _array_columns(columns: Sequence[list[float]]) -> _Ends:
    """The float64 endpoint columns of equally long lists of floats, one per axis."""
    return np.array(columns, dtype=float)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


class _Region:
    """What the two region families share: endpoint columns and value semantics.

    `_ends` holds the canonical pieces as float64 endpoint columns, one row
    per axis (see the module docstring), which nothing changes; `_view`
    caches the Interval view of them.  Immutable, slotted, and with the
    `==`, `hash` and `repr` of a frozen dataclass with the one field
    `cells` (or `rings`): `==` compares the columns elementwise, so it is
    set equality, and `hash` hashes their values as Python floats, as the
    view's would be.
    """

    __slots__ = ("_ends", "_view")

    family: ClassVar[str]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle restore the columns as they are
        return _canonical_region, (type(self), self._ends)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self._ends, other._ends)

    def __hash__(self) -> int:
        return hash(tuple(map(tuple, self._ends.tolist())))

    @property
    def is_empty(self) -> bool:
        return not self._ends.shape[1]


_new_object = object.__new__
_set_field = object.__setattr__


def _hold(region: _Region, ends: _Ends) -> None:
    _set_field(region, "_ends", ends)
    _set_field(region, "_view", None)  # built on first read


def _intervals(e: np.ndarray) -> list[Interval]:
    """The Intervals ]e[2i], e[2i+1]] of one endpoint column; equal sides share one Interval."""
    shared: dict[tuple, Interval] = {}
    out = []
    ends = iter(e.tolist())
    for lo, hi in zip(ends, ends):
        key = (lo, hi)
        iv = shared.get(key)
        if iv is None:
            iv = shared[key] = Interval(lo, hi)
        out.append(iv)
    return out


class GridRegion(_Region):
    """Finite union of half-open rectangles, kept canonical.

    `GridRegion(cells)` takes (x-side, y-side) Interval pairs and holds the
    endpoint columns of their union's canonical rectangles.  `cells`, the
    tuple of those rectangles as Interval pairs, is a view built on first
    read; a rectangle's x-side is shared by the cells of its column, and
    equal y-sides share one Interval.
    """

    __slots__ = ()

    family: ClassVar[str] = GRID

    def __init__(self, cells: Iterable[tuple[Interval, Interval]] = ()) -> None:
        live = [(cx, cy) for cx, cy in cells if not cx.is_empty and not cy.is_empty]
        xe = [p for cx, _ in live for p in (cx.lo, cx.hi)]
        ye = [p for _, cy in live for p in (cy.lo, cy.hi)]
        _hold(self, _canon(_array_columns((xe, ye))))

    @property
    def cells(self) -> tuple[tuple[Interval, Interval], ...]:
        if self._view is None:
            xe, ye = self._ends
            _set_field(self, "_view", tuple(zip(_intervals(xe), _intervals(ye))))
        return self._view

    def contains_point(self, w: complex) -> bool:
        x, y = w.real, w.imag
        xe, ye = self._ends.tolist()
        return any(
            xlo < x <= xhi and ylo < y <= yhi
            for xlo, xhi, ylo, yhi in zip(xe[::2], xe[1::2], ye[::2], ye[1::2])
        )

    def __repr__(self) -> str:
        return f"GridRegion(cells={self.cells!r})"


class RadialRegion(_Region):
    """Finite union of origin-centred annuli ]lo, hi] in the radius.

    `RadialRegion(rings)` takes radius Intervals, none with a negative lo,
    and holds the endpoint column of their union's canonical rings.
    `rings`, the tuple of those rings as Intervals, is a view built on
    first read.
    """

    __slots__ = ()

    family: ClassVar[str] = RADIAL

    def __init__(self, rings: Iterable[Interval] = ()) -> None:
        re: list[float] = []
        for ring in rings:
            _nonnegative(ring.lo)
            if not ring.is_empty:
                re += (ring.lo, ring.hi)
        _hold(self, _canon(_array_columns((re,))))

    @property
    def rings(self) -> tuple[Interval, ...]:
        if self._view is None:
            _set_field(self, "_view", tuple(_intervals(self._ends[0])))
        return self._view

    def contains_point(self, w: complex) -> bool:
        r = abs(w)
        re = self._ends[0].tolist()
        return any(lo < r <= hi for lo, hi in zip(re[::2], re[1::2]))

    def __repr__(self) -> str:
        return f"RadialRegion(rings={self.rings!r})"


Region = Union[GridRegion, RadialRegion]


def _canonical_region(cls: type, ends: _Ends) -> Region:
    """A region of `cls` held as `ends`, float64 endpoint columns the caller knows to be canonical.

    Skips the canonicalising sweep of `__init__`; a single non-empty
    rectangle or ring is always canonical.  Nothing is checked here.
    """
    region = _new_object(cls)
    _hold(region, ends)
    return region


def _require_same_family(a: Region, b: Region) -> None:
    if a.family != b.family:
        raise FamilyMismatchError(
            f"cannot combine a {a.family} region with a {b.family} region"
        )


def _combine(a: Region, b: Region, keep) -> Region:
    # both operands are canonical (disjoint pieces), so a cell sums to
    # 0 (in neither), 1 (only in a), 2 (only in b) or 3 (in both)
    _require_same_family(a, b)
    return _canonical_region(type(a), _sweep((a._ends, b._ends), keep))


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
    """Set inclusion inner <= outer, decided exactly on endpoints (see `_inside`)."""
    _require_same_family(inner, outer)
    return _inside(inner._ends.tolist(), outer._ends.tolist())


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _piece_region(cls: type, *sides: tuple[float, float]) -> Region:
    """The region of one rectangle (x-side, y-side) or ring given by its sides, checked."""
    ends = _piece_ends(cls.family, sides)
    return _canonical_region(cls, _empty(len(sides)) if ends is None else _array_columns(ends))


def rect(x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> GridRegion:
    return _piece_region(GridRegion, (x_lo, x_hi), (y_lo, y_hi))


def vertical_strip(x_lo: float, x_hi: float) -> GridRegion:
    return rect(x_lo, x_hi, NEG_INF, POS_INF)


def horizontal_strip(y_lo: float, y_hi: float) -> GridRegion:
    return rect(NEG_INF, POS_INF, y_lo, y_hi)


def left_half_plane(x: float) -> GridRegion:
    return rect(NEG_INF, x, NEG_INF, POS_INF)


def lower_left_quadrant(x: float, y: float) -> GridRegion:
    return rect(NEG_INF, x, NEG_INF, y)


def annulus(r_lo: float, r_hi: float) -> RadialRegion:
    return _piece_region(RadialRegion, (r_lo, r_hi))


def disk(r: float) -> RadialRegion:
    return annulus(0.0, r)


def full_plane(family: str) -> Region:
    if family == GRID:
        plane = _array_columns(([NEG_INF, POS_INF], [NEG_INF, POS_INF]))
        return _canonical_region(GridRegion, plane)
    if family == RADIAL:
        return _canonical_region(RadialRegion, _array_columns(([0.0, POS_INF],)))
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


def _ring(lo: float, hi: float) -> float:
    return math.exp(-lo * lo) - math.exp(-hi * hi)


def _piece_masses(ends: Sequence[Sequence[float]]) -> list[float]:
    """The Gaussian mass of each piece held in endpoint columns.

    A rectangle's is nu(x-side) * nu(y-side), and nu(x-side) is computed
    once for consecutive pieces with the same x-side (the cells of one
    column); a ring's is its closed form.
    """
    # zip(it, it) pairs up a column's endpoints without slicing it
    if len(ends) == 1:
        rs = iter(ends[0])
        return [_ring(lo, hi) for lo, hi in zip(rs, rs)]
    xs, ys = map(iter, ends)
    masses = []
    x0 = x1 = nx = None
    for xlo, xhi, ylo, yhi in zip(xs, xs, ys, ys):
        if xlo != x0 or xhi != x1:
            x0, x1, nx = xlo, xhi, _nu(xlo, xhi)
        masses.append(nx * _nu(ylo, yhi))
    return masses


def _indexed_masses(axes: list[list[float]], at: tuple) -> np.ndarray:
    """`_piece_masses` as a float64 array, of pieces given by index arrays into the axes.

    `at` holds per axis the (lo, hi) index arrays of `_array_runs`.  One
    erf (for rings, one exp) per axis endpoint, then per piece the closed
    form's subtraction and products, elementwise: bitwise `_piece_masses`,
    whose nu is 0.5 * (erf(hi) - erf(lo)).
    """
    if len(axes) == 1:
        ((lo, hi),) = at
        t = np.array([math.exp(-r * r) for r in axes[0]])
        return t[lo] - t[hi]
    nus = []
    for axis, (lo, hi) in zip(axes, at):
        e = np.array([math.erf(p) for p in axis])
        nus.append(0.5 * (e[hi] - e[lo]))
    return nus[0] * nus[1]


def _ends_measure(ends: _Ends) -> float:
    """Gaussian mass of disjoint pieces held in float64 endpoint columns, summed in piece order.

    This is the mass of a region: `region_measure(r)` is `_ends_measure(r._ends)`.
    The sum starts from 0.0, so an empty region's mass is the float 0.0;
    every other mass has the bits a sum from 0 gives it.
    """
    return sum(_piece_masses(ends.tolist()), 0.0)


def mu_grid(r: GridRegion) -> float:
    """Plane Gaussian mass of a grid region (rectangles factorise)."""
    if r.family != GRID:
        raise FamilyMismatchError(f"mu_grid takes a grid region, not a {r.family} one")
    return _ends_measure(r._ends)


def mu_radial(r: RadialRegion) -> float:
    """Plane Gaussian mass of a radial region."""
    if r.family != RADIAL:
        raise FamilyMismatchError(f"mu_radial takes a radial region, not a {r.family} one")
    return _ends_measure(r._ends)


def region_measure(r: Region) -> float:
    return _ends_measure(r._ends)


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


def _sides_to_json(e: np.ndarray) -> list[list]:
    ends = iter(e.tolist())
    return [[_endpoint_to_json(lo), _endpoint_to_json(hi)] for lo, hi in zip(ends, ends)]


def _interval_from_json(v) -> Interval:
    return Interval(_endpoint_from_json(v[0]), _endpoint_from_json(v[1]))


def region_to_json(r: Region) -> dict:
    if isinstance(r, GridRegion):
        xe, ye = r._ends
        cells = zip(_sides_to_json(xe), _sides_to_json(ye))
        return {"family": GRID, "cells": [[cx, cy] for cx, cy in cells]}
    return {"family": RADIAL, "rings": _sides_to_json(r._ends[0])}


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
