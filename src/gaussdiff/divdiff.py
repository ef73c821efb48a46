"""Higher-order divided differences of curves into simple-function spaces.

For a curve f mapping complex nodes to simple functions, the order-k
divided difference over pairwise distinct nodes z1, ..., z_{k+1} is defined
by the recursion

    dd_0(z1) = f(z1)
    dd_k(z1, z2, z3, ...) = (dd_{k-1}(z1, z3, ...) - dd_{k-1}(z2, z3, ...))
                            / (z1 - z2),

which is symmetric in the nodes.  On a tuple collapsing to z it tends to
f^(k)(z) / k! whenever that derivative exists.  Gauge traces gauge the
difference itself: a constant k! cannot change whether a trace tends to
zero or diverges.  The recursion is undefined on coincident nodes; rather
than extending it by continuity, `derivative_by_limit` drives the tuple
toward a diagonal point along an explicit shrink schedule and classifies
the gauge trace.

Two independent evaluation orders are provided.  `divided_diff` runs the
recursion's triangle, each distinct sub-tuple once (keeping cancellations
local), on one grid of cells: per axis the sorted union of the curve
values' atom endpoints (radii for rings).  Level j, row a of the triangle
is the difference over (a, m, ..., n-1) with m = n - j, held as a row of
cell values.  A cell is summed as `linear_combine([w, -w], [left, right])`
would sum it, w = 1/(z_a - z_m), and set to 0j under the same zero_tol
threshold.  Canonical atoms do not depend on how fine the grid is, so only
the result is merged into atoms, bitwise the atoms one `linear_combine`
per sub-tuple would build; they are also the result's terms.
`divided_diffs` runs the triangles of many tuples (the steps of a shrink
schedule) together: each tuple keeps its own grid, and each triangle level
is one pass of float64 array operations over every tuple and row;
`divided_diff` is its one-tuple call.  The arrays compute Python's complex
arithmetic bit for bit.  A level runs on the real and imaginary planes of
the cells, and a product w*x is formed on whole planes as wr*xr - wi*xi
and wr*xi + wi*xr, which is what CPython's complex multiply computes, with
no fused multiply-add (a test pins this), whereas numpy's complex multiply
may fuse them.  A modulus is `np.hypot`, the libm
`hypot` that Python's complex `abs` calls.  w itself is a Python complex
division, because numpy's rounds differently.  A cell is
(0.0 + w*x) + (-w)*y with no branch on absent terms: for finite w this is
the kernel's sum from 0j of the terms present, since 0.0 + (+-0) is +0
and adding +-0 leaves any value but -0 as it is.  Where that recursion
would leave the float range (w not a finite non-zero float, as for nodes
a subnormal distance apart, or a coefficient whose modulus overflows),
FloatRangeError is raised instead, naming the triangle level.
`divided_diff_lagrange`, the single-pass barycentric form
sum_i f(z_i) / prod_{j != i} (z_i - z_j), runs through the overlay kernel
and is kept as a cross-check oracle.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .measure import GRID, NEG_INF, POS_INF, RADIAL, _merged
from .simplefn import (
    SimpleFunction,
    SupportBound,
    _from_columns,
    _piece_function,
    _union_bound,
    l0_gauge,
    linear_combine,
)

__all__ = [
    "RepeatedNodeError",
    "FloatRangeError",
    "NodeTuple",
    "CurveMap",
    "scalar_curve",
    "GridBounds",
    "RadialBounds",
    "node_bounds",
    "support_bound_of",
    "divided_diff",
    "divided_diffs",
    "divided_diff_lagrange",
    "coefficient_distance",
    "ShrinkSchedule",
    "LimitReport",
    "monotone_tail",
    "classify_trace",
    "derivative_by_limit",
    "CONVERGED_TO_ZERO",
    "DIVERGENT",
    "INCONCLUSIVE",
]


class RepeatedNodeError(ValueError):
    """The combinatorial recursion is undefined on coincident nodes."""


class FloatRangeError(ValueError):
    """A divided difference needs a value outside the finite floats.

    Raised for nodes whose reciprocal difference is not a finite non-zero
    float, and for coefficients whose modulus is not a finite float; the
    message names the triangle level, and the shrink step where there is
    one.  `index` is the position of the failing node tuple in the list
    given to `divided_diffs`.
    """

    index: int = 0


# Where every product modulus of a row is at most this, each of its cells
# is a sum of two such products and has a finite modulus.
_SAFE_PRODUCT = sys.float_info.max / 4


Nodes = Union["NodeTuple", Sequence[complex]]


@dataclass(frozen=True)
class NodeTuple:
    """Ordered evaluation nodes z1, ..., z_{k+1} for an order-k difference."""

    nodes: tuple[complex, ...]

    def __post_init__(self) -> None:
        nodes = tuple(complex(z) for z in self.nodes)
        if not nodes:
            raise ValueError("a node tuple needs at least one node")
        object.__setattr__(self, "nodes", nodes)

    @property
    def order(self) -> int:
        return len(self.nodes) - 1

    @property
    def pairwise_distinct(self) -> bool:
        return len(set(self.nodes)) == len(self.nodes)

    def permuted(self, perm: Sequence[int]) -> "NodeTuple":
        if sorted(perm) != list(range(len(self.nodes))):
            raise ValueError(f"{perm!r} is not a permutation of {len(self.nodes)} nodes")
        return NodeTuple(tuple(self.nodes[i] for i in perm))


def _as_node_tuple(nodes: Nodes) -> NodeTuple:
    return nodes if isinstance(nodes, NodeTuple) else NodeTuple(tuple(nodes))


def _distinct_nodes(nodes: Nodes) -> tuple[complex, ...]:
    nt = _as_node_tuple(nodes)
    if not nt.pairwise_distinct:
        raise RepeatedNodeError(f"nodes {nt.nodes} are not pairwise distinct")
    return nt.nodes


@dataclass(frozen=True)
class CurveMap:
    """A deterministic map from complex nodes to simple functions."""

    family: str
    func: Callable[[complex], SimpleFunction]

    def __call__(self, z: complex) -> SimpleFunction:
        out = self.func(complex(z))
        if out.family != self.family:
            raise ValueError(
                f"curve declared family {self.family!r} but produced {out.family!r}"
            )
        return out


_PLANE_SIDES = {GRID: ((NEG_INF, POS_INF), (NEG_INF, POS_INF)), RADIAL: ((0.0, POS_INF),)}


def scalar_curve(fn: Callable[[complex], complex], family: str = GRID) -> CurveMap:
    """Curve z -> fn(z) * indicator(whole plane); handy for polynomial checks."""
    if family not in _PLANE_SIDES:
        raise ValueError(f"unknown region family {family!r}")
    sides = _PLANE_SIDES[family]
    return CurveMap(family, lambda z: _piece_function(family, complex(fn(z)), *sides))


# ---------------------------------------------------------------------------
# node bounding data and support bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridBounds:
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float


@dataclass(frozen=True)
class RadialBounds:
    r_lo: float
    r_hi: float


def node_bounds(nodes: Nodes, family: str) -> Union[GridBounds, RadialBounds]:
    zs = _as_node_tuple(nodes).nodes
    if family == GRID:
        res = [z.real for z in zs]
        ims = [z.imag for z in zs]
        return GridBounds(min(res), max(res), min(ims), max(ims))
    if family == RADIAL:
        rs = [abs(z) for z in zs]
        return RadialBounds(min(rs), max(rs))
    raise ValueError(f"unknown family {family!r}")


def support_bound_of(nodes: Nodes, family: str) -> SupportBound:
    """The localisation region for a divided difference over these nodes.

    Grid family: union of the vertical strip spanned by the node real parts
    and the horizontal strip spanned by the imaginary parts.  Radial family:
    the annulus between the smallest and largest node modulus.  Under the
    half-open convention a degenerate strip is empty.  The bound's region
    holds the endpoint columns of its canonical pieces, as every region does.
    """
    b = node_bounds(nodes, family)
    if isinstance(b, GridBounds):
        return _union_bound(family, [(b.x_lo, b.x_hi), (b.y_lo, b.y_hi)])
    return _union_bound(family, [(b.r_lo, b.r_hi)])


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------


def divided_diff(f: CurveMap, nodes: Nodes, zero_tol: float = 1e-9) -> SimpleFunction:
    """Order-k divided difference over pairwise distinct nodes, recursively.

    The one-tuple call of `divided_diffs` (see the module docstring).
    Raises FloatRangeError, naming the triangle level, when a reciprocal
    node difference or a coefficient leaves the float range.
    """
    return divided_diffs(f, [nodes], zero_tol)[0]


def divided_diffs(
    f: CurveMap, tuples: Sequence[Nodes], zero_tol: float = 1e-9
) -> list[SimpleFunction]:
    """The divided differences over node tuples of one order, all triangles at once.

    Item i is bitwise `divided_diff(f, tuples[i], zero_tol)`.  Raises
    FloatRangeError for the first tuple in list order whose triangle
    leaves the float range, naming the triangle level; its `index` is
    that tuple's position.
    """
    return list(_differences(f, tuples, zero_tol))


def _differences(
    f: CurveMap, tuples: Sequence[Nodes], zero_tol: float = 1e-9
) -> Iterator[SimpleFunction]:
    """`divided_diffs`, one difference at a time.

    The triangles run together, on float64 arrays, and each result is
    merged only when it is asked for, so a caller that gauges one
    difference at a time holds one.  The tuples' nodes are checked before
    any curve is evaluated.
    """
    zss = [_distinct_nodes(nodes) for nodes in tuples]
    if len(set(map(len, zss))) > 1:
        raise ValueError("divided_diffs needs node tuples of one order")
    if zss and len(zss[0]) == 1:
        yield from (f(zs[0]) for zs in zss)
        return
    batch: list = []  # (nodes, curve values, grid) of the tuples of the next pass
    start = widest = 0
    for i, zs in enumerate(zss):
        values = [f(z) for z in zs]
        grid = _CellGrid(values)
        widest = max(widest, grid.size)
        if batch and (len(batch) + 1) * len(zs) * widest > _PASS_CELLS:
            yield from _triangles(batch, start, zero_tol)
            batch, start, widest = [], i, grid.size
        batch.append((zs, values, grid))
    if batch:
        yield from _triangles(batch, start, zero_tol)


#: Level-0 cells, padding included, of the tuples whose triangles share one
#: array pass; a pass holds about 70 bytes per cell.  Measured on the
#: divdiff-deep benchmark (2 vCPU Xeon): passes of 2**12 cells ran as fast
#: as passes of whole 40-step schedules, which raised its peak RSS by
#: 2.7 MB (7%); at 2**12 the peak RSS stays at its level before arrays.
_PASS_CELLS = 2**12


def _triangles(batch: list, start: int, zero_tol: float) -> Iterator[SimpleFunction]:
    """The differences over tuples of n >= 2 distinct nodes, by one array pass per level.

    Tuple s keeps its own grid; its level-0 cells are rows 0..n-1 of
    `cells[s]`, padded with zero cells to the largest grid, and row a of
    each level overwrites row a of the level below.  A cell of row a at
    pivot m is (0.0 + w*x) + (-w)*y, w = 1/(z_a - z_m), x and y the cells
    of rows a and m below, and 0j where its modulus is at most zero_tol
    times cmax, the largest product modulus |w*x| or |(-w)*y| of the row;
    padded cells stay 0.  A row fails where w is not a finite non-zero
    float, or cmax or a cell modulus is not finite.  The differences of
    the tuples before the first failing one are yielded, then its error is
    raised.
    """
    zss, values, grids = zip(*batch)
    n = len(zss[0])
    sizes = [grid.size for grid in grids]
    steps, size = len(zss), max(sizes)
    cells = np.zeros((steps, n, size), dtype=complex)
    for grid, vs, rows in zip(grids, values, cells):
        for v, row in zip(vs, rows):
            grid.fill(row, v)
    # w of row a at pivot m, levels in triangle order, by Python's division
    ws = np.array(
        [[1.0 / (zs[a] - zs[m]) for m in range(n - 1, 0, -1) for a in range(m)] for zs in zss]
    )
    bad_w = ~(np.isfinite(ws) & (ws != 0))
    any_bad_w = bad_w.any()
    re, im = cells.real, cells.imag  # the two planes of the cells, as views
    failed: dict[int, str] = {}  # tuple -> the message of its first failing row
    at = 0
    with np.errstate(all="ignore"):
        for m in range(n - 1, 0, -1):
            level = slice(at, at + m)
            x, y = slice(m), slice(m, m + 1)
            cmax, mod = _next_level(re[:, x], im[:, x], re[:, y], im[:, y], ws[:, level], zero_tol)
            if any_bad_w or not cmax.max() <= _SAFE_PRODUCT:
                faults = ~np.isfinite(cmax) | ~np.isfinite(mod).all(axis=2) | bad_w[:, level]
                for s, a in zip(*np.nonzero(faults)):
                    if s in failed:
                        continue
                    # w is computed before the row's cells, as the recursion meets it
                    why = "a coefficient's modulus is past the largest float"
                    if bad_w[s, at + a]:
                        za, zm, w = zss[s][a], zss[s][m], ws[s, at + a].item()
                        why = f"nodes {za} and {zm} give 1/(a - b) = {w}, "
                        why += "not a finite non-zero float"
                    failed[s] = f"triangle level {n - m} of {n - 1}: {why}"
            at += m
    stop = min(failed, default=len(zss))
    for grid, row, size in zip(grids[:stop], cells[:, 0], sizes):
        ac, ae = grid.merged(row[:size].tolist())  # a difference's terms are its atoms
        yield _from_columns(grid.family, ac, [1] * len(ac), ae, zero_tol, (ac, ae))
    if failed:
        exc = FloatRangeError(failed[stop])
        exc.index = start + stop
        raise exc


def _next_level(
    xr: np.ndarray, xi: np.ndarray, yr: np.ndarray, yi: np.ndarray, w: np.ndarray, zero_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite rows x of a level with the rows of the next, as they pivot on row y.

    xr and xi hold the real and imaginary planes of rows 0..m-1 of each
    tuple, shape (tuples, m, cells), yr and yi those of row m, shape
    (tuples, 1, cells), and w, shape (tuples, m), the complex
    1/(z_a - z_m) of each row a.  A cell becomes (0.0 + w*x) + (-w)*y, or
    0 where its modulus is at most zero_tol * cmax.  Returns cmax, shape
    (tuples, m), and the cell moduli, shape (tuples, m, cells).  A product
    w*x is wr*xr - wi*xi and wr*xi + wi*xr on whole planes, the float
    operations of Python's complex multiply (see the module docstring).
    """
    wr, wi = w.real[..., None], w.imag[..., None]
    pr, t = np.multiply(wr, xr), np.multiply(wi, xi)
    np.subtract(pr, t, out=pr)
    pi = np.multiply(wr, xi)
    np.add(pi, np.multiply(wi, xr, out=t), out=pi)
    wr, wi = -wr, -wi  # the parts of -w, for (-w)*y
    qr = np.multiply(wr, yr)
    np.subtract(qr, np.multiply(wi, yi, out=t), out=qr)
    qi = np.multiply(wr, yi)
    np.add(qi, np.multiply(wi, yr, out=t), out=qi)
    mod = t
    cmax = np.hypot(pr, pi, out=mod).max(axis=2, initial=0.0)
    np.maximum(cmax, np.hypot(qr, qi, out=mod).max(axis=2, initial=0.0), out=cmax)
    np.add(np.add(pr, 0.0, out=pr), qr, out=xr)
    np.add(np.add(pi, 0.0, out=pi), qi, out=xi)
    np.hypot(xr, xi, out=mod)
    drop = mod <= zero_tol * cmax[..., None]
    xr[drop] = 0.0
    xi[drop] = 0.0
    return cmax, mod


class _CellGrid:
    """One grid of elementary cells under the atoms of several functions.

    Its axes are the sorted distinct atom endpoints of all the functions
    per axis (radii for the radial family).  A function on it is a flat
    row of `size` cell values, x-major, with 0j where no atom lies; an
    atom covers a block of cells.  Canonical atoms do not depend on how
    fine the grid is, so merging a function's cells gives back its atoms.
    """

    __slots__ = ("family", "axes", "index", "nx", "ny", "size")

    def __init__(self, values: Sequence[SimpleFunction]) -> None:
        self.family = values[0].family
        self.axes = [
            sorted(set(chain.from_iterable(axis))) for axis in zip(*(v._atom_ends for v in values))
        ]
        self.index = [dict(zip(axis, range(len(axis)))) for axis in self.axes]
        sides = [max(len(axis) - 1, 0) for axis in self.axes]
        self.nx, self.ny = sides if self.family == GRID else (sides[0], 1)
        self.size = self.nx * self.ny

    def fill(self, row: np.ndarray, f: SimpleFunction) -> None:
        """Write the cell values of f into `row`, which is zero: each atom's value on its block."""
        if self.family == RADIAL:
            (ir,), (re,) = self.index, f._atom_ends
            for c, lo, hi in zip(f._atom_coeffs, re[::2], re[1::2]):
                row[ir[lo] : ir[hi]] = c
            return
        (ix, iy), (xe, ye) = self.index, f._atom_ends
        blocks = row[: self.size].reshape(self.nx, self.ny)
        for c, xlo, xhi, ylo, yhi in zip(f._atom_coeffs, xe[::2], xe[1::2], ye[::2], ye[1::2]):
            blocks[ix[xlo] : ix[xhi], iy[ylo] : iy[yhi]] = c

    def merged(self, cells: list) -> tuple[list, tuple]:
        """The kernel's merged atoms of the flat row `cells`, as values and endpoint columns."""
        if self.family == RADIAL or not cells:
            return _merged(self.axes, cells, 0.0)
        ny = self.ny
        return _merged(self.axes, [cells[s : s + ny] for s in range(0, len(cells), ny)], 0.0)


def divided_diff_lagrange(
    f: CurveMap, nodes: Nodes, zero_tol: float = 1e-9
) -> SimpleFunction:
    """Same value as `divided_diff` via the one-pass barycentric identity.

    Raises FloatRangeError when a barycentric weight is not a finite
    non-zero float.
    """
    zs = _distinct_nodes(nodes)
    weights = []
    for i, zi in enumerate(zs):
        w = 1.0 + 0j
        for j, zj in enumerate(zs):
            if j != i:
                w /= zi - zj
        if not (w and cmath.isfinite(w)):
            raise FloatRangeError(
                f"the barycentric weight {w} of node {zi} is not a finite non-zero float"
            )
        weights.append(w)
    return linear_combine(weights, [f(z) for z in zs], zero_tol)


def coefficient_distance(f: SimpleFunction, g: SimpleFunction) -> float:
    """Largest |f - g| coefficient on the common refinement, relative.

    Computed without any tolerance dropping, so it is an honest comparison
    even when the functions were built with aggressive zero tolerances.
    Normalised by the largest atom coefficient of either side.
    """
    if f.family != g.family:
        raise ValueError("cannot compare functions of different families")
    diff = linear_combine([1.0, -1.0], [f, g], zero_tol=0.0)
    scale = max(f.max_coeff(), g.max_coeff())
    if scale == 0.0:
        return diff.max_coeff()
    return diff.max_coeff() / scale


# ---------------------------------------------------------------------------
# limits along shrink schedules
# ---------------------------------------------------------------------------

CONVERGED_TO_ZERO = "CONVERGED-TO-ZERO"
DIVERGENT = "DIVERGENT"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ShrinkSchedule:
    """Node offsets and a geometric shrink ratio for diagonal limits.

    Step n evaluates at center + ratio**n * offset_i; the offsets must be
    pairwise distinct so the nodes are, too.
    """

    offsets: tuple[complex, ...]
    ratio: float = 0.5
    steps: int = 40

    def __post_init__(self) -> None:
        offsets = tuple(complex(u) for u in self.offsets)
        object.__setattr__(self, "offsets", offsets)
        if len(set(offsets)) != len(offsets):
            raise ValueError("schedule offsets must be pairwise distinct")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"shrink ratio {self.ratio} outside ]0, 1[")
        if self.steps < 1:
            raise ValueError("schedule needs at least one step")

    @classmethod
    def roots_of_unity(cls, k: int, ratio: float = 0.5, steps: int = 40) -> "ShrinkSchedule":
        """k+1 offsets on the unit circle; the default diagonal approach."""
        n = k + 1
        return cls(tuple(cmath.exp(2j * math.pi * j / n) for j in range(n)), ratio, steps)

    @classmethod
    def real_offsets(cls, k: int, ratio: float = 0.5, steps: int = 40) -> "ShrinkSchedule":
        """k+1 distinct offsets on the real axis, for restricted curves."""
        n = k + 1
        return cls(tuple((j + 1) / n + 0j for j in range(n)), ratio, steps)

    def tuple_at(self, center: complex, n: int) -> NodeTuple:
        scale = self.ratio**n
        return NodeTuple(tuple(center + scale * u for u in self.offsets))


@dataclass(frozen=True)
class LimitReport:
    """Gauges of the plain divided differences along a schedule, and their verdict."""

    verdict: str
    gauge_trace: tuple[float, ...]


def monotone_tail(trace: Sequence[float], decreasing: bool) -> bool:
    """True iff the tail of `trace` is nonincreasing (`decreasing`) or nondecreasing.

    The tail is the last quarter of the trace, and at least three values.
    """
    tail = trace[-min(len(trace), max(3, len(trace) // 4)):]
    if decreasing:
        return all(a >= b for a, b in zip(tail, tail[1:]))
    return all(a <= b for a, b in zip(tail, tail[1:]))


def classify_trace(
    trace: Sequence[float], convergence_tol: float, divergence_ceiling: float
) -> str:
    """Convergence-to-zero vs divergence from the tail of a gauge trace.

    Converged: the tail is nonincreasing and ends below the tolerance.
    Divergent: the tail is nondecreasing and ends above the ceiling.
    Anything else, including a one-step trace, is inconclusive.
    """
    if len(trace) < 2:
        return INCONCLUSIVE
    if monotone_tail(trace, decreasing=True) and trace[-1] <= convergence_tol:
        return CONVERGED_TO_ZERO
    if monotone_tail(trace, decreasing=False) and trace[-1] >= divergence_ceiling:
        return DIVERGENT
    return INCONCLUSIVE


class _GridFault(ValueError):
    """A shrink step puts its nodes onto the float grid of the center (`_schedule_tuples`)."""


def _schedule_tuples(schedule: ShrinkSchedule, center: complex) -> list[NodeTuple]:
    """Each step's node tuple, built one step at a time and checked as it is built.

    Raises _GridFault at the first step whose nodes no longer resolve the
    offsets, and builds no later step.  Once ratio**n * offset drops below
    half an ulp of the center, nodes round onto one float: two nodes
    coincide, or offsets whose real (imaginary) parts differ give nodes
    with one real (imaginary) part, and a curve that reads only that part
    sees a zero difference.  Parts that differ by a few ulps only are
    rounding residue, not spread: the imaginary parts 0 and
    sin(pi) = 1.2e-16 of `roots_of_unity(1)`.
    """
    residue = 4 * math.ulp(max(map(abs, schedule.offsets)))
    spread = []
    for part in ("real", "imag"):
        values = [getattr(u, part) for u in schedule.offsets]
        if max(values) - min(values) > residue:
            spread.append(part)
    tuples = []
    for n in range(1, schedule.steps + 1):
        nt = schedule.tuple_at(center, n)
        fault = None if nt.pairwise_distinct else "two nodes"
        for part in spread:
            if fault is None and len({getattr(z, part) for z in nt.nodes}) == 1:
                fault = f"every node's {part} part"
        if fault is not None:
            raise _GridFault(
                f"step {n} of {schedule.steps} puts {fault} on the same float at center {center}"
            )
        tuples.append(nt)
    return tuples


def _schedule_differences(
    f: CurveMap, center: complex, schedule: ShrinkSchedule, zero_tol: float = 1e-9
) -> Iterator[tuple[NodeTuple, SimpleFunction]]:
    """Each step's node tuple and divided difference along a shrink schedule.

    Raises _GridFault, before any curve is evaluated, naming the first
    step whose nodes round onto the float grid of the center
    (`_schedule_tuples`), and FloatRangeError prefixed with the step whose
    difference leaves the float range.  Callers add their own advice to
    either message.
    """
    tuples = _schedule_tuples(schedule, center)
    try:
        yield from zip(tuples, _differences(f, tuples, zero_tol))
    except FloatRangeError as exc:
        raise FloatRangeError(f"step {exc.index + 1} of {schedule.steps}: {exc}") from None


def derivative_by_limit(
    f: CurveMap,
    z: complex,
    k: int,
    schedule: ShrinkSchedule,
    gauge: Callable[[SimpleFunction], float] = l0_gauge,
    convergence_tol: float = 1e-6,
    divergence_ceiling: float = 1e6,
) -> LimitReport:
    """Classify the order-k divided differences at z along a shrink schedule.

    Evaluates over the schedule's shrinking tuples, records the gauge of
    each divided difference, and classifies the trace; the k-th
    derivative is k! times the limit, so it vanishes or blows up with it.
    Raises ValueError, before tracing, naming the first step whose nodes
    round onto the float grid of the center (see `_schedule_tuples`), and
    FloatRangeError naming the step where a difference leaves the float
    range.
    """
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    if len(schedule.offsets) != k + 1:
        raise ValueError(
            f"schedule provides {len(schedule.offsets)} offsets, order {k} needs {k + 1}"
        )
    try:
        trace = [gauge(g) for _, g in _schedule_differences(f, complex(z), schedule)]
    except _GridFault as exc:
        raise ValueError(f"{exc}; use fewer steps, a larger ratio or a center nearer 0") from None
    verdict = classify_trace(trace, convergence_tol, divergence_ceiling)
    return LimitReport(verdict=verdict, gauge_trace=tuple(trace))
