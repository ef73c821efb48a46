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

The recursion unrolls into the barycentric weight sum

    dd_k = sum_m w_m f(z_m),    w_m = 1 / prod_{l != m} (z_m - z_l),

which is how every difference is computed: in floating point it stays
within a few ulp of the exact sum of the same weights, where the Newton
triangle of the recursion loses digits from order 12 on (Berrut and
Trefethen, SIAM Review 46, 2004; de Boor, "Divided differences", 2005).
`divided_diff_lagrange` is the sum as `linear_combine(weights, values)`.
`divided_diffs` computes the sums of many tuples (the steps of a shrink
schedule) in one pass of float64 array operations, on one grid of cells
per tuple: per axis the sorted union of the curve values' atom endpoints
(radii for rings); `divided_diff` is its one-tuple call.  A cell is
0.0 + w_0*x_0 + ... + w_k*x_k, x_m the value of f(z_m) on the cell (0
where it has no atom), set to 0j where its modulus is at most zero_tol
times the largest product modulus |w_m*x_m|.  That is `linear_combine`'s
sum and its zero_tol rule, whose terms are the w_m times the values'
atoms.  Canonical atoms do not depend on how fine the grid is, so only
the sums are merged into atoms, bit for bit the atoms
`divided_diff_lagrange` builds; they are also the result's terms.

The arrays compute Python's complex arithmetic bit for bit.  The weights
are Python complex divisions, in node order, because numpy's divide
rounds differently.  A product w*x is formed on the real and imaginary
planes as wr*xr - wi*xi and wr*xi + wi*xr, which is what CPython's
complex multiply computes, with no fused multiply-add (a test pins this),
whereas numpy's complex multiply may fuse them.  A modulus is `np.hypot`,
the libm `hypot` that Python's complex `abs` calls.  The sum starts at +0
and adds every node's product, also the products w*0 of the nodes whose
value has no atom on the cell: a sum from +0 is never -0, and adding +-0
leaves any value but -0 as it is, so this is the kernel's sum from 0j of
the terms present.  Where the sum would leave the float range (a weight
that is not a finite non-zero float, as for nodes a subnormal distance
apart, or a product or cell whose modulus is not finite),
FloatRangeError is raised instead.
"""

from __future__ import annotations

import cmath
import math
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

    Raised for nodes whose barycentric weight is not a finite non-zero
    float, naming the node, and where a weighted curve value or a sum of
    them has no finite modulus; along a schedule the message names the
    shrink step.  `index` is the position of the failing node tuple in the
    list given to `divided_diffs`.
    """

    index: int = 0


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
    """Order-k divided difference over pairwise distinct nodes, as a weight sum.

    The one-tuple call of `divided_diffs` (see the module docstring);
    bitwise `divided_diff_lagrange`.  Raises FloatRangeError when a
    barycentric weight, a weighted curve value or a cell sum leaves the
    float range.
    """
    return divided_diffs(f, [nodes], zero_tol)[0]


def divided_diffs(
    f: CurveMap, tuples: Sequence[Nodes], zero_tol: float = 1e-9
) -> list[SimpleFunction]:
    """The divided differences over node tuples of one order, all weight sums at once.

    Item i is bitwise `divided_diff(f, tuples[i], zero_tol)`.  Raises
    FloatRangeError for the first tuple in list order whose weight sum
    leaves the float range; its `index` is that tuple's position.
    """
    return list(_differences(f, tuples, zero_tol))


def _differences(
    f: CurveMap, tuples: Sequence[Nodes], zero_tol: float = 1e-9
) -> Iterator[SimpleFunction]:
    """`divided_diffs`, one difference at a time.

    The weight sums run together, on float64 arrays, and each result is
    merged only when it is asked for, so a caller that gauges one
    difference at a time holds one.  The tuples' nodes are checked before
    any curve is evaluated, and a tuple's weights before its curve values.
    """
    zss = [_distinct_nodes(nodes) for nodes in tuples]
    if len(set(map(len, zss))) > 1:
        raise ValueError("divided_diffs needs node tuples of one order")
    if zss and len(zss[0]) == 1:
        yield from (f(zs[0]) for zs in zss)
        return
    batch: list = []  # (weights, curve values, grid) of the tuples of the next pass
    start = widest = 0
    fault = None
    for i, zs in enumerate(zss):
        try:
            weights = _weights(zs)
        except FloatRangeError as exc:
            fault, exc.index = exc, i
            break
        values = [f(z) for z in zs]
        grid = _CellGrid(values)
        widest = max(widest, grid.size)
        if batch and (len(batch) + 1) * len(zs) * widest > _PASS_CELLS:
            yield from _batch_differences(batch, start, zero_tol)
            batch, start, widest = [], i, grid.size
        batch.append((weights, values, grid))
    if batch:
        yield from _batch_differences(batch, start, zero_tol)
    if fault is not None:
        raise fault


#: Curve-value cells, padding included, of the tuples whose weight sums
#: share one array pass.  A pass holds 16 bytes per such cell, plus about
#: 64 bytes per cell of one row (the sums, their moduli, a node's products
#: and their temporaries): 16 + 64/n bytes per cell for n nodes, at most
#: 48.  On the divdiff-deep benchmark (2 vCPU Xeon), passes of whole
#: 40-step schedules ran 1% faster (p90 8.5 against 9.0 ms) and raised its
#: peak RSS by 0.6 MB; 2**12 keeps the pass of any schedule small.
_PASS_CELLS = 2**12


def _weights(zs: Sequence[complex]) -> list[complex]:
    """The barycentric weights 1 / prod_{l != m} (z_m - z_l) of distinct nodes.

    Each is Python's complex division, in node order.  Raises
    FloatRangeError for the first weight that is not a finite non-zero
    float.
    """
    weights = []
    for m, zm in enumerate(zs):
        w = 1.0 + 0j
        for l, zl in enumerate(zs):
            if l != m:
                w /= zm - zl
        if not (w and cmath.isfinite(w)):
            raise FloatRangeError(
                f"the barycentric weight {w} of node {zm} is not a finite non-zero float"
            )
        weights.append(w)
    return weights


def _batch_differences(batch: list, start: int, zero_tol: float) -> Iterator[SimpleFunction]:
    """The differences over tuples of n >= 2 distinct nodes, by one array pass.

    Tuple s keeps its own grid; its curve values fill rows 0..n-1 of
    `cells[s]`, padded with zero cells to the largest grid, and
    `_weighted_sum` sums them.  A tuple fails where a product or a cell
    modulus is not finite.  The differences of the tuples before the first
    failing one are yielded, then its error is raised.
    """
    weights, values, grids = zip(*batch)
    sizes = [grid.size for grid in grids]
    cells = np.zeros((len(grids), len(weights[0]), max(sizes)), dtype=complex)
    for grid, vs, rows in zip(grids, values, cells):
        for v, row in zip(vs, rows):
            grid.fill(row, v)
    sums, cmax, mod = _weighted_sum(np.array(weights), cells, zero_tol)
    failed = ~np.isfinite(cmax) | ~np.isfinite(mod).all(axis=1)
    stop = int(failed.argmax()) if failed.any() else len(grids)
    for grid, row, size in zip(grids[:stop], sums, sizes):
        ac, ae = grid.merged(row[:size].tolist())  # a difference's terms are its atoms
        yield _from_columns(grid.family, ac, [1] * len(ac), ae, zero_tol, (ac, ae))
    if stop < len(grids):
        exc = FloatRangeError("a coefficient's modulus is past the largest float")
        exc.index = start + stop
        raise exc


def _weighted_sum(
    w: np.ndarray, cells: np.ndarray, zero_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each tuple's cells 0.0 + sum_m w_m * x_m, and 0 where the modulus is at most zero_tol * cmax.

    w, shape (tuples, n), holds each tuple's weights and cells, shape
    (tuples, n, cells), its rows of curve values x_m.  Returns the sums,
    shape (tuples, cells), cmax, the largest product modulus |w_m * x_m|
    of each tuple, and the moduli of the sums before the drop.  Products
    and sums are formed on the real and imaginary planes (see the module
    docstring).
    """
    sums = np.zeros((cells.shape[0], cells.shape[2]), dtype=complex)
    sr, si = sums.real, sums.imag
    cmax = np.zeros(len(w))
    with np.errstate(all="ignore"):
        for m in range(w.shape[1]):
            wr, wi = w.real[:, m, None], w.imag[:, m, None]
            xr, xi = cells.real[:, m], cells.imag[:, m]
            pr, pi = wr * xr - wi * xi, wr * xi + wi * xr
            np.maximum(cmax, np.hypot(pr, pi).max(axis=1, initial=0.0), out=cmax)
            sr += pr
            si += pi
        mod = np.hypot(sr, si)
        sums[mod <= zero_tol * cmax[:, None]] = 0
    return sums, cmax, mod


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
    """The barycentric weight sum as `linear_combine(weights, values)`.

    `divided_diff` returns the same function bit for bit.  Raises
    FloatRangeError when a barycentric weight is not a finite non-zero
    float.
    """
    zs = _distinct_nodes(nodes)
    return linear_combine(_weights(zs), [f(z) for z in zs], zero_tol)


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
