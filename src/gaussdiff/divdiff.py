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
zero or diverges, so it enters only the estimate `derivative_by_limit`
returns.  The
recursion is undefined on coincident nodes; rather than extending it by
continuity, `derivative_by_limit` drives the tuple toward a diagonal point
along an explicit shrink schedule and classifies the gauge trace.

Two independent evaluation orders are provided: the memoised recursion
(shared sub-tuples are computed once, keeping cancellations local) and the
single-pass barycentric form sum_i f(z_i) / prod_{j != i} (z_i - z_j), kept
as a cross-check oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

from .measure import (
    GRID,
    RADIAL,
    annulus,
    horizontal_strip,
    region_union,
    vertical_strip,
    full_plane,
)
from .simplefn import SimpleFunction, SupportBound, l0_gauge, linear_combine

__all__ = [
    "RepeatedNodeError",
    "NodeTuple",
    "CurveMap",
    "scalar_curve",
    "GridBounds",
    "RadialBounds",
    "node_bounds",
    "support_bound_of",
    "divided_diff",
    "divided_diff_lagrange",
    "coefficient_distance",
    "symmetry_check",
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


def scalar_curve(fn: Callable[[complex], complex], family: str = GRID) -> CurveMap:
    """Curve z -> fn(z) * indicator(whole plane); handy for polynomial checks."""
    plane = full_plane(family)
    return CurveMap(family, lambda z: SimpleFunction(family, ((complex(fn(z)), plane),)))


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
    half-open convention a degenerate strip is empty.
    """
    b = node_bounds(nodes, family)
    if isinstance(b, GridBounds):
        return SupportBound(
            region_union(
                vertical_strip(b.x_lo, b.x_hi), horizontal_strip(b.y_lo, b.y_hi)
            )
        )
    return SupportBound(annulus(b.r_lo, b.r_hi))


# ---------------------------------------------------------------------------
# divided differences
# ---------------------------------------------------------------------------


def divided_diff(f: CurveMap, nodes: Nodes, zero_tol: float = 1e-9) -> SimpleFunction:
    """Order-k divided difference over pairwise distinct nodes, recursively.

    Sub-tuples are memoised (the standard triangular-table reuse), so each
    distinct sub-difference is built once.
    """
    zs = _distinct_nodes(nodes)
    return _memo_diff(f, zs, tuple(range(len(zs))), zero_tol, {})


def _memo_diff(
    f: CurveMap,
    zs: tuple[complex, ...],
    idx: tuple[int, ...],
    zero_tol: float,
    memo: dict[tuple[int, ...], SimpleFunction],
) -> SimpleFunction:
    # A module-level function, not a closure that calls itself: such a
    # closure is a reference cycle, and `memo` with every sub-difference
    # would wait for the cyclic garbage collector to be freed.
    got = memo.get(idx)
    if got is not None:
        return got
    if len(idx) == 1:
        out = f(zs[idx[0]])
    else:
        rest = idx[2:]
        left = _memo_diff(f, zs, (idx[0],) + rest, zero_tol, memo)
        right = _memo_diff(f, zs, (idx[1],) + rest, zero_tol, memo)
        w = 1.0 / (zs[idx[0]] - zs[idx[1]])
        out = linear_combine([w, -w], [left, right], zero_tol)
    memo[idx] = out
    return out


def divided_diff_lagrange(
    f: CurveMap, nodes: Nodes, zero_tol: float = 1e-9
) -> SimpleFunction:
    """Same value as `divided_diff` via the one-pass barycentric identity."""
    zs = _distinct_nodes(nodes)
    weights = []
    for i, zi in enumerate(zs):
        w = 1.0 + 0j
        for j, zj in enumerate(zs):
            if j != i:
                w /= zi - zj
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


def symmetry_check(
    f: CurveMap, nodes: Nodes, perm: Sequence[int], tol: float = 1e-9
) -> bool:
    """Divided differences over a tuple and a permutation of it must agree."""
    nt = _as_node_tuple(nodes)
    return coefficient_distance(divided_diff(f, nt), divided_diff(f, nt.permuted(perm))) <= tol


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
    """Gauges of the plain divided differences, their verdict, k! times the last."""

    verdict: str
    gauge_trace: tuple[float, ...]
    estimate: SimpleFunction | None


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


def derivative_by_limit(
    f: CurveMap,
    z: complex,
    k: int,
    schedule: ShrinkSchedule,
    gauge: Callable[[SimpleFunction], float] = l0_gauge,
    convergence_tol: float = 1e-6,
    divergence_ceiling: float = 1e6,
) -> LimitReport:
    """Estimate the k-th derivative at z as a limit of k! * divided_diff.

    Evaluates over the schedule's shrinking tuples, records the gauge of
    each divided difference, and classifies the trace.  The estimate field
    carries k! times the last difference; read it through the verdict.
    """
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    if len(schedule.offsets) != k + 1:
        raise ValueError(
            f"schedule provides {len(schedule.offsets)} offsets, order {k} needs {k + 1}"
        )
    trace: list[float] = []
    for n in range(1, schedule.steps + 1):
        g = divided_diff(f, schedule.tuple_at(complex(z), n))
        trace.append(gauge(g))
    verdict = classify_trace(trace, convergence_tol, divergence_ceiling)
    estimate = linear_combine([float(math.factorial(k))], [g])
    return LimitReport(verdict=verdict, gauge_trace=tuple(trace), estimate=estimate)
