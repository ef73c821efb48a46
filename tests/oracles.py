"""Independent numerical oracles used to validate the closed-form engine.

Adaptive quadrature of the raw densities (never of the erf/exp closed
forms) plus the package's Monte-Carlo sampler provide measurement routes
that share no code path with the values under test.  The reference atom
overlays re-scan every piece for every elementary cell; the package's
slice-accumulation kernel must reproduce their atoms exactly.  The region
sweeps at the end (per-slab 1-D unions and per-slab Boolean profiles, one
sweep each for canonicalisation, grid and radial combination) must give
the same point sets and cell order as the kernel's 1/2-weighted overlay;
their results become regions through `canonical_region`, which only lays
the pieces out as endpoint columns and runs no sweep.
`reference_identity_sweeps` measures one region per pair of the
`measure-identities` sweeps, which read the closed forms directly.
The memoised divided-difference recursion (one `linear_combine` per
sub-tuple) is the reference for the cell-grid triangle of `divided_diff`,
and for when it must leave the float range; `symmetry_check` compares the
differences over a tuple and a permutation of it.  `kernel_paths` records which
form of the overlay kernel ran, so a test can show that it reached the
array form.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from gaussdiff import (
    GridRegion,
    Interval,
    NodeTuple,
    RadialRegion,
    Region,
    annulus,
    coefficient_distance,
    divided_diff,
    full_plane,
    mc_measure,
    mu_grid,
    mu_radial,
    nu_mass,
    plane_samples,
    rect,
)
from gaussdiff import measure
from gaussdiff.measure import NEG_INF, POS_INF, _canonical_region

_Term = tuple[complex, Region]


def nu_quad(a: float, b: float) -> float:
    """Line Gaussian mass of ]a, b] by adaptive quadrature of the density."""
    val, _ = quad(lambda x: math.exp(-x * x) / math.sqrt(math.pi), a, b)
    return val


def rect_quad(x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> float:
    """Plane Gaussian mass of a rectangle via two 1-D quadratures."""
    return nu_quad(x_lo, x_hi) * nu_quad(y_lo, y_hi)


def rect_dblquad(x_lo: float, x_hi: float, y_lo: float, y_hi: float) -> float:
    """Plane Gaussian mass of a rectangle via genuine 2-D quadrature."""
    val, _ = dblquad(
        lambda y, x: math.exp(-x * x - y * y) / math.pi, x_lo, x_hi, y_lo, y_hi
    )
    return val


def annulus_quad(lo: float, hi: float) -> float:
    """Annulus mass via quadrature of the radial density 2 s exp(-s*s)."""
    val, _ = quad(lambda s: 2.0 * s * math.exp(-s * s), lo, hi)
    return val


def reference_identity_sweeps(cfg) -> dict:
    """The identity sweeps of `exp_measure_identities`, one region per pair.

    Each pair's mass is read from an `annulus` or a strip `rect`, built
    with its side checks and measured by `mu_radial`/`mu_grid`; the draws
    are the experiment's, from `default_rng(cfg.seed)`.  Returns the four
    report fields the sweeps set.
    """
    rng = np.random.default_rng(cfg.seed)
    n_grid = cfg.grid_points

    radial_pairs = np.sort(rng.uniform(0.0, 3.0, size=(n_grid, 2)), axis=1)
    radial_pairs[0] = (0.0, 0.0)
    radial_err = 0.0
    radial_cap_violations = 0
    for r, R in radial_pairs.tolist():
        m = mu_radial(annulus(r, R))
        radial_err = max(radial_err, abs(m - (math.exp(-r * r) - math.exp(-R * R))))
        if m > (R - r) + 1e-12:
            radial_cap_violations += 1

    strip_pairs = np.sort(rng.uniform(-3.0, 3.0, size=(n_grid, 2)), axis=1)
    strip_err = 0.0
    strip_cap_violations = 0
    for a, b in strip_pairs.tolist():
        m = mu_grid(rect(a, b, NEG_INF, POS_INF))
        strip_err = max(strip_err, abs(m - nu_mass(Interval(a, b))))
        if m > (b - a) + 1e-12:
            strip_cap_violations += 1

    return {
        "radial_identity_max_err": radial_err,
        "radial_cap_violations": radial_cap_violations,
        "strip_identity_max_err": strip_err,
        "strip_cap_violations": strip_cap_violations,
    }


_MC_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def mc_oracle(region: Region, n: int = 1_000_000, seed: int = 20240814) -> float:
    """Monte-Carlo mass estimate with a cached common sample batch."""
    if seed not in _MC_CACHE:
        _MC_CACHE[seed] = plane_samples(n, seed)
    x, y = _MC_CACHE[seed]
    return mc_measure(region, x[:n], y[:n])


def agrees_3sig(estimate: float, exact: float) -> bool:
    """Three-significant-digit agreement as a relative 5e-3 tolerance."""
    return abs(estimate - exact) <= 5e-3 * abs(exact)


def _mc_functional(f, weight, n: int, seed: int) -> float:
    """MC estimate of integral weight(|f|) dmu via per-atom hit counts."""
    from gaussdiff import region_mask

    if seed not in _MC_CACHE:
        _MC_CACHE[seed] = plane_samples(n, seed)
    x, y = _MC_CACHE[seed]
    total = 0.0
    for c, reg in f.atoms:
        total += weight(abs(c)) * region_mask(reg, x[:n], y[:n]).sum()
    return total / n


def mc_l0_gauge(f, n: int = 1_000_000, seed: int = 20240814) -> float:
    return _mc_functional(f, lambda a: min(1.0, a), n, seed)


def mc_lp_gauge(f, p: float, n: int = 1_000_000, seed: int = 20240814) -> float:
    return _mc_functional(f, lambda a: a**p, n, seed)


def random_nodes(
    rng: np.random.Generator,
    count: int,
    box: float = 2.0,
    min_sep: float = 0.05,
    real_axis: bool = False,
) -> tuple[complex, ...]:
    """Seeded random complex nodes with a pairwise separation floor."""
    while True:
        if real_axis:
            pts = [complex(rng.uniform(-box, box), 0.0) for _ in range(count)]
        else:
            pts = [
                complex(rng.uniform(-box, box), rng.uniform(-box, box))
                for _ in range(count)
            ]
        if all(
            abs(pts[i] - pts[j]) >= min_sep
            for i in range(count)
            for j in range(i + 1, count)
        ):
            return tuple(pts)


def eval_grid_64() -> list[complex]:
    """A fixed 8x8 lattice of plane points for pointwise comparisons."""
    xs = np.linspace(-1.75, 1.75, 8)
    return [complex(x, y) for x in xs for y in xs]


def reference_grid_atoms(terms: Sequence[_Term], tol: float) -> tuple[_Term, ...]:
    """Per-cell loop over every piece: the overlay the kernel must reproduce."""
    pieces = [(c, cell) for c, reg in terms for cell in reg.cells]
    if not pieces:
        return ()
    xs = sorted({p for _, (cx, _) in pieces for p in (cx.lo, cx.hi)})
    ys = sorted({p for _, (_, cy) in pieces for p in (cy.lo, cy.hi)})
    columns: list[list] = []  # [x_lo, x_hi, profile] with profile [[y_lo, y_hi, v], ...]
    for xlo, xhi in zip(xs, xs[1:]):
        profile: list[list] = []
        for ylo, yhi in zip(ys, ys[1:]):
            v = 0j
            for c, (cx, cy) in pieces:
                if cx.lo <= xlo and xhi <= cx.hi and cy.lo <= ylo and yhi <= cy.hi:
                    v += c
            if abs(v) <= tol:
                continue
            if profile and profile[-1][1] == ylo and profile[-1][2] == v:
                profile[-1][1] = yhi
            else:
                profile.append([ylo, yhi, v])
        if not profile:
            continue
        if columns and columns[-1][1] == xlo and columns[-1][2] == profile:
            columns[-1][1] = xhi
        else:
            columns.append([xlo, xhi, profile])
    return tuple(
        (v, GridRegion(((Interval(xlo, xhi), Interval(ylo, yhi)),)))
        for xlo, xhi, profile in columns
        for ylo, yhi, v in profile
    )


def reference_radial_atoms(terms: Sequence[_Term], tol: float) -> tuple[_Term, ...]:
    """Per-ring loop over every piece: the 1-D overlay the kernel must reproduce."""
    pieces = [(c, ring) for c, reg in terms for ring in reg.rings]
    if not pieces:
        return ()
    rs = sorted({p for _, ring in pieces for p in (ring.lo, ring.hi)})
    merged: list[list] = []
    for lo, hi in zip(rs, rs[1:]):
        v = 0j
        for c, ring in pieces:
            if ring.lo <= lo and hi <= ring.hi:
                v += c
        if abs(v) <= tol:
            continue
        if merged and merged[-1][1] == lo and merged[-1][2] == v:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi, v])
    return tuple(
        (v, RadialRegion((Interval(lo, hi),))) for lo, hi, v in merged
    )


def piece_columns(pieces: Sequence, family: str) -> tuple[list[float], ...]:
    """Endpoint columns of Interval pieces, as regions hold theirs: layout only.

    Rectangles (x-side, y-side) give an x and a y column, rings one radius
    column; piece i spans ]e[2i], e[2i+1]] on the axis of column e.
    """
    if family == "radial":
        return ([p for ring in pieces for p in (ring.lo, ring.hi)],)
    return (
        [p for cx, _ in pieces for p in (cx.lo, cx.hi)],
        [p for _, cy in pieces for p in (cy.lo, cy.hi)],
    )


def canonical_region(cls: type, pieces: Sequence) -> Region:
    """The region of `cls` whose canonical pieces are `pieces`, built without a sweep."""
    return _canonical_region(cls, piece_columns(pieces, cls.family))


def reference_canon_1d(intervals: Iterable[Interval]) -> tuple[Interval, ...]:
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


def reference_canon_grid(
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
        profile = reference_canon_1d(cy for cx, cy in live if cx.lo <= lo and hi <= cx.hi)
        if not profile:
            continue
        if cols and cols[-1][0].hi == lo and cols[-1][1] == profile:
            cols[-1] = (Interval(cols[-1][0].lo, hi), profile)
        else:
            cols.append((Interval(lo, hi), profile))
    return tuple((cx, cy) for cx, prof in cols for cy in prof)


def _grid_profile(r: GridRegion, lo: float, hi: float) -> tuple[Interval, ...]:
    return tuple(cy for cx, cy in r.cells if cx.lo <= lo and hi <= cx.hi)


def reference_grid_combine(a: GridRegion, b: GridRegion, keep) -> GridRegion:
    """Boolean `keep(in a, in b)` of two grid regions, slab by slab."""
    xs = sorted(
        {p for cx, _ in (*a.cells, *b.cells) for p in (cx.lo, cx.hi)}
        | {NEG_INF, POS_INF}
    )
    cells: list[tuple[Interval, Interval]] = []
    for lo, hi in zip(xs, xs[1:]):
        prof = _combine_1d(_grid_profile(a, lo, hi), _grid_profile(b, lo, hi), keep)
        cx = Interval(lo, hi)
        cells.extend((cx, cy) for cy in prof)
    return canonical_region(GridRegion, reference_canon_grid(cells))


def reference_radial_combine(a: RadialRegion, b: RadialRegion, keep) -> RadialRegion:
    """Boolean `keep(in a, in b)` of two radial regions."""
    return canonical_region(RadialRegion, reference_canon_1d(_combine_1d(a.rings, b.rings, keep)))


def reference_combine(a: Region, b: Region, keep) -> Region:
    if isinstance(a, GridRegion):
        return reference_grid_combine(a, b, keep)
    return reference_radial_combine(a, b, keep)


def reference_complement(a: Region) -> Region:
    return reference_combine(a, full_plane(a.family), lambda ia, ib: ib and not ia)


def reference_supported_in(f, bound) -> bool:
    """One reference difference per atom: each atom minus the bound is empty."""
    return all(
        reference_combine(reg, bound.region, lambda ia, ib: ia and not ib).is_empty
        for _, reg in f.atoms
    )


def symmetry_check(f, nodes, perm: Sequence[int], tol: float = 1e-9) -> bool:
    """Divided differences over a tuple and a permutation of it must agree."""
    nt = nodes if isinstance(nodes, NodeTuple) else NodeTuple(tuple(nodes))
    return coefficient_distance(divided_diff(f, nt), divided_diff(f, nt.permuted(perm))) <= tol


def reference_divided_diff(f, nodes, zero_tol: float = 1e-9):
    """The memoised recursion, one `linear_combine` per sub-difference.

    Sub-tuples are memoised (the standard triangular-table reuse), so each
    distinct sub-difference is built once.  `divided_diff` must return the
    same function: `==` and `repr` compare family, zero_tol and the atoms,
    whose coefficients and endpoints `repr` shows bit for bit, and the
    bits of every atom mass must agree.  The terms differ: this function's
    are its children's atoms scaled by w and -w, as `linear_combine` lists
    them, while a `divided_diff` result's terms are its own atoms.
    """
    from gaussdiff.divdiff import _distinct_nodes

    zs = _distinct_nodes(nodes)
    return _memo_diff(f, zs, tuple(range(len(zs))), zero_tol, {})


def _fits(c: complex) -> bool:
    """True iff c has a finite modulus (abs raises for some finite values)."""
    try:
        return math.isfinite(abs(c))
    except OverflowError:
        return False


def reference_overflows(f, nodes, zero_tol: float = 1e-9) -> bool:
    """True iff the memoised recursion leaves the float range.

    That is, some 1/(z_a - z_b) is not a finite non-zero float, or some
    scaled coefficient w * c of a sub-difference or some coefficient of
    one has no finite modulus.  `divided_diff` must raise FloatRangeError
    exactly then.
    """
    from gaussdiff.divdiff import _distinct_nodes

    zs = _distinct_nodes(nodes)
    memo: dict = {}
    try:
        _memo_diff(f, zs, tuple(range(len(zs))), zero_tol, memo)
    except OverflowError:  # abs() of a scaled coefficient, inside linear_combine
        return True
    for idx, g in memo.items():
        if not all(map(_fits, g._atom_coeffs)):
            return True
        if len(idx) == 1:
            continue
        w = 1.0 / (zs[idx[0]] - zs[idx[1]])
        if not (w and cmath.isfinite(w)):
            return True
        left, right = memo[(idx[0],) + idx[2:]], memo[(idx[1],) + idx[2:]]
        scaled = [w * c for c in left._atom_coeffs] + [-w * c for c in right._atom_coeffs]
        if not all(map(_fits, scaled)):
            return True
    return False


def _memo_diff(f, zs, idx, zero_tol, memo):
    # A module-level function, not a closure that calls itself: such a
    # closure is a reference cycle, and `memo` with every sub-difference
    # would wait for the cyclic garbage collector to be freed.
    from gaussdiff import linear_combine

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


@contextmanager
def kernel_paths():
    """Record which form of the overlay kernel runs, while the context is open.

    Yields {"grids": cell counts of the grids `_overlay` sums, "merges":
    merges on the array form, "counts": integer sums on the array form}.
    """
    seen = {"grids": [], "merges": 0, "counts": 0}
    cell_sums, array_merged, cover_counts = (
        measure._cell_sums,
        measure._array_merged,
        measure._cover_counts,
    )

    def counted_sums(*args):
        axes, sums = cell_sums(*args)
        seen["grids"].append(sums.size)
        return axes, sums

    def counted_merge(*args):
        seen["merges"] += 1
        return array_merged(*args)

    def counted_counts(*args):
        seen["counts"] += 1
        return cover_counts(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "_cell_sums", counted_sums)
        mp.setattr(measure, "_array_merged", counted_merge)
        mp.setattr(measure, "_cover_counts", counted_counts)
        yield seen
