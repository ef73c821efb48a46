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
the pieces out as endpoint columns and runs no sweep.  The list kernel
(`list_sweep` and its Booleans, inclusion and masses) is the overlay
kernel as it ran while regions held lists of floats; the array-held
regions must match it bit for bit.
`reference_identity_sweeps` measures one region per pair of the
`measure-identities` sweeps, which read the closed forms directly.
The memoised divided-difference recursion (one `linear_combine` per
sub-tuple) is the Newton form that the weight sums of `divided_diff` are
cross-checked against.  `exact_divided_diff` sums the exact rational
barycentric weights of the float nodes on every cell, the referee of the
float weight sums, and `barycentric_overflows` says when those must leave
the float range; `symmetry_check` compares the
differences over a tuple and a permutation of it.  `kernel_paths` records which
form of the overlay kernel ran, so a test can show that it reached the
array form.
"""

from __future__ import annotations

import cmath
import itertools
import math
from contextlib import contextmanager
from fractions import Fraction
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
    return _canonical_region(cls, np.array(piece_columns(pieces, cls.family), dtype=float))


# ---------------------------------------------------------------------------
# the list kernel: regions as lists of floats
# ---------------------------------------------------------------------------


def list_sweep(weights: list[int], ends: Sequence[list[float]], keep) -> tuple[list[float], ...]:
    """Endpoint columns (lists of floats) of the cells whose weight sum `keep` accepts.

    The overlay kernel as regions ran it while they held lists: the axes
    by `sorted(set(e))`; on a grid of fewer than `_ARRAY_CELLS` cells the
    complex slice adds of `_cell_sums` and `_merged`'s loops; on a larger
    one integer cover counts by `np.add.at` (`list_cover_counts`),
    `_array_runs`, and output columns read through an object array of the
    axis.  The array-held regions must match it bit for bit.
    """
    if len(weights) < 2:
        if weights and abs(keep(0j + weights[0])) > 0.0:
            return tuple(list(e) for e in ends)
        return tuple([] for _ in ends)
    axes = [sorted(set(e)) for e in ends]
    if math.prod(len(a) - 1 for a in axes) < measure._ARRAY_CELLS:
        _, sums = measure._cell_sums(weights, ends)
        return measure._merged(axes, keep(sums).tolist(), 0.0)[1]
    _, at = measure._array_runs(axes, keep(list_cover_counts(weights, axes, ends)), 0.0)
    return tuple(
        np.array(axis, dtype=object)[np.stack(sides, axis=1).ravel()].tolist()
        for axis, sides in zip(axes, at)
    )


def list_cover_counts(weights: list[int], axes: list[list[float]], ends) -> np.ndarray:
    """The int64 cell sums of integer weights, by a summed-area table built with `np.add.at`."""
    w = np.array(weights, dtype=np.int64)[:, None]
    at = [np.searchsorted(np.array(a), np.array(e)).reshape(-1, 2) for a, e in zip(axes, ends)]
    diff = np.zeros([len(a) for a in axes], dtype=np.int64)
    if len(axes) == 1:
        np.add.at(diff, at[0], w * np.array([1, -1]))
        return diff.cumsum()[:-1]
    corners = at[0][:, [0, 0, 1, 1]] * diff.shape[1] + at[1][:, [0, 1, 0, 1]]
    np.add.at(diff.reshape(-1), corners, w * np.array([1, -1, -1, 1]))
    return diff.cumsum(0).cumsum(1)[:-1, :-1]


def list_canon(ends: Sequence[list[float]]) -> tuple[list[float], ...]:
    """The list kernel's canonical columns of the union of non-empty pieces."""
    return list_sweep([1] * (len(ends[0]) // 2), ends, lambda s: s != 0)


def list_combine(a: Sequence[list[float]], b: Sequence[list[float]], keep) -> tuple[list, ...]:
    """The list kernel's Boolean of two canonical operands, a weighing 1 and b 2."""
    weights = [1] * (len(a[0]) // 2) + [2] * (len(b[0]) // 2)
    return list_sweep(weights, [ea + eb for ea, eb in zip(a, b)], keep)


def list_contains(outer: Sequence[list[float]], inner: Sequence[list[float]]) -> bool:
    """Inclusion as the list kernel decided it: the difference inner - outer is empty."""
    return not list_combine(inner, outer, lambda s: s == 1)[0]


def list_measure(ends: Sequence[list[float]]) -> float:
    """The Gaussian mass of list columns, summed in piece order from 0.0."""
    return sum(measure._piece_masses(ends), 0.0)


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


def _curve_cells(values) -> tuple[list[list[float]], dict]:
    """The common cell grid of some simple functions, and their coefficients on each cell.

    The axes are per axis the sorted distinct atom endpoints of all the
    functions (radii for rings).  A cell is a tuple of axis indices, one
    per axis, and maps to the list of the functions' coefficients there,
    0j where a function has no atom.
    """
    ends = zip(*(v._atom_ends for v in values))
    axes = [sorted(set(itertools.chain.from_iterable(axis))) for axis in ends]
    blocks = itertools.product(*(range(len(a) - 1) for a in axes))
    table = {idx: [0j] * len(values) for idx in blocks}
    for m, v in enumerate(values):
        for idx, c in cell_values(v, axes).items():
            table[idx][m] = c
    return axes, table


def cell_values(f, axes) -> dict:
    """The coefficient of f on every cell of `axes` that an atom of f covers.

    Every atom endpoint of f must be an axis value (KeyError otherwise).
    """
    index = [dict(zip(a, range(len(a)))) for a in axes]
    sides = [zip(e[::2], e[1::2]) for e in f._atom_ends]
    out = {}
    for c, *spans in zip(f._atom_coeffs, *sides):
        ranges = [range(at[lo], at[hi]) for at, (lo, hi) in zip(index, spans)]
        out.update(dict.fromkeys(itertools.product(*ranges), c))
    return out


def _float_weights(zs) -> list[complex] | None:
    """The weights 1/prod_{l != m}(z_m - z_l), by Python's complex division.

    None where one is not a finite non-zero float.
    """
    weights = []
    for m, zm in enumerate(zs):
        w = 1.0 + 0j
        for l, zl in enumerate(zs):
            if l != m:
                w /= zm - zl
        if not (w and cmath.isfinite(w)):
            return None
        weights.append(w)
    return weights


def barycentric_overflows(f, nodes) -> bool:
    """True iff the barycentric weight sum of the curve f over the nodes leaves the floats.

    That is, some weight 1/prod_{l != m}(z_m - z_l), Python's complex
    division in node order, is not a finite non-zero float, or on some
    cell of the curve values' grid a product w_m * c_m or the sum
    0j + w_0 * c_0 + ... + w_k * c_k has no finite modulus.
    `divided_diff` must raise FloatRangeError exactly then.
    """
    from gaussdiff.divdiff import _distinct_nodes

    zs = _distinct_nodes(nodes)
    weights = _float_weights(zs)
    if weights is None:
        return True
    _, cells = _curve_cells([f(z) for z in zs])
    for coeffs in cells.values():
        total = 0j
        for w, c in zip(weights, coeffs):
            product = w * c
            total += product
            if not _fits(product):
                return True
        if not _fits(total):
            return True
    return False


def _times(a: tuple, b: tuple) -> tuple[Fraction, Fraction]:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _exact_weights(zs) -> list[tuple[Fraction, Fraction]]:
    """The exact barycentric weights 1/prod_{l != m}(z_m - z_l) of float nodes.

    Float nodes are dyadic rationals, so every weight is a pair of
    Fractions (real part, imaginary part) with no rounding at all.
    """
    exact = [(Fraction(z.real), Fraction(z.imag)) for z in zs]
    out = []
    for m, (xm, ym) in enumerate(exact):
        p = (Fraction(1), Fraction(0))
        for l, (xl, yl) in enumerate(exact):
            if l != m:
                p = _times(p, (xm - xl, ym - yl))
        norm = p[0] * p[0] + p[1] * p[1]
        out.append((p[0] / norm, -p[1] / norm))
    return out


def exact_divided_diff(f, nodes) -> tuple[list[list[float]], dict]:
    """The exact order-k difference of the curve f over float nodes, cell by cell.

    Returns (axes, cells): the curve values' common grid (`_curve_cells`),
    and for every cell a triple (exact, size, top).  exact is the sum of
    w_m * c_m over the nodes, with the exact weights of `_exact_weights` and
    c_m the coefficient of f(z_m) on the cell, as a pair of Fractions;
    size is the sum and top the largest of the moduli |w_m * c_m|, rounded
    to floats.  Cells with the same coefficients share one sum.
    """
    from gaussdiff.divdiff import _distinct_nodes

    zs = _distinct_nodes(nodes)
    weights = _exact_weights(zs)
    axes, table = _curve_cells([f(z) for z in zs])
    sums: dict = {}
    for idx, coeffs in table.items():
        key = tuple(coeffs)
        if key not in sums:
            terms = [
                _times(w, (Fraction(c.real), Fraction(c.imag))) for w, c in zip(weights, coeffs)
            ]
            exact = (sum(t[0] for t in terms), sum(t[1] for t in terms))
            moduli = [math.hypot(float(t[0]), float(t[1])) for t in terms]
            sums[key] = exact, math.fsum(moduli), max(moduli)
        table[idx] = sums[key]
    return axes, table


@contextmanager
def kernel_paths():
    """Record which form of the overlay kernel runs, while the context is open.

    Yields {"grids": cell counts of the grids summed (a function's
    complex sums by `_cell_sums`, a region's integer cover counts by
    `_cover_counts`), "counts": the number of integer sums, "merges": the
    number of merges on the array form (`_array_runs`), "merged": (cell
    count, on the array form) of every merge}.
    """
    seen = {"grids": [], "merges": 0, "counts": 0, "merged": []}
    cell_sums, cover_counts, merged, array_runs = (
        measure._cell_sums,
        measure._cover_counts,
        measure._merged,
        measure._array_runs,
    )

    def counted_sums(*args):
        axes, sums = cell_sums(*args)
        seen["grids"].append(sums.size)
        return axes, sums

    def counted_counts(*args):
        axes, sums = cover_counts(*args)
        seen["counts"] += 1
        seen["grids"].append(sums.size)
        return axes, sums

    def counted_loops(axes, *args):
        seen["merged"].append((math.prod(len(a) - 1 for a in axes), False))
        return merged(axes, *args)

    def counted_runs(axes, values, *args):
        seen["merges"] += 1
        seen["merged"].append((values.size, True))
        return array_runs(axes, values, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "_cell_sums", counted_sums)
        mp.setattr(measure, "_cover_counts", counted_counts)
        mp.setattr(measure, "_merged", counted_loops)
        mp.setattr(measure, "_array_runs", counted_runs)
        yield seen
