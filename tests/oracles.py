"""Independent numerical oracles used to validate the closed-form engine.

Adaptive quadrature of the raw densities (never of the erf/exp closed
forms) plus the package's Monte-Carlo sampler provide measurement routes
that share no code path with the values under test.  The reference atom
overlays at the end re-scan every piece for every elementary cell; the
package's slice-accumulation kernel must reproduce their atoms exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.integrate import dblquad, quad

from gaussdiff import GridRegion, Interval, RadialRegion, Region, mc_measure, plane_samples

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
