"""Finite indicator combinations and the gauges of the target spaces.

A simple function is a finite complex linear combination of indicators of
regions from one family.  On construction it is refined into canonical
atoms: pairwise disjoint maximal rectangles (or rings) carrying one complex
coefficient each, together with the Gaussian mass of each atom.  Point
values, level-set masses and the gauges below then reduce to sums over
atoms.

Atoms are the merged cells of the overlay kernel of measure.py, with each
term's coefficient as the weight of its pieces.  A cell is dropped when
Python's `abs` of its value is <= the threshold below (numpy's complex
`abs` can differ in the last ulp); an atom's mass nu(column side) *
nu(row side) is bitwise what `mu_grid` gives its region.

Why drop "negligible" coefficients at all: divided-difference arithmetic
cancels coefficients on shared atoms, and when the combination is formed in
one pass (Lagrange style) those cancellations leave float residue that is
many orders below the honest coefficients.  An atom is therefore dropped
when its modulus is <= zero_tol times the largest term coefficient modulus.

Gauges on a function f with atoms (c_i, A_i):

* gauge_in_measure(f, eps) = mu(|f| >= eps) = sum of mu(A_i) over |c_i| >= eps,
* wk_member(f, k): membership in the basic zero-neighbourhood of the
  convergence-in-measure topology, mu(|f| >= 1/k) < 1/k,
* l0_gauge(f) = integral of min(1, |f|) dmu, a single scalar that goes to 0
  exactly when the function enters every such neighbourhood,
* lp_gauge(f, p) = integral of |f|**p dmu for 1/2 < p < 1, the subadditive
  p-th-power functional of the quasi-normed space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .measure import (
    GRID,
    RADIAL,
    FamilyMismatchError,
    GridRegion,
    Interval,
    RadialRegion,
    Region,
    _canonical_region,
    _cell_sums,
    _merged,
    _pieces,
    mu_radial,
    nu_mass,
    region_contains,
    region_to_json,
)

__all__ = [
    "ZERO_TOL",
    "SimpleFunction",
    "SupportBound",
    "indicator",
    "linear_combine",
    "gauge_in_measure",
    "wk_member",
    "l0_gauge",
    "lp_gauge",
    "supported_in",
    "simple_function_to_json",
]

ZERO_TOL = 1e-9  # relative to the largest term coefficient modulus

_Term = tuple[complex, Region]


def _atoms(
    family: str, terms: Sequence[_Term], tol: float
) -> tuple[tuple[_Term, ...], tuple[float, ...]]:
    """Canonical atoms of `terms` and the Gaussian mass of each atom."""
    pieces = [(c, piece) for c, reg in terms for piece in _pieces(reg)]
    if not pieces:
        return (), ()
    axes, sums = _cell_sums(pieces)
    merged = _merged(axes, sums.tolist(), tol)
    atoms: list[_Term] = []
    masses: list[float] = []
    if family == RADIAL:
        for lo, hi, v in merged:
            reg = _canonical_region(RadialRegion, (Interval(lo, hi),))
            atoms.append((v, reg))
            masses.append(mu_radial(reg))
        return tuple(atoms), tuple(masses)
    sides: dict[tuple[float, float], tuple[Interval, float]] = {}  # y-run -> (side, nu)
    for xlo, xhi, profile in merged:
        cx = Interval(xlo, xhi)
        nx = nu_mass(cx)
        for ylo, yhi, v in profile:
            side = sides.get((ylo, yhi))
            if side is None:
                cy = Interval(ylo, yhi)
                side = sides[ylo, yhi] = (cy, nu_mass(cy))
            cy, ny = side
            atoms.append((v, _canonical_region(GridRegion, ((cx, cy),))))
            masses.append(nx * ny)  # == mu_grid of the atom, bitwise
    return tuple(atoms), tuple(masses)


@dataclass(frozen=True)
class SimpleFunction:
    """Canonicalised finite linear combination of region indicators.

    `terms` is kept exactly as given (the construction history); `atoms` is
    the canonical disjoint decomposition everything else is computed from,
    and `masses[i]` is the Gaussian measure of the region of `atoms[i]`.
    Immutable; both caches are built here, never lazily.
    """

    family: str
    terms: tuple[_Term, ...] = ()
    zero_tol: float = ZERO_TOL
    atoms: tuple[_Term, ...] = field(init=False, default=())
    masses: tuple[float, ...] = field(init=False, default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.family not in (GRID, RADIAL):
            raise ValueError(f"unknown function family {self.family!r}")
        terms = tuple((complex(c), reg) for c, reg in self.terms)
        for _, reg in terms:
            if reg.family != self.family:
                raise FamilyMismatchError(
                    f"term region family {reg.family!r} != function family {self.family!r}"
                )
        object.__setattr__(self, "terms", terms)
        cmax = max((abs(c) for c, _ in terms), default=0.0)
        tol = self.zero_tol * cmax
        atoms, masses = _atoms(self.family, terms, tol)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def zero(cls, family: str) -> "SimpleFunction":
        return cls(family)

    @property
    def is_zero(self) -> bool:
        return not self.atoms

    def max_coeff(self) -> float:
        return max((abs(c) for c, _ in self.atoms), default=0.0)

    def value_at(self, w: complex) -> complex:
        for c, reg in self.atoms:
            if reg.contains_point(w):
                return c
        return 0j

    def value_from_terms(self, w: complex) -> complex:
        """Term-by-term evaluation; must agree with the atom value."""
        v = 0j
        for c, reg in self.terms:
            if reg.contains_point(w):
                v += c
        return v


def indicator(r: Region) -> SimpleFunction:
    return SimpleFunction(r.family, ((1.0 + 0j, r),))


def linear_combine(
    coeffs: Sequence[complex],
    fns: Sequence[SimpleFunction],
    zero_tol: float = ZERO_TOL,
) -> SimpleFunction:
    """Pointwise sum(coeffs[i] * fns[i]), refined over all breakpoints."""
    if len(coeffs) != len(fns):
        raise ValueError("coefficient and function counts differ")
    if not fns:
        raise ValueError("linear_combine needs at least one function")
    family = fns[0].family
    for f in fns[1:]:
        if f.family != family:
            raise FamilyMismatchError("cannot combine functions of different families")
    terms = tuple(
        (complex(k) * c, reg) for k, f in zip(coeffs, fns) for c, reg in f.atoms
    )
    return SimpleFunction(family, terms, zero_tol)


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


def gauge_in_measure(f: SimpleFunction, eps: float) -> float:
    """mu({w : |f(w)| >= eps}), the level-set mass at height eps."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    return sum(m for (c, _), m in zip(f.atoms, f.masses) if abs(c) >= eps)


def wk_member(f: SimpleFunction, k: int) -> bool:
    """Membership in the k-th basic zero-neighbourhood: mu(|f| >= 1/k) < 1/k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return gauge_in_measure(f, 1.0 / k) < 1.0 / k


def l0_gauge(f: SimpleFunction) -> float:
    """integral of min(1, |f|) dmu; zero exactly for the zero function."""
    return sum(min(1.0, abs(c)) * m for (c, _), m in zip(f.atoms, f.masses))


def lp_gauge(f: SimpleFunction, p: float) -> float:
    """integral of |f|**p dmu for an exponent 1/2 < p < 1."""
    if not 0.5 < p < 1.0:
        raise ValueError(f"exponent p={p} outside ]1/2, 1[")
    return sum(abs(c) ** p * m for (c, _), m in zip(f.atoms, f.masses))


# ---------------------------------------------------------------------------
# support
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportBound:
    """A region that a function's support is claimed to lie inside."""

    region: Region

    @property
    def family(self) -> str:
        return self.region.family


def supported_in(f: SimpleFunction, bound: SupportBound) -> bool:
    """True iff every atom lies inside the bound region (exact inclusion).

    The atoms' pieces form one support region, checked by one inclusion.
    Atoms below the zero tolerance were already dropped at construction, so
    this is the thresholded support of the function.  The zero function has
    empty support and is contained in every bound.
    """
    if f.family != bound.family:
        raise FamilyMismatchError(
            f"function family {f.family!r} != bound family {bound.family!r}"
        )
    support = type(bound.region)(tuple(p for _, reg in f.atoms for p in _pieces(reg)))
    return region_contains(bound.region, support)


def simple_function_to_json(f: SimpleFunction) -> dict:
    return {
        "family": f.family,
        "atoms": [
            {"re": c.real, "im": c.imag, "region": region_to_json(reg)}
            for c, reg in f.atoms
        ],
    }
