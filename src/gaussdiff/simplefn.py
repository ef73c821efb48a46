"""Finite indicator combinations and the gauges of the target spaces.

A simple function is a finite complex linear combination of indicators of
regions from one family.  On construction it is refined into canonical
atoms: pairwise disjoint maximal rectangles (or rings) carrying one complex
coefficient each.  Point values, level-set masses and the gauges below
then reduce to sums over atoms.

A function is stored as columns of plain floats, not as regions: per term
its coefficient, its number of pieces and their endpoints; per atom its
coefficient and endpoints, laid out as the overlay kernel of measure.py
takes them (one flat lo, hi, ... sequence per axis).  The (coefficient,
region) tuples of `terms` and `atoms` are views, and the atom masses are
computed, on first read.  A function is its atoms: `==` and `hash`
compare family, zero_tol and the atom columns, and `repr` shows them.

Every constructor ends in one column constructor (`_from_columns`, or
`SimpleFunction._fill` for `__init__`), and its `terms` record how it was
built.  `SimpleFunction(...)` and `indicator` concatenate their regions'
columns, which are the terms; `_piece_function`, behind the three curve
maps and `scalar_curve`, takes the endpoints of one rectangle or ring,
checked as the region constructors check them; `linear_combine` feeds
its inputs' atom columns, scaled, to the kernel as terms; and a divided
difference's terms are its own atoms.  None of them builds an Interval,
and the regions of the views are slices of the columns.  A support bound
holds its region, and `supported_in` sweeps the region's columns.

Atoms are the merged cells of the overlay kernel, with each term's
coefficient as the weight of its pieces.  A cell is dropped when Python's
`abs` of its value is <= the threshold below (numpy's complex `abs` can
differ in the last ulp); an atom's mass nu(column side) * nu(row side) is
bitwise what `mu_grid` gives its region.

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

Each gauge is Python's `sum` of one term per atom, in atom order.  A
function built by the overlay kernel's array form (`linear_combine` or
`SimpleFunction(...)` on a grid of at least `_ARRAY_CELLS` elementary
cells) is handed its atoms' moduli and masses as float64 arrays by the
kernel (see measure.py), bitwise Python's abs and `_piece_masses`.  Its
`l0_gauge`, `gauge_in_measure` and `wk_member` form the per-atom terms
in one pass over those arrays and add them with `sum` over `.tolist()`:
numpy's own sums add in another order (pairwise) and would round
differently.  `min(1, |c|)` is `np.fmin`, which like `min` gives 1.0 for
NaN.  `lp_gauge` gauges every function atom by atom, as `|c|**p` has to
be Python's `**` (numpy's power differs from it in the last ulp on some
moduli), and that `**` is its cost either way.  Every other function
(curve values, differences, small overlays, copies) gauges atom by atom
from its columns, with no array built, so the thousands of tiny
functions of a divided difference pay nothing for it.  Both ways give
the same bits.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .measure import (
    GRID,
    NEG_INF,
    POS_INF,
    RADIAL,
    FamilyMismatchError,
    GridRegion,
    RadialRegion,
    Region,
    _Ends,
    _canonical_region,
    _cell_sums,
    _ends_measure,
    _joined,
    _overlay,
    _piece_ends,
    _piece_masses,
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


def _view(
    family: str, coeffs: Sequence[complex], sizes: Iterable[int], ends: _Ends
) -> tuple[_Term, ...]:
    """(coefficient, region) pairs; term i owns the next `sizes[i]` pieces of `ends`.

    Each region holds its slice of the columns; no Interval is built.
    """
    cls = GridRegion if family == GRID else RadialRegion
    view, i = [], 0
    for c, n in zip(coeffs, sizes):
        j = i + 2 * n
        view.append((c, _canonical_region(cls, tuple(e[i:j] for e in ends))))
        i = j
    return tuple(view)


class SimpleFunction:
    """Canonicalised finite linear combination of region indicators.

    `terms` is the construction history (see the module docstring);
    `atoms` is the canonical disjoint decomposition everything else is
    computed from, and `masses[i]` is the Gaussian measure of the region
    of `atoms[i]`, bitwise what `mu_grid` or `mu_radial` gives it.  All
    three are tuples computed on first access and cached: the views from
    the columns, the masses from the columns.  A function built on the
    kernel's array form holds its masses as the array the kernel handed
    over (see Gauges in the module docstring), and `masses` reads them off
    it each time instead.  Immutable; `==` and `hash` compare (family,
    zero_tol, atom coefficients, atom endpoint columns) straight from the
    columns, `repr` shows family, zero_tol and atoms, and copy and pickle
    restore the columns as they are, without the arrays.
    """

    __slots__ = (
        "family",
        "zero_tol",
        "_term_coeffs",
        "_term_sizes",
        "_term_ends",
        "_atom_coeffs",
        "_atom_ends",
        "_terms",
        "_atoms",
        "_masses",
        "_arrays",
    )

    def __init__(
        self, family: str, terms: Iterable[tuple[complex, Region]] = (), zero_tol: float = ZERO_TOL
    ) -> None:
        if family not in (GRID, RADIAL):
            raise ValueError(f"unknown function family {family!r}")
        terms = [(complex(c), reg) for c, reg in terms]
        for _, reg in terms:
            if reg.family != family:
                raise FamilyMismatchError(
                    f"term region family {reg.family!r} != function family {family!r}"
                )
        sizes = [len(reg._ends[0]) // 2 for _, reg in terms]
        ends = _joined(family, (reg._ends for _, reg in terms))
        self._fill(family, zero_tol, [c for c, _ in terms], sizes, ends)

    def _fill(
        self,
        family: str,
        zero_tol: float,
        coeffs: list[complex],
        sizes: list[int],
        ends: _Ends,
        atoms: tuple[list[complex], _Ends] | None = None,
    ) -> None:
        """Set every column from the term columns; every constructor ends here.

        Term i is coeffs[i] times the indicator of the next sizes[i] pieces
        of `ends`.  `atoms` are the overlay kernel's values and columns of
        the terms' merged cells if the caller has them; otherwise the
        overlay runs here, with the threshold zero_tol times the largest
        term coefficient modulus, and the atoms' moduli and masses that its
        array form hands back, if it ran, are kept for the gauges.

        The columns are private lists, never handed out.  Short tuples would
        do as well, but CPython keeps up to 2000 dead tuples of each length
        below 20 on free lists until a full garbage collection, and with so
        few container allocations those collections are rare: tuple columns
        raised the peak RSS of a `verify all` loop by about 2 MB.
        """
        arrays = None
        if atoms is None:
            weights = [c for c, n in zip(coeffs, sizes) for _ in range(n)]
            arrays = []
            tol = zero_tol * max(map(abs, coeffs), default=0.0)
            atoms = _overlay(weights, ends, tol, arrays=arrays)
        atom_coeffs, atom_ends = atoms
        init = object.__setattr__
        init(self, "family", family)
        init(self, "zero_tol", zero_tol)
        init(self, "_term_coeffs", coeffs)
        init(self, "_term_sizes", sizes)
        init(self, "_term_ends", ends)
        init(self, "_atom_coeffs", atom_coeffs)
        init(self, "_atom_ends", atom_ends)
        init(self, "_terms", None)  # the views, built on first access
        init(self, "_atoms", None)
        init(self, "_masses", None)
        init(self, "_arrays", tuple(arrays) if arrays else None)  # (moduli, masses)

    @classmethod
    def zero(cls, family: str) -> "SimpleFunction":
        return cls(family)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle restore the columns as they are
        atoms = (self._atom_coeffs, self._atom_ends)
        args = (self._term_coeffs, self._term_sizes, self._term_ends, self.zero_tol, atoms)
        return _from_columns, (self.family, *args)

    @property
    def terms(self) -> tuple[_Term, ...]:
        if self._terms is None:
            view = _view(self.family, self._term_coeffs, self._term_sizes, self._term_ends)
            object.__setattr__(self, "_terms", view)
        return self._terms

    @property
    def atoms(self) -> tuple[_Term, ...]:
        if self._atoms is None:
            view = _view(self.family, self._atom_coeffs, repeat(1), self._atom_ends)
            object.__setattr__(self, "_atoms", view)
        return self._atoms

    @property
    def masses(self) -> tuple[float, ...]:
        if self._arrays is not None:  # not cached: the mass array is the one copy held
            return tuple(self._arrays[1].tolist())
        if self._masses is None:
            object.__setattr__(self, "_masses", tuple(_piece_masses(self._atom_ends)))
        return self._masses

    def _key(self) -> tuple:
        return (self.family, self.zero_tol, self._atom_coeffs, *self._atom_ends)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        family, zero_tol, *columns = self._key()
        return hash((family, zero_tol, *map(tuple, columns)))

    def __repr__(self) -> str:
        return (
            f"SimpleFunction(family={self.family!r}, zero_tol={self.zero_tol!r}, "
            f"atoms={self.atoms!r})"
        )

    @property
    def is_zero(self) -> bool:
        return not self._atom_coeffs

    def max_coeff(self) -> float:
        return max(map(abs, self._atom_coeffs), default=0.0)

    def value_at(self, w: complex) -> complex:
        if self.family == RADIAL:
            r = abs(w)
            (re,) = self._atom_ends
            for c, lo, hi in zip(self._atom_coeffs, re[::2], re[1::2]):
                if lo < r <= hi:
                    return c
            return 0j
        x, y = w.real, w.imag
        xe, ye = self._atom_ends
        for c, xlo, xhi, ylo, yhi in zip(self._atom_coeffs, xe[::2], xe[1::2], ye[::2], ye[1::2]):
            if xlo < x <= xhi and ylo < y <= yhi:
                return c
        return 0j

    def value_from_terms(self, w: complex) -> complex:
        """Term-by-term evaluation; must agree with the atom value."""
        v = 0j
        for c, reg in self.terms:
            if reg.contains_point(w):
                v += c
        return v


def _from_columns(
    family: str,
    coeffs: list[complex],
    sizes: list[int],
    ends: _Ends,
    zero_tol: float = ZERO_TOL,
    atoms: tuple[list[complex], _Ends] | None = None,
) -> SimpleFunction:
    """The function of these term columns (see `SimpleFunction._fill`); no region is built."""
    out = object.__new__(SimpleFunction)
    out._fill(family, zero_tol, coeffs, sizes, ends, atoms)
    return out


def _piece_function(family: str, c: complex, *sides: tuple[float, float]) -> SimpleFunction:
    """c times the indicator of one rectangle (x-side, y-side) or ring given by its sides.

    The function `SimpleFunction(family, ((c, <region of the piece>),))`
    would be, built without a region: the sides are checked as Interval
    and RadialRegion check them, and a piece with an empty side is the
    empty term.
    """
    ends = _piece_ends(family, sides)
    if ends is None:
        return _from_columns(family, [c], [0], tuple([] for _ in sides))
    return _from_columns(family, [c], [1], ends, ZERO_TOL, _overlay([c], ends, ZERO_TOL * abs(c)))


def indicator(r: Region) -> SimpleFunction:
    return _from_columns(r.family, [1.0 + 0j], [len(r._ends[0]) // 2], r._ends)


def linear_combine(
    coeffs: Sequence[complex],
    fns: Sequence[SimpleFunction],
    zero_tol: float = ZERO_TOL,
) -> SimpleFunction:
    """Pointwise sum(coeffs[i] * fns[i]), refined over all breakpoints.

    The terms of the result are the inputs' atoms, scaled; they are read
    from the inputs' columns, and no region is built.
    """
    if len(coeffs) != len(fns):
        raise ValueError("coefficient and function counts differ")
    if not fns:
        raise ValueError("linear_combine needs at least one function")
    family = fns[0].family
    for f in fns[1:]:
        if f.family != family:
            raise FamilyMismatchError("cannot combine functions of different families")
    weights = [k * c for k, f in zip(map(complex, coeffs), fns) for c in f._atom_coeffs]
    ends = tuple(list(chain.from_iterable(axis)) for axis in zip(*(f._atom_ends for f in fns)))
    return _from_columns(family, weights, [1] * len(weights), ends, zero_tol)


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


def gauge_in_measure(f: SimpleFunction, eps: float) -> float:
    """mu({w : |f(w)| >= eps}), the level-set mass at height eps."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if f._arrays is not None:
        moduli, masses = f._arrays
        return sum(masses[moduli >= eps].tolist())
    return sum(m for c, m in zip(f._atom_coeffs, f.masses) if abs(c) >= eps)


def wk_member(f: SimpleFunction, k: int) -> bool:
    """Membership in the k-th basic zero-neighbourhood: mu(|f| >= 1/k) < 1/k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return gauge_in_measure(f, 1.0 / k) < 1.0 / k


def l0_gauge(f: SimpleFunction) -> float:
    """integral of min(1, |f|) dmu; zero exactly for the zero function."""
    if f._arrays is not None:
        moduli, masses = f._arrays
        return sum((np.fmin(1.0, moduli) * masses).tolist())  # fmin(1.0, NaN) is 1.0, as min's
    return sum(min(1.0, abs(c)) * m for c, m in zip(f._atom_coeffs, f.masses))


def lp_gauge(f: SimpleFunction, p: float) -> float:
    """integral of |f|**p dmu for an exponent 1/2 < p < 1."""
    if not 0.5 < p < 1.0:
        raise ValueError(f"exponent p={p} outside ]1/2, 1[")
    return sum(abs(c) ** p * m for c, m in zip(f._atom_coeffs, f.masses))


# ---------------------------------------------------------------------------
# support
# ---------------------------------------------------------------------------


class SupportBound:
    """A region that a function's support is claimed to lie inside.

    The region holds its canonical pieces as endpoint columns, as every
    region does: `supported_in` sweeps them and `mass` sums them.
    `support_bound_of` builds the region with `_union_bound`.  Immutable;
    `==`, `hash` and `repr` are those of a frozen dataclass with the one
    field `region`.
    """

    __slots__ = ("region",)

    def __init__(self, region: Region) -> None:
        object.__setattr__(self, "region", region)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return SupportBound, (self.region,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.region == other.region

    def __hash__(self) -> int:
        return hash((self.region,))

    def __repr__(self) -> str:
        return f"SupportBound(region={self.region!r})"

    @property
    def family(self) -> str:
        return self.region.family

    @property
    def mass(self) -> float:
        """Gaussian mass of the region, bitwise `region_measure(self.region)`."""
        return _ends_measure(self.region._ends)


def _union_bound(family: str, sides: Sequence[tuple[float, float]]) -> SupportBound:
    """The bound on the union of two strips, or on a ring, given by its sides.

    Grid family: sides (x-side, y-side) give the vertical strip over the
    x-side and the horizontal strip over the y-side; radial family: the
    one side gives the ring.  Each side is checked as `_piece_function`
    checks it, and a strip or ring with an empty side is empty.  One
    non-empty piece is its own canonical piece; two strips are merged by
    `_strip_union`, as the region constructors and Booleans would merge
    them.
    """
    line = (NEG_INF, POS_INF)
    if family == GRID:
        x, y = sides
        pieces = [_piece_ends(GRID, (x, line)), _piece_ends(GRID, (line, y))]
    else:
        pieces = [_piece_ends(family, sides)]
    live = [ends for ends in pieces if ends is not None]
    if len(live) == 2:
        ends = _strip_union(live[0][0], live[1][1])
    else:
        ends = live[0] if live else tuple([] for _ in sides)
    cls = GridRegion if family == GRID else RadialRegion
    return SupportBound(_canonical_region(cls, ends))


def _strip_union(x: Sequence[float], y: Sequence[float]) -> _Ends:
    """Endpoint columns of the canonical pieces of the union of two non-empty strips.

    The strips lie over the x-side ]x_lo, x_hi] and the y-side ]y_lo, y_hi].
    A unit-weight overlay of them has one column per x-cell of
    -inf, x_lo, x_hi, +inf: the middle one covered whole, the outer ones
    over the y-side.  Equal neighbouring columns merge, so the union is the
    plane when either strip is, and otherwise the middle column and those
    outer columns that are not empty, in x order.  The endpoints are the
    sides' own floats, as the overlay's merge reads them off its axes.
    """
    (x_lo, x_hi), (y_lo, y_hi) = x, y
    if (x_lo, x_hi) == (NEG_INF, POS_INF) or (y_lo, y_hi) == (NEG_INF, POS_INF):
        return [NEG_INF, POS_INF], [NEG_INF, POS_INF]
    xe, ye = [x_lo, x_hi], [NEG_INF, POS_INF]
    if x_lo != NEG_INF:
        xe[:0], ye[:0] = (NEG_INF, x_lo), (y_lo, y_hi)
    if x_hi != POS_INF:
        xe += (x_hi, POS_INF)
        ye += (y_lo, y_hi)
    return xe, ye


def supported_in(f: SimpleFunction, bound: SupportBound) -> bool:
    """True iff every atom lies inside the bound region (exact inclusion).

    One sweep: the atoms (disjoint) weigh 1 and the bound's pieces
    (disjoint) 2, so a cell sums to exactly 1 iff an atom covers it and
    the bound does not.  Atoms below the zero tolerance were already
    dropped at construction, so this is the thresholded support of the
    function.  The zero function has empty support and is contained in
    every bound.  No region is built.
    """
    if f.family != bound.family:
        raise FamilyMismatchError(
            f"function family {f.family!r} != bound family {bound.family!r}"
        )
    if f.is_zero:
        return True
    bound_ends = bound.region._ends
    weights = [1] * len(f._atom_coeffs) + [2] * (len(bound_ends[0]) // 2)
    ends = [atoms + b for atoms, b in zip(f._atom_ends, bound_ends)]
    _, sums = _cell_sums(weights, ends)
    return not (sums == 1).any()


def simple_function_to_json(f: SimpleFunction) -> dict:
    return {
        "family": f.family,
        "atoms": [
            {"re": c.real, "im": c.imag, "region": region_to_json(reg)}
            for c, reg in f.atoms
        ],
    }
