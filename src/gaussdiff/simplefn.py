"""Finite indicator combinations and the gauges of the target spaces.

A simple function is a finite complex linear combination of indicators of
regions from one family.  On construction it is refined into canonical
atoms: pairwise disjoint maximal rectangles (or rings) carrying one complex
coefficient each.  Point values, level-set masses and the gauges below
then reduce to sums over atoms.

A function is stored as columns of plain floats, not as regions: per term
its coefficient, its number of pieces and their endpoints; per atom its
coefficient and endpoints, laid out as the overlay kernel of measure.py
takes them (one flat lo, hi, ... list per axis; a region holds the same
layout as one float64 array, a row per axis).  The (coefficient, region)
tuples of `terms` and `atoms` are views, and the atom masses are
computed, on first read.  A function is its atoms: `==` and `hash`
compare family, zero_tol and the atom columns, and `repr` shows them.

Every constructor ends in one column constructor (`_from_columns`, or
`SimpleFunction._fill` for `__init__`), and its `terms` record how it was
built.  `_fill` stores the fields plainly on an object of the private
base class `_Unsealed`, which has the slots but no write barrier, and
seals it last by setting its class to SimpleFunction, whose `__setattr__`
and `__delattr__` raise FrozenInstanceError; no caller sees it unsealed.
Writing the eleven fields through `object.__setattr__` instead nearly
doubled the cost of building a one-piece curve value (see `_fill`).
`SimpleFunction(...)` concatenates its regions' columns, read
by `.tolist()`, which are the terms; `indicator(r)` takes r's pieces as
its one term and as its atoms, without an overlay, since a region's
pieces are canonical already (the kernel would hand back the same
columns), and its term and atoms share the lists of one `.tolist()` of
r's arrays, which nothing changes; `_piece_function`, behind the
three curve maps and `scalar_curve`, takes the endpoints of one
rectangle or ring, checked as the region constructors check them;
`linear_combine` feeds its inputs' atom columns, scaled, to the kernel as
terms; and a divided difference's terms are its own atoms.  None of them
builds an Interval, and the regions of the views are slices of the
columns, made float64 arrays once per view.  A support bound holds its
region; `supported_in` walks the atom columns against the region's
`.tolist()` with the inclusion test of `region_contains`, and sums no
cell grid.

Atoms are the merged cells of the overlay kernel, with each term's
coefficient as the weight of its pieces.  A cell is dropped when Python's
`abs` of its value is <= the threshold below (numpy's complex `abs` can
differ in the last ulp); an atom's mass nu(column side) * nu(row side) is
bitwise what `mu_grid` gives its region.

The zero_tol rule: a cell is dropped when its modulus is <= zero_tol
times the largest term coefficient modulus.  Why drop "negligible"
coefficients at all: a divided difference is one weighted sum of its
curve values (see divdiff.py), and its cancellations on shared cells leave
float residue many orders below the honest coefficients.  Divided
differences apply this same rule, as `linear_combine` does, with the
weighted curve values as the terms.  The rule reads the terms, and an
atom summed from overlapping terms can exceed every term, so a function
rebuilt from its own atoms, `SimpleFunction(f.family, f.atoms,
f.zero_tol)`, may drop an atom that f kept: only an atom whose modulus is
<= zero_tol times f's largest atom modulus.  Rebuilding that function
again changes nothing.

Gauges on a function f with atoms (c_i, A_i):

* gauge_in_measure(f, eps) = mu(|f| >= eps) = sum of mu(A_i) over |c_i| >= eps,
* wk_member(f, k): membership in the basic zero-neighbourhood of the
  convergence-in-measure topology, mu(|f| >= 1/k) < 1/k,
* l0_gauge(f) = integral of min(1, |f|) dmu, a single scalar that goes to 0
  exactly when the function enters every such neighbourhood,
* lp_gauge(f, p) = integral of |f|**p dmu for 1/2 < p < 1, the subadditive
  p-th-power functional of the quasi-normed space.

Each gauge is Python's `sum` of one term per atom, in atom order.  A
function built by the overlay kernel's array form (`linear_combine`,
`SimpleFunction(...)` or a divided difference on a grid of at least
`_ARRAY_CELLS` elementary cells) is handed its atoms' moduli and masses
as float64 arrays by the kernel (see measure.py), bitwise Python's abs
and `_piece_masses`.  Its
four gauges form the per-atom terms in one pass over those arrays and
add them with `sum` over `.tolist()`: numpy's own sums add in another
order (pairwise) and would round differently.  `min(1, |c|)` is
`np.fmin`, which like `min` gives 1.0 for NaN.  `|c|**p` is
`np.float_power`, which calls the C library's `pow` per element, as
Python's `**` does; `np.power` runs SIMD loops of its own on some CPUs,
which differ from `pow` in the last ulp on some moduli.  An inf modulus
times a 0.0 mass is NaN there as in Python, without a warning.  Every
other function (curve values, indicators, overlays and differences on
smaller grids, copies) gauges atom by atom from its columns, with no
array built, so the thousands of tiny differences of a shrink schedule
pay nothing for it.  Both ways give the same bits.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
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
    _Columns,
    _array_columns,
    _canonical_region,
    _ends_measure,
    _inside,
    _joined,
    _overlay,
    _piece_ends,
    _piece_masses,
    _side,
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

ZERO_TOL = 1e-9  # drop a cell of modulus <= ZERO_TOL * the largest term modulus (see above)

_Term = tuple[complex, Region]


def _view(
    family: str, coeffs: Sequence[complex], sizes: Iterable[int], ends: _Columns
) -> tuple[_Term, ...]:
    """(coefficient, region) pairs; term i owns the next `sizes[i]` pieces of `ends`.

    The columns become one float64 array once, and each region holds its
    slice of it; no Interval is built.
    """
    cls = GridRegion if family == GRID else RadialRegion
    ends = _array_columns(ends)
    view, i = [], 0
    for c, n in zip(coeffs, sizes):
        j = i + 2 * n
        view.append((c, _canonical_region(cls, ends[:, i:j])))
        i = j
    return tuple(view)


class _Unsealed:
    """The slots of a SimpleFunction, with no write barrier.

    Only the builder holds one: `_fill` stores the fields plainly and then
    turns the object into a SimpleFunction (see `_fill`).
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

    def _fill(
        self,
        family: str,
        zero_tol: float,
        coeffs: list[complex],
        sizes: list[int],
        ends: _Columns,
        atoms: tuple[list[complex], _Columns, tuple | None] | None = None,
    ) -> None:
        """Set every column from the term columns, then seal; every constructor ends here.

        Term i is coeffs[i] times the indicator of the next sizes[i] pieces
        of `ends`.  `atoms` is what the overlay kernel returns for the
        terms' merged cells, if the caller has it: values, columns, and the
        moduli and masses its array form hands back, or None.  Otherwise
        the overlay runs here, with the threshold zero_tol times the
        largest term coefficient modulus.  The arrays are kept for the
        gauges.

        The fields are plain slot stores on the unsealed object, and the
        last store, of `__class__`, seals it: from then on SimpleFunction's
        `__setattr__` and `__delattr__` raise FrozenInstanceError.  A write
        through `object.__setattr__` past that barrier costs about five
        times a plain slot store: with all eleven written that way, a
        one-piece curve value took 1.9 us to build, against 1.0 us now
        (2-vCPU Xeon VM, Python 3.11.7), and a difference of order k
        builds k + 2 functions.  `__init__` unseals its fresh object with
        one such write.

        The columns are lists that nothing changes and that are never
        handed out (an indicator shares its region's).  Short tuples would
        do as well, but CPython keeps up to 2000 dead tuples of each length
        below 20 on free lists until a full garbage collection, and with so
        few container allocations those collections are rare: tuple columns
        raised the peak RSS of a `verify all` loop by about 2 MB.
        """
        if atoms is None:
            weights = [c for c, n in zip(coeffs, sizes) for _ in range(n)]
            tol = zero_tol * max(map(abs, coeffs), default=0.0)
            atoms = _overlay(weights, ends, tol)
        self._atom_coeffs, self._atom_ends, self._arrays = atoms  # arrays: (moduli, masses) or None
        self.family = family
        self.zero_tol = zero_tol
        self._term_coeffs = coeffs
        self._term_sizes = sizes
        self._term_ends = ends
        self._terms = self._atoms = self._masses = None  # the views, built on first access
        self.__class__ = SimpleFunction


class SimpleFunction(_Unsealed):
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

    __slots__ = ()

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
        ends = _joined(family, (reg._ends.tolist() for _, reg in terms))
        object.__setattr__(self, "__class__", _Unsealed)  # _fill seals it again
        self._fill(family, zero_tol, [c for c, _ in terms], sizes, ends)

    @classmethod
    def zero(cls, family: str) -> "SimpleFunction":
        """`SimpleFunction(family)`, built from empty columns without the overlay."""
        if family not in (GRID, RADIAL):
            raise ValueError(f"unknown function family {family!r}")
        ends = ([], []) if family == GRID else ([],)  # shared by the terms and the atoms
        return _from_columns(family, [], [], ends, ZERO_TOL, ([], ends, None))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle restore the columns as they are
        atoms = (self._atom_coeffs, self._atom_ends, None)
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
    ends: _Columns,
    zero_tol: float = ZERO_TOL,
    atoms: tuple[list[complex], _Columns, tuple | None] | None = None,
) -> SimpleFunction:
    """The function of these term columns (see `SimpleFunction._fill`); no region is built."""
    out = object.__new__(_Unsealed)
    out._fill(family, zero_tol, coeffs, sizes, ends, atoms)
    return out


def _piece_function(family: str, c: complex, *sides: tuple[float, float]) -> SimpleFunction:
    """c times the indicator of one rectangle (x-side, y-side) or ring given by its sides.

    The function `SimpleFunction(family, ((c, <region of the piece>),))`
    would be, built without a region: the sides are checked as Interval
    and RadialRegion check them, and a piece with an empty side is the
    empty term.  As in `indicator`, the one piece is its own atom, valued
    0j + c as the kernel values a single piece, and dropped as the kernel
    drops it, when its modulus is at most ZERO_TOL * abs(c): so c = 0 and
    an infinite c give the zero function, and a NaN c is kept.  The term
    and the atom share the columns.
    """
    ends = _piece_ends(family, sides)
    if ends is None:
        return _from_columns(family, [c], [0], tuple([] for _ in sides))
    value = 0j + c
    if abs(value) <= ZERO_TOL * abs(c):
        return _from_columns(family, [c], [1], ends, ZERO_TOL, ([], tuple([] for _ in sides), None))
    return _from_columns(family, [c], [1], ends, ZERO_TOL, ([value], ends, None))


def indicator(r: Region) -> SimpleFunction:
    """The indicator of r; its atoms are r's pieces, which are canonical already.

    Its one term and its atoms share the columns of r's `.tolist()`.
    """
    ends = tuple(r._ends.tolist())
    n = len(ends[0]) // 2
    return _from_columns(r.family, [1.0 + 0j], [n], ends, ZERO_TOL, ([1.0 + 0j] * n, ends, None))


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
    if f._arrays is not None:
        moduli, masses = f._arrays
        with np.errstate(invalid="ignore"):  # inf * 0.0 is NaN, as in Python
            return sum((np.float_power(moduli, p) * masses).tolist())
    return sum(abs(c) ** p * m for c, m in zip(f._atom_coeffs, f.masses))


# ---------------------------------------------------------------------------
# support
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportBound:
    """A region that a function's support is claimed to lie inside.

    The region holds its canonical pieces as endpoint columns, as every
    region does: `supported_in` tests against them and `mass` sums them.
    `support_bound_of` builds the region with `_union_bound`.
    """

    region: Region

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
    if family != GRID:
        ends = _piece_ends(family, sides)
        ring = _array_columns(([],) if ends is None else ends)
        return SupportBound(_canonical_region(RadialRegion, ring))
    x, y = (_side(lo, hi) for lo, hi in sides)
    line = [NEG_INF, POS_INF]
    if x[0] == x[1]:  # the vertical strip is empty
        ends = ([], []) if y[0] == y[1] else (line, y)
    elif y[0] == y[1]:  # the horizontal strip is empty
        ends = (x, line)
    else:
        ends = _strip_union(x, y)
    return SupportBound(_canonical_region(GridRegion, _array_columns(ends)))


def _strip_union(x: Sequence[float], y: Sequence[float]) -> _Columns:
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

    The inclusion test of `region_contains` (`measure._inside`), with the
    atoms as the inner pieces, on lists: each atom is walked against the
    canonical columns and runs of the bound's region, with no cell grid.
    Atoms below the zero tolerance were already dropped at construction,
    so this is the thresholded support of the function.  The zero
    function has empty support and is contained in every bound.  No
    region is built.
    """
    if f.family != bound.family:
        raise FamilyMismatchError(
            f"function family {f.family!r} != bound family {bound.family!r}"
        )
    return _inside(f._atom_ends, bound.region._ends.tolist())


def simple_function_to_json(f: SimpleFunction) -> dict:
    return {
        "family": f.family,
        "atoms": [
            {"re": c.real, "im": c.imag, "region": region_to_json(reg)}
            for c, reg in f.atoms
        ],
    }
