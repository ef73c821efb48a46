"""Simple-function arithmetic, gauges, and support tests."""

import collections
import copy
import functools
import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussdiff import (
    FamilyMismatchError,
    GridRegion,
    Interval,
    RadialRegion,
    SimpleFunction,
    SupportBound,
    annulus,
    coefficient_distance,
    empty_region,
    gauge_in_measure,
    horizontal_strip,
    indicator,
    l0_gauge,
    left_half_plane,
    linear_combine,
    lower_left_quadrant,
    lp_gauge,
    quadrant_map,
    rect,
    region_measure,
    region_union,
    simple_function_to_json,
    supported_in,
    vertical_strip,
    wk_member,
)

from gaussdiff.measure import _ARRAY_CELLS, _cell_sums, _merged, _overlay
from gaussdiff.simplefn import ZERO_TOL, _from_columns, _piece_function
from oracles import (
    agrees_3sig,
    eval_grid_64,
    kernel_paths,
    piece_columns,
    mc_l0_gauge,
    mc_lp_gauge,
    mc_oracle,
    nu_quad,
    reference_grid_atoms,
    reference_radial_atoms,
    reference_supported_in,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------


def test_indicator_of_empty_region_is_zero():
    f = indicator(empty_region("grid"))
    assert f.is_zero
    assert f.value_at(0.0) == 0


def test_indicator_point_values():
    f = indicator(lower_left_quadrant(0.0, 0.0))
    assert f.value_at(-1 - 1j) == 1
    assert f.value_at(1 + 0j) == 0


def test_cancellation_gives_zero_function():
    f = indicator(rect(0, 1, 0, 1))
    assert linear_combine([1.0, -1.0], [f, f]).is_zero


def test_halfplane_difference_is_strip_indicator():
    z1, z2 = 0.2 - 3.0j, 1.4 + 0.5j
    f1 = indicator(left_half_plane(z1.real))
    f2 = indicator(left_half_plane(z2.real))
    diff = linear_combine([1.0, -1.0], [f2, f1])
    assert diff.atoms == (
        (1.0 + 0j, GridRegion(((Interval(z1.real, z2.real), Interval(-INF, INF)),))),
    )


def test_quadrant_difference_quotient_single_atom():
    # (1/(z1-z2)) * (1_{A(0)} - 1_{A(1)}) carries one atom ]0,1] x ]-inf,0];
    # pointwise evaluation fixes its coefficient at +1.
    f = linear_combine([1.0 / (0 - 1), -1.0 / (0 - 1)], [quadrant_map(0), quadrant_map(1)])
    assert f.atoms == (
        (1.0 + 0j, GridRegion(((Interval(0.0, 1.0), Interval(-INF, 0.0)),))),
    )
    for w in eval_grid_64():
        expected = (quadrant_map(0).value_at(w) - quadrant_map(1).value_at(w)) / (0 - 1)
        assert f.value_at(w) == expected


def test_linear_combine_family_mismatch():
    with pytest.raises(FamilyMismatchError):
        linear_combine([1, 1], [indicator(annulus(0, 1)), indicator(rect(0, 1, 0, 1))])


def test_linear_combine_argument_checks():
    with pytest.raises(ValueError):
        linear_combine([], [])
    with pytest.raises(ValueError):
        linear_combine([1.0], [indicator(rect(0, 1, 0, 1)), indicator(rect(1, 2, 0, 1))])


def test_term_region_family_checked():
    with pytest.raises(FamilyMismatchError):
        SimpleFunction("grid", ((1.0, annulus(0, 1)),))


# ---------------------------------------------------------------------------
# gauges
# ---------------------------------------------------------------------------


def test_gauge_in_measure_zero_function():
    assert gauge_in_measure(SimpleFunction.zero("radial"), 0.5) == 0.0


def test_gauge_in_measure_level_sets():
    f = linear_combine([3.0], [indicator(annulus(0.0, 0.5))])
    v = gauge_in_measure(f, 1.0)
    assert v == pytest.approx(1.0 - math.exp(-0.25), abs=1e-15)
    assert v == pytest.approx(0.2211992169285951, abs=1e-12)
    assert agrees_3sig(mc_oracle(annulus(0.0, 0.5)), v)
    small = linear_combine([0.5], [indicator(annulus(0.0, 0.5))])
    assert gauge_in_measure(small, 1.0) == 0.0


def test_gauge_requires_positive_eps():
    with pytest.raises(ValueError):
        gauge_in_measure(SimpleFunction.zero("grid"), 0.0)


def test_wk_membership():
    assert wk_member(SimpleFunction.zero("grid"), 10**6)
    f = indicator(annulus(0.0, 2.0))
    mass = 1.0 - math.exp(-4.0)
    assert mass == pytest.approx(0.9816843611112658, abs=1e-12)
    assert agrees_3sig(mc_oracle(annulus(0.0, 2.0)), mass)
    assert wk_member(f, 1)  # 0.98168 < 1
    assert not wk_member(f, 2)  # 0.98168 >= 0.5


def test_l0_gauge_values():
    assert l0_gauge(SimpleFunction.zero("radial")) == 0.0
    assert l0_gauge(indicator(annulus(0.0, INF))) == 1.0
    f = linear_combine([2.0], [indicator(rect(0, 1, -INF, INF))])
    v = l0_gauge(f)  # min(1, 2) * strip mass
    assert v == pytest.approx(0.4213503964748574, abs=1e-12)
    assert v == pytest.approx(nu_quad(0.0, 1.0), abs=1e-12)
    assert agrees_3sig(mc_l0_gauge(f), v)


def test_lp_gauge_values():
    assert lp_gauge(SimpleFunction.zero("grid"), 0.75) == 0.0
    strip = indicator(rect(0, 1, -INF, INF))
    assert lp_gauge(strip, 0.75) == pytest.approx(0.4213503964748574, abs=1e-12)
    # the blow-up combination (1/t^2)(1_{S(t,2t)} - 1/2 1_{S(0,2t)}) at t = 1/4
    t = 0.25
    f = linear_combine(
        [1.0 / t**2, -0.5 / t**2],
        [indicator(rect(t, 2 * t, -INF, INF)), indicator(rect(0, 2 * t, -INF, INF))],
    )
    v = lp_gauge(f, 0.75)
    closed = (1.0 / (2 * t * t)) ** 0.75 * nu_quad(0.0, 2 * t)
    assert v == pytest.approx(closed, rel=1e-10)
    assert v == pytest.approx(1.2379643161066438, rel=1e-12)
    assert v == pytest.approx(8.0**0.75 * math.erf(0.5) / 2.0, rel=1e-12)
    assert agrees_3sig(mc_lp_gauge(f, 0.75), v)


def test_lp_gauge_exponent_domain():
    f = indicator(rect(0, 1, 0, 1))
    for bad in (0.5, 1.0, 0.2, 1.5):
        with pytest.raises(ValueError):
            lp_gauge(f, bad)


# ---------------------------------------------------------------------------
# support
# ---------------------------------------------------------------------------


def test_supported_in_zero_function():
    bound = SupportBound(empty_region("grid"))
    assert supported_in(SimpleFunction.zero("grid"), bound)


def test_supported_in_difference_in_strips():
    z1, z2 = 0.3 + 1.1j, -0.7 + 0.4j
    diff = linear_combine([1, -1], [quadrant_map(z2), quadrant_map(z1)])
    x_lo, x_hi = sorted((z1.real, z2.real))
    y_lo, y_hi = sorted((z1.imag, z2.imag))
    bound = SupportBound(
        region_union(vertical_strip(x_lo, x_hi), horizontal_strip(y_lo, y_hi))
    )
    assert supported_in(diff, bound)


def test_supported_in_disjoint_support():
    f = indicator(lower_left_quadrant(0.0, 0.0))
    right = SupportBound(rect(0.0, INF, -INF, INF))
    assert not supported_in(f, right)


def test_supported_in_family_mismatch():
    with pytest.raises(FamilyMismatchError):
        supported_in(indicator(annulus(0, 1)), SupportBound(rect(0, 1, 0, 1)))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _random_grid_function(rng):
    terms = []
    for _ in range(rng.integers(1, 5)):
        x1, x2 = sorted(rng.uniform(-2, 2, 2))
        y1, y2 = sorted(rng.uniform(-2, 2, 2))
        c = complex(rng.normal(), rng.normal())
        terms.append((c, rect(x1, x2, y1, y2)))
    return SimpleFunction("grid", tuple(terms))


def _random_radial_function(rng):
    terms = []
    for _ in range(rng.integers(1, 5)):
        r1, r2 = sorted(rng.uniform(0, 2, 2))
        c = complex(rng.normal(), rng.normal())
        terms.append((c, annulus(r1, r2)))
    return SimpleFunction("radial", tuple(terms))


def test_pointwise_soundness_200_points():
    rng = np.random.default_rng(11)
    for make in (_random_grid_function, _random_radial_function):
        f = make(rng)
        tol = f.zero_tol * max(abs(c) for c, _ in f.terms)
        for _ in range(100):
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert abs(f.value_at(w) - f.value_from_terms(w)) <= tol


def test_gauge_in_measure_antitone_in_eps():
    rng = np.random.default_rng(12)
    for _ in range(20):
        f = _random_radial_function(rng)
        eps = sorted(rng.uniform(0.01, 3.0, 4))
        vals = [gauge_in_measure(f, e) for e in eps]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_p_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(30):
        f = _random_grid_function(rng)
        g = _random_grid_function(rng)
        s = linear_combine([1, 1], [f, g])
        p = rng.uniform(0.55, 0.95)
        lhs = lp_gauge(s, p)
        rhs = lp_gauge(f, p) + lp_gauge(g, p)
        assert lhs <= rhs * (1 + 1e-10)


def test_lp_gauge_scaling():
    rng = np.random.default_rng(14)
    for _ in range(30):
        f = _random_radial_function(rng)
        c = complex(rng.normal(), rng.normal())
        if abs(c) < 1e-3:
            continue
        p = rng.uniform(0.55, 0.95)
        scaled = linear_combine([c], [f])
        lhs = lp_gauge(scaled, p)
        rhs = abs(c) ** p * lp_gauge(f, p)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_l0_gauge_tracks_wk_membership():
    # shrinking disks: gauge goes to zero and every neighbourhood is
    # eventually entered
    fs = [indicator(annulus(0.0, 1.0 / n)) for n in range(1, 200)]
    gauges = [l0_gauge(f) for f in fs]
    assert all(a >= b for a, b in zip(gauges, gauges[1:]))
    assert gauges[-1] < 1e-4
    for k in (1, 2, 5, 10):
        assert wk_member(fs[-1], k)
        tail_in = [wk_member(f, k) for f in fs[-20:]]
        assert all(tail_in)
    # a constant nonzero sequence enters no small neighbourhood
    g = indicator(annulus(0.0, 2.0))
    assert l0_gauge(g) > 0.9
    assert not wk_member(g, 2)


_COEFF = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)
_COORD = st.sampled_from([-INF, -1.5, -0.5, 0.0, 0.25, 1.0, INF])


@st.composite
def grid_functions(draw):
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(n):
        x1, x2 = sorted([draw(_COORD), draw(_COORD)])
        y1, y2 = sorted([draw(_COORD), draw(_COORD)])
        terms.append((draw(_COEFF), rect(x1, x2, y1, y2)))
    return SimpleFunction("grid", tuple(terms))


@given(grid_functions())
@settings(max_examples=150)
def test_canonicalization_idempotent(f):
    again = SimpleFunction(f.family, f.atoms, f.zero_tol)
    assert again.atoms == f.atoms


@given(grid_functions())
@settings(max_examples=100)
def test_atoms_pairwise_disjoint(f):
    from gaussdiff import region_intersect

    for i, (_, r1) in enumerate(f.atoms):
        for _, r2 in f.atoms[i + 1:]:
            assert region_intersect(r1, r2).is_empty


def test_json_serialization():
    f = linear_combine([2.0, -1.0j], [indicator(rect(0, 1, 0, 1)), indicator(rect(0.5, 2, 0, 1))])
    d = simple_function_to_json(f)
    assert d["family"] == "grid"
    assert len(d["atoms"]) == len(f.atoms)
    assert all({"re", "im", "region"} <= set(a) for a in d["atoms"])


# ---------------------------------------------------------------------------
# the overlay kernel against the per-cell reference loop
# ---------------------------------------------------------------------------

# A small endpoint pool makes pieces share breakpoints; it holds both zeros
# and the infinite ends of quadrants, strips and half-planes.
_GRID_END = st.one_of(
    st.sampled_from([-INF, -1.0, -0.0, 0.0, 0.5, 1.0, INF]),
    st.floats(-2.0, 2.0, allow_nan=False),
)
_RADIUS = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.5, 1.0, INF]),
    st.floats(0.0, 3.0, allow_nan=False),
)
_TERM_COEFF = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


def _side(ends):
    return st.tuples(ends, ends).map(lambda p: Interval(*sorted(p)))


_GRID_REGION = st.lists(st.tuples(_side(_GRID_END), _side(_GRID_END)), min_size=1, max_size=3).map(
    lambda cells: GridRegion(tuple(cells))
)
_RADIAL_REGION = st.lists(_side(_RADIUS), min_size=1, max_size=3).map(
    lambda rings: RadialRegion(tuple(rings))
)


@st.composite
def _overlay_terms(draw, regions):
    """Terms with exact cancellations (c, -c) and residues near zero_tol * |c|."""
    base = draw(st.lists(st.tuples(_TERM_COEFF, regions), min_size=1, max_size=6))
    terms = list(base)
    for c, reg in base:
        kind = draw(st.sampled_from(("plain", "cancel", "residue")))
        if kind == "cancel":
            terms.append((-c, reg))
        elif kind == "residue":
            k = draw(st.sampled_from((0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0)))
            terms.append((-c + c * (ZERO_TOL * k), reg))
    order = draw(st.permutations(range(len(terms))))
    return tuple(terms[i] for i in order)


def _assert_matches_reference(family, terms, zero_tol, reference):
    f = SimpleFunction(family, terms, zero_tol)
    tol = zero_tol * max(abs(complex(c)) for c, _ in terms)
    assert repr(f.atoms) == repr(reference(f.terms, tol))
    assert len(f.masses) == len(f.atoms)
    for (_, reg), m in zip(f.atoms, f.masses):
        assert m.hex() == region_measure(reg).hex()


@given(_overlay_terms(_GRID_REGION), st.sampled_from((ZERO_TOL, 0.0)))
@settings(max_examples=200)
def test_grid_kernel_matches_reference(terms, zero_tol):
    _assert_matches_reference("grid", terms, zero_tol, reference_grid_atoms)


@given(_overlay_terms(_RADIAL_REGION), st.sampled_from((ZERO_TOL, 0.0)))
@settings(max_examples=200)
def test_radial_kernel_matches_reference(terms, zero_tol):
    _assert_matches_reference("radial", terms, zero_tol, reference_radial_atoms)


@given(
    st.one_of(
        st.tuples(st.just("grid"), _overlay_terms(_GRID_REGION), _GRID_REGION),
        st.tuples(st.just("radial"), _overlay_terms(_RADIAL_REGION), _RADIAL_REGION),
    ),
    st.booleans(),
)
@settings(max_examples=100)
def test_supported_in_matches_per_atom_reference(case, widen):
    family, terms, region = case
    f = SimpleFunction(family, terms)
    if widen:  # the union of the term regions holds the support
        region = functools.reduce(region_union, [reg for _, reg in terms], region)
    bound = SupportBound(region)
    assert supported_in(f, bound) == reference_supported_in(f, bound)


def test_threshold_follows_python_abs():
    # numpy's complex abs differs from Python's in the last ulp for some
    # values; a cell sitting exactly at zero_tol * cmax by Python's abs is
    # dropped, whichever way numpy would round it.
    rng = np.random.default_rng(0)
    samples = [complex(z) for z in rng.standard_normal(2000) + 1j * rng.standard_normal(2000)]
    v = next((z for z in samples if abs(z) < 4.0 and float(np.abs(z)) > abs(z)), samples[0])
    kept = (4.0 + 0j, rect(0, 1, 0, 1))
    f = SimpleFunction("grid", (kept, (v, rect(2, 3, 0, 1))), zero_tol=abs(v) / 4.0)
    assert f.atoms == (kept,)


# ---------------------------------------------------------------------------
# the array form of the overlay kernel
# ---------------------------------------------------------------------------

# Enough distinct endpoints for grids of at least _ARRAY_CELLS cells, drawn
# with repeats; both zeros and the infinite ends.
_WIDE_END = st.sampled_from([-INF, -0.0, 0.0, INF] + [k / 8 for k in range(-24, 25) if k])
_WIDE_RADIUS = st.sampled_from([-0.0, 0.0, INF] + [k / 32 for k in range(1, 160)])
_WIDE_RECTS = st.lists(st.tuples(_side(_WIDE_END), _side(_WIDE_END)), min_size=12, max_size=40)
_WIDE_RINGS = st.lists(_side(_WIDE_RADIUS), min_size=36, max_size=64)


def _abs_disagreements() -> tuple[complex, complex]:
    """Values whose modulus numpy rounds above, and below, Python's abs (if found)."""
    rng = np.random.default_rng(0)
    samples = [complex(z) for z in rng.standard_normal(2000) + 1j * rng.standard_normal(2000)]
    up = next((z for z in samples if float(np.abs(z)) > abs(z)), samples[0])
    down = next((z for z in samples if float(np.abs(z)) < abs(z)), samples[0])
    return up, down


_UP, _DOWN = _abs_disagreements()
# Python's abs drops a cell holding _UP at the first of these thresholds and
# keeps one holding _DOWN at the second; numpy's modulus would decide the
# other way.
_TOLS = (0.0, 0.75, abs(_UP), math.nextafter(abs(_DOWN), 0.0))
# A cell covered by one piece holds exactly its weight: weights at each
# threshold and one ulp either side of it, a NaN, and signed zero parts.
_EDGE_WEIGHTS = [
    w
    for t in _TOLS[1:]
    for m in (t, math.nextafter(t, 0.0), math.nextafter(t, INF))
    for w in (complex(m, 0.0), complex(-0.0, -m))
] + [
    _UP,
    -_UP,
    _DOWN,
    -_DOWN,
    complex(float("nan"), 1.0),
    complex(-0.0, 2.0),
    complex(2.0, -0.0),
    0j,
    1 + 1j,
    -1 - 1j,
]
_KEEPS = (lambda s: s, np.negative, np.conjugate)  # the last two spell zero parts -0.0


@st.composite
def _wide_overlays(draw):
    """Kernel arguments (weights, ends) of 12-40 rectangles or 36-64 rings."""
    if draw(st.booleans()):
        pieces = draw(_WIDE_RECTS)
        ends = piece_columns(pieces, "grid")
    else:
        pieces = draw(_WIDE_RINGS)
        ends = piece_columns(pieces, "radial")
    weights = draw(st.lists(st.sampled_from(_EDGE_WEIGHTS), min_size=len(pieces), max_size=len(pieces)))
    return weights, ends


def _outcome(merge):
    try:
        return repr(merge())
    except OverflowError as exc:
        return type(exc)


@given(_wide_overlays(), st.sampled_from(_TOLS), st.sampled_from(_KEEPS))
@settings(max_examples=50, deadline=None)
def test_array_merge_matches_the_python_merge(overlay, tol, keep):
    weights, ends = overlay
    axes, sums = _cell_sums(weights, ends)
    assume(sums.size >= _ARRAY_CELLS)
    with kernel_paths() as seen:
        got = _outcome(lambda: _overlay(weights, ends, tol, keep))
    assert (seen["merges"], seen["counts"]) == (1, 0)  # complex weights keep the slice adds
    assert got == _outcome(lambda: _merged(axes, keep(sums).tolist(), tol))


def test_array_merge_raises_where_python_abs_overflows():
    # numpy's modulus of 1.5e308 * (1 + 1j) is inf; Python's abs raises
    weights = [complex(1.5e308, 1.5e308)] + [1j] * 39
    ends = [[float(k) for k in range(80)]]  # 40 touching rings, 79 cells
    axes, sums = _cell_sums(weights, ends)
    with kernel_paths() as seen, pytest.raises(OverflowError):
        _overlay(weights, ends, 0.5)
    assert seen["merges"] == 1
    with pytest.raises(OverflowError):
        _merged(axes, sums.tolist(), 0.5)


@st.composite
def _wide_terms(draw):
    """12 or more terms, single rectangles or rings, with exact cancellations and residues."""
    family = draw(st.sampled_from(("grid", "radial")))
    if family == "grid":
        regions = [GridRegion((cell,)) for cell in draw(_WIDE_RECTS)]
    else:
        regions = [RadialRegion((ring,)) for ring in draw(_WIDE_RINGS)]
    terms = []
    for reg in regions:
        c = draw(_TERM_COEFF)
        terms.append((c, reg))
        kind = draw(st.sampled_from(("plain", "plain", "cancel", "residue")))
        if kind == "cancel":
            terms.append((-c, reg))
        elif kind == "residue":
            k = draw(st.sampled_from((1.0 - 1e-6, 1.0, 1.0 + 1e-6)))
            terms.append((-c + c * (ZERO_TOL * k), reg))
    return family, terms


@given(_wide_terms(), st.sampled_from((ZERO_TOL, 0.0)))
@settings(max_examples=25, deadline=None)
def test_linear_combine_on_the_array_path(case, zero_tol):
    family, terms = case
    coeffs = [c for c, _ in terms]
    fns = [indicator(reg) for _, reg in terms]
    with kernel_paths() as seen:
        f = linear_combine(coeffs, fns, zero_tol)
    assume(seen["grids"] and seen["grids"][0] >= _ARRAY_CELLS)
    assert seen["merges"] == 1
    reference = reference_grid_atoms if family == "grid" else reference_radial_atoms
    tol = zero_tol * max(abs(c) for c, _ in f.terms)
    assert repr(f.atoms) == repr(reference(f.terms, tol))
    for (_, reg), m in zip(f.atoms, f.masses):
        assert m.hex() == region_measure(reg).hex()


# ---------------------------------------------------------------------------
# gauges on the kernel's arrays
# ---------------------------------------------------------------------------

_MANY_RECTS = st.lists(st.tuples(_side(_WIDE_END), _side(_WIDE_END)), min_size=12, max_size=128)
_MANY_RINGS = st.lists(_side(_WIDE_RADIUS), min_size=12, max_size=128)


@st.composite
def _cells_exactly(draw, family, cells):
    """Pieces whose endpoints span a grid of exactly `cells` cells: 7 x 9 or 8 x 8, or rings."""
    if family == "radial":
        rs = draw(st.lists(_WIDE_RADIUS, min_size=cells + 1, max_size=cells + 1, unique=True))
        rs.sort()
        return [Interval(lo, hi) for lo, hi in zip(rs, rs[1:])]
    nx = 8 if cells == _ARRAY_CELLS else 7
    xs, ys = (
        sorted(draw(st.lists(_WIDE_END, min_size=n + 1, max_size=n + 1, unique=True)))
        for n in (nx, cells // nx)
    )
    column = [(Interval(lo, hi), Interval(ys[0], ys[-1])) for lo, hi in zip(xs, xs[1:])]
    row = [(Interval(xs[0], xs[-1]), Interval(lo, hi)) for lo, hi in zip(ys, ys[1:])]
    return column + row


@st.composite
def _gauged_functions(draw):
    """A builder of a function of 12-128 single-piece terms or on a grid of 63 or 64 cells.

    It calls `linear_combine` on indicators or `SimpleFunction` on the
    terms; both run the overlay kernel.
    """
    family = draw(st.sampled_from(("grid", "radial")))
    if draw(st.booleans()):
        pieces = draw(_MANY_RECTS if family == "grid" else _MANY_RINGS)
    else:
        cells = draw(st.sampled_from((_ARRAY_CELLS - 1, _ARRAY_CELLS)))
        pieces = draw(_cells_exactly(family, cells))
    cls = GridRegion if family == "grid" else RadialRegion
    regions = [cls((piece,)) for piece in pieces]
    coeffs = draw(st.lists(_TERM_COEFF, min_size=len(regions), max_size=len(regions)))
    zero_tol = draw(st.sampled_from((ZERO_TOL, 0.0)))
    if draw(st.booleans()):
        return lambda: linear_combine(coeffs, [indicator(reg) for reg in regions], zero_tol)
    return lambda: SimpleFunction(family, zip(coeffs, regions), zero_tol)


def _gauges(f: SimpleFunction, eps: list[float], masses_last: bool = False) -> list:
    """Masses and all four gauges of f, bit for bit and with their types."""
    out = [_bits(l0_gauge(f))]
    out += [_bits(lp_gauge(f, p)) for p in (0.51, 0.75, 0.99)]
    out += [_bits(gauge_in_measure(f, e)) for e in eps]
    out += [_bits(wk_member(f, k)) for k in (1, 2, 7)]
    masses = [_bits(m) for m in f.masses]
    return out + masses if masses_last else masses + out


def _list_path_twins(f: SimpleFunction) -> list[SimpleFunction]:
    """f rebuilt from its columns, copied and pickled: all three gauge atom by atom."""
    atoms = (f._atom_coeffs, f._atom_ends)
    twin = _from_columns(f.family, f._term_coeffs, f._term_sizes, f._term_ends, f.zero_tol, atoms)
    return [twin, copy.deepcopy(f), pickle.loads(pickle.dumps(f))]


@given(_gauged_functions(), st.booleans(), st.data())
@settings(max_examples=60, deadline=None)
def test_array_gauges_match_the_list_path(build, masses_last, data):
    with kernel_paths() as seen:
        f = build()
    on_arrays = bool(seen["grids"]) and seen["grids"][-1] >= _ARRAY_CELLS
    assert (f._arrays is not None) == on_arrays
    moduli = sorted(abs(c) for c in f._atom_coeffs)
    top = math.nextafter(moduli[-1] if moduli else 0.0, INF)  # above every modulus
    eps = [5e-324, 0.5, top]
    if moduli:
        at = data.draw(st.sampled_from(moduli))
        eps += [at, math.nextafter(at, INF)]  # on a modulus and one ulp above it
    got = _gauges(f, eps, masses_last)
    assert _bits(gauge_in_measure(f, top)) == (int, "0")  # as `sum` of nothing is
    for twin in _list_path_twins(f):
        assert twin._arrays is None and twin == f
        assert _gauges(twin, eps, masses_last) == got


@pytest.mark.parametrize("at", [0.0, 30.0])
def test_array_gauges_of_an_infinite_atom(at):
    # rectangles 0 and 1 overlap on a square where 1.7e308 + 1.7e308 is inf;
    # far in the tail (at 30) every mass is 0.0, and inf * 0.0 is NaN
    rects = [rect(at + i, at + i + 1.5, at + i, at + i + 1.5) for i in range(10)]
    with kernel_paths() as seen, np.errstate(over="ignore"):
        f = linear_combine([1.7e308, 1.7e308] + [1.0] * 8, [indicator(r) for r in rects])
    assert seen["grids"] == [19 * 19] and f._arrays is not None
    assert complex(INF, 0.0) in f._atom_coeffs
    eps = [5e-324, 1.0, 1e308, INF]
    got = _gauges(f, eps)
    for twin in _list_path_twins(f):
        assert _gauges(twin, eps) == got
    lp = lp_gauge(f, 0.75)
    assert lp == INF if at == 0.0 else math.isnan(lp)


@pytest.mark.parametrize("zero_tol", [ZERO_TOL, 0.0])
def test_array_gauges_of_a_nan_atom(zero_tol):
    # inf + -inf on the square of rectangles 0 and 1 is a NaN atom, whose
    # min(1, |c|) is 1.0 on both paths; the threshold zero_tol * inf is
    # inf (only the NaN atom is kept) or NaN (every cell is kept)
    rects = [rect(i, i + 1.5, i, i + 1.5) for i in range(10)]
    with kernel_paths() as seen, np.errstate(invalid="ignore"):
        f = linear_combine([INF, -INF] + [1.0] * 8, [indicator(r) for r in rects], zero_tol)
    assert seen["grids"] == [19 * 19] and f._arrays is not None
    assert any(math.isnan(abs(c)) for c in f._atom_coeffs)
    eps = [5e-324, 1.0, INF]
    got = _gauges(f, eps)
    for twin in _list_path_twins(f):
        assert _gauges(twin, eps) == got
    assert math.isfinite(l0_gauge(f))


# ---------------------------------------------------------------------------
# float columns and their (coefficient, region) views
# ---------------------------------------------------------------------------


@st.composite
def _combine_cases(draw):
    """Coefficients and input functions of one family for `linear_combine`.

    Inputs come from `_overlay_terms`; a drawn input may repeat with the
    negated coefficient, so whole functions cancel exactly.
    """
    family, regions = draw(st.sampled_from((("grid", _GRID_REGION), ("radial", _RADIAL_REGION))))
    fns, ks = [], []
    for _ in range(draw(st.integers(1, 3))):
        f = SimpleFunction(family, draw(_overlay_terms(regions)))
        k = draw(_TERM_COEFF)
        fns.append(f)
        ks.append(k)
        if draw(st.booleans()):
            fns.append(f)
            ks.append(-k)
    return family, ks, fns, draw(st.sampled_from((ZERO_TOL, 0.0)))


def _bits(x):
    # repr tells floats apart bit for bit (and -0.0 from 0.0); an empty sum is the int 0
    return type(x), repr(x)


def _points(family):
    # endpoints of the pools and points between them, so boundaries are hit
    ends = [-1.0, -0.0, 0.0, 0.5, 1.0, 0.25, 1.75, -1.5, 3.5]
    if family == "radial":
        return [complex(r, 0.0) for r in ends if r >= 0] + [0.3 + 0.4j, 0.6 + 0.8j]
    return [complex(x, y) for x in ends for y in ends[::2]]


@given(_combine_cases())
@settings(max_examples=150)
def test_linear_combine_columns_match_views(case):
    family, ks, fns, zero_tol = case
    g = linear_combine(ks, fns, zero_tol)
    terms = tuple((complex(k) * c, reg) for k, f in zip(ks, fns) for c, reg in f.atoms)
    assert g.terms == terms
    assert repr(g.terms) == repr(terms)
    assert g.atoms is g.atoms and g.terms is g.terms
    reference = reference_grid_atoms if family == "grid" else reference_radial_atoms
    tol = zero_tol * max((abs(c) for c, _ in terms), default=0.0)
    assert repr(g.atoms) == repr(reference(terms, tol))
    assert [m.hex() for m in g.masses] == [region_measure(reg).hex() for _, reg in g.atoms]
    # each gauge is the per-atom Python sum over the view, bit for bit
    mass = [region_measure(reg) for _, reg in g.atoms]
    cs = [c for c, _ in g.atoms]
    assert _bits(l0_gauge(g)) == _bits(sum(min(1.0, abs(c)) * m for c, m in zip(cs, mass)))
    assert _bits(lp_gauge(g, 0.75)) == _bits(sum(abs(c) ** 0.75 * m for c, m in zip(cs, mass)))
    for eps in {0.5, 1.0, *map(abs, cs)} - {0.0}:
        level = sum(m for c, m in zip(cs, mass) if abs(c) >= eps)
        assert _bits(gauge_in_measure(g, eps)) == _bits(level)
    for k in (1, 2, 5):
        assert wk_member(g, k) == (sum(m for c, m in zip(cs, mass) if abs(c) >= 1.0 / k) < 1.0 / k)
    assert g.max_coeff() == max(map(abs, cs), default=0.0)
    assert g.is_zero == (not g.atoms)
    for w in _points(family):
        scan = next((c for c, reg in g.atoms if reg.contains_point(w)), 0j)
        assert g.value_at(w) == scan
    # the same record built from regions: equal, same hash, same repr
    again = SimpleFunction(family, g.terms, zero_tol)
    assert again == g and hash(again) == hash(g)
    assert repr(again) == repr(g)


def test_linear_combine_and_gauges_build_no_region(monkeypatch):
    grid = [indicator(rect(0, 1, 0, 1)), indicator(lower_left_quadrant(0.5, 0.5))]
    grid.append(quadrant_map(1 + 1j))
    radial = [indicator(annulus(0.2, 1.0)), indicator(annulus(0.5, 2.0))]
    grid_bound = SupportBound(rect(-INF, 1.0, -INF, 1.0))
    built = collections.Counter()
    for cls in (Interval, GridRegion, RadialRegion):

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    for fns in (grid, radial):
        g = linear_combine([1.0, -2.5j] + [0.5] * (len(fns) - 2), fns)
        h = linear_combine([3.0], [g])
        l0_gauge(h), lp_gauge(h, 0.75), gauge_in_measure(h, 0.5), wk_member(h, 2)
        h.value_at(0.6 + 0.6j), h.max_coeff(), h.is_zero
        coefficient_distance(g, h)
    supported_in(linear_combine([1.0], [grid[0]]), grid_bound)
    assert h.atoms and not built  # the atom view's regions hold slices of the columns
    assert h.atoms[0][1].rings and built["Interval"] > 0  # reading a region's pieces does not


_SINGLE_PIECES = [
    rect(0.0, 1.0, -0.5, 2.0),
    lower_left_quadrant(-0.0, 0.25),
    left_half_plane(0.3),
    rect(-INF, INF, -INF, INF),
    annulus(0.25, 1.0),
    annulus(0.0, INF),
]
_SINGLE_COEFFS = [1.0 + 0j, complex(-0.0, 1.5), complex(2.0, -0.0), complex(-0.0, -0.0), -3e-12 + 0j]


@pytest.mark.parametrize("region", _SINGLE_PIECES, ids=repr)
def test_single_piece_function_matches_the_kernel(region):
    # one piece skips numpy: its own atom, valued 0j + c, kept iff abs > tol
    ends = region._ends
    reference = reference_grid_atoms if region.family == "grid" else reference_radial_atoms
    assert repr(indicator(region).atoms) == repr(reference(((1.0 + 0j, region),), 1e-9))
    for coeff in _SINGLE_COEFFS:
        for zero_tol in (ZERO_TOL, 0.0, 0.999, 1.0, 2.0):
            tol = zero_tol * abs(coeff)
            axes, sums = _cell_sums([coeff], ends)
            assert repr(_overlay([coeff], ends, tol)) == repr(_merged(axes, sums.tolist(), tol))
            f = SimpleFunction(region.family, ((coeff, region),), zero_tol)
            assert repr(f.atoms) == repr(reference(f.terms, tol))
            assert [m.hex() for m in f.masses] == [region_measure(r).hex() for _, r in f.atoms]
            assert f.is_zero == (zero_tol >= 1.0 or coeff == 0)


_ENDPOINTS = st.sampled_from([-INF, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, INF, float("nan")])


@given(
    st.sampled_from(["grid", "radial"]),
    st.sampled_from(_SINGLE_COEFFS),
    st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS), min_size=2, max_size=2),
)
@settings(max_examples=300)
def test_piece_function_matches_the_region_constructors(family, coeff, sides):
    # the checks of Interval and RadialRegion, with the same exception types
    def by_region():
        if family == "grid":
            region = rect(*sides[0], *sides[1])
        else:
            region = annulus(*sides[0])
        return SimpleFunction(family, ((coeff, region),))

    def outcome(build):
        try:
            f = build()
        except Exception as exc:  # compared by type
            return type(exc)
        return repr(f), [m.hex() for m in f.masses]

    n = 2 if family == "grid" else 1
    assert outcome(lambda: _piece_function(family, coeff, *sides[:n])) == outcome(by_region)


def test_simple_function_is_immutable_and_copies():
    f = linear_combine([1.0, 2j], [indicator(rect(0, 1, 0, 1)), indicator(rect(0.5, 2, 0, 1))])
    with pytest.raises(FrozenInstanceError):
        f.family = "radial"
    with pytest.raises(FrozenInstanceError):
        del f.masses
    for again in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert again == f and repr(again) == repr(f) and again.masses == f.masses


def test_supported_in_radial_rings():
    f = linear_combine([1.0, 2.0], [indicator(annulus(0.5, 1.0)), indicator(annulus(1.5, 2.0))])
    assert supported_in(f, SupportBound(annulus(0.5, 2.0)))
    assert supported_in(f, SupportBound(RadialRegion((Interval(0.5, 1.0), Interval(1.5, 2.0)))))
    assert not supported_in(f, SupportBound(annulus(0.5, 1.9)))  # the outer ring's edge
    assert not supported_in(f, SupportBound(annulus(0.6, 2.0)))  # the inner ring's edge
    assert not supported_in(f, SupportBound(empty_region("radial")))
    assert supported_in(SimpleFunction.zero("radial"), SupportBound(empty_region("radial")))
