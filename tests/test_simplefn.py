"""Simple-function arithmetic, gauges, and support tests."""

import collections
import copy
import functools
import json
import math
import pickle
import struct
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from gaussdiff import (
    ANNULUS_CURVE,
    FamilyMismatchError,
    GridRegion,
    Interval,
    QUADRANT_CURVE,
    RadialRegion,
    SimpleFunction,
    SupportBound,
    annulus,
    annulus_map,
    coefficient_distance,
    disk,
    divided_diff,
    divided_diffs,
    empty_region,
    full_plane,
    gauge_in_measure,
    halfplane_map,
    horizontal_strip,
    indicator,
    l0_gauge,
    left_half_plane,
    linear_combine,
    lower_left_quadrant,
    lp_gauge,
    quadrant_map,
    rect,
    region_complement,
    region_contains,
    region_difference,
    region_from_json,
    region_intersect,
    region_measure,
    region_symdiff,
    region_to_json,
    region_union,
    scalar_curve,
    simple_function_to_json,
    supported_in,
    vertical_strip,
    wk_member,
)

from gaussdiff import simplefn
from gaussdiff.measure import (
    _ARRAY_CELLS,
    _array_merged,
    _cell_sums,
    _list_sums,
    _merged,
    _overlay,
)
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
    reference_combine,
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


@pytest.mark.parametrize("family", ["grid", "radial"])
def test_zero_is_the_empty_function(family):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplefn, "_overlay", None)  # an overlay would raise TypeError
        f = SimpleFunction.zero(family)
    g = SimpleFunction(family)
    columns = ("_term_coeffs", "_term_sizes", "_term_ends", "_atom_coeffs", "_atom_ends")
    assert [getattr(f, c) for c in columns] == [getattr(g, c) for c in columns]
    assert (f.family, f.zero_tol, f._arrays) == (g.family, g.zero_tol, g._arrays)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert f.is_zero and f.terms == () and f.masses == ()
    with pytest.raises(ValueError, match="unknown function family"):
        SimpleFunction.zero("polar")


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


def _cell_points(f):
    """A point of every cell of the grid of f's atom endpoints (]lo, hi] holds hi)."""

    def inside(lo, hi):
        return hi if hi < INF else (lo + 1.0 if lo > -INF else 0.0)

    xs, ys = (sorted(set(ends)) for ends in f._atom_ends)
    return [
        complex(inside(a, b), inside(c, d)) for a, b in zip(xs, xs[1:]) for c, d in zip(ys, ys[1:])
    ]


@given(grid_functions())
# terms -2.5j, -2.5j and 4.6e-9 leave the atoms 4.6e-9 - 5j and 4.6e-9:
# rebuilt from them, the threshold is 1e-9 * 5, and the second is dropped
@example(
    SimpleFunction(
        "grid",
        (
            (-2.5j, rect(-INF, -1.5, -INF, -1.5)),
            (-2.5j, rect(-INF, -1.5, -INF, -1.5)),
            (4.634350203821412e-09, rect(-INF, -1.5, -INF, -0.5)),
        ),
    )
)
@settings(max_examples=150)
def test_canonicalization_idempotent(f):
    # the zero_tol rule reads the largest term coefficient, and an atom can
    # exceed every term, so a function rebuilt from its atoms may drop an
    # atom that it kept; the rebuilt function is a fixed point, and it
    # drops only what the rule allows at f's largest atom
    g = SimpleFunction(f.family, f.atoms, f.zero_tol)
    assert SimpleFunction(g.family, g.atoms, g.zero_tol) == g
    top = max(map(abs, f._atom_coeffs), default=0.0)
    for w in _cell_points(f):
        fv, gv = f.value_at(w), g.value_at(w)
        assert gv == fv or (gv == 0 and abs(fv) <= f.zero_tol * top)


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


# Endpoints on a small lattice, so that unions share endpoints and their
# columns and y-runs touch: the walk's gap and run checks meet every case.
_LATTICE = {
    "grid": [-INF, -1.0, -0.5, 0.0, 0.5, 1.0, INF],
    "radial": [0.0, 0.25, 0.5, 1.0, 2.0, INF],
}


def _lattice_side(family):
    ends = st.sampled_from(_LATTICE[family])
    return st.lists(ends, min_size=2, max_size=2, unique=True).map(sorted)


def _lattice_piece(family):
    if family == "grid":
        sides = st.tuples(_lattice_side("grid"), _lattice_side("grid"))
        return sides.map(lambda s: rect(*s[0], *s[1]))
    return _lattice_side("radial").map(lambda s: annulus(*s))


def _lattice_region(family):
    """Unions of lattice pieces, empty included, and differences of two such unions."""
    union = st.lists(_lattice_piece(family), max_size=6).map(
        lambda ps: functools.reduce(region_union, ps, empty_region(family))
    )
    return st.one_of(union, st.tuples(union, union).map(lambda ab: region_difference(*ab)))


def _lattice_function(family):
    """Functions whose atoms are not region pieces: differences and weighted sums of indicators."""
    weights = st.lists(st.sampled_from([1.0, -1.0, 0.5j, 2.0 - 1.0j]), min_size=1, max_size=4)
    return st.builds(
        lambda cs, regions: linear_combine(cs, [indicator(r) for r in regions[: len(cs)]]),
        weights,
        st.lists(_lattice_region(family), min_size=4, max_size=4),
    )


def _inclusion_case(family):
    return st.tuples(_lattice_region(family), _lattice_region(family), _lattice_function(family))


_GAP = region_union(rect(-1, 0, 0, 1), rect(0.5, 1, 0, 1))  # two columns, a gap between
_TOUCHING = region_union(rect(-1, 0, -1, 1), rect(0, 1, 0, 2))  # two columns, one x-end shared


@given(st.sampled_from(["grid", "radial"]).flatmap(_inclusion_case))
@example((rect(-1, 1, 0, 1), _GAP, indicator(rect(-0.5, 1, 0, 1))))
@example((rect(-0.5, 0.5, 0, 1), _TOUCHING, indicator(rect(-0.5, 0.5, -0.5, 1))))
@example((rect(0, 1, 0, 1), _TOUCHING, indicator(rect(-1, 1, 0, 2))))
@example((annulus(0.25, 2), region_union(annulus(0.25, 0.5), annulus(1, 2)), indicator(disk(2))))
@settings(max_examples=300, deadline=None)
def test_inclusion_walk_matches_the_reference(case):
    inner, outer, f = case
    contained = reference_combine(inner, outer, lambda ia, ib: ia and not ib).is_empty
    assert region_contains(outer, inner) == contained
    assert supported_in(indicator(inner), SupportBound(outer)) == contained
    for g in (f, linear_combine([1.0, -1.0], [f, indicator(inner)])):
        for region in (outer, inner, region_union(outer, inner)):
            bound = SupportBound(region)
            assert supported_in(g, bound) == reference_supported_in(g, bound)


def test_support_checks_sum_no_grid():
    # the walk reads the outer columns: no cell grid, however many atoms or pieces
    rng = np.random.default_rng(5)
    sides = np.sort(rng.normal(size=(128, 2, 2)), axis=2)
    rects = [rect(*x, *y) for x, y in sides]
    f = linear_combine(rng.normal(size=128) + 1j * rng.normal(size=128), [*map(indicator, rects)])
    union = functools.reduce(region_union, rects)
    half = functools.reduce(region_union, rects[:64])
    bounds = [SupportBound(region_union(vertical_strip(-1.0, 1.0), horizontal_strip(-1.0, 1.0)))]
    bounds.append(SupportBound(union))
    rings = [annulus(r, r + 0.5) for r in (0.0, 1.0, 3.0)]
    rings = indicator(functools.reduce(region_union, rings))
    many = functools.reduce(region_union, [annulus(k / 4, k / 4 + 0.125) for k in range(128)])
    some = functools.reduce(region_union, [annulus(k / 2, k / 2 + 0.125) for k in range(64)])
    with kernel_paths() as seen:
        assert [supported_in(f, bound) for bound in bounds] == [False, True]
        assert supported_in(rings, SupportBound(annulus(0.0, 3.5)))
        assert not supported_in(rings, SupportBound(annulus(0.0, 3.25)))
        assert region_contains(union, union) and region_contains(union, half)
        assert not region_contains(half, union)
        assert region_contains(many, some) and not region_contains(some, many)
    assert seen["grids"] == [] and seen["counts"] == 0


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
    axes = [sorted(set(e)) for e in ends]
    sums = _cell_sums(weights, ends, axes)
    assume(sums.size >= _ARRAY_CELLS)
    got = _outcome(lambda: _array_merged(axes, keep(sums), tol)[:2])
    assert got == _outcome(lambda: _merged(axes, keep(sums).tolist(), tol))
    with kernel_paths() as seen:
        kernel = _outcome(lambda: _overlay(weights, ends, tol)[:2])
    assert (seen["merges"], seen["counts"]) == (1, 0)  # complex weights keep the slice adds
    assert kernel == _outcome(lambda: _merged(axes, sums.tolist(), tol))


def test_array_merge_raises_where_python_abs_overflows():
    # numpy's modulus of 1.5e308 * (1 + 1j) is inf; Python's abs raises
    weights = [complex(1.5e308, 1.5e308)] + [1j] * 39
    ends = [[float(k) for k in range(80)]]  # 40 touching rings, 79 cells
    axes = [sorted(set(e)) for e in ends]
    sums = _cell_sums(weights, ends, axes)
    with kernel_paths() as seen, pytest.raises(OverflowError):
        _overlay(weights, ends, 0.5)
    assert seen["merges"] == 1
    with pytest.raises(OverflowError):
        _merged(axes, sums.tolist(), 0.5)


# Weights for the sums of both kernel forms: signed zero parts, a pair whose
# sum overflows to inf (and, with its negative, to NaN), and plain values.
_SUM_WEIGHTS = st.sampled_from(
    [0j, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 1.0), complex(2.0, -0.0)]
    + [complex(1.5e308, 1.0), complex(1.5e308, -1.5e308), complex(-1.5e308, -0.0)]
) | st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)


@st.composite
def _summed_overlays(draw):
    """Kernel arguments (weights, ends) of rectangles or rings, weighted by _SUM_WEIGHTS."""
    if draw(st.booleans()):
        pieces = draw(st.lists(st.tuples(_side(_WIDE_END), _side(_WIDE_END)), min_size=2))
        ends = piece_columns(pieces, "grid")
    else:
        ends = piece_columns(draw(st.lists(_side(_WIDE_RADIUS), min_size=2, max_size=40)), "radial")
    n = len(ends[0]) // 2
    return draw(st.lists(_SUM_WEIGHTS, min_size=n, max_size=n)), ends


# three rings, and three rectangles, over one cell: inf, then NaN
_OVERFLOWING = [complex(1.5e308, 1.0), complex(1.5e308, -0.0), complex(-INF, 1.0)]


@given(_summed_overlays())
@example((_OVERFLOWING, ([0.0, 2.0, 1.0, 3.0, 0.5, 2.5],)))
@example((_OVERFLOWING, ([0.0, 2.0, 1.0, 3.0, 0.5, 2.5], [-0.0, 1.0, 0.0, 1.0, 0.5, 2.0])))
@settings(max_examples=200, deadline=None)
def test_list_sums_are_the_array_sums(overlay):
    # the small grids' list sums and the large grids' array sums add the
    # same weights in the same order, bit for bit
    weights, ends = overlay
    axes = [sorted(set(e)) for e in ends]
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _cell_sums(weights, ends, axes)
    assert _cell_bits(_list_sums(weights, ends, axes)) == _cell_bits(sums.tolist())


def _cell_bits(cells: list) -> list:
    """The type and bits of every cell of a 1-D or 2-D list grid, in its shape."""
    return [
        _cell_bits(v) if type(v) is list else (type(v), struct.pack("<dd", v.real, v.imag))
        for v in cells
    ]


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
    atoms = (f._atom_coeffs, f._atom_ends, None)
    twin = _from_columns(f.family, f._term_coeffs, f._term_sizes, f._term_ends, f.zero_tol, atoms)
    return [twin, copy.deepcopy(f), pickle.loads(pickle.dumps(f))]


def _pow_sensitive():
    """12 diagonal squares on a 23 x 23 cell grid, weighted by moduli whose `pow` is not SIMD's.

    numpy's `np.power` differs from the C library's `pow` at p = 0.51 for
    0.3, 2.5, 3.3 and 3.5, at p = 0.75 for 0.8, 4.1, 5.8 and 10.0, and at
    p = 0.99 for 0.4, 1.7, 3.1 and 6.6, enough to move the sums of
    `lp_gauge` at 0.75 and 0.99.
    """
    coeffs = [0.3, 2.5, 3.3, 3.5, 0.8, 4.1, 5.8, 10.0, 0.4, 1.7, 3.1, 6.6]
    ends = [(-0.9 + 0.15 * i, -0.78 + 0.15 * i) for i in range(len(coeffs))]
    return linear_combine(coeffs, [indicator(rect(lo, hi, lo, hi)) for lo, hi in ends])


# no shrink phase: a failing example of up to 128 pieces took hypothesis
# minutes and hundreds of MB to shrink, and is reported as drawn instead
@given(_gauged_functions(), st.booleans(), st.data())
@example(_pow_sensitive, False, None)  # generated moduli do not always meet one
@settings(max_examples=60, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_array_gauges_match_the_list_path(build, masses_last, data):
    with kernel_paths() as seen:
        f = build()
    on_arrays = bool(seen["grids"]) and seen["grids"][-1] >= _ARRAY_CELLS
    assert (f._arrays is not None) == on_arrays
    moduli = sorted(abs(c) for c in f._atom_coeffs)
    top = math.nextafter(moduli[-1] if moduli else 0.0, INF)  # above every modulus
    eps = [5e-324, 0.5, top]
    if moduli:
        # the explicit example draws nothing and gauges at its largest modulus
        at = moduli[-1] if data is None else data.draw(st.sampled_from(moduli))
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


# Moduli as the kernel hands them over: non-negative, with 0.0, the
# smallest subnormal, subnormals, 1.0, the largest float, inf and NaN.
_MODULI = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308]),
    st.sampled_from([INF, float("nan")]),
    st.floats(0.0, 2.2250738585072014e-308),
    st.floats(0.0, allow_nan=False, allow_infinity=False),
)
_EXPONENTS = st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)


@given(st.lists(_MODULI, min_size=1, max_size=200), _EXPONENTS)
@settings(max_examples=200)
def test_float_power_is_pythons_pow(moduli, p):
    # the array lp_gauge rests on this: np.float_power calls the C
    # library's pow per element, as Python's ** does (np.power need not)
    got = np.float_power(np.array(moduli), p).tolist()
    assert [_bits(y) for y in got] == [_bits(x**p) for x in moduli]


def test_array_lp_gauge_of_a_large_overlay():
    # 128 weighted rectangles, as in the largest overlay-atoms ops: every
    # one of some 10k moduli must be powered as Python powers it for the
    # sums to agree bit for bit
    rng = np.random.default_rng(19)
    sides = np.sort(rng.uniform(-2.0, 2.0, size=(128, 2, 2)), axis=2)
    rects = [rect(*x, *y) for x, y in sides.tolist()]
    coeffs = (rng.standard_normal(128) + 1j * rng.standard_normal(128)).tolist()
    with kernel_paths() as seen:
        f = linear_combine(coeffs, [indicator(r) for r in rects])
    assert seen["merges"] == 1 and f._arrays is not None
    assert len(f._atom_coeffs) >= 10_000
    twin = _list_path_twins(f)[0]
    for p in (0.51, 0.6, 0.75, 0.99):
        assert _bits(lp_gauge(f, p)) == _bits(lp_gauge(twin, p))


def test_array_lp_gauge_of_one_atom_is_its_power():
    # A last-ulp error in one of many small terms mostly rounds away in
    # their sum, so each modulus here is the one atom of an array-form
    # function: c on ]0, 1], over 64 separated rings whose terms 1 and -1
    # cancel (128 cells).
    rings = RadialRegion(tuple(Interval(1 + k / 64, 1 + (k + 0.5) / 64) for k in range(64)))
    unit, gaps = indicator(annulus(0.0, 1.0)), indicator(rings)
    moduli = np.exp(np.random.default_rng(19).uniform(-12.0, 12.0, 256)).tolist()
    for c in moduli:
        f = linear_combine([c, 1.0, -1.0], [unit, gaps, gaps])
        assert f._arrays is not None and f._atom_coeffs == [complex(c)]
        (mass,) = f.masses
        for p in (0.51, 0.75, 0.99):
            assert _bits(lp_gauge(f, p)) == _bits(c**p * mass)


# ---------------------------------------------------------------------------
# indicators take their region's pieces as atoms
# ---------------------------------------------------------------------------

_BOOLEANS = (region_union, region_intersect, region_difference, region_symdiff)


# at least 66 disjoint rings, which no merge joins: a grid of 131 or more cells
_SEPARATED_RINGS = st.lists(st.integers(1, 160), min_size=66, max_size=80, unique=True).map(
    lambda ks: RadialRegion(tuple(Interval(k / 32, k / 32 + 1 / 64) for k in ks))
)


@st.composite
def _indicated_regions(draw):
    """A region of either family: pieces as given or canonicalised, a Boolean
    result, a complement, the empty region or the plane, possibly through a
    JSON or pickle round trip."""
    family = draw(st.sampled_from(("grid", "radial")))
    if family == "grid":
        piece = st.tuples(_side(_GRID_END), _side(_GRID_END)).map(
            lambda s: rect(s[0].lo, s[0].hi, s[1].lo, s[1].hi)
        )
        small, wide = _GRID_REGION, _WIDE_RECTS.map(lambda cells: GridRegion(tuple(cells)))
    else:
        piece = _side(_RADIUS).map(lambda ring: annulus(ring.lo, ring.hi))
        small = _RADIAL_REGION
        wide = st.one_of(_WIDE_RINGS.map(lambda rings: RadialRegion(tuple(rings))), _SEPARATED_RINGS)
    any_region = st.one_of(piece, small, wide)
    kind = draw(st.sampled_from(("region", "boolean", "complement", "empty", "plane")))
    if kind == "region":
        region = draw(any_region)
    elif kind == "boolean":
        region = draw(st.sampled_from(_BOOLEANS))(draw(any_region), draw(any_region))
    elif kind == "complement":
        region = region_complement(draw(any_region))
    elif kind == "empty":
        region = empty_region(family)
    else:
        region = full_plane(family)
    trip = draw(st.sampled_from(("none", "json", "pickle")))
    if trip == "json":
        return region_from_json(json.loads(json.dumps(region_to_json(region))))
    if trip == "pickle":
        return pickle.loads(pickle.dumps(region))
    return region


def _columns_bits(f: SimpleFunction) -> list:
    return [[_bits(x) for x in column] for column in (f._atom_coeffs, *f._atom_ends)]


@given(_indicated_regions())
@settings(max_examples=150, deadline=None)
def test_indicator_takes_its_regions_pieces_as_atoms(region):
    before = repr(region)
    with kernel_paths() as seen, pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplefn, "_overlay", None)  # an overlay would raise TypeError
        f = indicator(region)
    assert seen == {"grids": [], "merges": 0, "counts": 0, "merged": [], "calls": []}
    g = SimpleFunction(region.family, [(1, region)])  # runs the overlay kernel
    assert f == g and hash(f) == hash(g)
    assert repr(f) == repr(g) and repr(f.terms) == repr(g.terms)
    assert _columns_bits(f) == _columns_bits(g)
    eps = [5e-324, 0.5, 1.0, math.nextafter(1.0, INF)]
    assert _gauges(f, eps) == _gauges(g, eps)
    assert f.max_coeff() == g.max_coeff() and f.is_zero == region.is_empty
    assert repr(region) == before  # the shared columns are left as they were


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
    ends = tuple(e.tolist() for e in region._ends)
    reference = reference_grid_atoms if region.family == "grid" else reference_radial_atoms
    assert repr(indicator(region).atoms) == repr(reference(((1.0 + 0j, region),), 1e-9))
    for coeff in _SINGLE_COEFFS:
        for zero_tol in (ZERO_TOL, 0.0, 0.999, 1.0, 2.0):
            tol = zero_tol * abs(coeff)
            axes = [sorted(set(e)) for e in ends]
            sums = _cell_sums([coeff], ends, axes)
            values, columns, arrays = _overlay([coeff], ends, tol)
            assert repr((values, columns)) == repr(_merged(axes, sums.tolist(), tol))
            assert arrays is None
            f = SimpleFunction(region.family, ((coeff, region),), zero_tol)
            assert repr(f.atoms) == repr(reference(f.terms, tol))
            assert [m.hex() for m in f.masses] == [region_measure(r).hex() for _, r in f.atoms]
            assert f.is_zero == (zero_tol >= 1.0 or coeff == 0)


_ENDPOINTS = st.sampled_from([-INF, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, INF, float("nan")])


# zero, signed zero parts, infinite and NaN coefficients: an infinite one is
# dropped (its modulus is not above ZERO_TOL times itself), a NaN one kept
_EDGE_COEFFS = [0j, complex(0.0, -0.0), complex(-0.0, 2.5), complex(INF, 0.0), complex(-0.0, -INF)]
_EDGE_COEFFS += [complex(INF, -INF), complex(math.nan, 0.5), complex(0.0, math.nan)]


@given(
    st.sampled_from(["grid", "radial"]),
    st.sampled_from(_SINGLE_COEFFS + _EDGE_COEFFS),
    st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS), min_size=2, max_size=2),
)
@settings(max_examples=300)
def test_piece_function_matches_the_region_constructors(family, coeff, sides):
    # the checks of Interval and RadialRegion, with the same exception types;
    # the one piece is its own atom, kept or dropped as the kernel decides
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
    copies = (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f)))
    for again in copies:
        assert again == f and repr(again) == repr(f) and again.masses == f.masses
    # every builder stores the fields on an unsealed object and hands out
    # only the sealed SimpleFunction
    pieces = [indicator(rect(i, i + 0.5, i, i + 0.5)) for i in range(8)]
    small = linear_combine([1.0, 2j], pieces[:2])
    large = linear_combine(range(1, 9), pieces)
    assert small._arrays is None and large._arrays is not None  # below / at least _ARRAY_CELLS
    built = [
        f,
        *copies,
        SimpleFunction("grid", [(1.0, rect(0, 1, 0, 1)), (2j, rect(0.5, 2, 0, 1))]),
        SimpleFunction("radial", [(1.0, annulus(0.5, 1.0))]),
        SimpleFunction("grid"),
        indicator(rect(0, 1, 0, 1)),
        indicator(annulus(0.5, 1.0)),
        small,
        large,
        SimpleFunction.zero("grid"),
        SimpleFunction.zero("radial"),
        quadrant_map(0.3 + 0.7j),
        annulus_map(0.5j),
        annulus_map(2.0),
        halfplane_map(-0.4),
        scalar_curve(lambda z: z * z)(0.5 + 0.5j),
        scalar_curve(lambda z: 0j, "radial")(1.0),
        divided_diff(QUADRANT_CURVE, [0.3 + 0.7j, 0.4 + 0.6j, 0.2 + 0.9j]),
        *divided_diffs(ANNULUS_CURVE, [[0.1, 0.5j, -0.3], [0.2, 0.3 + 0.4j, -0.6]]),
    ]
    for g in built:
        assert type(g) is SimpleFunction
        kept = repr(g)
        for name in simplefn._Unsealed.__slots__:
            with pytest.raises(FrozenInstanceError):
                setattr(g, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(g, name)
        with pytest.raises(FrozenInstanceError):
            g.__class__ = simplefn._Unsealed
        assert type(g) is SimpleFunction and repr(g) == kept
    for g in copy.copy(built), copy.deepcopy(built), pickle.loads(pickle.dumps(built)):
        assert all(type(h) is SimpleFunction for h in g) and g == built


def test_supported_in_radial_rings():
    f = linear_combine([1.0, 2.0], [indicator(annulus(0.5, 1.0)), indicator(annulus(1.5, 2.0))])
    assert supported_in(f, SupportBound(annulus(0.5, 2.0)))
    assert supported_in(f, SupportBound(RadialRegion((Interval(0.5, 1.0), Interval(1.5, 2.0)))))
    assert not supported_in(f, SupportBound(annulus(0.5, 1.9)))  # the outer ring's edge
    assert not supported_in(f, SupportBound(annulus(0.6, 2.0)))  # the inner ring's edge
    assert not supported_in(f, SupportBound(empty_region("radial")))
    assert supported_in(SimpleFunction.zero("radial"), SupportBound(empty_region("radial")))
