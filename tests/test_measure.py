"""Region algebra and closed-form measure tests."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussdiff import (
    FamilyMismatchError,
    GridRegion,
    Interval,
    RadialRegion,
    annulus,
    empty_region,
    horizontal_strip,
    left_half_plane,
    lower_left_quadrant,
    mu_grid,
    mu_radial,
    nu_mass,
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
    vertical_strip,
)
from gaussdiff import measure

from oracles import (
    agrees_3sig,
    annulus_quad,
    kernel_paths,
    mc_oracle,
    nu_quad,
    rect_dblquad,
    reference_canon_1d,
    reference_canon_grid,
    reference_combine,
    reference_complement,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1.0)
    assert Interval(2.0, 2.0).is_empty
    assert not Interval(-INF, INF).is_empty


def test_interval_membership():
    iv = Interval(0.0, 1.0)
    assert not iv.contains(0.0)  # half-open at the left
    assert iv.contains(1.0)
    assert iv.contains(0.5)
    assert Interval(-INF, 0.0).contains(-100.0)


# ---------------------------------------------------------------------------
# nu
# ---------------------------------------------------------------------------


def test_nu_total_mass():
    assert nu_mass(Interval(-INF, INF)) == 1.0


def test_nu_half_line():
    assert nu_mass(Interval(-INF, 0.0)) == 0.5


def test_nu_unit_interval():
    # erf(1)/2, cross-checked by adaptive quadrature of the density
    v = nu_mass(Interval(0.0, 1.0))
    assert v == pytest.approx(0.4213503964748574, abs=1e-15)
    assert v == pytest.approx(nu_quad(0.0, 1.0), abs=1e-12)


def test_nu_empty():
    assert nu_mass(Interval(3.0, 3.0)) == 0.0


def test_erf_library_accuracy():
    from scipy.special import erf as scipy_erf

    for x in np.linspace(-6, 6, 121):
        a = math.erf(float(x))
        b = float(scipy_erf(float(x)))
        assert abs(a - b) <= 1e-15 * max(1.0, abs(b))


# ---------------------------------------------------------------------------
# mu on grid regions
# ---------------------------------------------------------------------------


def test_mu_quadrant_at_origin():
    assert mu_grid(lower_left_quadrant(0.0, 0.0)) == pytest.approx(0.25, abs=1e-15)


def test_mu_empty_region():
    assert mu_grid(GridRegion()) == 0.0


def test_mu_strip_equals_nu():
    # mu(S(a,b)) = nu(]a,b]): the product against a full line factor
    strip = rect(0.0, 1.0, -INF, INF)
    assert mu_grid(strip) == pytest.approx(nu_mass(Interval(0.0, 1.0)), abs=1e-15)
    assert mu_grid(strip) == pytest.approx(nu_quad(0.0, 1.0), abs=1e-12)


def test_mu_rect_against_2d_quadrature():
    assert mu_grid(rect(-0.5, 1.25, -1.0, 0.75)) == pytest.approx(
        rect_dblquad(-0.5, 1.25, -1.0, 0.75), abs=1e-9
    )


# ---------------------------------------------------------------------------
# mu on radial regions
# ---------------------------------------------------------------------------


def test_mu_radial_total():
    assert mu_radial(annulus(0.0, INF)) == 1.0


def test_mu_radial_null():
    assert mu_radial(annulus(0.5, 0.5)) == 0.0


def test_mu_radial_closed_form():
    v = mu_radial(annulus(0.3, 0.7))
    assert v == pytest.approx(math.exp(-0.09) - math.exp(-0.49), abs=1e-15)
    assert v == pytest.approx(0.3013047910868121, abs=1e-12)
    assert v == pytest.approx(annulus_quad(0.3, 0.7), abs=1e-12)
    assert agrees_3sig(mc_oracle(annulus(0.3, 0.7)), v)


def test_radial_negative_radius_rejected():
    with pytest.raises(ValueError):
        annulus(-0.1, 1.0)


# ---------------------------------------------------------------------------
# Boolean operations
# ---------------------------------------------------------------------------


def test_symdiff_self_is_empty():
    a = lower_left_quadrant(0.0, 0.0)
    assert region_symdiff(a, a).is_empty


def test_symdiff_quadrants_closed_form():
    # A(1) \ A(0) = ]0,1] x ]-inf,0]
    a0 = lower_left_quadrant(0.0, 0.0)
    a1 = lower_left_quadrant(1.0, 0.0)
    sd = region_symdiff(a0, a1)
    assert sd.cells == ((Interval(0.0, 1.0), Interval(-INF, 0.0)),)
    m = region_measure(sd)
    assert m == pytest.approx(0.2106751982374287, abs=1e-12)
    assert m == pytest.approx(nu_quad(0.0, 1.0) * 0.5, abs=1e-12)


def test_symdiff_lipschitz_instance():
    z1, z2 = 1.0 + 2.0j, 1.5 + 1.8j
    sd = region_symdiff(
        lower_left_quadrant(z1.real, z1.imag), lower_left_quadrant(z2.real, z2.imag)
    )
    bound = 2.0 * abs(z2 - z1)
    assert bound == pytest.approx(1.0770329614269007, abs=1e-12)
    assert region_measure(sd) <= bound


def test_family_mismatch_raises():
    with pytest.raises(FamilyMismatchError):
        region_union(lower_left_quadrant(0, 0), annulus(0, 1))


def test_complement_involution_and_measure():
    a = region_union(rect(0, 1, 0, 1), rect(-2, -1, -1, 2))
    comp = region_complement(a)
    assert region_complement(comp) == a
    assert region_measure(a) + region_measure(comp) == pytest.approx(1.0, abs=1e-12)
    r = annulus(0.2, 0.9)
    assert region_complement(region_complement(r)) == r
    assert region_measure(r) + region_measure(region_complement(r)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_region_contains():
    assert region_contains(vertical_strip(0, 2), rect(0.5, 1.5, -3, 4))
    assert not region_contains(vertical_strip(0, 2), rect(-0.5, 1.5, -3, 4))
    assert region_contains(annulus(0.1, 0.9), annulus(0.2, 0.9))
    assert not region_contains(annulus(0.1, 0.9), annulus(0.2, 1.1))
    # empty region is inside everything
    assert region_contains(empty_region("grid"), GridRegion())


def test_equal_sets_have_equal_canonical_forms():
    # x-adjacent split
    assert region_union(rect(0, 1, 0, 1), rect(1, 2, 0, 1)) == rect(0, 2, 0, 1)
    # y-adjacent split
    assert region_union(rect(0, 1, 0, 2), rect(0, 1, 2, 3)) == rect(0, 1, 0, 3)
    # overlapping input cells collapse to the same canonical form
    assert GridRegion(rect(0, 2, 0, 2).cells + rect(1, 3, 0, 2).cells) == rect(0, 3, 0, 2)
    assert RadialRegion((Interval(0.0, 1.0), Interval(0.5, 2.0))) == annulus(0.0, 2.0)


def test_union_of_strips_canonicalizes():
    cross = region_union(vertical_strip(0, 1), horizontal_strip(0, 1))
    # three columns: left/right carry the horizontal band, middle the full line
    assert len(cross.cells) == 3
    assert region_contains(cross, rect(0.2, 0.8, -5, 5))
    assert region_contains(cross, rect(-9, 9, 0.2, 0.8))


def test_half_plane_and_point_membership():
    h = left_half_plane(0.0)
    assert h.contains_point(-1 - 1j)
    assert not h.contains_point(0.5)
    assert h.contains_point(0.0)  # boundary belongs to the closed side
    k = annulus(0.5, 1.0)
    assert k.contains_point(0.75j)
    assert not k.contains_point(0.25)
    assert k.contains_point(1.0)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_region_json_roundtrip():
    g = region_union(lower_left_quadrant(0.25, -1.5), rect(1, 2, 0, INF))
    d = json.loads(json.dumps(region_to_json(g)))
    assert region_from_json(d) == g
    assert "-inf" in json.dumps(d)
    r = annulus(0.0, 1.5)
    assert region_from_json(json.loads(json.dumps(region_to_json(r)))) == r


# ---------------------------------------------------------------------------
# property-based algebra checks
# ---------------------------------------------------------------------------

_COORD = st.sampled_from([-INF, -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, INF])


@st.composite
def grid_regions(draw):
    n = draw(st.integers(0, 3))
    cells = []
    for _ in range(n):
        x1, x2 = sorted([draw(_COORD), draw(_COORD)])
        y1, y2 = sorted([draw(_COORD), draw(_COORD)])
        cells.append((Interval(x1, x2), Interval(y1, y2)))
    return GridRegion(tuple(cells))


_RADIUS = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.8, 1.0, 1.5, 2.5, INF])


@st.composite
def radial_regions(draw):
    n = draw(st.integers(0, 3))
    rings = []
    for _ in range(n):
        r1, r2 = sorted([draw(_RADIUS), draw(_RADIUS)])
        rings.append(Interval(r1, r2))
    return RadialRegion(tuple(rings))


_REGION_PAIRS = st.one_of(
    st.tuples(grid_regions(), grid_regions()),
    st.tuples(radial_regions(), radial_regions()),
)


@given(_REGION_PAIRS)
@settings(max_examples=150)
def test_additivity_on_disjoint_parts(pair):
    a, b = pair
    b_only = region_difference(b, a)
    union = region_union(a, b_only)
    assert abs(region_measure(union) - (region_measure(a) + region_measure(b_only))) <= 1e-12


@given(_REGION_PAIRS)
@settings(max_examples=150)
def test_inclusion_exclusion(pair):
    a, b = pair
    lhs = region_measure(a) + region_measure(b)
    rhs = region_measure(region_union(a, b)) + region_measure(region_intersect(a, b))
    assert abs(lhs - rhs) <= 1e-12


@given(_REGION_PAIRS)
@settings(max_examples=150)
def test_monotonicity(pair):
    a, b = pair
    union = region_union(a, b)
    assert region_contains(union, a)
    assert region_measure(a) <= region_measure(union) + 1e-12


@given(_REGION_PAIRS)
@settings(max_examples=100)
def test_symdiff_matches_difference_union(pair):
    a, b = pair
    direct = region_symdiff(a, b)
    assembled = region_union(region_difference(a, b), region_difference(b, a))
    assert direct == assembled
    assert region_symdiff(a, a).is_empty


@given(_REGION_PAIRS)
@settings(max_examples=100)
def test_canonical_idempotence(pair):
    a, _ = pair
    if isinstance(a, GridRegion):
        assert GridRegion(a.cells) == a
    else:
        assert RadialRegion(a.rings) == a


@given(grid_regions())
@settings(max_examples=100)
def test_grid_cells_pairwise_disjoint(a):
    singles = [GridRegion((cell,)) for cell in a.cells]
    for i, r1 in enumerate(singles):
        for r2 in singles[i + 1:]:
            assert region_intersect(r1, r2).is_empty


# ---------------------------------------------------------------------------
# the overlay kernel against the slab sweeps
# ---------------------------------------------------------------------------

# Few distinct endpoints, so pieces share breakpoints, nest and touch; the
# pools hold both zeros and the infinite ends, and a side drawn with equal
# endpoints is a degenerate (empty) interval.
_KERNEL_END = st.one_of(
    st.sampled_from([-INF, -1.0, -0.0, 0.0, 0.5, 1.0, INF]),
    st.floats(-2.0, 2.0, allow_nan=False),
)
_KERNEL_RADIUS = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.5, 1.0, INF]),
    st.floats(0.0, 3.0, allow_nan=False),
)


def _side(ends):
    return st.tuples(ends, ends).map(lambda p: Interval(*sorted(p)))


_GRID_PIECES = st.lists(st.tuples(_side(_KERNEL_END), _side(_KERNEL_END)), max_size=5)
_RADIAL_PIECES = st.lists(_side(_KERNEL_RADIUS), max_size=5)
_KERNEL_PAIRS = st.one_of(
    st.tuples(_GRID_PIECES.map(tuple).map(GridRegion), _GRID_PIECES.map(tuple).map(GridRegion)),
    st.tuples(
        _RADIAL_PIECES.map(tuple).map(RadialRegion), _RADIAL_PIECES.map(tuple).map(RadialRegion)
    ),
)

_BOOLEANS = (
    (region_union, lambda ia, ib: ia or ib),
    (region_intersect, lambda ia, ib: ia and ib),
    (region_difference, lambda ia, ib: ia and not ib),
    (region_symdiff, lambda ia, ib: ia != ib),
)


def _unsigned_repr(x) -> str:
    """repr with every -0.0 spelled 0.0; the kernel may spell a zero either way."""
    return re.sub(r"-0\.0(?!\d)", "0.0", repr(x))


def _assert_same(got, want):
    assert got == want
    assert _unsigned_repr(got) == _unsigned_repr(want)


@given(_GRID_PIECES)
@settings(max_examples=200)
def test_grid_constructor_matches_slab_sweep(cells):
    _assert_same(GridRegion(tuple(cells)).cells, reference_canon_grid(cells))


@given(_RADIAL_PIECES)
@settings(max_examples=200)
def test_radial_constructor_matches_slab_sweep(rings):
    _assert_same(RadialRegion(tuple(rings)).rings, reference_canon_1d(rings))


@given(_KERNEL_PAIRS)
@settings(max_examples=200)
def test_booleans_match_slab_sweep(pair):
    a, b = pair
    for op, keep in _BOOLEANS:
        _assert_same(op(a, b), reference_combine(a, b, keep))
        _assert_same(op(b, a), reference_combine(b, a, keep))
    _assert_same(region_complement(a), reference_complement(a))
    assert region_contains(a, b) == reference_combine(b, a, _BOOLEANS[2][1]).is_empty


def test_union_spells_a_shared_zero_one_way():
    # The sweep sorts the endpoints of both operands once, so a zero spelled
    # -0.0 in one column and 0.0 in another comes out as the first spelling
    # met; the slab-by-slab sweep kept each column's own.  Same set, same mass.
    got = region_union(rect(0, 1, -0.0, 1), rect(2, 3, 0.0, 1))
    assert [math.copysign(1.0, cy.lo) for _, cy in got.cells] == [-1.0, -1.0]
    slab = reference_combine(rect(0, 1, -0.0, 1), rect(2, 3, 0.0, 1), _BOOLEANS[0][1])
    assert [math.copysign(1.0, cy.lo) for _, cy in slab.cells] == [-1.0, 1.0]
    assert got == slab
    assert region_measure(got) == region_measure(slab)


def test_sweep_shares_one_y_side_per_run():
    # two columns with the same y-run get one y-side Interval, as simple
    # function atoms do; regions keep no per-instance __dict__
    got = region_union(rect(0, 1, 0, 1), rect(2, 3, 0, 1))
    (_, cy0), (_, cy1) = got.cells
    assert cy0 is cy1
    assert got == GridRegion(((Interval(0, 1), Interval(0, 1)), (Interval(2, 3), Interval(0, 1))))
    for obj in (cy0, got, annulus(0, 1)):
        assert not hasattr(obj, "__dict__")


# Enough distinct endpoints that 12-40 pieces make grids of at least
# `_ARRAY_CELLS` cells, drawn with repeats; both zeros and the infinite ends.
_ARRAY_END = st.sampled_from([-INF, -0.0, 0.0, INF] + [k / 8 for k in range(-24, 25) if k])
_ARRAY_RADIUS = st.sampled_from([-0.0, 0.0, INF] + [k / 32 for k in range(1, 160)])


def _ring_sequence(radii) -> list:
    """Rings between consecutive sorted radii: disjoint, touching where radii repeat.

    Random rings would merge into a few, and a Boolean of two regions of few
    rings sweeps a small grid; a 1-D grid of `_ARRAY_CELLS` cells needs
    more distinct radii than 12 rings have.
    """
    radii = sorted(radii)
    return [Interval(lo, hi) for lo, hi in zip(radii[::2], radii[1::2])]


_ARRAY_RINGS = st.lists(_ARRAY_RADIUS, min_size=48, max_size=80).map(_ring_sequence)
_ARRAY_RECTS = st.lists(st.tuples(_side(_ARRAY_END), _side(_ARRAY_END)), min_size=12, max_size=40)
_ARRAY_CASES = st.one_of(
    st.tuples(st.just(GridRegion), _ARRAY_RECTS, _ARRAY_RECTS),
    st.tuples(st.just(RadialRegion), _ARRAY_RINGS, _ARRAY_RINGS),
)


def _live_cells(cls, pieces) -> int:
    """Elementary cells of the grid the constructor of `cls` sweeps for `pieces`."""
    if cls is RadialRegion:
        live = [ring for ring in pieces if not ring.is_empty]
        return len({p for ring in live for p in (ring.lo, ring.hi)}) - 1 if len(live) > 1 else 0
    live = [(cx, cy) for cx, cy in pieces if not cx.is_empty and not cy.is_empty]
    if len(live) < 2:
        return 0
    xs = {p for cx, _ in live for p in (cx.lo, cx.hi)}
    ys = {p for _, cy in live for p in (cy.lo, cy.hi)}
    return (len(xs) - 1) * (len(ys) - 1)


@given(_ARRAY_CASES)
@settings(max_examples=30, deadline=None)
def test_region_algebra_on_the_array_path(case):
    cls, pa, pb = case
    assume(_live_cells(cls, pa + pb) >= measure._ARRAY_CELLS)
    canon = reference_canon_grid if cls is GridRegion else reference_canon_1d
    with kernel_paths() as seen:
        a, b, both = cls(tuple(pa)), cls(tuple(pb)), cls(tuple(pa + pb))
        _assert_same(measure._pieces(a), canon(pa))
        _assert_same(measure._pieces(b), canon(pb))
        _assert_same(measure._pieces(both), canon(pa + pb))
        _assert_same(region_union(a, b), both)
        for op, keep in _BOOLEANS:
            _assert_same(op(a, b), reference_combine(a, b, keep))
            _assert_same(op(b, a), reference_combine(b, a, keep))
        _assert_same(region_complement(a), reference_complement(a))
        assert region_contains(a, b) == reference_combine(b, a, _BOOLEANS[2][1]).is_empty
        assert region_contains(both, a) and region_contains(both, b)
    # the array path ran, exactly on the grids of at least _ARRAY_CELLS cells
    large = sum(n >= measure._ARRAY_CELLS for n in seen["grids"])
    assert large >= 1
    assert seen["merges"] == seen["counts"] == large


# ---------------------------------------------------------------------------
# quantitative sweeps
# ---------------------------------------------------------------------------


def test_annulus_mass_cap_random_grid():
    # mu(K(r,R)) <= R - r over 10^4 random pairs
    rng = np.random.default_rng(2)
    pairs = np.sort(rng.uniform(0.0, 4.0, size=(10_000, 2)), axis=1)
    for r, hi in pairs:
        assert mu_radial(annulus(r, hi)) <= (hi - r) + 1e-12


def test_radial_density_cap():
    # 2 t exp(-t^2) peaks at sqrt(2/e) near t = 1/sqrt(2), stays below 1
    t = np.linspace(0.0, 10.0, 100_001)
    vals = 2.0 * t * np.exp(-t * t)
    cap = math.sqrt(2.0 / math.e)
    assert cap == pytest.approx(0.8577638849607068, abs=1e-15)
    assert np.all(vals <= cap + 1e-12)
    assert vals.max() == pytest.approx(cap, abs=1e-8)
    assert cap < 1.0


def test_closed_forms_agree_with_mc():
    checks = [
        annulus(0.0, 1.0),
        annulus(0.5, 2.0),
        rect(-1.0, 1.0, -INF, INF),
        lower_left_quadrant(0.5, 0.5),
        region_union(vertical_strip(-0.25, 0.75), horizontal_strip(0.0, 1.0)),
    ]
    for region in checks:
        assert agrees_3sig(mc_oracle(region), region_measure(region))
