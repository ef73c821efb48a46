"""Region algebra and closed-form measure tests."""

import copy
import functools
import json
import math
import pickle
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaussdiff import (
    ANNULUS_CURVE,
    HALFPLANE_CURVE,
    QUADRANT_CURVE,
    FamilyMismatchError,
    GridRegion,
    Interval,
    RadialRegion,
    SimpleFunction,
    annulus,
    disk,
    divided_diffs,
    empty_region,
    full_plane,
    horizontal_strip,
    indicator,
    left_half_plane,
    linear_combine,
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
    support_bound_of,
    vertical_strip,
)
from gaussdiff import measure
from gaussdiff.simplefn import SupportBound

from oracles import (
    agrees_3sig,
    annulus_quad,
    canonical_region,
    kernel_paths,
    list_canon,
    list_combine,
    list_contains,
    list_measure,
    mc_oracle,
    piece_columns,
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


@pytest.mark.parametrize("family", ["grid", "radial"])
def test_empty_region_mass_is_the_float_zero(family):
    # a sum from 0.0: an empty region's mass is 0.0, not the int 0
    piece = rect(0, 1, 0, 1) if family == "grid" else annulus(0.0, 1.0)
    mu = mu_grid if family == "grid" else mu_radial
    for empty in (empty_region(family), region_difference(piece, piece)):
        masses = [region_measure(empty), mu(empty), SupportBound(empty).mass]
        assert [m.hex() for m in masses] == [(0.0).hex()] * 3
    assert region_measure(piece).hex() == mu(piece).hex() == SupportBound(piece).mass.hex()


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


def _assert_same(got, want):
    assert got == want
    assert repr(got) == repr(want)


def _assert_swept(region, pieces: int) -> None:
    """The sweep's columns are float64; of no piece or one in, at most one piece out."""
    _assert_float64(region)
    assert pieces > 1 or region._ends.shape[1] in (0, 2)


# No piece, and one piece, go through the same sweep as many.
@example([])
@example([(Interval(0.0, 1.0), Interval(-INF, 0.5))])
@example([(Interval(0.0, 1.0), Interval(0.5, 0.5))])
@given(_GRID_PIECES)
@settings(max_examples=200)
def test_grid_constructor_matches_slab_sweep(cells):
    region = GridRegion(tuple(cells))
    _assert_same(region.cells, reference_canon_grid(cells))
    _assert_swept(region, len(cells))


@example([])
@example([Interval(0.5, 1.0)])
@example([Interval(0.0, INF)])
@given(_RADIAL_PIECES)
@settings(max_examples=200)
def test_radial_constructor_matches_slab_sweep(rings):
    region = RadialRegion(tuple(rings))
    _assert_same(region.rings, reference_canon_1d(rings))
    _assert_swept(region, len(rings))


def _union(*regions):
    return functools.reduce(region_union, regions)


# The edges of a Boolean's window (`measure._windowed`).  A column that
# touches the window must merge inside the sweep: a - b of the first pair
# is rect(0, 2, 0, 1), the second and third pairs' union and symmetric
# difference are rect(0, 3, 0, 1) and the fourth's union is annulus(0, 3).
# The last pair's intersection drops every column that passes the window.
@example((_union(rect(0, 1, 0, 1), rect(1, 2, 0, 2)), rect(1, 2, 1, 2)))
@example((_union(rect(0, 1, 0, 1), rect(2, 3, 0, 1)), rect(1, 2, 0, 1)))
@example((rect(1, 2, 0, 1), _union(rect(0, 1, 0, 1), rect(2, 3, 0, 1))))
@example((_union(annulus(0, 1), annulus(2, 3)), annulus(1, 2)))
@example(
    (
        _union(*(rect(x0, x1, 0, 1) for x0, x1 in ((0, 1), (2, 3), (4, 6), (7, 8), (9, 10)))),
        rect(5, 5.5, 0, 2),
    )
)
# An empty operand against one piece, in both orders, and two empty ones:
# fewer than two pieces go through the same sweep as many.
@example((GridRegion(), rect(0, 1, -INF, 0.5)))
@example((rect(0, 1, -INF, 0.5), GridRegion()))
@example((GridRegion(), GridRegion()))
@example((RadialRegion(), annulus(0.5, 1)))
@example((annulus(0.5, 1), RadialRegion()))
@example((RadialRegion(), RadialRegion()))
@given(_KERNEL_PAIRS)
@settings(max_examples=200)
def test_booleans_match_slab_sweep(pair):
    a, b = pair
    pieces = len(_pieces(a)) + len(_pieces(b))
    for op, keep in _BOOLEANS:
        for x, y in ((a, b), (b, a)):
            got = op(x, y)
            _assert_same(got, reference_combine(x, y, keep))
            _assert_swept(got, pieces)
    _assert_same(region_complement(a), reference_complement(a))
    assert region_contains(a, b) == reference_combine(b, a, _BOOLEANS[2][1]).is_empty


def test_sweep_shares_one_y_side_per_run():
    # two columns with the same y-run get one y-side Interval, as simple
    # function atoms do; regions keep no per-instance __dict__
    got = region_union(rect(0, 1, 0, 1), rect(2, 3, 0, 1))
    (_, cy0), (_, cy1) = got.cells
    assert cy0 is cy1
    assert got == GridRegion(((Interval(0, 1), Interval(0, 1)), (Interval(2, 3), Interval(0, 1))))
    for obj in (cy0, got, annulus(0, 1)):
        assert not hasattr(obj, "__dict__")


# ---------------------------------------------------------------------------
# regions held as endpoint columns
# ---------------------------------------------------------------------------

# repr strings recorded from the Interval-tuple implementation the columns
# replaced; the two built from a -0.0 side were re-recorded once every zero
# endpoint became 0.0
_RECORDED_REPRS = [
    (
        lambda: rect(0, 1, -0.0, INF),
        "GridRegion(cells=((Interval(lo=0.0, hi=1.0), Interval(lo=0.0, hi=inf)),))",
    ),
    (
        lambda: region_union(rect(0, 1, 0, 1), rect(0.5, 2, -1, 0.5)),
        "GridRegion(cells=((Interval(lo=0.0, hi=0.5), Interval(lo=0.0, hi=1.0)), "
        "(Interval(lo=0.5, hi=1.0), Interval(lo=-1.0, hi=1.0)), "
        "(Interval(lo=1.0, hi=2.0), Interval(lo=-1.0, hi=0.5))))",
    ),
    (
        lambda: region_complement(rect(-1, 1, -0.5, 0.5)),
        "GridRegion(cells=((Interval(lo=-inf, hi=-1.0), Interval(lo=-inf, hi=inf)), "
        "(Interval(lo=-1.0, hi=1.0), Interval(lo=-inf, hi=-0.5)), "
        "(Interval(lo=-1.0, hi=1.0), Interval(lo=0.5, hi=inf)), "
        "(Interval(lo=1.0, hi=inf), Interval(lo=-inf, hi=inf))))",
    ),
    (lambda: annulus(0.25, 1.5), "RadialRegion(rings=(Interval(lo=0.25, hi=1.5),))"),
    (
        lambda: region_union(annulus(0, 1), annulus(2, INF)),
        "RadialRegion(rings=(Interval(lo=0.0, hi=1.0), Interval(lo=2.0, hi=inf)))",
    ),
    (
        lambda: region_complement(annulus(0.5, 1)),
        "RadialRegion(rings=(Interval(lo=0.0, hi=0.5), Interval(lo=1.0, hi=inf)))",
    ),
    (lambda: empty_region("grid"), "GridRegion(cells=())"),
    (lambda: empty_region("radial"), "RadialRegion(rings=())"),
    (lambda: rect(2, 2, 0, 1), "GridRegion(cells=())"),
    (
        lambda: full_plane("grid"),
        "GridRegion(cells=((Interval(lo=-inf, hi=inf), Interval(lo=-inf, hi=inf)),))",
    ),
    (lambda: full_plane("radial"), "RadialRegion(rings=(Interval(lo=0.0, hi=inf),))"),
    (
        lambda: SupportBound(vertical_strip(-0.0, 1)),
        "SupportBound(region=GridRegion(cells=((Interval(lo=0.0, hi=1.0), "
        "Interval(lo=-inf, hi=inf)),)))",
    ),
]


@pytest.mark.parametrize("build, want", _RECORDED_REPRS, ids=[w for _, w in _RECORDED_REPRS])
def test_region_repr_is_the_recorded_dataclass_repr(build, want):
    assert repr(build()) == want


def _flip_zeros(pieces):
    """The same pieces with the sign of every zero endpoint flipped."""

    def flip(iv):
        return Interval(*(-e if e == 0 else e for e in (iv.lo, iv.hi)))

    return [tuple(map(flip, p)) if isinstance(p, tuple) else flip(p) for p in pieces]


_VALUE_CASES = st.one_of(
    st.tuples(st.just(GridRegion), _GRID_PIECES),
    st.tuples(st.just(RadialRegion), _RADIAL_PIECES),
)


@given(_VALUE_CASES)
@settings(max_examples=150)
def test_region_value_semantics(case):
    cls, pieces = case
    region = cls(tuple(pieces))
    name = "cells" if cls is GridRegion else "rings"
    # the same canonical pieces with the sign of each zero flipped: the same set
    twin = canonical_region(cls, _flip_zeros(_pieces(region)))
    assert twin == region and hash(twin) == hash(region)
    assert cls(tuple(_flip_zeros(pieces))) == region
    assert region != (GridRegion() if cls is RadialRegion else RadialRegion())
    for again in (copy.copy(region), copy.deepcopy(region), pickle.loads(pickle.dumps(region))):
        assert again == region and hash(again) == hash(region) and repr(again) == repr(region)
    for target in (region, twin):
        for field in (name, "_ends", "family"):
            with pytest.raises(FrozenInstanceError):
                setattr(target, field, ())
            with pytest.raises(FrozenInstanceError):
                delattr(target, field)
        assert not hasattr(target, "__dict__")
    assert repr(region) == f"{cls.__name__}({name}={_pieces(region)!r})"


def test_region_constructors_check_in_the_old_order():
    nan = float("nan")
    with pytest.raises(ValueError, match="must not be NaN"):
        annulus(-1, nan)
    with pytest.raises(ValueError, match="must not be NaN"):
        rect(0, 1, 2, nan)
    with pytest.raises(ValueError, match="radius bound -1.0 is negative"):
        annulus(-1, -0.5)
    with pytest.raises(ValueError, match=re.escape("interval ]1.0, 0.0] has lo > hi")):
        rect(1, 0, nan, 1)
    with pytest.raises(ValueError, match=re.escape("interval ]-2.0, -3.0] has lo > hi")):
        annulus(-2, -3)
    with pytest.raises(ValueError, match="radius bound -0.5 is negative"):
        RadialRegion((Interval(0.0, 1.0), Interval(-0.5, -0.5)))  # even an empty ring


def test_wrong_family_masses_raise():
    with pytest.raises(FamilyMismatchError):
        mu_grid(annulus(0, 1))
    with pytest.raises(FamilyMismatchError):
        mu_radial(rect(0, 1, 0, 1))
    assert mu_grid(rect(0, 1, 0, 1)) == region_measure(rect(0, 1, 0, 1))
    assert mu_radial(annulus(0, 1)) == region_measure(annulus(0, 1))


_SIGNED_ZERO_END = st.sampled_from([-INF, -1.0, -0.0, 0.0, 0.5, INF])
_SIGNED_ZERO_RADIUS = st.sampled_from([-0.0, 0.0, 0.5, 1.0, INF])
_SIGNED_ZERO_SIDES = st.lists(_SIGNED_ZERO_END, min_size=2, max_size=2).map(sorted)
_SIGNED_ZERO_RINGS = st.lists(_SIGNED_ZERO_RADIUS, min_size=2, max_size=2).map(sorted)
_SIGNED_ZERO_NODES = st.lists(
    st.builds(complex, *[st.sampled_from([-0.0, 0.0, -0.5, 0.5])] * 2),
    min_size=2,
    max_size=4,
    unique=True,  # by ==, under which -0.0 == 0.0: pairwise distinct nodes
)


def _endpoints(x) -> list[float]:
    """Every endpoint a region, bound or function holds, in columns and in views."""
    if isinstance(x, SupportBound):
        return _endpoints(x.region)
    if isinstance(x, SimpleFunction):
        columns = x._term_ends + x._atom_ends
        regions = [reg for _, reg in x.terms + x.atoms]
        return [e for col in columns for e in col] + [e for r in regions for e in _endpoints(r)]
    sides = x.rings if x.family == "radial" else [iv for cell in x.cells for iv in cell]
    return [e for col in x._ends for e in col] + [e for iv in sides for e in (iv.lo, iv.hi)]


@given(
    st.lists(st.tuples(_SIGNED_ZERO_SIDES, _SIGNED_ZERO_SIDES), min_size=1, max_size=3),
    st.lists(_SIGNED_ZERO_RINGS, min_size=1, max_size=3),
    _SIGNED_ZERO_NODES,
)
@settings(max_examples=150, deadline=None)
def test_every_zero_endpoint_is_positive_zero(rects, rings, nodes):
    # -0.0 sides and nodes enter every constructor, Boolean, function and
    # difference; a zero endpoint comes out as 0.0 everywhere, views included
    (x0, x1), (y0, y1) = rects[0]
    grids = [rect(*xs, *ys) for xs, ys in rects] + [
        GridRegion(tuple((Interval(*xs), Interval(*ys)) for xs, ys in rects)),
        vertical_strip(x0, x1),
        horizontal_strip(y0, y1),
        left_half_plane(x1),
        lower_left_quadrant(x1, y1),
        region_from_json({"family": "grid", "cells": [[xs, ys] for xs, ys in rects]}),
    ]
    radials = [annulus(*r) for r in rings] + [
        RadialRegion(tuple(Interval(*r) for r in rings)),
        disk(rings[0][1]),
        region_from_json({"family": "radial", "rings": rings}),
    ]
    out: list = []
    for family in (grids, radials):
        a, b = family[0], family[-1]
        out += family + [op(a, b) for op, _ in _BOOLEANS] + [region_complement(a)]
        fns = [indicator(a), indicator(b), SimpleFunction(a.family, [(2j, a), (-1.0, b)])]
        out += fns + [linear_combine([1.0, -1j, 0.5], fns)]
    for curve in (QUADRANT_CURVE, ANNULUS_CURVE, HALFPLANE_CURVE):
        out += [curve(z) for z in nodes] + divided_diffs(curve, [nodes], 0.0)
        out.append(support_bound_of(nodes, curve.family))
    for x in out:
        zeros = [e for e in _endpoints(x) if e == 0]
        assert all(math.copysign(1.0, e) == 1.0 for e in zeros), x


def _booleans_op(regions):
    """One family's half of a region-booleans op, as perfbench/workloads.py runs it."""
    h = len(regions) // 2
    a = functools.reduce(region_union, regions[:h])
    b = functools.reduce(region_symdiff, regions[h:])
    u = region_union(a, b)
    out = [a, b, u, region_intersect(a, b), region_symdiff(a, b), region_complement(a)]
    return [region_measure(x) for x in out], region_contains(u, a)


def test_booleans_and_constructors_build_no_interval(monkeypatch):
    rng = np.random.default_rng(13)
    rects = [np.sort(rng.uniform(-2, 2, (2, 2)), axis=1).ravel().tolist() for _ in range(32)]
    radii = [sorted(rng.uniform(0, 3, 2).tolist()) for _ in range(32)]
    built = []
    post_init = Interval.__post_init__
    monkeypatch.setattr(
        Interval, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    with kernel_paths() as seen:
        masses, inside = _booleans_op([rect(*r) for r in rects])
        assert inside and len(masses) == 6
        masses, inside = _booleans_op([annulus(*r) for r in radii])
        assert inside and len(masses) == 6
        f = indicator(rect(0.0, 1.0, -INF, 0.5))
        assert f.masses == (region_measure(rect(0.0, 1.0, -INF, 0.5)),)
    assert built == []
    assert seen["merges"] >= 1 and len(seen["grids"]) > seen["merges"]  # both kernel forms ran
    assert rect(0, 1, 0, 1).cells and len(built) == 2  # the view builds its Intervals


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


def _pieces(region) -> tuple:
    return region.cells if isinstance(region, GridRegion) else region.rings


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
        _assert_same(_pieces(a), canon(pa))
        _assert_same(_pieces(b), canon(pb))
        _assert_same(_pieces(both), canon(pa + pb))
        _assert_same(region_union(a, b), both)
        for op, keep in _BOOLEANS:
            _assert_same(op(a, b), reference_combine(a, b, keep))
            _assert_same(op(b, a), reference_combine(b, a, keep))
        _assert_same(region_complement(a), reference_complement(a))
        assert region_contains(a, b) == reference_combine(b, a, _BOOLEANS[2][1]).is_empty
        assert region_contains(both, a) and region_contains(both, b)
    _assert_one_form_per_sweep(seen["calls"])
    assert seen["merges"] >= 1


def test_small_region_booleans_sum_on_lists():
    # pieces too few for _ARRAY_CELLS cells, none and one included, are
    # summed by _list_sums and merged on lists; _cell_sums is the
    # function overlay's alone
    grids = (_union(rect(0, 1, 0, 1), rect(2, 3, 0, 2)), rect(0.5, 2.5, 0.5, 1.5), GridRegion())
    rings = (_union(annulus(0, 1), annulus(2, 3)), annulus(0.5, 2.5), RadialRegion())
    with kernel_paths() as seen:
        for a, b, empty in (grids, rings):
            for x, y in ((a, b), (b, a), (empty, b), (b, empty), (empty, empty)):
                for op, _ in _BOOLEANS:
                    op(x, y)
            region_complement(a)
            type(a)(_pieces(a) + _pieces(b))
            type(a)(_pieces(b))
            type(a)()
    _assert_one_form_per_sweep(seen["calls"])
    assert {name for name, _ in seen["calls"]} == {"_list_sums", "_merged"}


def _assert_one_form_per_sweep(calls) -> None:
    """Each region sweep sums and merges in one form, and every large grid takes the arrays.

    A sweep merges on arrays exactly when `_cover_counts` summed it, and on
    lists when `_list_sums` did; every grid of at least `_ARRAY_CELLS`
    cells is a cover count.  No region operation calls `_cell_sums`.
    """
    forms = {"_cover_counts": "_array_runs", "_list_sums": "_merged"}
    assert "_cell_sums" not in {name for name, _ in calls}
    assert len(calls) % 2 == 0
    for (summer, n), (merger, m) in zip(calls[::2], calls[1::2]):
        assert forms[summer] == merger and n == m
        assert summer == "_cover_counts" or n < measure._ARRAY_CELLS



# ---------------------------------------------------------------------------
# array-held regions against the list kernel
# ---------------------------------------------------------------------------

# The list kernel's keeps, on its complex or int64 cell sums
_LIST_KEEPS = (
    (region_union, lambda s: s != 0),
    (region_intersect, lambda s: s == 3),
    (region_difference, lambda s: s == 1),
    (region_symdiff, lambda s: (s == 1) | (s == 2)),
)


def _live(cls, pieces) -> list:
    if cls is RadialRegion:
        return [ring for ring in pieces if not ring.is_empty]
    return [(cx, cy) for cx, cy in pieces if not cx.is_empty and not cy.is_empty]


def _hex_columns(columns) -> list:
    """Every endpoint's bits, column by column, of arrays or lists."""
    return [[v.hex() for v in (e.tolist() if isinstance(e, np.ndarray) else e)] for e in columns]


def _assert_float64(region) -> None:
    ends = region._ends
    assert type(ends) is np.ndarray and ends.dtype == np.float64 and ends.ndim == 2
    assert len(ends) == (2 if region.family == "grid" else 1) and ends.shape[1] % 2 == 0


def _assert_matches_list_kernel(cls, pa, pb) -> None:
    """Constructors, Booleans, complement, inclusion and masses, bit for bit the list kernel's."""
    a, b = cls(tuple(pa)), cls(tuple(pb))
    la, lb = (list_canon(piece_columns(_live(cls, p), cls.family)) for p in (pa, pb))
    pairs = [(a, la), (b, lb)]
    for op, keep in _LIST_KEEPS:
        pairs += [(op(a, b), list_combine(la, lb, keep)), (op(b, a), list_combine(lb, la, keep))]
    full = piece_columns(_pieces(full_plane(cls.family)), cls.family)
    pairs += [(region_complement(a), list_combine(full, la, lambda s: s == 1))]
    for region, columns in pairs:
        _assert_float64(region)
        assert _hex_columns(region._ends) == _hex_columns(columns)
        mass, want = region_measure(region), list_measure(columns)
        assert type(mass) is type(want) and repr(mass) == repr(want)
    assert region_contains(a, b) == list_contains(la, lb)
    assert region_contains(b, a) == list_contains(lb, la)
    union = region_union(a, b)
    assert region_contains(union, a) and region_contains(union, b)


_STRIPS = st.builds(
    lambda x, y, vertical: (x, Interval(-INF, INF)) if vertical else (Interval(-INF, INF), y),
    _side(_ARRAY_END),
    _side(_ARRAY_END),
    st.booleans(),
)
_LIST_GRIDS = st.one_of(
    st.just([]),
    st.lists(st.tuples(_side(_ARRAY_END), _side(_ARRAY_END)), min_size=1, max_size=1),
    st.lists(_STRIPS, min_size=1, max_size=3),
    st.lists(st.tuples(_side(_ARRAY_END), _side(_ARRAY_END)), min_size=2, max_size=5),
    _ARRAY_RECTS,
)
_LIST_RINGS = st.one_of(
    st.just([]),
    st.lists(_side(_ARRAY_RADIUS), min_size=1, max_size=1),
    st.lists(_side(_ARRAY_RADIUS), min_size=2, max_size=5),
    _ARRAY_RINGS,
)
_LIST_CASES = st.one_of(
    st.tuples(st.just(GridRegion), _LIST_GRIDS, _LIST_GRIDS),
    st.tuples(st.just(RadialRegion), _LIST_RINGS, _LIST_RINGS),
)


@given(_LIST_CASES)
@settings(max_examples=150, deadline=None)
def test_array_regions_match_the_list_kernel(case):
    _assert_matches_list_kernel(*case)


def _grid_pieces(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    sides = np.sort(rng.uniform(-2, 2, (n, 2, 2)), axis=2).tolist()
    return [(Interval(*x), Interval(*y)) for x, y in sides]


_LIST_KERNEL_CASES = [
    (GridRegion, [], _grid_pieces(3, 0)),
    (GridRegion, _grid_pieces(1, 1), _grid_pieces(2, 2)),
    (GridRegion, _grid_pieces(24, 3), _grid_pieces(24, 4)),
    (GridRegion, _grid_pieces(24, 5) + [(Interval(-INF, 0.5), Interval(-INF, INF))], []),
    (
        GridRegion,
        [(Interval(-INF, INF), Interval(0.0, 1.0))],
        [(Interval(0.5, INF), Interval(-INF, INF))],
    ),
    (RadialRegion, [Interval(0.0, INF)], [Interval(0.5, 1.0)]),
    (RadialRegion, [Interval(k / 16, k / 16 + 0.05) for k in range(40)], [Interval(1.0, INF)]),
]


def test_array_regions_match_the_list_kernel_on_fixed_cases():
    with kernel_paths() as seen:
        for case in _LIST_KERNEL_CASES:
            _assert_matches_list_kernel(*case)
    # the cases reach both sides of _ARRAY_CELLS
    assert {on_arrays for _, on_arrays in seen["merged"]} == {False, True}


def _region_paths() -> list:
    """The same two sets, each built by every path that makes a region."""
    xs = [np.sort(np.random.default_rng(k).uniform(-2, 2, 2)).tolist() for k in range(40)]
    rects = [rect(*x, 0.0, 1.0) for x in xs]
    big = functools.reduce(region_union, rects)
    f = SimpleFunction("grid", [(1.0, big)])
    square = rect(0.0, 1.0, 0.0, 1.0)
    same_square = [
        square,
        GridRegion(((Interval(0.0, 1.0), Interval(0.0, 1.0)),)),
        region_union(square, rect(0.25, 0.75, 0.25, 0.75)),
        region_intersect(square, full_plane("grid")),
        region_complement(region_complement(square)),
        region_from_json(region_to_json(square)),
        indicator(square).atoms[0][1],
        SimpleFunction("grid", [(2.0, square)]).terms[0][1],
        linear_combine([3.0], [indicator(square)]).atoms[0][1],
    ]
    same_big = [
        big,
        GridRegion(tuple(cell for r in rects for cell in r.cells)),
        region_from_json(region_to_json(big)),
        f.terms[0][1],
        functools.reduce(region_union, [r for _, r in f.atoms]),
    ]
    return [same_square, same_big]


def test_every_region_holds_float64_arrays():
    made = [
        rect(0.0, 1.0, -INF, 0.5),
        rect(1.0, 1.0, 0.0, 1.0),
        vertical_strip(-1.0, 1.0),
        horizontal_strip(0.0, INF),
        left_half_plane(0.3),
        lower_left_quadrant(0.3, 0.7),
        annulus(0.5, 1.0),
        annulus(0.5, 0.5),
        disk(2.0),
        GridRegion(),
        RadialRegion((Interval(0.0, 1.0), Interval(0.5, 2.0), Interval(3.0, 3.0))),
        support_bound_of((0.25, 1 + 0.5j, -0.0), "grid").region,
        support_bound_of((-1.0, 1.0), "grid").region,
        support_bound_of((0.5, 1j), "radial").region,
        *(fn("grid") for fn in (full_plane, empty_region)),
        *(fn("radial") for fn in (full_plane, empty_region)),
        *(r for _, r in QUADRANT_CURVE(0.3 + 0.7j).atoms),
        *(r for _, r in ANNULUS_CURVE(0.5j).terms),
    ]
    a, b = annulus(0.5, 1.5), RadialRegion((Interval(0.0, 0.7), Interval(1.2, 2.0)))
    made += [op(a, b) for op, _ in _BOOLEANS] + [region_complement(b)]
    for same in _region_paths():
        made += same
    for region in made:
        _assert_float64(region)
        for again in (
            copy.copy(region),
            copy.deepcopy(region),
            pickle.loads(pickle.dumps(region)),
            region_from_json(json.loads(json.dumps(region_to_json(region)))),
        ):
            _assert_float64(again)
            assert again == region and hash(again) == hash(region)
            assert repr(again) == repr(region)


def test_every_path_to_one_set_gives_one_region():
    square, big = _region_paths()
    for same in (square, big):
        assert all(r == same[0] and hash(r) == hash(same[0]) for r in same)
        assert len(set(same)) == 1
    assert square[0] != big[0] and big[0] != square[0]
    assert square[0] != annulus(0.0, 1.0)


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
