"""Batched Monte-Carlo estimates against the per-region mask."""

import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussdiff import (
    ExperimentConfig,
    GridRegion,
    Interval,
    RadialRegion,
    annulus,
    disk,
    exp_measure_identities,
    horizontal_strip,
    mc_measure,
    mc_measures,
    mc_plane_measures,
    plane_samples,
    rect,
    region_mask,
    region_union,
    vertical_strip,
)
from gaussdiff import montecarlo
from gaussdiff.montecarlo import _BLOCK, _plane_blocks

INF = float("inf")

# several pieces each: a cross of two strips, a stack of rectangles, three rings
GRID_REGIONS = [
    region_union(vertical_strip(-0.25, 0.75), horizontal_strip(0.0, 1.0)),
    GridRegion(
        (
            (Interval(-1.0, 0.0), Interval(-1.0, 0.0)),
            (Interval(0.0, 0.5), Interval(-INF, -0.5)),
            (Interval(0.5, 2.0), Interval(0.25, INF)),
        )
    ),
    rect(-1.0, 1.0, -INF, INF),
]
RADIAL_REGIONS = [
    RadialRegion((Interval(0.0, 0.3), Interval(0.5, 0.7), Interval(1.0, 1.5))),
    disk(1.0),
    annulus(0.5, 2.0),
]


def _samples():
    """Gaussian samples plus points at the origin, on ring radii and on strip edges."""
    x, y = plane_samples(50_000, seed=7)
    edges = [0.0, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, -0.25, 0.75, -0.5, 0.25, -1.0]
    hx = [0.0] + edges + [0.0] * len(edges) + edges
    hy = [0.0] + [0.0] * len(edges) + [-e for e in edges] + edges
    return np.concatenate([x, hx]), np.concatenate([y, hy])


def _per_region(regions, x, y):
    return [float(region_mask(region, x, y).mean()).hex() for region in regions]


@pytest.mark.parametrize(
    "regions",
    [
        GRID_REGIONS + RADIAL_REGIONS,
        RADIAL_REGIONS + GRID_REGIONS,
        GRID_REGIONS,
        RADIAL_REGIONS,
        [GRID_REGIONS[0], RADIAL_REGIONS[0], GRID_REGIONS[1], RADIAL_REGIONS[1]],
        [],
    ],
    ids=["grid-first", "radial-first", "grid-only", "radial-only", "interleaved", "none"],
)
def test_batched_estimates_equal_the_mask_mean(regions):
    x, y = _samples()
    estimates = mc_measures(regions, x, y)
    assert all(type(e) is float for e in estimates)
    assert [e.hex() for e in estimates] == _per_region(regions, x, y)
    assert [mc_measure(region, x, y).hex() for region in regions] == _per_region(regions, x, y)
    json.dumps(estimates)


def test_hand_placed_samples_follow_the_half_open_rule():
    # the origin is in no ring; a point on a ring's outer radius is inside,
    # on its inner radius outside; the same for strip edges
    x = np.array([0.0, 0.5, 0.7, 0.0, -0.25, 0.75])
    y = np.array([0.0, 0.0, 0.0, -0.7, 3.0, -3.0])
    rings = annulus(0.5, 0.7)
    strip = vertical_strip(-0.25, 0.75)
    assert region_mask(rings, x, y).tolist() == [False, False, True, True, False, False]
    assert region_mask(strip, x, y).tolist() == [True, True, True, True, False, True]
    assert mc_measures([rings, strip], x, y) == [2 / 6, 5 / 6]


def test_streamed_blocks_are_the_plane_samples():
    for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK + 5):
        blocks = list(_plane_blocks(n, seed=5))
        assert [bx.size for bx, _ in blocks] == [by.size for _, by in blocks]
        assert max(bx.size for bx, _ in blocks) <= _BLOCK
        x, y = plane_samples(n, seed=5)
        assert np.concatenate([bx for bx, _ in blocks]).tobytes() == x.tobytes()
        assert np.concatenate([by for _, by in blocks]).tobytes() == y.tobytes()


def test_the_block_worker_ends_with_the_blocks():
    before = threading.active_count()
    mc_plane_measures(GRID_REGIONS + RADIAL_REGIONS, 3 * _BLOCK + 5, seed=5)
    assert threading.active_count() == before
    blocks = _plane_blocks(3 * _BLOCK + 5, 5)
    next(blocks)
    assert threading.active_count() == before + 1
    blocks.close()
    assert threading.active_count() == before
    # counting that raises closes the blocks too
    with pytest.raises(AttributeError):
        mc_plane_measures([object()], 3 * _BLOCK + 5, seed=5)
    assert threading.active_count() == before


def test_a_failed_draw_reaches_the_caller(monkeypatch):
    default_rng = np.random.default_rng

    class FailingThirdDraw:
        """The generator of the seed, whose third draw (the second y block) fails."""

        def __init__(self, seed):
            self.rng, self.draws = default_rng(seed), 0

        def normal(self, *args, **kwargs):
            self.draws += 1
            if self.draws == 3:
                raise MemoryError("no room for the block")
            return self.rng.normal(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", FailingThirdDraw)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no room for the block"):
        mc_plane_measures(RADIAL_REGIONS, 3 * _BLOCK + 5, seed=5)
    assert threading.active_count() == before


def test_no_samples_is_an_error():
    empty = np.array([])
    with pytest.raises(ValueError, match="no samples"):
        mc_plane_measures([annulus(0, 1)], 0)
    with pytest.raises(ValueError, match="no samples"):
        mc_measures([annulus(0, 1), rect(0, 1, 0, 1)], empty, empty)
    with pytest.raises(ValueError, match="no samples"):
        mc_measure(rect(0, 1, 0, 1), empty, empty)


def test_plane_estimates_equal_the_estimates_on_plane_samples():
    regions = GRID_REGIONS + RADIAL_REGIONS
    n = 2 * _BLOCK + 17
    streamed = mc_plane_measures(regions, n, seed=3)
    whole = mc_measures(regions, *plane_samples(n, 3))
    assert [e.hex() for e in streamed] == [e.hex() for e in whole]


# ---------------------------------------------------------------------------
# exactness of the per-endpoint counts
# ---------------------------------------------------------------------------


def _nudged(t: float, j: int) -> float:
    """t moved by j ulps (toward +inf for j > 0)."""
    for _ in range(abs(j)):
        t = math.nextafter(t, math.inf if j > 0 else -math.inf)
    return t


def _first_radius_whose_square_overflows() -> float:
    t = math.sqrt(sys.float_info.max)
    while t * t < math.inf:
        t = math.nextafter(t, math.inf)
    return t


_T_OVER = _first_radius_whose_square_overflows()
# ring radii: 0; radii whose square is subnormal, up to the largest; the
# smallest whose square is normal; plain radii; the largest whose square is
# finite and the first that overflows; a larger one; inf
RADII = [
    0.0,
    1e-300,
    1e-160,
    math.nextafter(2.0**-511, 0.0),
    2.0**-511,
    0.3,
    0.5,
    0.7,
    1.0,
    1.5,
    2.0,
    math.nextafter(_T_OVER, 0.0),
    _T_OVER,
    1e200,
    math.inf,
]
EDGES = [-2.0, -1.0, -0.5, -0.25, 0.0, 0.2, 0.5, 0.75, 1.0, 1.3, 2.0]

_JS = st.one_of(st.integers(-3, 3), st.integers(-40, 40))
_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 1e200])
_COORD = st.one_of(
    _SPECIAL,
    st.sampled_from(EDGES),
    st.builds(_nudged, st.sampled_from(EDGES), _JS),
    st.floats(allow_nan=True, allow_infinity=True),
)
# hypot(inf, NaN) is inf, but x*x + y*y is NaN
_NON_FINITE = st.sampled_from(
    [
        (math.inf, math.nan),
        (math.nan, -math.inf),
        (math.nan, 0.0),
        (-math.inf, 1.0),
        (math.nan, math.nan),
    ]
)
_RADIUS = st.sampled_from(RADII)
_EDGE = st.one_of(st.sampled_from(EDGES), st.builds(_nudged, st.sampled_from(EDGES), _JS))


def _ordered(a: float, b: float) -> tuple[float, float]:
    return (a, b) if a <= b else (b, a)


_REGION = st.one_of(
    st.builds(lambda a, b, c, d: rect(*_ordered(a, b), *_ordered(c, d)), *[_EDGE] * 4),
    st.builds(lambda a, b: vertical_strip(*_ordered(a, b)), _EDGE, _EDGE),
    st.builds(lambda a, b: horizontal_strip(*_ordered(a, b)), _EDGE, _EDGE),
    st.builds(lambda a, b: annulus(*_ordered(a, b)), _RADIUS, _RADIUS),
    st.builds(disk, _RADIUS),
    st.builds(lambda t: annulus(t, math.inf), _RADIUS),
)


def _union_or_none(a, b):
    return region_union(a, b) if a.family == b.family else None


_REGIONS = st.lists(
    st.one_of(_REGION, st.builds(_union_or_none, _REGION, _REGION).filter(lambda r: r is not None)),
    min_size=1,
    max_size=4,
)


@st.composite
def _points(draw, radii):
    """A point at one of the radii, nudged by a few ulps, on an axis, the diagonal or a ray.

    Or any point, or one with a non-finite coordinate.
    """
    kind = draw(st.sampled_from(("axis", "diagonal", "ray", "ray", "free", "non-finite")))
    if kind == "free":
        return draw(_COORD), draw(_COORD)
    if kind == "non-finite":
        return draw(_NON_FINITE)
    t = draw(st.sampled_from(radii))
    sign = draw(st.sampled_from((1.0, -1.0)))
    if kind == "axis":
        v = sign * _nudged(t, draw(_JS))
        return (v, 0.0) if draw(st.booleans()) else (0.0, v)
    if kind == "diagonal":
        d = _nudged(t / math.sqrt(2.0), draw(_JS))
        return sign * d, _nudged(d, draw(st.integers(-2, 2)))
    theta = draw(st.integers(0, 2**20)) * (math.pi / 2) / 2**20
    x, y = t * math.cos(theta), t * math.sin(theta)
    return sign * _nudged(x, draw(st.integers(-2, 2))), _nudged(y, draw(st.integers(-2, 2)))


def _fan(t: float, seed: int) -> list[tuple[float, float]]:
    """64 points t (cos a, sin a) at random angles a, each within an ulp or so of radius t."""
    a = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, size=64)
    with np.errstate(invalid="ignore"):  # inf * 0.0
        return list(zip((t * np.cos(a)).tolist(), (t * np.sin(a)).tolist()))


@st.composite
def _cases(draw):
    """Regions, and points at their ring radii, on their edges and off them."""
    regions = draw(_REGIONS)
    rings = [r for r in regions if not isinstance(r, GridRegion)]
    radii = sorted({t for r in rings for t in r._ends[0].tolist()})
    points = draw(st.lists(_points(radii or RADII), min_size=1, max_size=40))
    seed = draw(st.integers(0, 2**32 - 1))
    return regions, points + [p for t in radii for p in _fan(t, seed)]


# room past the last insertion point for the most points `_cases` draws: 40,
# and a fan of 64 at each of at most 16 radii (4 regions of up to 2 rings)
_BACKGROUND = plane_samples(_BLOCK + 500 + 40 + 64 * 16, seed=11)


def _largest_case():
    """The most points `_cases` draws: 40, and a fan of 64 at each of 16 radii.

    Four regions of two rings each.  Placed at `_BLOCK + 500` it ends on
    the last background sample: the size that once overran the background.
    """
    regions = [
        region_union(annulus(a, a + 0.1), annulus(a + 0.2, a + 0.3)) for a in (0.05, 0.45, 0.85, 1.25)
    ]
    radii = sorted({t for r in regions for t in r._ends[0].tolist()})
    assert len(radii) == 16
    points = [(_nudged(t, j), 0.0) for t in radii for j in (-1, 1)]
    points += [(0.0, -t) for t in radii[:8]]
    assert len(points) == 40
    return regions, points + [p for t in radii for p in _fan(t, seed=16)]


@given(_cases(), st.sampled_from((0, _BLOCK - 20, _BLOCK + 500)))
@example(_largest_case(), _BLOCK + 500)
@settings(max_examples=200, deadline=None)
def test_counts_equal_the_mask_mean_on_edge_samples(case, at):
    regions, points = case
    # the points go into Gaussian samples of two blocks, at the start, across
    # the block boundary or in the second block
    x, y = (v.copy() for v in _BACKGROUND)
    x[at : at + len(points)] = [px for px, _ in points]
    y[at : at + len(points)] = [py for _, py in points]
    with np.errstate(over="ignore"):  # hypot of two coordinates near the float maximum
        expected = [float(region_mask(region, x, y).mean()).hex() for region in regions]
        assert [e.hex() for e in mc_measures(regions, x, y)] == expected
        # the points alone: one short block
        px = np.array([p for p, _ in points])
        py = np.array([q for _, q in points])
        expected = [float(region_mask(region, px, py).mean()).hex() for region in regions]
        assert [e.hex() for e in mc_measures(regions, px, py)] == expected


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


def test_grid_regions_do_no_radius_work(monkeypatch):
    def radius_work(*args):
        raise AssertionError("radius work for grid regions")

    monkeypatch.setattr(np, "hypot", radius_work)
    monkeypatch.setattr(montecarlo, "_squares", radius_work)
    x, y = _samples()
    assert [e.hex() for e in mc_measures(GRID_REGIONS, x, y)] == _per_region(GRID_REGIONS, x, y)


def test_hypot_sees_only_band_samples(monkeypatch):
    # plane samples plus hand-placed points, some on ring radii: only points
    # within a few dozen ulps of a radius may reach np.hypot, once per radius
    seen = []
    hypot = np.hypot

    def recording(a, b):
        seen.append((np.array(a), np.array(b)))
        return hypot(a, b)

    monkeypatch.setattr(np, "hypot", recording)
    x, y = _samples()
    mc_measures(GRID_REGIONS + RADIAL_REGIONS + GRID_REGIONS, x, y)
    radii = {t for region in RADIAL_REGIONS for t in region._ends[0].tolist()}
    sx = np.concatenate([a for a, _ in seen])
    sy = np.concatenate([b for _, b in seen])
    s = sx * sx + sy * sy
    near = np.zeros(s.shape, dtype=bool)
    for t in radii:
        near |= s <= 2.0**-1020 if t == 0.0 else np.abs(s - t * t) <= 2.0**-44 * t * t
    hand_placed = x.size - 50_000
    assert 0 < s.size <= hand_placed * len(radii) and near.all()


def test_measure_identities_memory_peak():
    # the x coordinates (8 MB for the default 10**6 samples) and a few
    # 2**16-sample block arrays; measured 10.1 MiB (10.8 MiB when the call
    # starts the process's first thread), where holding both coordinate
    # arrays and the radii took 25.3 MiB
    cfg = ExperimentConfig(experiment="measure-identities", seed=0)
    tracemalloc.start()
    try:
        assert exp_measure_identities(cfg).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20
