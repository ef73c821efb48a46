"""Batched Monte-Carlo estimates against the per-region mask."""

import json

import numpy as np
import pytest

from gaussdiff import (
    GridRegion,
    Interval,
    RadialRegion,
    annulus,
    disk,
    horizontal_strip,
    mc_measure,
    mc_measures,
    plane_samples,
    rect,
    region_mask,
    region_union,
    vertical_strip,
)

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


def test_radius_computed_once_and_only_for_radial_regions(monkeypatch):
    calls = []
    hypot = np.hypot

    def counting(*args):
        calls.append(1)
        return hypot(*args)

    monkeypatch.setattr(np, "hypot", counting)
    x, y = plane_samples(1_000, seed=1)
    mc_measures(GRID_REGIONS + RADIAL_REGIONS + GRID_REGIONS, x, y)
    assert len(calls) == 1
    mc_measures(GRID_REGIONS, x, y)
    assert len(calls) == 1
