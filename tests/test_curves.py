"""Tests of the three example curves."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdiff import (
    GRID,
    RADIAL,
    ExampleId,
    SimpleFunction,
    annulus,
    annulus_map,
    coerce_example,
    curve_for,
    family_for,
    gauge_for,
    full_plane,
    halfplane_map,
    indicator,
    l0_gauge,
    left_half_plane,
    linear_combine,
    lower_left_quadrant,
    lp_gauge,
    quadrant_map,
    region_measure,
    region_symdiff,
    scalar_curve,
)

from oracles import agrees_3sig, mc_oracle, rect_quad

INF = float("inf")


def test_example_id_wire_names():
    assert coerce_example("example1") is ExampleId.QUADRANT
    assert coerce_example(ExampleId.ANNULUS) is ExampleId.ANNULUS
    with pytest.raises(ValueError):
        coerce_example("example9")
    assert family_for("example1") == "grid"
    assert family_for("example2") == "radial"
    assert family_for("example3") == "grid"


def test_gauge_selection():
    assert gauge_for("example1") is l0_gauge
    g = gauge_for("example3", p=0.8)
    f = quadrant_map(0)  # any grid function
    assert g(f) == lp_gauge(f, 0.8)
    with pytest.raises(ValueError):
        gauge_for("example3", p=0.4)


# ---------------------------------------------------------------------------
# quadrant curve
# ---------------------------------------------------------------------------


def test_quadrant_map_region_and_measure():
    f = quadrant_map(0)
    assert region_measure(f.atoms[0][1]) == pytest.approx(0.25, abs=1e-15)
    m = l0_gauge(quadrant_map(1 + 1j))
    closed = ((1 + math.erf(1.0)) / 2.0) ** 2
    assert m == pytest.approx(closed, abs=1e-14)
    assert m == pytest.approx(0.8488865530843771, abs=1e-12)
    assert m == pytest.approx(rect_quad(-INF, 1, -INF, 1), abs=1e-9)
    assert agrees_3sig(mc_oracle(lower_left_quadrant(1, 1)), m)


def test_quadrant_injectivity_sampled():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if z1 == z2:
            continue
        gap = region_measure(
            region_symdiff(
                lower_left_quadrant(z1.real, z1.imag),
                lower_left_quadrant(z2.real, z2.imag),
            )
        )
        assert gap > 0.0


def test_quadrant_symdiff_lipschitz_bound():
    rng = np.random.default_rng(22)
    for _ in range(500):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        gap = region_measure(
            region_symdiff(
                lower_left_quadrant(z1.real, z1.imag),
                lower_left_quadrant(z2.real, z2.imag),
            )
        )
        assert gap <= 2.0 * abs(z2 - z1)


# ---------------------------------------------------------------------------
# annulus curve
# ---------------------------------------------------------------------------


def test_annulus_map_outside_unit_disk_is_zero():
    for z in (1.0, -1.0, 1j, 2.0, 1.5 - 2.5j, complex(math.cos(1), math.sin(1))):
        assert annulus_map(z).is_zero


def test_annulus_map_masses():
    m0 = l0_gauge(annulus_map(0))
    assert m0 == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert m0 == pytest.approx(0.6321205588285577, abs=1e-12)
    mh = l0_gauge(annulus_map(0.5))
    assert mh == pytest.approx(math.exp(-0.25) - math.exp(-1.0), abs=1e-15)
    assert mh == pytest.approx(0.4109213418999625, abs=1e-12)
    assert agrees_3sig(mc_oracle(annulus_map(0.5).atoms[0][1]), mh)


def test_annulus_compact_support_sweep():
    rng = np.random.default_rng(23)
    for _ in range(200):
        r = rng.uniform(1.0, 3.0)
        a = rng.uniform(0, 2 * math.pi)
        assert annulus_map(r * complex(math.cos(a), math.sin(a))).is_zero
    for _ in range(200):
        r = rng.uniform(0.0, 1.0)
        a = rng.uniform(0, 2 * math.pi)
        f = annulus_map(r * complex(math.cos(a), math.sin(a)))
        assert not f.is_zero
        assert l0_gauge(f) > 0.0


def test_annulus_map_depends_on_modulus_only():
    assert annulus_map(0.5) == annulus_map(0.5j)


# ---------------------------------------------------------------------------
# half-plane curve
# ---------------------------------------------------------------------------


def test_halfplane_difference_identity():
    z1, z2 = -0.3 + 9j, 0.8 - 2j
    diff = linear_combine([1, -1], [halfplane_map(z2), halfplane_map(z1)])
    assert len(diff.atoms) == 1
    c, reg = diff.atoms[0]
    assert c == 1.0
    cx, cy = reg.cells[0]
    assert (cx.lo, cx.hi) == (z1.real, z2.real)
    assert (cy.lo, cy.hi) == (-INF, INF)


def test_halfplane_ignores_imaginary_part():
    assert halfplane_map(0) == halfplane_map(5j)
    assert halfplane_map(0) == halfplane_map(-3j)


def test_halfplane_mass_at_zero():
    assert l0_gauge(halfplane_map(0)) == pytest.approx(0.5, abs=1e-15)


def test_halfplane_continuity_modulus():
    # lp gauge of the increment is at most the mass of the strip, which is
    # at most |z2 - z1|
    rng = np.random.default_rng(24)
    p = 0.75
    for _ in range(300):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        diff = linear_combine([1, -1], [halfplane_map(z2), halfplane_map(z1)])
        assert lp_gauge(diff, p) <= abs(z2 - z1) + 1e-15


def test_curve_factories_are_deterministic():
    c = curve_for("example1")
    assert c(0.3 + 0.1j) == c(0.3 + 0.1j)


# ---------------------------------------------------------------------------
# curve values from endpoints, against the region constructors
# ---------------------------------------------------------------------------


def _quadrant_by_region(z):
    return indicator(lower_left_quadrant(z.real, z.imag))


def _annulus_by_region(z):
    r = abs(z)
    return SimpleFunction.zero(RADIAL) if r >= 1.0 else indicator(annulus(r, 1.0))


def _halfplane_by_region(z):
    return indicator(left_half_plane(z.real))


def _scalar_by_region(family):
    return lambda z: SimpleFunction(family, ((z, full_plane(family)),))


_BY_REGION = [
    (quadrant_map, _quadrant_by_region),
    (annulus_map, _annulus_by_region),
    (halfplane_map, _halfplane_by_region),
    (scalar_curve(lambda z: z, GRID), _scalar_by_region(GRID)),
    (scalar_curve(lambda z: z, RADIAL), _scalar_by_region(RADIAL)),
]
_NEAR_ONE = [math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0)]
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, INF, -INF, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.sampled_from(_NEAR_ONE + [-x for x in _NEAR_ONE]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_POINTS = st.one_of(
    st.builds(complex, _PARTS, _PARTS),
    # moduli within an ulp of 1, where the annulus curve switches to zero
    st.builds(cmath.rect, st.sampled_from(_NEAR_ONE), st.floats(0.0, 2 * math.pi)),
)


def _outcome(build, z):
    try:
        f = build(z)
    except Exception as exc:  # compared by type
        return type(exc)
    return repr(f), [m.hex() for m in f.masses]


@given(st.sampled_from(_BY_REGION), _POINTS)
@settings(max_examples=400)
def test_curve_values_match_the_region_constructors(maps, z):
    by_endpoints, by_region = maps
    assert _outcome(by_endpoints, z) == _outcome(by_region, z)
