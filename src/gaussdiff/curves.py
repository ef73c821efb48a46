"""The three built-in counterexample curves.

Each factory sends a complex parameter to the indicator of a parameter-
dependent region, built from the region's endpoints (no Region object):

* QUADRANT ("example1"): the lower-left quadrant at z, inside the space of
  all measurable functions with convergence in measure (l0 gauge).  The map
  is injective yet all its derivative estimates vanish.
* ANNULUS ("example2"): the annulus between |z| and 1, the zero function
  once |z| >= 1.  Same target space; a smooth, compactly supported,
  non-zero curve.
* HALFPLANE ("example3"): the half-plane Re(w) <= Re(z), inside the
  p-th-power quasi-normed space for an exponent 1/2 < p < 1.  First-order
  difference quotients vanish in the limit; second-order ones blow up.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Callable, Union

from .divdiff import CurveMap
from .measure import GRID, NEG_INF, POS_INF, RADIAL
from .simplefn import SimpleFunction, _piece_function, l0_gauge, lp_gauge

__all__ = [
    "ExampleId",
    "DEFAULT_P",
    "quadrant_map",
    "annulus_map",
    "halfplane_map",
    "QUADRANT_CURVE",
    "ANNULUS_CURVE",
    "HALFPLANE_CURVE",
    "coerce_example",
    "curve_for",
    "family_for",
    "gauge_for",
]

DEFAULT_P = 0.75  # midpoint of the admissible exponent range


class ExampleId(enum.Enum):
    QUADRANT = "example1"
    ANNULUS = "example2"
    HALFPLANE = "example3"


def quadrant_map(z: complex) -> SimpleFunction:
    """Indicator of the lower-left quadrant with corner z."""
    z = complex(z)
    return _piece_function(GRID, 1.0 + 0j, (NEG_INF, z.real), (NEG_INF, z.imag))


def annulus_map(z: complex) -> SimpleFunction:
    """Indicator of the annulus between |z| and 1; zero once |z| >= 1."""
    r = abs(complex(z))
    if r >= 1.0:
        return SimpleFunction.zero(RADIAL)
    return _piece_function(RADIAL, 1.0 + 0j, (r, 1.0))


def halfplane_map(z: complex) -> SimpleFunction:
    """Indicator of the half-plane Re(w) <= Re(z); depends on Re(z) only."""
    return _piece_function(GRID, 1.0 + 0j, (NEG_INF, complex(z).real), (NEG_INF, POS_INF))


QUADRANT_CURVE = CurveMap(GRID, quadrant_map)
ANNULUS_CURVE = CurveMap(RADIAL, annulus_map)
HALFPLANE_CURVE = CurveMap(GRID, halfplane_map)

_CURVES = {
    ExampleId.QUADRANT: QUADRANT_CURVE,
    ExampleId.ANNULUS: ANNULUS_CURVE,
    ExampleId.HALFPLANE: HALFPLANE_CURVE,
}


def coerce_example(example: Union[ExampleId, str]) -> ExampleId:
    if isinstance(example, ExampleId):
        return example
    try:
        return ExampleId(example)
    except ValueError:
        raise ValueError(
            f"unknown example {example!r}; expected one of "
            f"{[e.value for e in ExampleId]}"
        ) from None


def curve_for(example: Union[ExampleId, str]) -> CurveMap:
    return _CURVES[coerce_example(example)]


def family_for(example: Union[ExampleId, str]) -> str:
    return curve_for(example).family


def gauge_for(
    example: Union[ExampleId, str], p: float = DEFAULT_P
) -> Callable[[SimpleFunction], float]:
    """The gauge of the example's target space (l0, or the p-th power)."""
    if coerce_example(example) is ExampleId.HALFPLANE:
        if not 0.5 < p < 1.0:
            raise ValueError(f"exponent p={p} outside ]1/2, 1[")
        return partial(lp_gauge, p=p)
    return l0_gauge
