"""Divided-difference engine tests: recursion, symmetry, supports, limits."""

import cmath
import copy
import math
import pickle
import struct
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussdiff import (
    ANNULUS_CURVE,
    ExperimentConfig,
    HALFPLANE_CURVE,
    QUADRANT_CURVE,
    CurveMap,
    FloatRangeError,
    GridBounds,
    GridRegion,
    Interval,
    NodeTuple,
    RadialBounds,
    RepeatedNodeError,
    ShrinkSchedule,
    annulus,
    classify_trace,
    coefficient_distance,
    curve_for,
    derivative_by_limit,
    divided_diff,
    divided_diff_lagrange,
    divided_diffs,
    exp_smoothness,
    gauge_for,
    gauge_in_measure,
    horizontal_strip,
    indicator,
    l0_gauge,
    linear_combine,
    lp_gauge,
    node_bounds,
    quadrant_map,
    rect,
    region_measure,
    region_union,
    run_experiment,
    scalar_curve,
    support_bound_of,
    supported_in,
    vertical_strip,
    wk_member,
)

from gaussdiff import divdiff, measure, simplefn
from gaussdiff.divdiff import _differences
from gaussdiff.experiments import VERIFY_ALL_SUITE
from gaussdiff.measure import (
    GRID,
    NEG_INF,
    POS_INF,
    RADIAL,
    _array_columns,
    _ends_measure,
    _joined,
    _nonzero,
    _piece_ends,
    _sweep,
)
from gaussdiff.simplefn import SupportBound, _from_columns, _union_bound
from oracles import (
    barycentric_overflows,
    cell_values,
    eval_grid_64,
    exact_divided_diff,
    kernel_paths,
    random_nodes,
    reference_divided_diff,
    reference_overflows,
    reference_supported_in,
    symmetry_check,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# node tuples and curves
# ---------------------------------------------------------------------------


def test_node_tuple_basics():
    t = NodeTuple((0, 1, 1j))
    assert t.order == 2
    assert t.pairwise_distinct
    assert not NodeTuple((0, 1, 1)).pairwise_distinct
    assert t.permuted([2, 0, 1]).nodes == (1j, 0j, 1 + 0j)
    with pytest.raises(ValueError):
        t.permuted([0, 0, 1])
    with pytest.raises(ValueError):
        NodeTuple(())


def test_curve_map_family_guard():
    broken = CurveMap("radial", lambda z: scalar_curve(lambda w: 1.0)(z))
    with pytest.raises(ValueError):
        broken(0.0)


# ---------------------------------------------------------------------------
# recursion
# ---------------------------------------------------------------------------


def test_order_zero_returns_curve_value():
    dd = divided_diff(QUADRANT_CURVE, (0.5 + 0.5j,))
    assert dd == QUADRANT_CURVE(0.5 + 0.5j)
    # a single repeated-looking node is fine at order zero
    assert divided_diff_lagrange(QUADRANT_CURVE, (1j,)) == QUADRANT_CURVE(1j)


def test_constant_curve_differences_vanish():
    const = scalar_curve(lambda z: 2.5 - 1j)
    for k in range(1, 5):
        nodes = tuple(complex(j, j * j * 0.1) for j in range(k + 1))
        assert divided_diff(const, nodes).is_zero


def test_second_difference_of_square_is_one():
    sc = scalar_curve(lambda z: z * z)
    dd = divided_diff(sc, (0, 1, 2))
    assert len(dd.atoms) == 1
    c, reg = dd.atoms[0]
    assert c == pytest.approx(1.0, abs=1e-12)
    assert reg == GridRegion(((Interval(-INF, INF), Interval(-INF, INF)),))


def test_quadrant_first_difference_atoms():
    # (f(0) - f(1)) / (0 - 1): one atom on ]0,1] x ]-inf,0]; the pointwise
    # oracle below pins the sign (+1).
    dd = divided_diff(QUADRANT_CURVE, (0, 1))
    assert dd.atoms == (
        (1.0 + 0j, GridRegion(((Interval(0.0, 1.0), Interval(-INF, 0.0)),))),
    )
    for w in eval_grid_64():
        expected = (QUADRANT_CURVE(0).value_at(w) - QUADRANT_CURVE(1).value_at(w)) / (0 - 1)
        assert dd.value_at(w) == expected


def test_repeated_nodes_rejected():
    with pytest.raises(RepeatedNodeError):
        divided_diff(QUADRANT_CURVE, (0, 1, 0))
    with pytest.raises(RepeatedNodeError):
        divided_diff_lagrange(QUADRANT_CURVE, (1j, 1j))


# ---------------------------------------------------------------------------
# the weight sums of many tuples against linear_combine(weights, values)
# ---------------------------------------------------------------------------


def _multi_atom_map(z: complex):
    """Three overlapping rectangles; a zero side is given as -0.0 where z's part is negative."""
    zx, zy = math.copysign(0.0, z.real), math.copysign(0.0, z.imag)
    x, y = min(max(z.real, -2.0), 1.5), min(max(z.imag, -1.5), 2.0)
    return linear_combine(
        [1.0, 2j, 0.5 - 0.25j],
        [
            indicator(rect(-2.0, zx, -2.0, y)),
            indicator(rect(x, 1.5, zy, 1.0)),
            indicator(rect(-0.5, 0.5, -0.5, 0.5)),
        ],
    )


def _multi_ring_map(z: complex):
    """Two overlapping rings; a zero radius is given as -0.0 where Re z is negative."""
    r = min(abs(z), 2.0)
    return linear_combine(
        [1.0, 1j], [indicator(annulus(math.copysign(0.0, z.real), r)), indicator(annulus(r / 2, 2.0))]
    )


_CURVES = (
    QUADRANT_CURVE,
    ANNULUS_CURVE,
    HALFPLANE_CURVE,
    scalar_curve(lambda z: z**3 - 2 * z),
    CurveMap(GRID, _multi_atom_map),
    CurveMap(RADIAL, _multi_ring_map),
)
_ZERO_TOLS = st.sampled_from([0.0, 1e-9, 1e-3])
_PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5))
_SCHEDULES = st.sampled_from([ShrinkSchedule.roots_of_unity, ShrinkSchedule.real_offsets])


def _assert_same_difference(curve, nodes, zero_tol):
    if barycentric_overflows(curve, nodes):
        # nodes a subnormal apart overflow a weight, and huge coefficients
        # overflow a product or a cell modulus: both are rejected
        with pytest.raises(FloatRangeError):
            divided_diff(curve, nodes, zero_tol)
        return
    got = divided_diff(curve, nodes, zero_tol)
    want = divided_diff_lagrange(curve, nodes, zero_tol)
    assert repr(got) == repr(want)
    assert [m.hex() for m in got.masses] == [m.hex() for m in want.masses]
    for again in (copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
        assert again == got and hash(again) == hash(got) and repr(again) == repr(got)
        assert [m.hex() for m in again.masses] == [m.hex() for m in got.masses]


@given(
    st.sampled_from(_CURVES),
    st.integers(1, 12),
    _SCHEDULES,
    st.floats(0.2, 0.9),
    st.integers(0, 30),
    _PARTS,
    _PARTS,
    _ZERO_TOLS,
)
@settings(max_examples=200, deadline=None)
def test_weight_sums_match_lagrange_on_schedules(curve, k, make, ratio, n, re, im, zero_tol):
    nodes = make(k, ratio).tuple_at(complex(re, im), n)
    if nodes.pairwise_distinct:
        _assert_same_difference(curve, nodes, zero_tol)


@given(
    st.sampled_from(_CURVES),
    st.lists(st.tuples(_PARTS, _PARTS), min_size=2, max_size=8, unique=True),
    _ZERO_TOLS,
)
@settings(max_examples=200, deadline=None)
def test_weight_sums_match_lagrange_on_signed_zero_nodes(curve, parts, zero_tol):
    # explicit nodes give zero parts as 0.0 and -0.0, so the custom curves
    # get -0.0 sides, which enter their values as 0.0
    nodes = NodeTuple(tuple(complex(re, im) for re, im in parts))
    if nodes.pairwise_distinct:
        _assert_same_difference(curve, nodes, zero_tol)


@given(
    st.integers(1, 12),
    _SCHEDULES,
    st.floats(0.3, 0.9),
    st.integers(0, 6),
    st.floats(0.7, 1.3),
    st.floats(0.0, 2 * math.pi),
    _ZERO_TOLS,
)
@settings(max_examples=100, deadline=None)
def test_weight_sums_match_lagrange_across_the_unit_circle(
    k, make, ratio, n, radius, angle, zero_tol
):
    # example2 values vanish once |z| >= 1: some or all of them are zero
    center = radius * complex(math.cos(angle), math.sin(angle))
    nodes = make(k, ratio).tuple_at(center, n)
    if nodes.pairwise_distinct:
        _assert_same_difference(ANNULUS_CURVE, nodes, zero_tol)


_HALF_MAX = sys.float_info.max / 2
_ARITHMETIC_PARTS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1e154, -1e154, _HALF_MAX, -_HALF_MAX]
    ),
    st.floats(_HALF_MAX / 4, sys.float_info.max),
    st.floats(-1e-300, 1e-300),
    st.floats(allow_nan=False, allow_infinity=False),
)
_ARITHMETIC_VALUES = st.builds(complex, _ARITHMETIC_PARTS, _ARITHMETIC_PARTS)


def _modulus(v: complex) -> float:
    try:
        return abs(v)
    except OverflowError:  # a finite value whose modulus is past the largest float
        return INF


def _bits(v: complex) -> bytes:
    return struct.pack("<dd", v.real, v.imag)


@given(
    _ARITHMETIC_VALUES.filter(bool),
    _ARITHMETIC_VALUES,
    _ARITHMETIC_VALUES,
    st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
)
# 0.0 + w*x spells a zero part +0.0 where w*x + (-w)*y alone gives -0.0
@example(1 + 0j, complex(-0.0, 1.0), complex(0.0, -0.0), 0.0)
# a cell whose modulus equals the threshold is dropped
@example(1 + 0j, 2 + 0j, 0j, 1.0)
@settings(max_examples=500, deadline=None)
def test_level_arithmetic_is_pythons(w, x, y, zero_tol):
    # a difference is Python's complex arithmetic: over one cell on which
    # the curve values are x and y, the weights w and -w sum as
    # linear_combine([w, -w], ...) does, from 0j and in node order
    cell = ([0.0, 1.0], [0.0, 1.0])
    values = {
        z: _from_columns(GRID, [c], [1], cell, 1e-9, ([c], cell, None)) for z, c in ((0, x), (1, y))
    }
    curve = CurveMap(GRID, values.__getitem__)
    products = [_modulus(w * x), _modulus(-w * y)]
    v = 0j + w * x + (-w) * y
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divdiff, "_weights", lambda zs: [w, -w])
        if not all(map(math.isfinite, [*products, _modulus(v)])):
            with pytest.raises(FloatRangeError, match="^a coefficient's modulus is past "):
                divided_diff(curve, (0, 1), zero_tol)
            return
        g = divided_diff(curve, (0, 1), zero_tol)
    if abs(v) <= zero_tol * max(products):
        assert g.is_zero
    else:
        assert [_bits(c) for c in g._atom_coeffs] == [_bits(v)] and g._atom_ends == cell


_CENTERS = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@given(
    st.sampled_from(_CURVES),
    st.integers(1, 8),
    _SCHEDULES,
    st.lists(st.tuples(st.integers(0, 30), _CENTERS), min_size=1, max_size=6),
    _ZERO_TOLS,
)
@settings(max_examples=150, deadline=None)
def test_batched_differences_match_lagrange(curve, k, make, steps, zero_tol):
    # tuples of one call lie on grids of different sizes; example2 values
    # vanish outside the unit disc, so some tuples have no cell at all
    sched = make(k, 0.5)
    tuples = [sched.tuple_at(center, n) for n, center in steps]
    tuples = [nt for nt in tuples if nt.pairwise_distinct and not barycentric_overflows(curve, nt)]
    got = divided_diffs(curve, tuples, zero_tol)
    assert len(got) == len(tuples)
    for g, nt in zip(got, tuples):
        want = divided_diff_lagrange(curve, nt, zero_tol)
        assert repr(g) == repr(want)
        assert [m.hex() for m in g.masses] == [m.hex() for m in want.masses]


def test_batched_differences_pad_empty_grids():
    sched = ShrinkSchedule.roots_of_unity(4)
    tuples = [sched.tuple_at(center, 3) for center in (1.5, 0.3 + 0.2j, -1.6j, 0.1)]
    got = divided_diffs(ANNULUS_CURVE, tuples)
    assert got[0].is_zero and got[2].is_zero and not got[1].is_zero
    for g, nt in zip(got, tuples):
        want = divided_diff_lagrange(ANNULUS_CURVE, nt)
        assert repr(g) == repr(want)
        assert [m.hex() for m in g.masses] == [m.hex() for m in want.masses]


def test_batched_differences_need_one_order():
    assert divided_diffs(QUADRANT_CURVE, []) == []
    assert divided_diffs(QUADRANT_CURVE, [(0.5,), (1j,)]) == [
        QUADRANT_CURVE(0.5),
        QUADRANT_CURVE(1j),
    ]
    with pytest.raises(ValueError, match="one order"):
        divided_diffs(QUADRANT_CURVE, [(0, 1), (0, 1, 1j)])
    with pytest.raises(RepeatedNodeError):
        divided_diffs(QUADRANT_CURVE, [(0, 1), (1j, 1j)])


def _huge_values(family):
    """1e308 at 1, -1e308 at 0 and z elsewhere, on the whole plane of the family."""
    return scalar_curve(lambda z: {1: 1e308, 0: -1e308}.get(z, z), family)


# over nodes 1 and 0 the weights are 1 and -1, and the products 1e308 and
# 1e308 of the one cell add past the largest float; over nodes 0 and 5e-324
# the weight 1/(0 - 5e-324) overflows, before any curve value is read
_CELL_FAULT = (1, 0)
_WEIGHT_FAULT = (0, 5e-324)


def _yielded(curve, tuples):
    """The differences `_differences` yields before it raises, and its error."""
    out = []
    with pytest.raises(FloatRangeError) as exc:
        for g in _differences(curve, tuples):
            out.append(g)
    return out, exc.value


@pytest.mark.parametrize("family", [GRID, RADIAL])
def test_batched_errors_name_the_first_failing_tuple(family):
    curve = _huge_values(family)
    messages = {}
    for name, nodes in (("cell", _CELL_FAULT), ("weight", _WEIGHT_FAULT)):
        with pytest.raises(FloatRangeError) as exc:
            divided_diff(curve, nodes)
        messages[name] = str(exc.value)
    assert messages["cell"] == "a coefficient's modulus is past the largest float"
    assert messages["weight"].startswith("the barycentric weight ")
    assert messages["weight"].endswith(" of node 0j is not a finite non-zero float")
    good = (0.25, 0.5j)
    want = divided_diff(curve, good)
    assert not want.is_zero
    # a cell fault, found in the tuple's overlay, and a weight fault,
    # found before it: whichever tuple comes first wins, and the tuples
    # before it are yielded
    for tuples, index, name in (
        ([_CELL_FAULT, _WEIGHT_FAULT], 0, "cell"),
        ([_WEIGHT_FAULT, _CELL_FAULT], 0, "weight"),
        ([good, _CELL_FAULT, good, _WEIGHT_FAULT], 1, "cell"),
        ([good, good, _WEIGHT_FAULT, good, _CELL_FAULT], 2, "weight"),
    ):
        with pytest.raises(FloatRangeError) as exc:
            divided_diffs(curve, tuples)
        assert (str(exc.value), exc.value.index) == (messages[name], index)
        out, error = _yielded(curve, tuples)
        assert (str(error), error.index) == (messages[name], index)
        assert len(out) == index and all(repr(g) == repr(want) for g in out)


@pytest.mark.parametrize("zero_tol", [2.0, INF])
def test_a_threshold_past_the_largest_float_keeps_the_cell_faults(zero_tol):
    # zero_tol * 1e308 is past the largest float: a cell whose sum
    # overflows still raises, and every finite cell is at most the threshold
    curve = _huge_values(GRID)
    with pytest.raises(FloatRangeError, match="^a coefficient's modulus is past "):
        divided_diff(curve, _CELL_FAULT, zero_tol)
    assert divided_diff(curve, (0.25, 0.5j), zero_tol).is_zero


def test_batched_errors_keep_the_tuples_in_step_order():
    # the schedule of test_trace_past_the_float_range_is_an_error: the
    # weights of step 37 overflow, and the steps before it trace
    sched = ShrinkSchedule.roots_of_unity(28)
    tuples = [sched.tuple_at(0.3, n) for n in range(30, 41)]
    with pytest.raises(FloatRangeError, match="^the barycentric weight ") as exc:
        divided_diffs(HALFPLANE_CURVE, tuples)
    assert exc.value.index == 37 - 30
    out, error = _yielded(HALFPLANE_CURVE, tuples)
    assert (str(error), error.index) == (str(exc.value), 37 - 30)
    assert [repr(g) for g in out] == [repr(divided_diff(HALFPLANE_CURVE, nt)) for nt in tuples[:7]]


def test_differences_run_no_overlay_sweep(monkeypatch):
    # one linear_combine per sub-difference swept the overlay 55 times at k=10
    calls = []
    sweep = measure._cell_sums
    monkeypatch.setattr(measure, "_cell_sums", lambda *args: calls.append(args) or sweep(*args))
    divided_diff(QUADRANT_CURVE, ShrinkSchedule.roots_of_unity(10).tuple_at(0.3 + 0.7j, 5))
    assert len(calls) <= 1


@pytest.mark.parametrize("k", [1, 3])
def test_differences_merge_only_the_results(k, monkeypatch):
    # a difference is one overlay, whose atoms are also its terms: its
    # children are not merged, and no mass is computed until a gauge reads one
    merges, masses = [], []
    overlay, piece_masses = measure._overlay, simplefn._piece_masses
    for module in (divdiff, simplefn):
        monkeypatch.setattr(module, "_overlay", lambda *args: merges.append(1) or overlay(*args))
    monkeypatch.setattr(simplefn, "_piece_masses", lambda e: masses.append(1) or piece_masses(e))
    sched = ShrinkSchedule.roots_of_unity(k)
    tuples = [sched.tuple_at(0.3 + 0.7j, n) for n in range(1, 9)]
    got = divided_diffs(QUADRANT_CURVE, tuples)
    assert len(merges) == len(tuples) and not masses
    assert all(g.terms == g.atoms for g in got) and not got[0].is_zero
    l0_gauge(got[0])
    assert len(masses) == 1
    l0_gauge(got[0])
    assert len(masses) == 1


def _gauge_bits(f):
    """The four gauges and the masses of f, as bits."""
    values = [l0_gauge(f), lp_gauge(f, 0.75), gauge_in_measure(f, 1e-3), *f.masses]
    return [v.hex() for v in values] + [wk_member(f, 7)]


def test_traces_and_differences_gauge_atom_by_atom(monkeypatch):
    # curve values, and differences of fewer than _ARRAY_CELLS cells, keep
    # the list path: no mass table is built for them, nor the moduli array
    # built with it.  A larger difference, such as k = 10 on example1,
    # holds the kernel's arrays, and its gauges are the atom-by-atom sums
    built, large = [], []
    table = measure._indexed_masses
    monkeypatch.setattr(measure, "_indexed_masses", lambda *a: built.append(1) or table(*a))
    for example, center in (("example1", 0.3 + 0.7j), ("example2", 0.4 + 0.5j), ("example3", 0.3)):
        curve, gauge = curve_for(example), gauge_for(example)
        for k in range(1, 11):
            sched = ShrinkSchedule.roots_of_unity(k)
            start = len(built)
            with kernel_paths() as seen:
                derivative_by_limit(curve, center, k, sched, gauge=gauge)
            assert len(built) - start == sum(n >= measure._ARRAY_CELLS for n in seen["grids"])
            for n in (1, 5, 10):
                start = len(built)
                with kernel_paths() as seen:
                    (g,) = divided_diffs(curve, [sched.tuple_at(center, n)])
                on_arrays = max(seen["grids"], default=0) >= measure._ARRAY_CELLS
                assert (g._arrays is not None) == on_arrays
                twin = copy.copy(g)  # restores the columns without the arrays
                assert twin == g and twin._arrays is None
                assert _gauge_bits(g) == _gauge_bits(twin)
                assert len(built) - start == on_arrays
                if on_arrays:
                    large.append((example, k, n))
    assert ("example1", 10, 5) in large
    assert {example for example, _, _ in large} == {"example1"}
    # the counter sees the array path: 32 rectangles give a 63 x 63 grid
    rects = [rect(i / 8, i / 8 + 4, i / 8, i / 8 + 4) for i in range(32)]
    f = linear_combine([1.0 + 1j] * 32, [indicator(r) for r in rects])
    assert len(built) - start == 1
    assert l0_gauge(f) == sum(min(1.0, abs(c)) * m for c, m in zip(f._atom_coeffs, f.masses))
    assert len(built) - start == 1


def test_small_overlays_stay_off_the_array_path():
    # divided differences and smoothness traces of low order overlay a few
    # pieces at a time, below _ARRAY_CELLS cells, and their support checks
    # sum no grid at all; a difference of order 10 (an 11 x 8 grid) takes
    # the array path, as any overlay of that size does, and so does a
    # union of many rectangles
    experiment, example, extra = VERIFY_ALL_SUITE[1]
    assert (experiment, example) == ("smoothness", "example1")
    with kernel_paths() as seen:
        divided_diff(QUADRANT_CURVE, ShrinkSchedule.roots_of_unity(6).tuple_at(0.3 + 0.7j, 5))
        run_experiment(ExperimentConfig(experiment=experiment, example=example, seed=42, **extra))
    assert seen["merges"] == 0 and seen["grids"]
    assert max(seen["grids"]) < measure._ARRAY_CELLS
    with kernel_paths() as seen:
        divided_diff(QUADRANT_CURVE, ShrinkSchedule.roots_of_unity(10).tuple_at(0.3 + 0.7j, 5))
    assert seen["grids"] == [11 * 8] and seen["merges"] == 1
    rng = np.random.default_rng(12)
    rects = [rect(*np.sort(rng.uniform(-2, 2, 2)), *np.sort(rng.uniform(-2, 2, 2))) for _ in range(128)]
    with kernel_paths() as seen:
        reduce(region_union, rects)
    assert seen["merges"] >= 1 and seen["counts"] >= 1


def test_curve_values_and_support_checks_build_no_interval(monkeypatch):
    built = []
    post_init = Interval.__post_init__
    monkeypatch.setattr(
        Interval, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    nodes = ShrinkSchedule.roots_of_unity(10).tuple_at(0.3 + 0.7j, 5)
    divided_diff(QUADRANT_CURVE, nodes)
    assert len(built) == 0
    exp_smoothness(ExperimentConfig(experiment="smoothness", example="example1", k=3, steps=40))
    assert len(built) == 0
    bound = support_bound_of(nodes, GRID)
    assert not bound.region.is_empty and bound.mass > 0 and len(built) == 0
    assert bound.region.cells and len(built) > 0  # reading its pieces builds Intervals


# ---------------------------------------------------------------------------
# the float range
# ---------------------------------------------------------------------------


_SCALAR_SQUARE = scalar_curve(lambda z: z * z)


@pytest.mark.parametrize("form", [divided_diff, divided_diff_lagrange])
@pytest.mark.parametrize("curve", [QUADRANT_CURVE, _SCALAR_SQUARE], ids=["quadrant", "scalar"])
@pytest.mark.parametrize(
    "nodes",
    [(0, 2.225e-309j), (5e-324, 0), (-1e308, 1e308)],
    ids=["subnormal-imag", "subnormal-real", "infinite-gap"],
)
def test_nodes_without_a_finite_reciprocal_difference_are_rejected(form, curve, nodes):
    # 1/(a - b) overflows for a subnormal distance and is 0 for an infinite
    # one; both forms used to return nan/inf coefficients or drop every atom
    with pytest.raises(FloatRangeError, match="finite non-zero float"):
        form(curve, nodes)


@pytest.mark.parametrize(
    "example, verdict", [("example1", "CONVERGED-TO-ZERO"), ("example3", "DIVERGENT")]
)
def test_order_24_traces_to_a_verdict(example, verdict):
    # the differences stay in the float range at k = 24; only the estimate
    # 24! * difference, no longer built, used to overflow
    sched = ShrinkSchedule.roots_of_unity(24)
    rep = derivative_by_limit(curve_for(example), 0.3 + 0.7j, 24, sched, gauge=gauge_for(example))
    assert rep.verdict == verdict


def test_trace_past_the_float_range_is_an_error():
    # example3 at k = 28 used to trace NaN gauges into an INCONCLUSIVE verdict
    sched = ShrinkSchedule.roots_of_unity(28)
    with pytest.raises(FloatRangeError, match=r"^step 37 of 40: the barycentric weight "):
        derivative_by_limit(HALFPLANE_CURVE, 0.3, 28, sched, gauge=gauge_for("example3"))


@pytest.mark.parametrize(
    "example, center, k, step",
    [
        ("example1", 0.3 + 0.7j, 28, 37),
        ("example1", 0.3 + 0.7j, 32, 33),
        ("example2", 0.4 + 0.5j, 32, 33),
        ("example3", 0.3, 32, 33),
    ],
)
def test_coefficient_modulus_past_the_float_range_is_an_error(example, center, k, step):
    # these used to end in OverflowError from abs(); the weights of
    # roots-of-unity nodes grow like 2**(k * step) / (k + 1), and the step
    # before the first whose weights overflow has finite coefficients
    sched = ShrinkSchedule.roots_of_unity(k)
    curve = curve_for(example)
    before = divided_diff(curve, sched.tuple_at(center, step - 1))
    assert all(map(cmath.isfinite, before._atom_coeffs))
    assert all(math.isfinite(abs(c)) for c in before._atom_coeffs)
    pattern = r"^the barycentric weight .* is not a finite non-zero float$"
    with pytest.raises(FloatRangeError, match=pattern):
        divided_diff(curve, sched.tuple_at(center, step))


@pytest.mark.parametrize(
    "values, overflows",
    [
        ((1e308, -1e308), True),  # a part of the sum overflows
        ((1.5e308, -1.5e308j), True),  # finite parts, but no finite modulus
        ((1e308, 1e308), False),  # the sum cancels
        ((1e308, -1e308j), False),  # modulus 1.41e308 fits
    ],
)
def test_sums_near_the_largest_float(values, overflows):
    # w = 1 and scaled coefficients past half the largest float: the cells
    # are checked, and fail exactly where the recursion's would
    curve = scalar_curve(lambda z: values[0] if z == 1 else values[1])
    assert reference_overflows(curve, (1, 0)) == overflows
    _assert_same_difference(curve, (1, 0), 1e-9)


# ---------------------------------------------------------------------------
# the Newton recursion as a cross-check
# ---------------------------------------------------------------------------


def test_lagrange_pair_weights():
    # order 1 reduces to (f(a) - f(b)) / (a - b)
    a, b = 0.3 + 0.2j, -1.1 + 0.9j
    sc = scalar_curve(lambda z: 3 * z + 2)
    direct = reference_divided_diff(sc, (a, b))
    via = divided_diff(sc, (a, b))
    assert coefficient_distance(direct, via) <= 1e-14


def test_lagrange_constant_second_order_vanishes():
    rng = np.random.default_rng(3)
    const = scalar_curve(lambda z: 4.2j)
    nodes = random_nodes(rng, 3)
    assert divided_diff_lagrange(const, nodes).is_zero


def test_lagrange_matches_recursion_on_quadrant():
    nodes = (0, 1, 1j)
    d1 = reference_divided_diff(QUADRANT_CURVE, nodes)
    d2 = divided_diff(QUADRANT_CURVE, nodes)
    assert coefficient_distance(d1, d2) <= 1e-10


@pytest.mark.parametrize("curve", [QUADRANT_CURVE, ANNULUS_CURVE, HALFPLANE_CURVE])
def test_recursion_lagrange_agreement_random(curve):
    rng = np.random.default_rng(4)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        nodes = random_nodes(rng, k + 1)
        d1 = reference_divided_diff(curve, nodes)
        d2 = divided_diff(curve, nodes)
        assert coefficient_distance(d1, d2) <= 1e-9


# ---------------------------------------------------------------------------
# symmetry
# ---------------------------------------------------------------------------


def test_symmetry_identity_permutation():
    assert symmetry_check(QUADRANT_CURVE, (0.2, 1.4 - 0.3j), [0, 1])


def test_symmetry_swap():
    assert symmetry_check(QUADRANT_CURVE, (0, 1), [1, 0])


def test_symmetry_three_cycle_halfplane():
    assert symmetry_check(HALFPLANE_CURVE, (0.1, 0.2 + 0.3j, -0.4j), [1, 2, 0])


@pytest.mark.parametrize("curve", [QUADRANT_CURVE, ANNULUS_CURVE, HALFPLANE_CURVE])
def test_symmetry_random_permutations(curve):
    rng = np.random.default_rng(5)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        nodes = random_nodes(rng, k + 1)
        perm = list(rng.permutation(k + 1))
        assert symmetry_check(curve, nodes, perm)


def test_branch_independence_via_reordering():
    # splitting the recursion on another index pair equals evaluating a
    # rotation of the tuple
    rng = np.random.default_rng(6)
    for _ in range(10):
        nodes = random_nodes(rng, 4)
        base = divided_diff(QUADRANT_CURVE, nodes)
        rotated = divided_diff(QUADRANT_CURVE, NodeTuple(nodes).permuted([2, 3, 0, 1]))
        assert coefficient_distance(base, rotated) <= 1e-9


# ---------------------------------------------------------------------------
# support localisation
# ---------------------------------------------------------------------------


def test_support_bound_shapes():
    single = support_bound_of((0.5 + 0.25j,), "grid")
    assert single.region.is_empty  # degenerate strips are empty half-open sets

    cross = support_bound_of((0, 1 + 1j), "grid")
    assert cross.region.cells == (
        (Interval(-INF, 0.0), Interval(0.0, 1.0)),
        (Interval(0.0, 1.0), Interval(-INF, INF)),
        (Interval(1.0, INF), Interval(0.0, 1.0)),
    )

    ring = support_bound_of((0.5, 0.3j), "radial")
    assert ring.region == annulus(0.3, 0.5)


def test_node_bounds():
    b = node_bounds((0, 1 + 2j, -1j), "grid")
    assert b == GridBounds(0.0, 1.0, -1.0, 2.0)
    r = node_bounds((0.5, 0.3j), "radial")
    assert r == RadialBounds(0.3, 0.5)


@pytest.mark.parametrize(
    "curve", [QUADRANT_CURVE, ANNULUS_CURVE], ids=["quadrant", "annulus"]
)
def test_support_localisation_random(curve):
    rng = np.random.default_rng(7)
    for _ in range(40):
        k = int(rng.integers(1, 5))
        nodes = random_nodes(rng, k + 1, box=1.4)
        dd = divided_diff(curve, nodes)
        assert supported_in(dd, support_bound_of(nodes, curve.family))


def _region_bound(nodes, family):
    """The bound's region as the strip union (or annulus) of region constructors."""
    b = node_bounds(nodes, family)
    if family == GRID:
        return region_union(vertical_strip(b.x_lo, b.x_hi), horizontal_strip(b.y_lo, b.y_hi))
    return annulus(b.r_lo, b.r_hi)


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # compared by type
        return type(exc)


_NODE_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, INF, -INF, float("nan")]),
    st.floats(-2.0, 2.0),
)
_NODE_LISTS = st.lists(st.tuples(_NODE_PARTS, _NODE_PARTS), min_size=1, max_size=6)


@given(
    _NODE_LISTS,
    st.sampled_from(["", "real", "imag"]),
    st.sampled_from([GRID, RADIAL]),
)
@settings(max_examples=300, deadline=None)
def test_support_bound_matches_the_region_path(parts, degenerate, family):
    # a degenerate strip (all real or all imaginary parts equal) is empty
    if degenerate == "real":
        parts = [(parts[0][0], im) for _, im in parts]
    elif degenerate == "imag":
        parts = [(re, parts[0][1]) for re, _ in parts]
    nodes = NodeTuple(tuple(complex(re, im) for re, im in parts))
    sb = _outcome(support_bound_of, nodes, family)
    want = _outcome(_region_bound, nodes, family)
    if isinstance(want, type):
        assert sb is want
        return
    assert sb.region == want and repr(sb.region) == repr(want)
    assert sb == SupportBound(want) and hash(sb) == hash(SupportBound(want))
    assert repr(sb) == repr(SupportBound(want))
    mass = region_measure(want)
    assert type(sb.mass) is type(mass) and repr(sb.mass) == repr(mass)
    zs = [z for z in nodes.nodes if cmath.isfinite(z)]
    fns = [ANNULUS_CURVE(z) for z in zs] if family == RADIAL else [quadrant_map(z) for z in zs]
    if nodes.pairwise_distinct and all(map(cmath.isfinite, nodes.nodes)):
        curve = ANNULUS_CURVE if family == RADIAL else QUADRANT_CURVE
        fns.append(_outcome(divided_diff, curve, nodes))
    for f in fns:
        if isinstance(f, type):
            continue
        assert supported_in(f, sb) == supported_in(f, SupportBound(want))
        assert supported_in(f, sb) == reference_supported_in(f, SupportBound(want))


_SIDE_PARTS = st.one_of(
    st.sampled_from([-INF, INF, 0.0, -0.0, 1.0, -1.0, 5e-324]), st.floats(-2.0, 2.0)
)
_SIDES = st.lists(_SIDE_PARTS, min_size=2, max_size=2).map(sorted)


@given(_SIDES, _SIDES)
@settings(max_examples=300, deadline=None)
def test_strip_union_is_the_overlays(x, y):
    # the closed form against a unit-weight overlay of the two strips, down
    # to the repr of every endpoint and the bits of the mass
    bound = _union_bound(GRID, [x, y])
    line = (NEG_INF, POS_INF)
    live = [ends for ends in (_piece_ends(GRID, (x, line)), _piece_ends(GRID, (line, y))) if ends]
    want = _sweep((_array_columns(_joined(GRID, live)),), _nonzero)
    assert [list(map(repr, e.tolist())) for e in bound.region._ends] == [
        list(map(repr, e.tolist())) for e in want
    ]
    mass = _ends_measure(want)
    assert type(bound.mass) is type(mass) and repr(bound.mass) == repr(mass)


def test_support_bound_is_immutable_and_copies():
    sb = support_bound_of((0.25, 1 + 0.5j, -0.0), GRID)
    with pytest.raises(FrozenInstanceError):
        sb.family = RADIAL
    with pytest.raises(FrozenInstanceError):
        del sb.region
    for again in (copy.copy(sb), copy.deepcopy(sb), pickle.loads(pickle.dumps(sb))):
        assert again == sb and repr(again) == repr(sb) and again.mass == sb.mass


# ---------------------------------------------------------------------------
# polynomial exactness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_polynomial_exactness(m):
    rng = np.random.default_rng(8 + m)
    curve = scalar_curve(lambda z: z**m)
    nodes = random_nodes(rng, m + 1, min_sep=0.5)
    dd = divided_diff(curve, nodes)
    assert len(dd.atoms) == 1
    assert abs(dd.atoms[0][0] - 1.0) <= 1e-10
    higher = divided_diff(curve, random_nodes(rng, m + 2, min_sep=0.5))
    assert higher.max_coeff() <= 1e-10


# ---------------------------------------------------------------------------
# limits along shrink schedules
# ---------------------------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ValueError):
        ShrinkSchedule((1.0, 1.0), 0.5, 10)  # repeated offsets
    with pytest.raises(ValueError):
        ShrinkSchedule((1.0, -1.0), 1.5, 10)  # ratio outside ]0,1[
    with pytest.raises(ValueError):
        ShrinkSchedule((1.0, -1.0), 0.5, 0)  # no steps
    with pytest.raises(ValueError, match="not an integer"):
        ShrinkSchedule((1, 2, 3), 0.5, 2.5)  # used to end in a TypeError from range
    assert ShrinkSchedule((1.0, -1.0), 0.5, np.int64(3)).steps == 3
    assert type(ShrinkSchedule((1.0, -1.0), 0.5, np.int64(3)).steps) is int
    with pytest.raises(ValueError):
        derivative_by_limit(QUADRANT_CURVE, 0.0, 2, ShrinkSchedule.roots_of_unity(1))


def test_quadrant_derivatives_converge_to_zero():
    for k in (1, 2, 3, 4):
        rep = derivative_by_limit(
            QUADRANT_CURVE, 0.3 + 0.7j, k, ShrinkSchedule.roots_of_unity(k)
        )
        assert rep.verdict == "CONVERGED-TO-ZERO"
        assert rep.gauge_trace[-1] <= 1e-6


def test_halfplane_first_derivative_converges_in_lp():
    # the gauge decays like distance**(1-p), so reaching 1e-6 takes ~100 halvings
    rep = derivative_by_limit(
        HALFPLANE_CURVE,
        0.0,
        1,
        ShrinkSchedule.roots_of_unity(1, steps=100),
        gauge=partial(lp_gauge, p=0.75),
    )
    assert rep.verdict == "CONVERGED-TO-ZERO"


def test_halfplane_second_derivative_diverges_in_lp():
    # offsets (1, 0, 2) reproduce the second-order quotient built from the
    # pairs (t, 2t) and (0, 2t) scaled by 1/t
    rep = derivative_by_limit(
        HALFPLANE_CURVE,
        0.0,
        2,
        ShrinkSchedule((1.0, 0.0, 2.0), 0.5, 60),
        gauge=partial(lp_gauge, p=0.75),
    )
    assert rep.verdict == "DIVERGENT"
    assert rep.gauge_trace[-1] >= 1e6


def test_annulus_derivatives_converge_inside_and_outside():
    # centers inside, outside, and exactly on the support boundary
    for center in (0.4, 1.6, 0.3 + 0.4j, 1.0 + 0j, 0.0):
        rep = derivative_by_limit(
            ANNULUS_CURVE, center, 2, ShrinkSchedule.roots_of_unity(2)
        )
        assert rep.verdict == "CONVERGED-TO-ZERO"


@pytest.mark.parametrize("example", ["example1", "example2", "example3"])
def test_limit_trace_gauges_the_plain_difference(example):
    # the trace gauges divided_diff itself, with no k! factor
    curve, gauge, k = curve_for(example), gauge_for(example), 3
    sched = ShrinkSchedule.roots_of_unity(k, steps=12)
    z = 0.5 - 0.2j
    rep = derivative_by_limit(curve, z, k, sched, gauge=gauge)
    diffs = [divided_diff(curve, sched.tuple_at(z, n)) for n in range(1, sched.steps + 1)]
    assert [gauge(g).hex() for g in diffs] == [float(x).hex() for x in rep.gauge_trace]


_VERDICT_CENTERS = {
    "example1": (0.3 + 0.7j, -1.1 - 0.4j),
    "example2": (0.4 + 0.1j, -1.2 + 0.9j),  # inside and outside the unit disc
    "example3": (0.5 - 0.2j, -1.3 + 1.1j),
}


@pytest.mark.parametrize("k", range(1, 11))
def test_derivative_verdicts_up_to_order_10(k):
    for example, centers in _VERDICT_CENTERS.items():
        if example == "example3" and k < 3:
            continue  # INCONCLUSIVE on 40 steps: the ceiling is not reached
        expected = "DIVERGENT" if example == "example3" else "CONVERGED-TO-ZERO"
        for z in centers:
            rep = derivative_by_limit(
                curve_for(example), z, k, ShrinkSchedule.roots_of_unity(k), gauge=gauge_for(example)
            )
            assert rep.verdict == expected, (example, z)


def test_limit_rejects_nodes_below_the_float_grid():
    sched = ShrinkSchedule.roots_of_unity(3, steps=80)
    gauge = gauge_for("example3")
    # from step 56 every node's real part rounds to 0.3: a false zero trace
    with pytest.raises(ValueError, match="step 56 of 80 puts every node's real part"):
        derivative_by_limit(HALFPLANE_CURVE, 0.3, 3, sched, gauge=gauge)
    with pytest.raises(ValueError, match="step 54 of 80 puts two nodes") as err:
        derivative_by_limit(HALFPLANE_CURVE, 1.7 + 0.2j, 3, sched, gauge=gauge)
    assert not isinstance(err.value, RepeatedNodeError)
    # at the origin the offsets stay resolved
    assert derivative_by_limit(HALFPLANE_CURVE, 0.0, 3, sched, gauge=gauge).verdict == "DIVERGENT"
    # the imaginary parts 0 and sin(pi) of roots_of_unity(1) are one value
    # up to rounding, so their nodes may share one imaginary part
    rep = derivative_by_limit(QUADRANT_CURVE, 0.3 + 0.7j, 1, ShrinkSchedule.roots_of_unity(1))
    assert rep.verdict == "CONVERGED-TO-ZERO"


def test_single_step_schedule_inconclusive():
    rep = derivative_by_limit(
        QUADRANT_CURVE, 0.0, 1, ShrinkSchedule.roots_of_unity(1, steps=1)
    )
    assert rep.verdict == "INCONCLUSIVE"


def test_classify_trace_states():
    assert classify_trace([1.0], 1e-6, 1e6) == "INCONCLUSIVE"
    assert classify_trace([1e-3, 1e-5, 1e-7, 1e-8], 1e-6, 1e6) == "CONVERGED-TO-ZERO"
    assert classify_trace([10.0, 1e3, 1e5, 1e7], 1e-6, 1e6) == "DIVERGENT"
    assert classify_trace([1.0, 2.0, 1.5, 1.7], 1e-6, 1e6) == "INCONCLUSIVE"


def test_real_offsets_schedule_is_real_and_distinct():
    sched = ShrinkSchedule.real_offsets(3)
    assert len(sched.offsets) == 4
    assert all(u.imag == 0 for u in sched.offsets)
    assert len(set(sched.offsets)) == 4
    rep = derivative_by_limit(QUADRANT_CURVE, -0.2, 3, sched)
    assert rep.verdict == "CONVERGED-TO-ZERO"


# ---------------------------------------------------------------------------
# the exact referee
# ---------------------------------------------------------------------------


# |float - exact| <= _ROUNDING * (k + 1) * 2**-53 * sum_m |w_m * c_m| per
# cell.  The largest ratio to the bound without _ROUNDING measured was
# 0.86 over 4,900 tuples drawn as in the test below, and 1.01 over 600
# uniform draws of the same curves, orders and schedules, so 2 leaves a
# margin of about 2.
_ROUNDING = 2.0
_ULP = 2.0**-53


def _error_against_the_exact_sum(curve, nodes, zero_tol):
    """max |float - exact| / max |exact| over the cells, each cell checked against its bound."""
    g = divided_diff(curve, nodes, zero_tol)
    axes, cells = exact_divided_diff(curve, nodes)
    got = cell_values(g, axes)
    n = len(nodes.nodes)
    cmax = max((top for _, _, top in cells.values()), default=0.0)
    err = scale = 0.0
    for idx, ((er, ei), size, _) in cells.items():
        v = got.get(idx, 0j)
        bound = _ROUNDING * n * _ULP * size
        exact = math.hypot(er, ei)
        if v == 0:
            # dropped, or summed to 0: certified by the zero_tol rule
            assert exact <= zero_tol * cmax * (1 + _ROUNDING * n * _ULP) + bound
            continue
        off = math.hypot(Fraction(v.real) - er, Fraction(v.imag) - ei)
        assert off <= bound
        err, scale = max(err, off), max(scale, exact)
    return err / scale if scale else 0.0


@given(
    st.sampled_from(_CURVES),
    st.integers(1, 12),
    _SCHEDULES,
    st.floats(0.2, 0.9),
    st.integers(0, 30),
    _PARTS,
    _PARTS,
    _ZERO_TOLS,
)
@settings(max_examples=100, deadline=None)
def test_weight_sums_are_within_rounding_of_the_exact_sums(
    curve, k, make, ratio, n, re, im, zero_tol
):
    nodes = make(k, ratio).tuple_at(complex(re, im), n)
    if nodes.pairwise_distinct and not barycentric_overflows(curve, nodes):
        _error_against_the_exact_sum(curve, nodes, zero_tol)


@pytest.mark.parametrize(
    "example, center, k, step",
    [
        *[
            (example, center, k, step)
            for example, center in (("example1", 0.3 + 0.7j), ("example3", 0.3))
            for k in (16, 20)
            for step in (5, 20)
        ],
        ("example3", 0.3, 32, 5),
        ("example3", 0.3, 32, 20),
        ("example3", 0.3, 40, 5),
        ("example3", 0.3, 40, 20),
        ("example1", 0.3 + 0.7j, 32, 20),
    ],
)
def test_high_order_differences_keep_their_digits(example, center, k, step):
    # max |float - exact| / max |exact| over the cells: at most 4.3e-16 on
    # the eight cases at k = 16 and 20, where the Newton triangle of the
    # recursion had 4.6e-14 to 6.7e-11, and 2.8e-16 to 4.9e-16 at k = 32
    # and 40 (example1 at k = 40 is left out: 3 to 6 s a case)
    nodes = ShrinkSchedule.roots_of_unity(k).tuple_at(center, step)
    assert _error_against_the_exact_sum(curve_for(example), nodes, 1e-9) <= 5e-16
