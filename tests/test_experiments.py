"""Experiment harness and CLI tests."""

import contextlib
import errno
import io
import json
import math
import os
from pathlib import Path
from statistics import NormalDist

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussdiff import (
    BLOWUP_C,
    HALFPLANE_CURVE,
    BlowupConstants,
    ConfigError,
    CurveMap,
    ExampleId,
    ExperimentConfig,
    curve_for,
    divided_diff,
    exp_c1_not_c2,
    exp_identity_theorem_failure,
    exp_measure_identities,
    exp_real_restriction,
    exp_smoothness,
    exp_taylor_failure,
    lp_gauge,
    run_experiment,
    verify_all,
)
from gaussdiff import cli, experiments, measure
from gaussdiff.cli import main
from gaussdiff.divdiff import CurveMap, ShrinkSchedule, classify_trace, monotone_tail
from gaussdiff.measure import NEG_INF, POS_INF, _nu, _ring, annulus, mu_grid, mu_radial, rect
from oracles import reference_identity_sweeps

# keep unit runs quick; acceptance exercises the full sizes.  The Monte-Carlo
# sample count stays at 10**6, the count the reports use.
_FAST_MC = {"grid_points": 2_000}


def _strip_timing(report_dict):
    report_dict.pop("wall_time", None)
    return report_dict


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_blowup_constants():
    bc = BlowupConstants.for_p(0.75)
    assert bc.c == pytest.approx(1.0 / (math.e * math.sqrt(math.pi)), abs=1e-15)
    assert abs(BLOWUP_C - 0.2075537487102974) <= 1e-12
    assert bc.exponent == pytest.approx(-0.5)
    assert bc.prefactor == pytest.approx(2.0**0.25)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rho": 1.5},
        {"rho": 0.0},
        {"steps": 4},
        {"k": 0},
        {"convergence_tol": 0.0},
        {"example": "example3", "p": 0.4},
        {"mc_samples": 0},
        {"grid_points": 0},
        # a flat trace between the two would be both converged and divergent
        {"convergence_tol": 1e7, "divergence_ceiling": 1e6},
        {"convergence_tol": 1.0, "divergence_ceiling": 1.0},
    ],
)
def test_config_validation_rejects(kwargs):
    merged = {"example": "example1", **kwargs}
    cfg = ExperimentConfig(experiment="smoothness", **merged)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_experiment_example_preconditions():
    with pytest.raises(ConfigError):
        exp_smoothness(ExperimentConfig(experiment="smoothness", example="example3"))
    with pytest.raises(ConfigError):
        exp_taylor_failure(ExperimentConfig(experiment="taylor-failure", example="example2"))
    with pytest.raises(ConfigError):
        exp_c1_not_c2(ExperimentConfig(experiment="c1-not-c2", example="example1"))
    with pytest.raises(ConfigError):
        exp_real_restriction(
            ExperimentConfig(experiment="real-restriction", example="example2")
        )
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig(experiment="nope"))
    # a config of another experiment, on an example this function would take
    with pytest.raises(ConfigError):
        exp_smoothness(ExperimentConfig(experiment="real-restriction", example="example1"))
    with pytest.raises(ConfigError):
        exp_real_restriction(ExperimentConfig(experiment="c1-not-c2", example="example3"))


def test_blowup_steps_default():
    assert ExperimentConfig(experiment="c1-not-c2", example="example3").resolved_steps() == 120
    assert (
        ExperimentConfig(experiment="real-restriction", example="example3").resolved_steps()
        == 120
    )
    assert ExperimentConfig(experiment="smoothness", example="example1").resolved_steps() == 40


def test_an_example_id_is_its_name():
    # an ExampleId used to get 40 steps here (the run ended INCONCLUSIVE),
    # and its report's JSON raised TypeError
    cfg = ExperimentConfig(experiment="real-restriction", example=ExampleId.HALFPLANE, seed=1)
    assert cfg == ExperimentConfig(experiment="real-restriction", example="example3", seed=1)
    assert cfg.resolved_steps() == 120
    rep = run_experiment(cfg)
    assert rep.verdict == "DIVERGENT-AS-EXPECTED"
    assert json.loads(rep.to_json_str())["config"]["example"] == "example3"


# ---------------------------------------------------------------------------
# individual experiments
# ---------------------------------------------------------------------------


def test_smoothness_report_structure():
    cfg = ExperimentConfig(
        experiment="smoothness", example="example1", k=2, seed=9, center=0.3 + 0.7j
    )
    rep = exp_smoothness(cfg)
    assert rep.verdict == "PASS"
    assert len(rep.steps) == 40
    row = rep.steps[0]
    assert {"n", "nodes", "gauge", "bound", "cap", "support_ok"} <= set(row)
    assert len(row["nodes"]) == 3
    # bound dominance and the offset cap hold in every recorded step
    for r in rep.steps:
        assert r["gauge"] <= r["bound"]
        assert r["bound"] <= r["cap"]
        assert r["support_ok"]
    assert rep.extras["final_gauge"] <= 1e-6
    assert rep.constants["c"] == pytest.approx(BLOWUP_C)
    assert rep.constants["exponent"] is None


@pytest.mark.parametrize("k", [1, 2, 3])
def test_smoothness_quadrant_reference_center(k):
    rep = exp_smoothness(
        ExperimentConfig(
            experiment="smoothness", example="example1", k=k, seed=1, center=0.3 + 0.7j
        )
    )
    assert rep.verdict == "PASS"
    assert rep.extras["final_gauge"] <= 1e-6


def test_smoothness_annulus_inside_center():
    cfg = ExperimentConfig(
        experiment="smoothness", example="example2", k=2, seed=9, center=0.4 + 0.0j
    )
    rep = exp_smoothness(cfg)
    assert rep.verdict == "PASS"
    assert all(r["support_ok"] for r in rep.steps)
    assert any(r["gauge"] > 0 for r in rep.steps)


def test_smoothness_annulus_boundary_center():
    # nodes straddle the support boundary |z| = 1
    rep = exp_smoothness(
        ExperimentConfig(
            experiment="smoothness", example="example2", k=3, seed=9, center=1.0 + 0j
        )
    )
    assert rep.verdict == "PASS"
    assert all(r["support_ok"] for r in rep.steps)
    assert any(r["gauge"] > 0 for r in rep.steps)


def test_smoothness_short_schedule_inconclusive():
    cfg = ExperimentConfig(
        experiment="smoothness", example="example1", k=1, steps=10, center=0.1 + 0.2j
    )
    rep = exp_smoothness(cfg)
    assert rep.verdict == "INCONCLUSIVE"


def test_taylor_failure_report():
    rep = exp_taylor_failure(
        ExperimentConfig(experiment="taylor-failure", example="example1", seed=5)
    )
    assert rep.verdict == "PASS"
    witnesses = [r for r in rep.steps if "kind" not in r]
    traces = [r for r in rep.steps if r.get("kind") == "derivative-trace"]
    # 3 centers x 8 radii witnesses, all positive and Lipschitz-capped
    assert len(witnesses) == 24
    assert all(0.0 < r["gauge"] <= r["bound"] for r in witnesses)
    # 3 centers x orders 1..4, reported side by side with the witnesses
    assert len(traces) == 12
    assert all(t["support_ok"] and t["gauge"] <= t["bound"] for t in traces)
    side = rep.extras["derivative_side"]
    assert len(side) == 12
    assert all(s["verdict"] == "PASS" for s in side)


def test_identity_failure_report():
    rep = exp_identity_theorem_failure(
        ExperimentConfig(experiment="identity-failure", example="example2", k=2, seed=5)
    )
    assert rep.verdict == "PASS"
    assert len(rep.steps) == 202  # 100 outer + 100 inner points + 2 smoothness traces
    assert rep.extras["zero_outside"] and rep.extras["nonzero_inside"]
    assert all(s["verdict"] == "PASS" for s in rep.extras["smoothness_side"])


@pytest.mark.parametrize("p,slope", [(0.6, -0.2), (0.75, -0.5), (0.9, -0.8)])
def test_c1_not_c2_slopes(p, slope):
    rep = exp_c1_not_c2(
        ExperimentConfig(experiment="c1-not-c2", example="example3", p=p, seed=3)
    )
    assert rep.verdict == "DIVERGENT-AS-EXPECTED"
    assert rep.extras["slope"] == pytest.approx(slope, abs=0.05)
    assert rep.extras["ceiling_crossed"]
    assert rep.constants["exponent"] == pytest.approx(1 - 2 * p)
    assert rep.constants["prefactor"] == pytest.approx(2 ** (1 - p))
    phase_b = [r for r in rep.steps if r.get("phase") == "B"]
    for row in phase_b:
        assert row["gauge"] == pytest.approx(row["closed_form"], rel=1e-10)
        assert row["gauge"] >= row["bound"]


def test_c1_not_c2_short_run_inconclusive():
    # 40 steps cannot cross the 1e6 ceiling at p = 0.75; slope evidence alone
    # downgrades to INCONCLUSIVE rather than FAIL
    rep = exp_c1_not_c2(
        ExperimentConfig(experiment="c1-not-c2", example="example3", steps=40, seed=3)
    )
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.extras["slope_ok"]


@pytest.mark.parametrize("rho", [0.95, 0.99])
def test_smoothness_unsettled_trace_inconclusive(rho):
    # every support check holds; the short trace just is not monotone yet
    rep = run_experiment(
        ExperimentConfig(experiment="smoothness", example="example2", k=2, steps=8, rho=rho)
    )
    assert rep.verdict == "INCONCLUSIVE"
    assert rep.extras["all_support_ok"]
    assert not monotone_tail([r["gauge"] for r in rep.steps], decreasing=True)


@pytest.mark.parametrize(
    "rho,steps", [(0.7, 8), (0.8, 8), (0.9, 8), (0.99, 8), (0.999999, 8), (0.9, 20)]
)
def test_c1_not_c2_pre_asymptotic_inconclusive(rho, steps):
    # phase A, the closed form and the dominance bound all hold; only the
    # fitted slope or the monotone tail has not settled
    rep = run_experiment(
        ExperimentConfig(experiment="c1-not-c2", example="example3", steps=steps, rho=rho)
    )
    assert rep.verdict == "INCONCLUSIVE"
    ex = rep.extras
    assert ex["phase_a_ok"] and ex["phase_b_identity_ok"] and ex["phase_b_dominance_ok"]
    trace = [r["gauge"] for r in rep.steps if r.get("phase") == "B"]
    assert not (ex["slope_ok"] and monotone_tail(trace, decreasing=False))


@pytest.mark.parametrize("experiment", ["c1-not-c2", "real-restriction"])
def test_phase_b_is_one_divided_difference(monkeypatch, experiment):
    # one order-2 difference over (t, 0, 2t): three curve values per step
    evaluated = []

    def counting_curve(example):
        curve = curve_for(example)
        return CurveMap(curve.family, lambda z: evaluated.append(z) or curve(z))

    monkeypatch.setattr(experiments, "curve_for", counting_curve)
    rep = run_experiment(
        ExperimentConfig(experiment=experiment, example="example3", steps=40, seed=3)
    )
    phase_b = [r for r in rep.steps if r.get("phase") == "B"]
    assert len(evaluated) == 2 * rep.extras["phase_a_steps"] + 3 * len(phase_b)
    for row in phase_b:
        t = row["t"]
        assert row["nodes"] == [[t, 0.0], [0.0, 0.0], [2.0 * t, 0.0]]
        want = lp_gauge(divided_diff(HALFPLANE_CURVE, (t, 0.0, 2.0 * t)), 0.75)
        assert row["gauge"].hex() == want.hex()


def test_blowup_last_normal_t_squared_diverges():
    # 0.5**1022 is the smallest normal float; one more step is a ConfigError
    rep = run_experiment(
        ExperimentConfig(experiment="c1-not-c2", example="example3", rho=0.5, steps=511)
    )
    assert rep.verdict == "DIVERGENT-AS-EXPECTED"


def test_failed_support_check_is_fail(monkeypatch):
    monkeypatch.setattr(experiments, "supported_in", lambda f, bound: False)
    rep = run_experiment(ExperimentConfig(experiment="smoothness", example="example1", k=1))
    assert rep.verdict == "FAIL"
    assert not rep.extras["all_support_ok"]


_SHORT_RERUNS = (
    ["taylor-failure", "--example", "example1", "--steps", "8"],
    ["identity-failure", "--example", "example2", "--steps", "8", "--k", "3"],
)


@pytest.mark.parametrize("argv", _SHORT_RERUNS)
def test_unsettled_reruns_are_inconclusive(capsys, argv):
    # every claim holds, but some smoothness rerun is INCONCLUSIVE at 8 steps
    assert main(argv) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "INCONCLUSIVE"
    ex = rep["extras"]
    side = ex["derivative_side"] if "derivative_side" in ex else ex["smoothness_side"]
    assert {s["verdict"] for s in side} <= {"PASS", "INCONCLUSIVE"}
    assert any(s["verdict"] == "INCONCLUSIVE" for s in side)
    assert ex.get("derivatives_ok", True) and ex.get("smooth_ok", True)
    reruns = [row for row in rep["steps"] if row.get("kind") == "derivative-trace"]
    assert len(reruns) == len(side) and all(row["support_ok"] for row in reruns)


@pytest.mark.parametrize("argv", _SHORT_RERUNS)
def test_failed_rerun_support_check_is_fail(monkeypatch, capsys, argv):
    monkeypatch.setattr(experiments, "supported_in", lambda f, bound: False)
    assert main(argv) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "FAIL"
    ex = rep["extras"]
    side = ex["derivative_side"] if "derivative_side" in ex else ex["smoothness_side"]
    assert all(s["verdict"] == "FAIL" for s in side)
    assert not (ex.get("derivatives_ok", True) and ex.get("smooth_ok", True))


def test_verify_all_passes_a_field_only_to_the_runs_that_read_it(tmp_path, capsys):
    reports = dict(verify_all(seed=0, steps=30, **_FAST_MC))
    assert reports["measure-identities"].config["steps"] == 40
    assert reports["smoothness_example1"].config["steps"] == 30
    assert reports["c1-not-c2_example3"].config["steps"] == 30
    # grid_points is no command-line field: it reaches every run
    assert {rep.config["grid_points"] for rep in reports.values()} == {2_000}
    main(["all", "--seed", "0", "--steps", "30", "--outdir", str(tmp_path)])
    capsys.readouterr()
    for path, steps in (("00_measure-identities", 40), ("01_smoothness_example1", 30)):
        report = json.loads((tmp_path / f"{path}.json").read_text(encoding="utf-8"))
        assert report["config"]["steps"] == steps


@pytest.mark.parametrize("broken", ["identity", "dominance"])
def test_failed_blowup_claim_is_fail(monkeypatch, broken):
    if broken == "identity":
        nu = experiments.nu_mass
        monkeypatch.setattr(experiments, "nu_mass", lambda iv: 2.0 * nu(iv))
    else:
        monkeypatch.setattr(experiments, "BLOWUP_C", 1e9)
    rep = run_experiment(ExperimentConfig(experiment="c1-not-c2", example="example3", seed=3))
    assert rep.verdict == "FAIL"
    assert rep.extras["phase_a_ok"]
    assert rep.extras["phase_b_identity_ok"] == (broken != "identity")
    assert rep.extras["phase_b_dominance_ok"] == (broken != "dominance")


def test_real_restriction_quadrant():
    rep = exp_real_restriction(
        ExperimentConfig(experiment="real-restriction", example="example1", k=2, seed=6)
    )
    assert rep.verdict == "PASS"
    assert rep.extras["real_axis"] is True
    assert rep.extras["real_injectivity_ok"] is True
    # all nodes really are real
    for row in rep.steps:
        assert all(im == 0.0 for _, im in row["nodes"])


def test_real_restriction_halfplane():
    rep = exp_real_restriction(
        ExperimentConfig(experiment="real-restriction", example="example3", seed=6)
    )
    assert rep.verdict == "DIVERGENT-AS-EXPECTED"
    assert rep.extras["real_axis"] is True


def test_real_restriction_short_schedule_rejected():
    with pytest.raises(ConfigError):
        exp_real_restriction(
            ExperimentConfig(experiment="real-restriction", example="example1", steps=1)
        )


def test_measure_identities_fast():
    rep = exp_measure_identities(
        ExperimentConfig(experiment="measure-identities", seed=8, **_FAST_MC)
    )
    assert rep.verdict == "PASS"
    assert rep.extras["radial_identity_max_err"] <= 1e-12
    assert rep.extras["strip_identity_max_err"] <= 1e-12
    assert rep.extras["radial_cap_violations"] == 0
    assert rep.extras["strip_cap_violations"] == 0
    assert rep.extras["density_ok"]
    assert len(rep.steps) == 10
    assert all(r["support_ok"] for r in rep.steps)


def test_monte_carlo_bound_is_binomial():
    # z follows from the chance that a run of a correct engine FAILs: the
    # ten checks' two-sided normal tails add up to it
    tails = 2 * experiments._MC_CHECKS * (1.0 - NormalDist().cdf(experiments._MC_Z))
    assert math.isclose(tails, experiments._MC_FALSE_FAIL, rel_tol=1e-6)
    # this seed's estimate of the 0.301-mass ring lies 3.87 binomial standard
    # deviations off, past the old relative bound of 5e-3 (3.29 there)
    cfg = ExperimentConfig(experiment="measure-identities", seed=3350, **_FAST_MC)
    rep = exp_measure_identities(cfg)
    assert rep.verdict == "PASS" and rep.extras["mc_ok"]
    (row,) = [row for row in rep.steps if row["label"] == "annulus(0.3,0.7)"]
    assert abs(row["gauge"] - row["bound"]) > 5e-3 * row["bound"]


def _bits(x):
    # repr tells floats apart bit for bit (and -0.0 from 0.0), and the int 0 from 0.0
    return type(x), repr(x)


@pytest.mark.parametrize("grid_points", [1, 2, 100, 10_000])
@pytest.mark.parametrize("seed", [0, 8, 2003])
def test_measure_identities_sweeps_match_the_region_path(seed, grid_points):
    # grid_points = 1 sweeps only the forced empty ring (0, 0) and one strip;
    # the Monte-Carlo half sets none of these fields, so few samples will do
    cfg = ExperimentConfig(
        experiment="measure-identities", seed=seed, grid_points=grid_points, mc_samples=1_000
    )
    extras = exp_measure_identities(cfg).extras
    ref = reference_identity_sweeps(cfg)
    assert {k: _bits(extras[k]) for k in ref} == {k: _bits(v) for k, v in ref.items()}


def _ordered_pairs(ends):
    return st.one_of(ends.map(lambda x: (x, x)), st.tuples(ends, ends).map(sorted))


_EDGE_ENDS = [0.0, -0.0, 5e-324, 1.0, 3.0, 1e154, 1e308, math.inf]
_RADII = st.floats(min_value=0.0) | st.sampled_from(_EDGE_ENDS)
_SIDE_ENDS = st.floats(allow_nan=False) | st.sampled_from(_EDGE_ENDS + [-x for x in _EDGE_ENDS])


@given(_ordered_pairs(_RADII), _ordered_pairs(_SIDE_ENDS))
@settings(max_examples=300)
def test_sweep_closed_forms_are_one_piece_masses(ring, strip):
    # what `exp_measure_identities` reads in place of building each region
    cases = [
        (ring, _ring(*ring), mu_radial(annulus(*ring))),
        (strip, _nu(*strip) * _nu(NEG_INF, POS_INF), mu_grid(rect(*strip, NEG_INF, POS_INF))),
    ]
    for (lo, hi), closed, of_region in cases:
        if lo == hi:  # an empty piece: the region has no pieces, and its mass is the int 0
            assert closed == 0 and of_region == 0
        else:
            assert _bits(closed) == _bits(of_region)


def test_measure_identities_builds_only_its_monte_carlo_regions(monkeypatch):
    built = []
    canonical_region = measure._canonical_region

    def counted(cls, ends):
        built.append(cls)
        return canonical_region(cls, ends)

    monkeypatch.setattr(measure, "_canonical_region", counted)
    cfg = ExperimentConfig(experiment="measure-identities", seed=8, mc_samples=1_000)
    exp_measure_identities(cfg)
    assert len(built) == 10


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_json_and_csv_shapes(tmp_path):
    cfg = ExperimentConfig(
        experiment="smoothness", example="example1", k=1, seed=2, center=0.5 + 0.5j
    )
    rep = exp_smoothness(cfg)
    d = rep.to_json_dict()
    assert {"config", "steps", "verdict", "constants", "extras", "wall_time"} == set(d)
    assert {"c", "exponent", "prefactor"} == set(d["constants"])
    assert d["config"]["experiment"] == "smoothness"
    csv = rep.to_csv_str()
    lines = csv.strip().splitlines()
    assert lines[0] == "step,gauge,bound,support_ok"
    assert len(lines) == 1 + len(rep.steps)
    path = tmp_path / "r.json"
    rep.write(str(path))
    assert json.loads(path.read_text())["verdict"] == "PASS"


def test_same_seed_reports_identical():
    cfg = ExperimentConfig(experiment="smoothness", example="example2", k=2, seed=31)
    a = _strip_timing(exp_smoothness(cfg).to_json_dict())
    b = _strip_timing(exp_smoothness(cfg).to_json_dict())
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_different_seed_changes_centers():
    r1 = exp_smoothness(ExperimentConfig(experiment="smoothness", example="example1", seed=1))
    r2 = exp_smoothness(ExperimentConfig(experiment="smoothness", example="example1", seed=2))
    assert r1.extras["center"] != r2.extras["center"]


def test_verify_all_verdicts_fast():
    reports = verify_all(seed=11, **_FAST_MC)
    names = [n for n, _ in reports]
    assert names == [
        "measure-identities",
        "smoothness_example1",
        "smoothness_example2",
        "taylor-failure_example1",
        "identity-failure_example2",
        "c1-not-c2_example3",
        "real-restriction_example1",
        "real-restriction_example3",
    ]
    for name, rep in reports:
        assert rep.ok, f"{name}: {rep.verdict}"


def _verdict_of(flags: dict, settled: bool, success: str) -> str:
    if not all(flags.values()):
        return "FAIL"
    return success if settled else "INCONCLUSIVE"


def _held(rows) -> bool:
    return all(row["support_ok"] for row in rows)


def _reruns_settled(rows, summaries) -> bool:
    """Check that a smoothness rerun's row holds unless it FAILed; True if every one PASSed."""
    verdicts = [s["verdict"] for s in summaries]
    assert [row["support_ok"] for row in rows] == [v != "FAIL" for v in verdicts]
    return all(v == "PASS" for v in verdicts)


def _expected_verdict(rep) -> str:
    """Check each extras flag against its rows; return the verdict the flags give."""
    ex, rows = rep.extras, rep.steps
    tol, ceiling = rep.config["convergence_tol"], rep.config["divergence_ceiling"]
    if "all_support_ok" in ex:  # smoothness, and real-restriction of example1
        trace = [row["gauge"] for row in rows]
        assert ex["all_support_ok"] == _held(rows)
        assert ex["converged"] == (classify_trace(trace, tol, ceiling) == "CONVERGED-TO-ZERO")
        flags = {"support": ex["all_support_ok"], "injective": ex.get("real_injectivity_ok", True)}
        return _verdict_of(flags, ex["converged"], "PASS")
    if "witnesses_ok" in ex:  # taylor-failure
        derivatives = [row for row in rows if row.get("kind") == "derivative-trace"]
        assert ex["witnesses_ok"] == _held(row for row in rows if "kind" not in row)
        assert ex["derivatives_ok"] == _held(derivatives)
        assert len(derivatives) == 4 * len(ex["centers"])
        settled = _reruns_settled(derivatives, ex["derivative_side"])
        flags = {k: ex[k] for k in ("witnesses_ok", "derivatives_ok")}
        return _verdict_of(flags, settled, "PASS")
    if "zero_outside" in ex:  # identity-failure
        samples = [row for row in rows if "kind" not in row]
        outside = [row for row in samples if abs(complex(*row["nodes"][0])) >= 1.0]
        assert len(outside) == 100 and len(samples) == 200
        assert ex["zero_outside"] == _held(outside)
        assert ex["nonzero_inside"] == _held(row for row in samples if row not in outside)
        assert ex["smooth_ok"] == _held(row for row in rows if "kind" in row)
        settled = _reruns_settled([row for row in rows if "kind" in row], ex["smoothness_side"])
        flags = {k: ex[k] for k in ("zero_outside", "nonzero_inside", "smooth_ok")}
        return _verdict_of(flags, settled, "PASS")
    if "phase_a_ok" in ex:  # c1-not-c2, and real-restriction of example3
        phase_b = [row for row in rows if row["phase"] == "B"]
        trace = [row["gauge"] for row in phase_b]
        assert ex["phase_a_ok"] == _held(row for row in rows if row["phase"] == "A")
        assert _held(phase_b) == (ex["phase_b_identity_ok"] and ex["phase_b_dominance_ok"])
        assert ex["ceiling_crossed"] == (classify_trace(trace, tol, ceiling) == "DIVERGENT")
        assert ex["final_gauge"] == trace[-1]
        flags = {k: ex[k] for k in ("phase_a_ok", "phase_b_identity_ok", "phase_b_dominance_ok")}
        settled = ex["slope_ok"] and ex["ceiling_crossed"]
        return _verdict_of(flags, settled, "DIVERGENT-AS-EXPECTED")
    # measure-identities
    assert ex["mc_ok"] == _held(rows) and len(rows) == 10
    identities = max(ex["radial_identity_max_err"], ex["strip_identity_max_err"]) <= 1e-12
    caps = ex["radial_cap_violations"] == ex["strip_cap_violations"] == 0
    flags = {"identities": identities, "caps": caps, "density": ex["density_ok"], "mc": ex["mc_ok"]}
    return _verdict_of(flags, True, "PASS")


@pytest.mark.parametrize("seed", [0, 22, 42])
def test_verdicts_are_folds_of_rows_and_extras(seed):
    # every extras flag is the conjunction of its group of rows, and the
    # verdict is FAIL on a violated flag, else success once settled
    for name, rep in verify_all(seed=seed):
        assert rep.verdict == _expected_verdict(rep), name


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_single_experiment(tmp_path):
    out = tmp_path / "rep.json"
    code = main(
        [
            "smoothness",
            "--example",
            "example1",
            "--k",
            "2",
            "--seed",
            "7",
            "--center",
            "0.3,0.7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "PASS"
    assert data["config"]["center"] == [0.3, 0.7]


def test_cli_requires_example(capsys):
    assert main(["smoothness"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["smoothness", "--example", "example1", "--rho", "1.5"],
        ["identity-failure", "--example", "example1"],
        ["all", "--steps", "3"],
        ["real-restriction", "--example", "example1", "--steps", "3"],
        # step 53 puts two nodes of the seed-42 center on one float
        ["smoothness", "--example", "example1", "--steps", "80"],
        ["smoothness", "--example", "example1", "--tol", "1e7"],
        # t**2 = rho**(2 * steps) is subnormal
        ["c1-not-c2", "--example", "example3", "--steps", "512"],
        ["c1-not-c2", "--example", "example3", "--steps", "540"],
        ["real-restriction", "--example", "example3", "--steps", "520"],
        ["c1-not-c2", "--example", "example3", "--rho", "0.3", "--steps", "295"],
        ["c1-not-c2", "--example", "example3", "--rho", "0.9", "--steps", "3362"],
        ["smoothness", "--example", "example1", "--center", "abc"],
        ["smoothness", "--example", "example1", "--center", "1,2,3"],
        ["smoothness", "--example", "example1", "--center", "1,x"],
        # numpy's default_rng rejects a negative seed with a ValueError
        ["smoothness", "--example", "example1", "--seed", "-1"],
        ["all", "--seed", "-1"],
        # NaN fails no `<=` comparison, so these used to run and exit 1
        ["c1-not-c2", "--example", "example3", "--ceiling", "nan"],
        ["smoothness", "--example", "example1", "--tol", "nan"],
        # `all` runs the default suite: it used to drop these options and exit 0
        ["all", "--tol", "nan", "--k", "40"],
        ["all", "--k", "5"],
        ["all", "--p", "0.6"],
        ["all", "--rho", "0.6"],
        ["all", "--ceiling", "1e5"],
        ["all", "--center", "0.3,0.7"],
        ["all", "--example", "example1"],
        ["all", "--out", "report.json"],
        # every report's config holds p, and NaN is not JSON
        ["smoothness", "--example", "example1", "--p", "nan"],
        # a single report goes to stdout or --out: it used to drop --outdir
        ["smoothness", "--example", "example1", "--outdir", "reports"],
        # `measure-identities` reads only --seed: it used to drop these and exit 0
        ["measure-identities", "--example", "example1", "--k", "99"],
        ["measure-identities", "--example", "example1"],
        ["measure-identities", "--k", "2"],
        ["measure-identities", "--p", "nan"],
        ["measure-identities", "--rho", "0.5"],
        ["measure-identities", "--steps", "3"],
        ["measure-identities", "--tol", "1e-6"],
        ["measure-identities", "--ceiling", "1e6"],
        ["measure-identities", "--center", "0.3,0.7"],
        # the blow-up experiment reads neither --k nor --center: it used to drop them and exit 0
        ["c1-not-c2", "--example", "example3", "--k", "5"],
        ["c1-not-c2", "--example", "example3", "--center", "0.3,0.7"],
        ["real-restriction", "--example", "example3", "--k", "2"],
        ["real-restriction", "--example", "example3", "--center", "0.3,0.7"],
        # taylor-failure traces orders 1-4 and identity-failure draws its
        # centers: each used to drop one of these, write it into `config`
        # and exit 0
        ["taylor-failure", "--example", "example1", "--k", "3"],
        ["taylor-failure", "--example", "example1", "--k", "3", "--center", "0.3,0.7"],
        ["identity-failure", "--example", "example2", "--center", "0.3,0.7"],
        ["identity-failure", "--example", "example2", "--k", "2", "--center", "0.3,0.7"],
    ],
)
def test_cli_config_error_exits_2(argv, tmp_path, capsys):
    outdir = ["--outdir", str(tmp_path)] if argv[0] == "all" else []
    assert main([*argv, *outdir]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, unread",
    [
        (["taylor-failure", "--example", "example1", "--k", "2"], "--k"),
        (["identity-failure", "--example", "example2", "--center", "0.3,0.7"], "--center"),
    ],
)
def test_cli_names_the_option_an_experiment_does_not_read(argv, unread, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"verify: `{argv[0]}` ")
    assert err.rstrip().endswith(f"it takes no {unread}")


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["taylor-failure", "--example", "example1", "--center", "0.3,0.7"], "center", [0.3, 0.7]),
        (["identity-failure", "--example", "example2", "--k", "2"], "k", 2),
    ],
)
def test_cli_keeps_the_options_an_experiment_reads(argv, key, value, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"][key] == value


_PAIRS = [(name, example) for name, examples in experiments.RUNS.items() for example in examples]

# for each option that sets a config field: a value other than the field's
# default that every run reading it accepts, as typed and as the field holds it
_OPTION_VALUES = {
    "k": ("2", 2),
    "p": ("0.6", 0.6),
    "rho": ("0.6", 0.6),
    "steps": ("30", 30),
    "tol": ("1e-5", 1e-5),
    "ceiling": ("1e5", 1e5),
    "center": ("0.3,0.7", 0.3 + 0.7j),
}
_OTHER_VALUES = {cli._FIELDS[option]: value for option, (_, value) in _OPTION_VALUES.items()}


@pytest.mark.parametrize("option", list(_OPTION_VALUES))
@pytest.mark.parametrize("experiment, example", _PAIRS)
def test_cli_rejects_exactly_the_options_a_run_does_not_read(experiment, example, option, capsys):
    text, value = _OPTION_VALUES[option]
    field = cli._FIELDS[option]
    argv = [experiment, *(["--example", example] if example else []), f"--{option}", text]
    code = main(argv)
    captured = capsys.readouterr()
    if field in experiments.run_for(experiment, example).reads:
        assert code in (0, 1)
        given = ExperimentConfig(experiment, example, **{field: value}).to_json_dict()[field]
        assert json.loads(captured.out)["config"][field] == given
    else:
        assert code == 2 and captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.rstrip().endswith(f"it takes no --{option}")


@pytest.mark.parametrize("experiment, example", _PAIRS)
def test_a_run_reads_no_field_it_does_not_declare(experiment, example):
    reads = experiments.run_for(experiment, example).reads
    assert reads <= set(_OTHER_VALUES)

    def report(**fields):
        cfg = ExperimentConfig(experiment, example, seed=5, grid_points=200, **fields)
        d = run_experiment(cfg).to_json_dict()
        del d["config"], d["wall_time"]
        return d

    default = report()
    for field, value in _OTHER_VALUES.items():
        if field not in reads:
            assert value != getattr(ExperimentConfig(experiment), field)
            assert report(**{field: value}) == default, field


def _listed_reads(text: str) -> dict:
    """The `<experiment> [<example> ...]: <options>` lines of `text`, as the options they list."""
    listed = {}
    for line in text.splitlines():
        head, colon, tail = line.partition(":")
        words = head.split()
        if colon and words and words[0] in experiments.EXPERIMENTS:
            options = {word for word in tail.split() if word.startswith("--")}
            listed.update({(words[0], example): options for example in words[1:] or [None]})
    return listed


@pytest.mark.parametrize(
    "text",
    [cli.__doc__, (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")],
    ids=["cli-docstring", "README"],
)
def test_the_docs_list_the_options_each_run_reads(text):
    assert _listed_reads(text) == {
        (experiment, example): {
            f"--{option}"
            for option, field in cli._FIELDS.items()
            if field in experiments.run_for(experiment, example).reads
        }
        for experiment, example in _PAIRS
    }


def test_cli_measure_identities_takes_a_seed(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["measure-identities", "--seed", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 3


def test_cli_derivative_order_past_the_float_range_exits_2(capsys):
    # used to end in OverflowError from abs() inside the divided difference
    argv = ["smoothness", "--example", "example1", "--k", "28", "--center", "0.3,0.7"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verify: step 37 of 40: the barycentric weight ")


def test_cli_smoothness_on_the_float_grid_exits_2(capsys):
    # by step 53 the offsets vanish in the centre's real part, and the
    # example1 values no longer differ; this run used to PASS
    argv = ["smoothness", "--example", "example1", "--k", "2", "--steps", "60", "--center", "1.5,0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verify: step 53 of 60 puts every node's real part on the same float at center "
        "(1.5+0j); use fewer steps, a larger rho or a center nearer 0\n"
    )


def test_cli_smoothness_stops_building_steps_at_the_float_grid(monkeypatch, capsys):
    # the check builds one step at a time and stops at the first fault;
    # no curve is evaluated, however many steps were asked for
    built = []
    tuple_at = ShrinkSchedule.tuple_at
    monkeypatch.setattr(
        ShrinkSchedule, "tuple_at", lambda self, *args: built.append(args) or tuple_at(self, *args)
    )
    evaluated = []
    curve = experiments.curve_for("example1")
    watched = CurveMap(curve.family, lambda z: evaluated.append(z) or curve(z))
    monkeypatch.setattr(experiments, "curve_for", lambda ex: watched)
    assert main(["smoothness", "--example", "example1", "--steps", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("verify: step 53 of 100000 puts two nodes on the same float ")
    assert 0 < len(built) <= 53 and evaluated == []


def test_cli_center_with_a_negative_real_part(tmp_path, capsys):
    # argparse reads a separate `-0.5,0.3` as an option; `--center=` passes it
    with pytest.raises(SystemExit) as exc:
        main(["smoothness", "--example", "example1", "--center", "-0.5,0.3"])
    assert exc.value.code == 2
    assert "--center: expected one argument" in capsys.readouterr().err
    out = tmp_path / "rep.json"
    assert main(["smoothness", "--example", "example1", "--center=-0.5,0.3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["center"] == [-0.5, 0.3]


def test_cli_unwritable_output_exits_2(tmp_path, capsys, monkeypatch):
    # each used to end in a traceback (FileNotFoundError after the whole
    # run, NotADirectoryError) with exit code 1, the code of a failed claim;
    # a single experiment's --out is checked before the experiment runs
    def no_run(cfg):
        raise AssertionError("the experiment ran before --out was checked")

    monkeypatch.setattr("gaussdiff.cli.run_experiment", no_run)
    for out, why in (
        (tmp_path / "missing" / "x.json", "No such file or directory"),
        (tmp_path, "Is a directory"),
    ):
        assert main(["smoothness", "--example", "example1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"verify: cannot write {out}: {why}\n"
    # a write that fails after the run (the check cannot see permissions)
    class Unwritable:
        def write(self, path, fmt):
            raise PermissionError(errno.EACCES, "Permission denied", path)

    out = tmp_path / "x.json"
    monkeypatch.setattr("gaussdiff.cli.run_experiment", lambda cfg: Unwritable())
    assert main(["smoothness", "--example", "example1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verify: cannot write {out}: Permission denied\n"
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["all", "--outdir", str(blocker / "sub")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verify: cannot write {blocker / 'sub'}: Not a directory\n"


def _option(name, values):
    return st.one_of(st.none(), st.sampled_from(values).map(lambda v: f"--{name}={v}"))


_FLOAT_EDGES = ["nan", "inf", "-inf", "0", "-0.0", "-1", "5e-324", "1e308"]
_PARTS = ["-0.0", "0.0", "0.3", "-0.5", "2.5", "1e300", "nan", "inf", "-inf"]
_CLI_ARGV = st.tuples(
    st.sampled_from(
        ["smoothness", "taylor-failure", "identity-failure", "c1-not-c2", "real-restriction"]
    ),
    st.sampled_from(["example1", "example2", "example3"]),
    _option("k", [-1, 0, 1, 2, 3, 5, 28, 40]),
    _option("p", _FLOAT_EDGES + ["0.6", "0.75"]),
    _option("rho", _FLOAT_EDGES + ["0.3", "0.5", "0.9"]),
    _option("steps", [-1, 0, 3, 8, 10, 16]),
    _option("seed", [-(2**63), -1, 0, 7, 2**64]),
    _option("tol", _FLOAT_EDGES + ["1e-6", "1e7"]),
    _option("ceiling", _FLOAT_EDGES + ["1e6"]),
    _option("center", [f"{a},{b}" for a in _PARTS for b in _PARTS] + ["abc", "1,2,3"]),
).map(lambda t: [t[0], "--example", t[1], *filter(None, t[2:])])


@given(_CLI_ARGV)
@settings(max_examples=150, deadline=None)
def test_cli_never_tracebacks(argv):
    # every run ends in an exit code; only argparse may exit (with 2) by itself
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2), argv


def test_cli_csv_format(tmp_path):
    out = tmp_path / "rep.csv"
    code = main(
        [
            "smoothness",
            "--example",
            "example2",
            "--seed",
            "7",
            "--out",
            str(out),
            "--format",
            "csv",
        ]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "step,gauge,bound,support_ok"


def test_cli_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GAUSSDIFF_OUT_DIR", str(tmp_path / "envdir"))
    cfg = ExperimentConfig(
        experiment="smoothness", example="example1", k=1, seed=3, center=0.1 + 0.1j
    )
    # single runs print to stdout when --out is missing
    code = main(["smoothness", "--example", "example1", "--seed", "3", "--center", "0.1,0.1"])
    assert code == 0
    assert '"verdict": "PASS"' in capsys.readouterr().out
    assert not os.path.exists(tmp_path / "envdir")  # env dir is for `all` only


@pytest.mark.parametrize("seed", [22, 102, 111])
def test_identity_failure_samples_lie_on_their_side(seed):
    # at these seeds r * (cos a + i sin a) with r = 1 rounds to |z| < 1
    rep = exp_identity_theorem_failure(
        ExperimentConfig(experiment="identity-failure", example="example2", k=2, seed=seed)
    )
    assert rep.verdict == "PASS"
    outside, inside = rep.steps[:100], rep.steps[100:200]
    assert all(abs(complex(*row["nodes"][0])) >= 1.0 for row in outside)
    assert all(abs(complex(*row["nodes"][0])) < 1.0 for row in inside)
