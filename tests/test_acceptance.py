"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance here is pinned; the closed forms were cross-checked against
quadrature and Monte-Carlo oracles before the expected literals were frozen.
"""

import json
import math

import numpy as np
import pytest

from gaussdiff import (
    BLOWUP_C,
    ExperimentConfig,
    annulus,
    coefficient_distance,
    curve_for,
    divided_diff,
    divided_diff_lagrange,
    exp_c1_not_c2,
    exp_identity_theorem_failure,
    exp_measure_identities,
    exp_real_restriction,
    exp_smoothness,
    exp_taylor_failure,
    lower_left_quadrant,
    mu_grid,
    mu_radial,
    nu_mass,
    rect,
    region_measure,
    region_symdiff,
    scalar_curve,
    Interval,
)
from gaussdiff.cli import main

from oracles import random_nodes, symmetry_check

INF = float("inf")
SEED = 42


def _verdict_line(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")


# ---------------------------------------------------------------------------
# 1. measure identities with oracle agreement
# ---------------------------------------------------------------------------


def test_criterion_1_measure_identities():
    rep = exp_measure_identities(
        ExperimentConfig(experiment="measure-identities", seed=SEED)
    )
    identities_ok = (
        rep.extras["radial_identity_max_err"] <= 1e-12
        and rep.extras["strip_identity_max_err"] <= 1e-12
        and rep.extras["radial_cap_violations"] == 0
        and rep.extras["strip_cap_violations"] == 0
    )
    mc_ok = all(r["support_ok"] for r in rep.steps)
    # independent re-derivation of both identities on a deterministic grid
    direct_ok = True
    for r in np.linspace(0.0, 2.5, 26):
        for R in np.linspace(r, 2.5, 11):
            direct_ok &= (
                abs(mu_radial(annulus(r, R)) - (math.exp(-r * r) - math.exp(-R * R)))
                <= 1e-12
            )
    for a in np.linspace(-2.5, 2.5, 26):
        for b in np.linspace(a, 2.5, 11):
            direct_ok &= (
                abs(mu_grid(rect(a, b, -INF, INF)) - nu_mass(Interval(a, b))) <= 1e-12
            )
    ok = rep.verdict == "PASS" and identities_ok and mc_ok and bool(direct_ok)
    _verdict_line(
        1,
        ok,
        f"identities to 1e-12 on {rep.extras['grid_pairs']}-pair grids, "
        f"10^6-sample MC agrees to 3 significant digits on {len(rep.steps)} regions",
    )
    assert ok


# ---------------------------------------------------------------------------
# 2. symmetric-difference Lipschitz bound
# ---------------------------------------------------------------------------


def test_criterion_2_symdiff_lipschitz():
    rng = np.random.default_rng(SEED)
    violations = 0
    for _ in range(10_000):
        z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        gap = region_measure(
            region_symdiff(
                lower_left_quadrant(z1.real, z1.imag),
                lower_left_quadrant(z2.real, z2.imag),
            )
        )
        if gap > 2.0 * abs(z2 - z1):
            violations += 1
    ok = violations == 0
    _verdict_line(2, ok, f"mu(symdiff) <= 2|dz| on 10^4 random pairs, {violations} violations")
    assert ok


# ---------------------------------------------------------------------------
# 3. smoothness by vanishing difference quotients with exact support bounds
# ---------------------------------------------------------------------------


def test_criterion_3_smoothness_with_support_bounds():
    rng = np.random.default_rng(SEED)
    failures = []
    for example in ("example1", "example2"):
        centers = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(5)]
        for k in range(1, 5):
            for center in centers:
                rep = exp_smoothness(
                    ExperimentConfig(
                        experiment="smoothness",
                        example=example,
                        k=k,
                        seed=SEED,
                        center=center,
                    )
                )
                final = rep.extras["final_gauge"]
                if rep.verdict != "PASS" or final > 1e-6:
                    failures.append((example, k, center, rep.verdict, final))
                if not all(r["support_ok"] for r in rep.steps):
                    failures.append((example, k, center, "support", None))
                # gauge dominated by the support-region mass, step by step
                if not all(r["gauge"] <= r["bound"] <= r["cap"] for r in rep.steps):
                    failures.append((example, k, center, "dominance", None))
    ok = not failures
    _verdict_line(
        3,
        ok,
        "40 runs (2 examples x k=1..4 x 5 centers), 40-step rho=1/2 schedules: "
        f"all gauges end below 1e-6 with exact support bounds; failures={failures[:3]}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 4. Taylor failure and identity-theorem failure evidence
# ---------------------------------------------------------------------------


def test_criterion_4_taylor_and_identity_failure():
    taylor = exp_taylor_failure(
        ExperimentConfig(experiment="taylor-failure", example="example1", seed=SEED)
    )
    witnesses_ok = taylor.extras["witnesses_ok"]
    radii = sorted({r["bound"] / 2.0 for r in taylor.steps})
    radii_ok = min(radii) <= 1e-8
    derivatives_ok = taylor.extras["derivatives_ok"]

    ident = exp_identity_theorem_failure(
        ExperimentConfig(experiment="identity-failure", example="example2", k=2, seed=SEED)
    )
    grids_ok = ident.extras["zero_outside"] and ident.extras["nonzero_inside"]

    ok = (
        taylor.verdict == "PASS"
        and ident.verdict == "PASS"
        and witnesses_ok
        and radii_ok
        and derivatives_ok
        and grids_ok
    )
    _verdict_line(
        4,
        ok,
        "non-constancy witnessed down to radius 1e-8 with vanishing derivative "
        "traces; annulus curve zero on 100 outer points, nonzero on 100 inner",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. C1-but-not-C2 quantitative reproduction
# ---------------------------------------------------------------------------

# gauge of the order-2 quotient at t = 1/4, p = 3/4: (1/(2t^2))^p nu(]0, 2t])
_BLOWUP_AT_QUARTER = 1.2379643161066438  # == 8**0.75 * erf(0.5) / 2, oracle-checked


@pytest.mark.parametrize("p,slope", [(0.75, -0.5), (0.6, -0.2), (0.9, -0.8)])
def test_criterion_5_c1_not_c2(p, slope):
    rep = exp_c1_not_c2(
        ExperimentConfig(experiment="c1-not-c2", example="example3", p=p, seed=SEED)
    )
    rows_a = [r for r in rep.steps if r.get("phase") == "A"]
    rows_b = [r for r in rep.steps if r.get("phase") == "B"]
    phase_a_ok = bool(rows_a) and all(r["gauge"] <= r["bound"] for r in rows_a)
    dominance_ok = all(r["gauge"] >= r["bound"] for r in rows_b)
    identity_ok = all(
        abs(r["gauge"] - r["closed_form"]) <= 1e-10 * r["closed_form"] for r in rows_b
    )
    fitted = rep.extras["slope"]
    slope_ok = abs(fitted - slope) <= 0.05

    quarter_ok = True
    if p == 0.75:
        row = next(r for r in rows_b if r["t"] == 0.25)
        quarter_ok = abs(row["gauge"] - _BLOWUP_AT_QUARTER) <= 1e-10 * _BLOWUP_AT_QUARTER
        lower = 2.0**0.25 * 0.25**-0.5 * BLOWUP_C
        quarter_ok = quarter_ok and row["gauge"] >= lower

    ok = (
        rep.verdict == "DIVERGENT-AS-EXPECTED"
        and phase_a_ok
        and dominance_ok
        and identity_ok
        and slope_ok
        and quarter_ok
    )
    _verdict_line(
        5,
        ok,
        f"p={p}: phase A dominated by |dz|^(1-p), phase B matches closed form to "
        f"1e-10, dominates the power-law bound, slope {fitted:.4f} vs {slope}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. divided-difference engine properties
# ---------------------------------------------------------------------------


def test_criterion_6_divided_difference_engine():
    rng = np.random.default_rng(SEED)
    agreement_fail = 0
    symmetry_fail = 0
    for example in ("example1", "example2", "example3"):
        curve = curve_for(example)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            nodes = random_nodes(rng, k + 1)
            d1 = divided_diff(curve, nodes)
            d2 = divided_diff_lagrange(curve, nodes)
            if coefficient_distance(d1, d2) > 1e-9:
                agreement_fail += 1
        for _ in range(100):
            k = int(rng.integers(1, 5))
            nodes = random_nodes(rng, k + 1)
            perm = list(rng.permutation(k + 1))
            if not symmetry_check(curve, nodes, perm):
                symmetry_fail += 1

    poly_fail = 0
    for m in range(5):
        curve = scalar_curve(lambda z, m=m: z**m)
        exact = divided_diff(curve, random_nodes(rng, m + 1, min_sep=0.5))
        if len(exact.atoms) != 1 or abs(exact.atoms[0][0] - 1.0) > 1e-10:
            poly_fail += 1
        higher = divided_diff(curve, random_nodes(rng, m + 2, min_sep=0.5))
        if higher.max_coeff() > 1e-10:
            poly_fail += 1

    ok = agreement_fail == 0 and symmetry_fail == 0 and poly_fail == 0
    _verdict_line(
        6,
        ok,
        "recursion/barycentric agreement <= 1e-9 (100 tuples x 3 curves, k <= 5), "
        "permutation symmetry (100 pairs x 3 curves), polynomial exactness m <= 4",
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. real-axis restrictions
# ---------------------------------------------------------------------------


def test_criterion_7_real_restriction():
    rng = np.random.default_rng(SEED)
    failures = []
    centers = [complex(rng.uniform(-2, 2), 0.0) for _ in range(5)]
    for k in range(1, 5):
        for center in centers:
            rep = exp_real_restriction(
                ExperimentConfig(
                    experiment="real-restriction",
                    example="example1",
                    k=k,
                    seed=SEED,
                    center=center,
                )
            )
            if rep.verdict != "PASS" or rep.extras["final_gauge"] > 1e-6:
                failures.append(("example1", k, center, rep.verdict))
            if not all(r["support_ok"] for r in rep.steps):
                failures.append(("example1", k, center, "support"))

    for p, slope in ((0.75, -0.5), (0.6, -0.2), (0.9, -0.8)):
        rep = exp_real_restriction(
            ExperimentConfig(
                experiment="real-restriction", example="example3", p=p, seed=SEED
            )
        )
        if rep.verdict != "DIVERGENT-AS-EXPECTED":
            failures.append(("example3", p, rep.verdict))
        if abs(rep.extras["slope"] - slope) > 0.05:
            failures.append(("example3", p, "slope", rep.extras["slope"]))
        rows_b = [r for r in rep.steps if r.get("phase") == "B"]
        if not all(
            r["gauge"] >= r["bound"]
            and abs(r["gauge"] - r["closed_form"]) <= 1e-10 * r["closed_form"]
            for r in rows_b
        ):
            failures.append(("example3", p, "phaseB"))

    ok = not failures
    _verdict_line(
        7,
        ok,
        f"criteria 3 and 5 reproduced with all nodes real; failures={failures[:3]}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 8. determinism of the full suite
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        code = main(["all", "--seed", "42", "--outdir", str(d)])
        assert code == 0
    files1 = sorted(p.name for p in dirs[0].iterdir())
    files2 = sorted(p.name for p in dirs[1].iterdir())
    same = files1 == files2
    diffs = []
    for name in files1:
        d1 = json.loads((dirs[0] / name).read_text())
        d2 = json.loads((dirs[1] / name).read_text())
        d1.pop("wall_time", None)
        d2.pop("wall_time", None)
        if json.dumps(d1, sort_keys=True) != json.dumps(d2, sort_keys=True):
            same = False
            diffs.append(name)
    _verdict_line(
        8,
        same,
        f"`verify all --seed 42` twice: {len(files1)} reports identical modulo "
        f"timing fields; diffs={diffs}",
    )
    assert same
