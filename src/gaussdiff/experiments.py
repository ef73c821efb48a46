"""Experiment harness reproducing each curve's quantitative behaviour.

Every experiment takes an ExperimentConfig and returns an ExperimentReport
whose per-step rows carry the measured gauges, the analytic bounds they
must respect, and per-step verdicts; the final verdict is a pure function
of the rows and extras, so a report is self-contained evidence.  Identical
configs (same seed) produce identical reports up to the wall_time field.

Each `*_ok` flag in extras is the conjunction of its group of rows'
`support_ok`, except c1-not-c2's phase-B identity and dominance flags,
whose rows hold only their conjunction, and the facts no row holds
(measure-identities' sweeps and density check, real-restriction's
injectivity).  The verdict folds the flags: FAIL if any claim was
violated, else the experiment's success verdict once its evidence has
settled (a converged or divergent trace; for taylor-failure and
identity-failure, every smoothness rerun PASSed; at once for
measure-identities), else INCONCLUSIVE.  A smoothness rerun's row holds
unless the rerun FAILed, so an INCONCLUSIVE rerun leaves its experiment
INCONCLUSIVE, not FAIL.

Verdicts:

* PASS                  every per-step check held and traces converged;
* DIVERGENT-AS-EXPECTED the blow-up experiments ended in certified
                        divergence (that is their success state);
* INCONCLUSIVE          the schedule was too short to certify either way;
* FAIL                  a quantitative claim was violated.

The blow-up experiment tracks the order-2 divided difference over the
nodes (t, 0, 2t), which the recursion forms as
(1/t) * (dd1(t, 2t) - dd1(0, 2t)); its p-th-power gauge equals
(1/(2 t^2))**p * nu(]0, 2t]) exactly and is bounded below by
2**(1-p) * t**(1-2p) / (e sqrt(pi)); the fitted log2 slope of the trace
against log2 t must match the exponent 1 - 2p.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Callable, Optional, Sequence

import numpy as np

from .curves import DEFAULT_P, ExampleId, curve_for
from .divdiff import (
    CONVERGED_TO_ZERO,
    DIVERGENT,
    FloatRangeError,
    NodeTuple,
    ShrinkSchedule,
    _differences,
    _GridFault,
    _schedule_differences,
    classify_trace,
    node_bounds,
    support_bound_of,
)
from .measure import (
    GRID,
    NEG_INF,
    POS_INF,
    Interval,
    _nu,
    annulus,
    lower_left_quadrant,
    nu_mass,
    rect,
    region_measure,
    region_symdiff,
)
from .montecarlo import mc_plane_measures
from .simplefn import l0_gauge, lp_gauge, supported_in

__all__ = [
    "PASS",
    "FAIL",
    "DIVERGENT_AS_EXPECTED",
    "INCONCLUSIVE",
    "EXPERIMENTS",
    "BLOWUP_C",
    "BlowupConstants",
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "RUNS",
    "run_for",
    "exp_smoothness",
    "exp_taylor_failure",
    "exp_identity_theorem_failure",
    "exp_c1_not_c2",
    "exp_real_restriction",
    "exp_measure_identities",
    "run_experiment",
    "verify_all",
    "VERIFY_ALL_SUITE",
]

PASS = "PASS"
FAIL = "FAIL"
DIVERGENT_AS_EXPECTED = "DIVERGENT-AS-EXPECTED"
INCONCLUSIVE = "INCONCLUSIVE"

#: Density floor of the line Gaussian on [0, 1]: exp(-t*t)/sqrt(pi) >= 1/(e sqrt(pi)).
BLOWUP_C = 1.0 / (math.e * math.sqrt(math.pi))

_TAYLOR_RADII = tuple(10.0**-e for e in range(1, 9))
_MAX_DERIVATIVE_ORDER = 4

# Regions with Gaussian mass >= 0.3, where a 10**6-sample Monte-Carlo
# estimate resolves about three significant digits.
_MC_RADIAL_CHECKS = ((0.0, 1.0), (0.3, 0.7), (0.0, 0.7), (0.5, 2.0), (0.2, 1.5))
_MC_STRIP_CHECKS = ((-1.0, 1.0), (0.0, 1.0), (-0.5, 0.5), (-2.0, 0.0), (0.2, 1.3))
# The chance that a run of a correct engine FAILs the Monte-Carlo
# cross-check.  An estimate of mass m from N samples is a binomial hit
# fraction with standard deviation sqrt(m (1 - m) / N); a check passes
# within _MC_Z of those, two-sided, which by the union bound over the ten
# checks and the normal approximation of the hit count gives that chance.
_MC_FALSE_FAIL = 1e-6
_MC_CHECKS = len(_MC_RADIAL_CHECKS) + len(_MC_STRIP_CHECKS)
_MC_Z = NormalDist().inv_cdf(1.0 - _MC_FALSE_FAIL / (2 * _MC_CHECKS))


@dataclass(frozen=True)
class BlowupConstants:
    """Constants of the blow-up lower bound 2**(1-p) * t**(1-2p) * c."""

    c: float
    exponent: float
    prefactor: float

    @classmethod
    def for_p(cls, p: float) -> "BlowupConstants":
        return cls(c=BLOWUP_C, exponent=1.0 - 2.0 * p, prefactor=2.0 ** (1.0 - p))


class ConfigError(ValueError):
    """An experiment configuration violates its invariants."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    example: Optional[str] = None
    seed: int = 42
    k: int = 1
    p: float = DEFAULT_P
    rho: float = 0.5
    steps: Optional[int] = None
    center: Optional[complex] = None
    box: float = 2.0
    convergence_tol: float = 1e-6
    divergence_ceiling: float = 1e6
    zero_tol: float = 1e-9
    mc_samples: int = 1_000_000
    grid_points: int = 10_000

    def __post_init__(self) -> None:
        # `RUNS` keys each example by its name
        if isinstance(self.example, ExampleId):
            object.__setattr__(self, "example", self.example.value)

    def resolved_steps(self) -> int:
        return run_for(self.experiment, self.example).steps if self.steps is None else self.steps

    def validate(self, runner: Optional[Callable] = None) -> "Run":
        """This config's `RUNS` entry; ConfigError if the config is invalid or not `runner`'s."""
        run = run_for(self.experiment, self.example)
        if runner not in (None, run.runner):
            raise ConfigError(f"{runner.__name__} does not run {self.experiment}")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"shrink ratio rho={self.rho} outside ]0, 1[")
        if self.resolved_steps() < 8:
            raise ConfigError("at least 8 schedule steps are required")
        if self.k < 1:
            raise ConfigError("derivative order k must be >= 1")
        if not self.box > 0:
            raise ConfigError("sampling box half-width must be positive")
        # written `not x > 0`, so that NaN fails the checks too
        if not (self.convergence_tol > 0 and self.divergence_ceiling > 0 and self.zero_tol > 0):
            raise ConfigError("tolerances must be positive")
        if self.convergence_tol >= self.divergence_ceiling:
            raise ConfigError("the convergence tolerance must lie below the divergence ceiling")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} is negative")
        if self.mc_samples < 1 or self.grid_points < 1:
            raise ConfigError("sample and grid point counts must be positive")
        if not math.isfinite(self.p):  # every report's config holds p
            raise ConfigError(f"exponent p={self.p} is not finite")
        if "p" in run.reads and not 0.5 < self.p < 1.0:
            raise ConfigError(f"exponent p={self.p} outside ]1/2, 1[")
        if self.center is not None and not cmath.isfinite(complex(self.center)):
            raise ConfigError("center must be finite")
        return run

    def to_json_dict(self) -> dict:
        center = None
        if self.center is not None:
            c = complex(self.center)
            center = [c.real, c.imag]
        return {
            "experiment": self.experiment,
            "example": self.example,
            "seed": self.seed,
            "k": self.k,
            "p": self.p,
            "rho": self.rho,
            "steps": self.resolved_steps(),
            "center": center,
            "box": self.box,
            "convergence_tol": self.convergence_tol,
            "divergence_ceiling": self.divergence_ceiling,
            "zero_tol": self.zero_tol,
            "mc_samples": self.mc_samples,
            "grid_points": self.grid_points,
        }


@dataclass
class ExperimentReport:
    """Self-contained record of one experiment run."""

    config: dict
    steps: list
    verdict: str
    constants: dict
    extras: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.verdict in (PASS, DIVERGENT_AS_EXPECTED)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "steps": self.steps,
            "verdict": self.verdict,
            "constants": self.constants,
            "extras": self.extras,
            "wall_time": self.wall_time,
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_csv_str(self) -> str:
        lines = ["step,gauge,bound,support_ok"]
        for row in self.steps:
            lines.append(
                f"{row['n']},{row.get('gauge', '')!r},{row.get('bound', '')!r},"
                f"{int(bool(row.get('support_ok', False)))}"
            )
        return "\n".join(lines) + "\n"

    def write(self, path: str, fmt: str = "json") -> None:
        text = self.to_csv_str() if fmt == "csv" else self.to_json_str()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _nodes_json(nodes: NodeTuple | Sequence[complex]) -> list:
    zs = nodes.nodes if isinstance(nodes, NodeTuple) else nodes
    return [[complex(z).real, complex(z).imag] for z in zs]


def _constants(cfg: ExperimentConfig) -> dict:
    if "p" in run_for(cfg.experiment, cfg.example).reads:  # the blow-up runs
        bc = BlowupConstants.for_p(cfg.p)
        return {"c": bc.c, "exponent": bc.exponent, "prefactor": bc.prefactor}
    return {"c": BLOWUP_C, "exponent": None, "prefactor": None}


def _row(n: int, nodes, gauge: float, bound: float, ok: bool, **extra) -> dict:
    """One step's row: its nodes, the gauge measured and the bound it is checked against."""
    return {
        "n": n,
        "nodes": _nodes_json(nodes),
        "gauge": gauge,
        "bound": bound,
        "support_ok": ok,
        **extra,
    }


def _held(rows: Sequence[dict]) -> bool:
    return all(row["support_ok"] for row in rows)


def _verdict(violated: bool, settled: bool, success: str) -> str:
    """FAIL if a claim was violated, `success` once the evidence settled, else INCONCLUSIVE."""
    if violated:
        return FAIL
    return success if settled else INCONCLUSIVE


def _report(cfg, steps, verdict, extras, t0) -> ExperimentReport:
    return ExperimentReport(
        config=cfg.to_json_dict(),
        steps=steps,
        verdict=verdict,
        constants=_constants(cfg),
        extras=extras,
        wall_time=time.perf_counter() - t0,
    )


def _random_center(rng: np.random.Generator, box: float = 2.0) -> complex:
    return complex(rng.uniform(-box, box), rng.uniform(-box, box))


# ---------------------------------------------------------------------------
# smoothness (vanishing derivative estimates with exact support bounds)
# ---------------------------------------------------------------------------


def exp_smoothness(cfg: ExperimentConfig) -> ExperimentReport:
    """Drive order-k difference quotients to a diagonal point.

    Each step n evaluates the order-k divided difference g_n on nodes
    center + rho**n * offsets, records its l0 gauge, the exact mass of the
    localisation region (strip union, or annulus), the analytic cap on that
    mass in terms of the largest node offset, and the exact support check.
    PASS needs the gauge trace to end below the convergence tolerance with
    a nonincreasing tail and every support check to hold.  A failed
    support check is a FAIL; a trace that has not converged is
    INCONCLUSIVE.
    """
    cfg.validate(exp_smoothness)
    return _smoothness(cfg, real_axis=False)


def _smoothness(cfg: ExperimentConfig, real_axis: bool) -> ExperimentReport:
    """Smoothness of a validated config."""
    t0 = time.perf_counter()
    curve = curve_for(cfg.example)
    rng = np.random.default_rng(cfg.seed)
    center = complex(cfg.center) if cfg.center is not None else _random_center(rng, cfg.box)
    if real_axis:
        center = complex(center.real, 0.0)
    make = ShrinkSchedule.real_offsets if real_axis else ShrinkSchedule.roots_of_unity
    sched = make(cfg.k, cfg.rho, cfg.resolved_steps())

    rows: list[dict] = []
    try:
        differences = _schedule_differences(curve, center, sched, cfg.zero_tol)
        for n, (nt, g) in enumerate(differences, start=1):
            sb = support_bound_of(nt, curve.family)
            if curve.family == GRID:
                cap = 4.0 * max(abs(z - center) for z in nt.nodes)
            else:
                b = node_bounds(nt, curve.family)
                cap = b.r_hi - b.r_lo
            rows.append(_row(n, nt, l0_gauge(g), sb.mass, supported_in(g, sb), cap=cap))
    except _GridFault as exc:
        raise ConfigError(f"{exc}; use fewer steps, a larger rho or a center nearer 0") from None
    except FloatRangeError as exc:
        raise ConfigError(f"{exc}; use a smaller k, fewer steps or a larger rho") from None

    trace = [row["gauge"] for row in rows]
    all_ok = _held(rows)
    # unconverged without a violation (INCONCLUSIVE): the schedule stopped
    # above the tolerance, or before the trace settled into its monotone tail
    converged = (
        classify_trace(trace, cfg.convergence_tol, cfg.divergence_ceiling) == CONVERGED_TO_ZERO
    )
    extras = {
        "real_axis": real_axis,
        "center": [center.real, center.imag],
        "final_gauge": trace[-1],
        "all_support_ok": all_ok,
        "converged": converged,
    }
    return _report(cfg, rows, _verdict(not all_ok, converged, PASS), extras, t0)


def _derivative_trace(cfg: ExperimentConfig, center: complex, k: int, n: int) -> tuple[dict, dict]:
    """Rerun smoothness of order k at `center`: (summary, row n, which holds unless it FAILed)."""
    sub = _smoothness(dataclasses.replace(cfg, center=center, k=k), real_axis=False)
    gauge = sub.extras["final_gauge"]
    summary = {"center": [center.real, center.imag], "verdict": sub.verdict, "final_gauge": gauge}
    row = _row(
        n, [center], gauge, cfg.convergence_tol, sub.verdict != FAIL, kind="derivative-trace", k=k
    )
    return summary, row


def _passed(summaries: Sequence[dict]) -> bool:
    """Whether every rerun of `_derivative_trace` PASSed: only then has its evidence settled."""
    return all(s["verdict"] == PASS for s in summaries)


# ---------------------------------------------------------------------------
# Taylor failure (non-constant map with vanishing derivative estimates)
# ---------------------------------------------------------------------------


def exp_taylor_failure(cfg: ExperimentConfig) -> ExperimentReport:
    """Exhibit non-constancy at every radius while all derivatives vanish.

    For each center z0 and radius r down to 1e-8 a witness z with
    |z - z0| <= r and mu(symdiff) > 0 is recorded (the disagreement mass is
    also capped by 2|z - z0|); alongside, the order 1..4 derivative traces
    at z0 are rerun and must all converge to zero.  A rerun that FAILs is
    a FAIL; one that has not converged leaves the run INCONCLUSIVE.
    """
    t0 = time.perf_counter()
    cfg.validate(exp_taylor_failure)
    rng = np.random.default_rng(cfg.seed)
    if cfg.center is not None:
        centers = [complex(cfg.center)]
    else:
        centers = [0j, _random_center(rng, cfg.box), _random_center(rng, cfg.box)]

    rows: list[dict] = []
    for z0 in centers:
        base = lower_left_quadrant(z0.real, z0.imag)
        for r in _TAYLOR_RADII:
            z = z0 + r
            gap = region_measure(region_symdiff(lower_left_quadrant(z.real, z.imag), base))
            rows.append(_row(len(rows) + 1, [z0, z], gap, 2.0 * r, 0.0 < gap <= 2.0 * r))
    witnesses = len(rows)

    derivative_side = []
    for z0 in centers:
        for k in range(1, _MAX_DERIVATIVE_ORDER + 1):
            summary, row = _derivative_trace(cfg, z0, k, len(rows) + 1)
            derivative_side.append({**summary, "k": k})
            rows.append(row)

    witnesses_ok, derivatives_ok = _held(rows[:witnesses]), _held(rows[witnesses:])
    verdict = _verdict(not (witnesses_ok and derivatives_ok), _passed(derivative_side), PASS)
    extras = {
        "centers": [[z.real, z.imag] for z in centers],
        "witnesses_ok": witnesses_ok,
        "derivatives_ok": derivatives_ok,
        "derivative_side": derivative_side,
    }
    return _report(cfg, rows, verdict, extras, t0)


# ---------------------------------------------------------------------------
# identity-theorem failure (compact support of a smooth non-zero curve)
# ---------------------------------------------------------------------------


def _on_side_of_unit_circle(z: complex, outside: bool) -> complex:
    """z moved by whole ulps, outward or inward, until |z| >= 1 or |z| < 1.

    r * (cos a + i sin a) can round across the unit circle: at r = 1 some
    angles give |z| == 0.9999999999999999, where the curve is correctly
    non-zero.  A sample already on its side is returned unchanged.
    """
    target = math.inf if outside else 0.0
    while (abs(z) >= 1.0) != outside:
        z = complex(
            math.nextafter(z.real, math.copysign(target, z.real)),
            math.nextafter(z.imag, math.copysign(target, z.imag)),
        )
    return z


def exp_identity_theorem_failure(cfg: ExperimentConfig) -> ExperimentReport:
    """The annulus curve vanishes on a whole outer grid yet is non-zero.

    Checks f(z) == 0 on a 100-point grid with |z| >= 1, f(z) != 0 on a
    100-point grid with |z| < 1, and that the smoothness experiment passes
    at one center inside and one outside the unit disc.  A smoothness run
    that FAILs is a FAIL; one that has not converged leaves the run
    INCONCLUSIVE.
    """
    t0 = time.perf_counter()
    cfg.validate(exp_identity_theorem_failure)
    curve = curve_for(cfg.example)
    rng = np.random.default_rng(cfg.seed)

    n_pts = 100
    out_radii = np.concatenate([[1.0], rng.uniform(1.0, 2.5, n_pts - 1)])
    out_angles = rng.uniform(0.0, 2.0 * math.pi, n_pts)
    in_radii = rng.uniform(0.0, 1.0, n_pts)
    in_angles = rng.uniform(0.0, 2.0 * math.pi, n_pts)

    rows: list[dict] = []
    for r, a in zip(out_radii, out_angles):
        z = _on_side_of_unit_circle(r * complex(math.cos(a), math.sin(a)), outside=True)
        f = curve(z)
        rows.append(_row(len(rows) + 1, [z], l0_gauge(f), 0.0, f.is_zero))
    for r, a in zip(in_radii, in_angles):
        z = _on_side_of_unit_circle(r * complex(math.cos(a), math.sin(a)), outside=False)
        f = curve(z)
        gauge = l0_gauge(f)
        rows.append(_row(len(rows) + 1, [z], gauge, 0.0, (not f.is_zero) and gauge > 0.0))

    inside_center = rng.uniform(0.2, 0.7) * complex(
        math.cos(rng.uniform(0, 2 * math.pi)), math.sin(rng.uniform(0, 2 * math.pi))
    )
    outside_center = rng.uniform(1.2, 2.0) * complex(
        math.cos(rng.uniform(0, 2 * math.pi)), math.sin(rng.uniform(0, 2 * math.pi))
    )
    subs = []
    for center in (inside_center, outside_center):
        summary, row = _derivative_trace(cfg, center, cfg.k, len(rows) + 1)
        subs.append(summary)
        rows.append(row)

    zero_outside = _held(rows[:n_pts])
    nonzero_inside = _held(rows[n_pts : 2 * n_pts])
    smooth_ok = _held(rows[2 * n_pts :])
    verdict = _verdict(not (zero_outside and nonzero_inside and smooth_ok), _passed(subs), PASS)
    extras = {
        "zero_outside": zero_outside,
        "nonzero_inside": nonzero_inside,
        "smoothness_side": subs,
        "smooth_ok": smooth_ok,
    }
    return _report(cfg, rows, verdict, extras, t0)


# ---------------------------------------------------------------------------
# first order fine, second order blows up
# ---------------------------------------------------------------------------


def exp_c1_not_c2(cfg: ExperimentConfig) -> ExperimentReport:
    """Two phases on the half-plane curve in the p-th-power space.

    Phase A: first-order quotients over random pairs at shrinking distance
    d; the gauge must stay below d**(1-p), which tends to zero.  Phase B:
    the order-2 divided difference over the nodes (t, 0, 2t) at
    t = rho**m; its gauge must match the closed form
    (1/(2 t**2))**p * nu(]0, 2t]) to 1e-10 relative, dominate the power-law
    lower bound at every step, cross the divergence ceiling, and show a
    fitted log2-slope of 1 - 2p over the last ten steps.  A failed phase-A,
    identity or dominance check is a FAIL; a trace below the ceiling, or
    one whose slope or monotone tail has not settled, is INCONCLUSIVE.  A
    schedule whose t**2 leaves the normal floats is a ConfigError.
    """
    cfg.validate(exp_c1_not_c2)
    return _c1_not_c2(cfg, real_axis=False)


def _c1_not_c2(cfg: ExperimentConfig, real_axis: bool) -> ExperimentReport:
    """The blow-up of a validated config."""
    t0 = time.perf_counter()
    p = cfg.p
    steps = cfg.resolved_steps()
    if (cfg.rho**steps) ** 2 < sys.float_info.min:
        raise ConfigError(
            f"rho={cfg.rho} over {steps} steps makes t**2 subnormal, where the "
            "closed form loses its precision; use fewer steps or a larger rho"
        )
    curve = curve_for(cfg.example)
    rng = np.random.default_rng(cfg.seed)
    rows: list[dict] = []

    # Phase A: pair distances below ~1e-13 would collide with the float
    # grid around |z| <= 2, so the pair count is capped accordingly.
    steps_a = min(steps, max(8, int(math.log(1e-13) / math.log(cfg.rho))))
    pairs = []
    for m in range(1, steps_a + 1):
        re = rng.uniform(-cfg.box, cfg.box)
        im = 0.0 if real_axis else rng.uniform(-cfg.box, cfg.box)
        theta = 0.0 if real_axis else rng.uniform(0.0, 2.0 * math.pi)
        z1 = complex(re, im)
        z2 = z1 + cfg.rho**m * complex(math.cos(theta), math.sin(theta))
        if z2 == z1:
            break
        pairs.append((z1, z2))
    quotients = _differences(curve, pairs, cfg.zero_tol)
    for m, ((z1, z2), quotient) in enumerate(zip(pairs, quotients), start=1):
        gauge, bound = lp_gauge(quotient, p), abs(z2 - z1) ** (1.0 - p)
        rows.append(_row(m, [z1, z2], gauge, bound, gauge <= bound, phase="A"))
    phase_a_ok = _held(rows)

    # Phase B: its rows hold only the conjunction of the identity and dominance checks
    sched_b = ShrinkSchedule((1.0, 0.0, 2.0), cfg.rho, steps)
    identity_ok = dominance_ok = True
    differences = _schedule_differences(curve, 0j, sched_b, cfg.zero_tol)
    for m, (nt, quotient) in enumerate(differences, start=1):
        t = cfg.rho**m
        gauge = lp_gauge(quotient, p)
        closed = (1.0 / (2.0 * t * t)) ** p * nu_mass(Interval(0.0, 2.0 * t))
        lower = 2.0 ** (1.0 - p) * t ** (1.0 - 2.0 * p) * BLOWUP_C
        id_ok = abs(gauge - closed) <= 1e-10 * closed
        dom_ok = gauge >= lower
        ok = id_ok and dom_ok
        rows.append(_row(steps_a + m, nt, gauge, lower, ok, phase="B", t=t, closed_form=closed))
        identity_ok = identity_ok and id_ok
        dominance_ok = dominance_ok and dom_ok
    ts = [row["t"] for row in rows[len(pairs) :]]
    trace_b = [row["gauge"] for row in rows[len(pairs) :]]

    window = min(10, len(ts))
    slope = float(
        np.polyfit(np.log2(np.array(ts[-window:])), np.log2(np.array(trace_b[-window:])), 1)[0]
    )
    expected = 1.0 - 2.0 * p
    slope_ok = abs(slope - expected) <= 0.05
    trace_verdict = classify_trace(trace_b, cfg.convergence_tol, cfg.divergence_ceiling)
    ceiling_crossed = trace_verdict == DIVERGENT

    # nothing violated and not settled: the ceiling is not reached yet, or the
    # trace is pre-asymptotic (its fitted slope or its monotone tail not settled)
    verdict = _verdict(
        not (phase_a_ok and identity_ok and dominance_ok),
        slope_ok and ceiling_crossed,
        DIVERGENT_AS_EXPECTED,
    )
    extras = {
        "real_axis": real_axis,
        "phase_a_ok": phase_a_ok,
        "phase_a_steps": steps_a,
        "phase_b_identity_ok": identity_ok,
        "phase_b_dominance_ok": dominance_ok,
        "slope": slope,
        "slope_expected": expected,
        "slope_ok": slope_ok,
        "ceiling_crossed": ceiling_crossed,
        "final_gauge": trace_b[-1],
    }
    return _report(cfg, rows, verdict, extras, t0)


# ---------------------------------------------------------------------------
# real-axis restriction of the two curve experiments
# ---------------------------------------------------------------------------


def exp_real_restriction(cfg: ExperimentConfig) -> ExperimentReport:
    """Rerun smoothness / blow-up with every node on the real axis.

    The quadrant curve restricted to the reals stays smooth with vanishing
    derivative and stays injective (checked by sampling); the half-plane
    curve restricted to the reals still fails at second order.
    """
    t0 = time.perf_counter()
    if "p" in cfg.validate(exp_real_restriction).reads:  # the blow-up
        return _c1_not_c2(cfg, real_axis=True)
    report = _smoothness(cfg, real_axis=True)
    rng = np.random.default_rng(cfg.seed + 1)
    injective = True
    for _ in range(200):
        x1 = rng.uniform(-cfg.box, cfg.box)
        x2 = rng.uniform(-cfg.box, cfg.box)
        if x1 == x2:
            continue
        gap = region_measure(
            region_symdiff(lower_left_quadrant(x1, 0.0), lower_left_quadrant(x2, 0.0))
        )
        injective = injective and gap > 0.0
    extras = {**report.extras, "real_injectivity_ok": injective}
    violated = not (extras["all_support_ok"] and injective)
    verdict = _verdict(violated, extras["converged"], PASS)
    return _report(cfg, report.steps, verdict, extras, t0)


# ---------------------------------------------------------------------------
# measure identities and oracle agreement
# ---------------------------------------------------------------------------


def _max_abs(d: np.ndarray) -> float:
    """max(0.0, |d_0|, |d_1|, ...) as a Python float."""
    return max(0.0, float(np.abs(d).max()))


def _radial_sweep(pairs: np.ndarray) -> tuple[float, int]:
    """Identity error and cap violations of the rings ]r, R] of the (n, 2) rows (r, R).

    One libm `math.exp(-t * t)` per endpoint, as `_ring` takes it; the
    rest is elementwise float64, so every mass is bitwise `_ring(r, R)`.
    """
    e = np.array([math.exp(-t * t) for t in pairs.ravel().tolist()]).reshape(pairs.shape)
    m = e[:, 0] - e[:, 1]
    caps = m > (pairs[:, 1] - pairs[:, 0]) + 1e-12
    return _max_abs(m - (e[:, 0] - e[:, 1])), int(np.count_nonzero(caps))


def _strip_sweep(pairs: np.ndarray) -> tuple[float, int]:
    """Identity error and cap violations of the strips ]a, b] x R of the (n, 2) rows (a, b).

    One libm `math.erf` per endpoint, as `_nu` takes it; the rest is
    elementwise float64, so every mass is bitwise `_nu(a, b) * _nu` of the line.
    """
    e = np.array([math.erf(t) for t in pairs.ravel().tolist()]).reshape(pairs.shape)
    nu_ab = 0.5 * (e[:, 1] - e[:, 0])
    m = nu_ab * _nu(NEG_INF, POS_INF)
    caps = m > (pairs[:, 1] - pairs[:, 0]) + 1e-12
    return _max_abs(m - nu_ab), int(np.count_nonzero(caps))


def exp_measure_identities(cfg: ExperimentConfig) -> ExperimentReport:
    """Closed-form identities, inequality sweeps, and Monte-Carlo agreement.

    Sweeps seeded parameter grids for the annulus mass identity
    mu = exp(-r*r) - exp(-R*R) with its cap R - r, and the strip identity
    mu(S(a, b)) = nu(]a, b]) with its cap b - a; checks the density bound
    2 t exp(-t*t) <= sqrt(2/e) on a dense grid; and cross-checks ten
    fixed regions against the Monte-Carlo oracle, each within `_MC_Z`
    binomial standard deviations of its exact mass (a chance of
    `_MC_FALSE_FAIL` per run that a correct engine FAILs).

    The sweeps run on arrays (`_radial_sweep`, `_strip_sweep`): one libm
    `math.exp(-t * t)` per ring endpoint and one `math.erf(t)` per strip
    endpoint, then elementwise float64 differences, products and cap tests.
    So a pair's mass is bitwise the one-piece closed form that `mu_radial`
    and `mu_grid` evaluate (`_ring(r, R)`; `_nu(a, b)` times the full
    line's `_nu`), read without building a region, and the two identity
    errors are 0.0 by construction: the caps, the density bound and the
    Monte-Carlo cross-check are the checks that can fail.  Comparing with
    an independent quadrature of the density would make the identities a
    check.

    The Monte-Carlo estimates come from `mc_plane_measures`, bitwise the hit
    fractions of the `plane_samples(mc_samples, seed)` masks: hits are
    counted once per distinct region endpoint (samples with x, or radius, at
    most t), a radius is decided on x*x + y*y outside a band of relative
    half-width 2**-46 around t*t and by `np.hypot` inside it, and the
    samples are counted in blocks of 2**16, each y block drawn on a worker
    thread while the one before it is counted.  The run holds the x
    coordinates (8 bytes per sample) and a few block-sized arrays: about
    10 MiB of traced allocations at its peak for the default 10**6 samples.
    """
    t0 = time.perf_counter()
    cfg.validate(exp_measure_identities)
    rng = np.random.default_rng(cfg.seed)
    n_grid = cfg.grid_points

    radial_pairs = np.sort(rng.uniform(0.0, 3.0, size=(n_grid, 2)), axis=1)
    radial_pairs[0] = (0.0, 0.0)
    radial_err, radial_cap_violations = _radial_sweep(radial_pairs)
    strip_pairs = np.sort(rng.uniform(-3.0, 3.0, size=(n_grid, 2)), axis=1)
    strip_err, strip_cap_violations = _strip_sweep(strip_pairs)

    tgrid = np.linspace(0.0, 10.0, 10001)
    density_vals = 2.0 * tgrid * np.exp(-tgrid * tgrid)
    density_cap = math.sqrt(2.0 / math.e)
    density_ok = bool(
        np.all(density_vals <= density_cap + 1e-12)
        and density_vals.max() >= density_cap - 1e-4
    )

    checks = [(f"annulus({lo},{hi})", annulus(lo, hi)) for lo, hi in _MC_RADIAL_CHECKS] + [
        (f"strip({a},{b})", rect(a, b, NEG_INF, POS_INF)) for a, b in _MC_STRIP_CHECKS
    ]
    estimates = mc_plane_measures([region for _, region in checks], cfg.mc_samples, cfg.seed)
    rows: list[dict] = []
    for n, ((label, region), est) in enumerate(zip(checks, estimates), start=1):
        exact = region_measure(region)
        ok = abs(est - exact) <= _MC_Z * math.sqrt(exact * (1.0 - exact) / cfg.mc_samples)
        rows.append(_row(n, [], est, exact, ok, label=label))
    mc_ok = _held(rows)

    identities_ok = (
        radial_err <= 1e-12
        and strip_err <= 1e-12
        and radial_cap_violations == 0
        and strip_cap_violations == 0
    )
    verdict = _verdict(not (identities_ok and density_ok and mc_ok), True, PASS)
    extras = {
        "radial_identity_max_err": radial_err,
        "radial_cap_violations": radial_cap_violations,
        "strip_identity_max_err": strip_err,
        "strip_cap_violations": strip_cap_violations,
        "density_cap": density_cap,
        "density_grid_max": float(density_vals.max()),
        "density_ok": density_ok,
        "mc_ok": mc_ok,
        "grid_pairs": int(n_grid),
    }
    return _report(cfg, rows, verdict, extras, t0)


# ---------------------------------------------------------------------------
# the experiments: one entry per (experiment, example)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """One (experiment, example): its runner, the command-line fields it reads, its steps."""

    runner: Callable[[ExperimentConfig], ExperimentReport]
    reads: frozenset
    steps: int = 40


# A trace reads its ratio, its length and the two thresholds that classify it.
# A geometric decay settles well inside 40 steps; the blow-up trace grows like
# t**(1-2p) and needs ~120 halvings of t to clear the ceiling for every p.
_TRACE = frozenset({"rho", "steps", "convergence_tol", "divergence_ceiling"})
_SMOOTH = _TRACE | {"k", "center"}
_BLOWUP = _TRACE | {"p"}

#: Every experiment, keyed by name and then by example (None: it takes none).
RUNS: dict[str, dict[Optional[str], Run]] = {
    "smoothness": dict.fromkeys(("example1", "example2"), Run(exp_smoothness, _SMOOTH)),
    "taylor-failure": {"example1": Run(exp_taylor_failure, _TRACE | {"center"})},
    "identity-failure": {"example2": Run(exp_identity_theorem_failure, _TRACE | {"k"})},
    "c1-not-c2": {"example3": Run(exp_c1_not_c2, _BLOWUP, steps=120)},
    "real-restriction": {
        "example1": Run(exp_real_restriction, _SMOOTH),
        "example3": Run(exp_real_restriction, _BLOWUP, steps=120),
    },
    "measure-identities": {None: Run(exp_measure_identities, frozenset())},
}

EXPERIMENTS = tuple(RUNS)

# The command-line fields that some run reads
_READ_ANYWHERE = frozenset().union(*(run.reads for runs in RUNS.values() for run in runs.values()))


def run_for(experiment: str, example: Optional[str]) -> Run:
    """The `RUNS` entry of (experiment, example); ConfigError if there is none."""
    examples = RUNS.get(experiment)
    if examples is None:
        raise ConfigError(f"unknown experiment {experiment!r}")
    if example not in examples:
        names = " or ".join(name or "no example" for name in examples)
        raise ConfigError(f"{experiment} runs on {names}")
    return examples[example]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return run_for(cfg.experiment, cfg.example).runner(cfg)


#: The full reproduction suite run by `verify all`.
VERIFY_ALL_SUITE = (
    ("measure-identities", None, {}),
    ("smoothness", "example1", {"k": 3}),
    ("smoothness", "example2", {"k": 2}),
    ("taylor-failure", "example1", {}),
    ("identity-failure", "example2", {"k": 2}),
    ("c1-not-c2", "example3", {}),
    ("real-restriction", "example1", {"k": 2}),
    ("real-restriction", "example3", {}),
)


def verify_all(seed: int = 42, **overrides) -> list[tuple[str, ExperimentReport]]:
    """Run the whole suite; returns (name, report) pairs in a fixed order.

    An override of a command-line field (one that some run `reads`, such as
    `steps`) reaches only the entries whose run reads it; any other field,
    such as `grid_points`, reaches every entry.  Every config is validated
    before the first run.
    """
    configs = []
    for experiment, example, extra in VERIFY_ALL_SUITE:
        reads = run_for(experiment, example).reads
        given = {f: v for f, v in overrides.items() if f in reads or f not in _READ_ANYWHERE}
        kwargs = {**extra, **given}
        cfg = ExperimentConfig(experiment=experiment, example=example, seed=seed, **kwargs)
        cfg.validate()
        configs.append((experiment if example is None else f"{experiment}_{example}", cfg))
    return [(name, run_experiment(cfg)) for name, cfg in configs]
