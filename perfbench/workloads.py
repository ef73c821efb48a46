"""The four closed-loop workloads of the gaussdiff benchmark.

Each workload is a fixed schedule of *rounds*; a round is a fixed list of
ops whose inputs are plain numbers drawn from a generator seeded by
(workload, seed, round).  The library only ever sees those generated
inputs.  An op is the timed unit: `run` makes the library calls, `check`
verifies the result outside the timed interval and returns False (or
raises) when the output is wrong.

Only the standard library is imported here, so that importing gaussdiff
(and numpy under it) stays inside the measured set-up time.  The library
is reached through the `gd` package object, never through names bound at
import time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from functools import reduce

# Checks fixed by the benchmark definition.
IDENTITY_TOL = 1e-12  # region-booleans: measure identities
CROSSCHECK_TOL = 1e-9  # divdiff-deep: recursive vs barycentric form
CROSSCHECK_STEP = 10  # divdiff-deep: schedule step of the cross-check tuple
OVERLAY_POINTS = 8  # overlay-atoms: sampled points per op
OVERLAY_EPS = 0.5  # overlay-atoms: level of gauge_in_measure
OVERLAY_WK = 2  # overlay-atoms: index of the wk_member neighbourhood
LP_EXPONENT = 0.75
BOX = 2.0  # rectangle corners and curve centres are drawn from [-BOX, BOX]


# Sizes of one round of overlay-atoms and of region-booleans (n or m).  By
# count the median lies mid-way through the 24s and p90 mid-way through the
# 96s, so neither percentile sits on the boundary between two sizes; by
# time the 96s and the 128 carry over 80% of a round.
SIZES = (8,) * 4 + (16,) * 4 + (24,) * 4 + (32,) * 2 + (48,) * 2 + (64,) + (96,) * 2 + (128,)


def _rng(workload: str, seed: int, r: int) -> random.Random:
    # A string seed is hashed with SHA-512, so streams do not depend on
    # PYTHONHASHSEED or on the platform.
    return random.Random(f"{workload}:{seed}:{r}")


def _random_rects(rng: random.Random, n: int) -> list[tuple[float, float, float, float]]:
    out = []
    for _ in range(n):
        x0, x1 = sorted((rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX)))
        y0, y1 = sorted((rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX)))
        out.append((x0, x1, y0, y1))
    return out


class Workload:
    """One schedule of rounds; subclasses define the ops."""

    name = ""
    why = ""
    # Rounds in the fixed batch of a traced run; chosen so the batch takes a
    # few seconds untraced on a 2-core Xeon.
    trace_rounds = 1

    def __init__(self, gd, seed: int):
        self.gd = gd
        self.seed = seed

    def round_inputs(self, r: int) -> list:
        """Inputs of every op in round r, as (kind, payload) pairs."""
        raise NotImplementedError

    def run(self, payload):
        raise NotImplementedError

    def check(self, payload, out) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget what the checks recorded, before a new pass."""


class VerifySuite(Workload):
    name = "verify-suite"
    why = (
        "what users run: one op per VERIFY_ALL_SUITE entry over consecutive "
        "seeds; p90 tracks measure-identities and taylor-failure, p50 the small entries"
    )
    trace_rounds = 3

    def __init__(self, gd, seed):
        super().__init__(gd, seed)
        self.suite = tuple(gd.experiments.VERIFY_ALL_SUITE)
        self.digests: dict[str, str] = {}

    def round_inputs(self, r):
        s = self.seed + r
        out = []
        for experiment, example, extra in self.suite:
            name = experiment if example is None else f"{experiment}_{example}"
            out.append((name, (name, experiment, example, dict(extra), s)))
        return out

    def run(self, payload):
        _, experiment, example, extra, s = payload
        cfg = self.gd.ExperimentConfig(experiment=experiment, example=example, seed=s, **extra)
        return self.gd.run_experiment(cfg)

    def check(self, payload, report):
        name, _, _, _, s = payload
        self.digests[f"{s}/{name}"] = report_digest(report)
        return bool(report.ok)

    def reset(self):
        self.digests = {}


def report_digest(report) -> str:
    """SHA-256 of a report's JSON form with `wall_time` removed."""
    d = report.to_json_dict()
    d.pop("wall_time", None)
    text = json.dumps(d, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class OverlayAtoms(Workload):
    name = "overlay-atoms"
    why = (
        "isolates the atom overlay (linear_combine of n=8..128 weighted rectangles, "
        "then the gauges): no Booleans, no Monte-Carlo, no recursion"
    )
    trace_rounds = 1

    def round_inputs(self, r):
        rng = _rng(self.name, self.seed, r)
        out = []
        for n in SIZES:
            rects = _random_rects(rng, n)
            coeffs = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
            points = [
                complex(rng.uniform(-1.25 * BOX, 1.25 * BOX), rng.uniform(-1.25 * BOX, 1.25 * BOX))
                for _ in range(OVERLAY_POINTS)
            ]
            out.append((f"n={n}", (rects, coeffs, points)))
        return out

    def run(self, payload):
        gd = self.gd
        rects, coeffs, _ = payload
        f = gd.linear_combine(coeffs, [gd.indicator(gd.rect(*r)) for r in rects])
        gauges = (
            gd.l0_gauge(f),
            gd.lp_gauge(f, LP_EXPONENT),
            gd.gauge_in_measure(f, OVERLAY_EPS),
            gd.wk_member(f, OVERLAY_WK),
        )
        return f, gauges

    def check(self, payload, out):
        f, _ = out
        _, _, points = payload
        tol = f.zero_tol * max(abs(c) for c, _ in f.terms)
        for w in points:
            if not abs(f.value_at(w) - f.value_from_terms(w)) <= tol:
                return False
        return sum(self.gd.region_measure(reg) for _, reg in f.atoms) <= 1.0


class RegionBooleans(Workload):
    name = "region-booleans"
    why = (
        "the Boolean sweep rather than the atom overlay: union/symdiff folds over "
        "m=8..128 rectangles from the overlay-atoms distribution, plus annuli"
    )

    def round_inputs(self, r):
        rng = _rng(self.name, self.seed, r)
        out = []
        for m in SIZES:
            rects = _random_rects(rng, m)
            rings = [tuple(sorted((rng.uniform(0.0, 1.5 * BOX), rng.uniform(0.0, 1.5 * BOX)))) for _ in range(m)]
            out.append((f"m={m}", (rects, rings)))
        return out

    def _family_op(self, regions):
        gd = self.gd
        h = len(regions) // 2
        a = reduce(gd.region_union, regions[:h])
        b = reduce(gd.region_symdiff, regions[h:])
        u = gd.region_union(a, b)
        i = gd.region_intersect(a, b)
        s = gd.region_symdiff(a, b)
        c = gd.region_complement(a)
        inside = gd.region_contains(u, a)
        masses = tuple(gd.region_measure(x) for x in (a, b, u, i, s, c))
        return masses, inside

    def run(self, payload):
        gd = self.gd
        rects, rings = payload
        grid = self._family_op([gd.rect(*r) for r in rects])
        radial = self._family_op([gd.annulus(lo, hi) for lo, hi in rings])
        return grid, radial

    def check(self, payload, out):
        for (ma, mb, mu, mi, ms, mc), inside in out:
            if not (
                abs(mu + mi - (ma + mb)) <= IDENTITY_TOL
                and abs(ms - (mu - mi)) <= IDENTITY_TOL
                and abs(mc - (1.0 - ma)) <= IDENTITY_TOL
                and inside
            ):
                return False
        return True


class DivdiffDeep(Workload):
    name = "divdiff-deep"
    why = (
        "higher derivative orders k=1..10 (verify-suite stops at 4): thousands of "
        "tiny overlays, so per-call constant cost dominates"
    )
    # example3 at k=1, 2 stays INCONCLUSIVE on a 40-step schedule.
    MIX = (
        tuple(("example1", k) for k in range(1, 11))
        + tuple(("example2", k) for k in range(1, 11))
        + tuple(("example3", k) for k in range(3, 11))
    )
    trace_rounds = 1

    def __init__(self, gd, seed):
        super().__init__(gd, seed)
        self.crosscheck: dict[int, float] = {}  # order k -> largest distance seen

    def round_inputs(self, r):
        rng = _rng(self.name, self.seed, r)
        out = []
        for example, k in self.MIX:
            if example == "example2":
                # alternately inside and outside the unit disc
                radius = rng.uniform(0.2, 0.7) if k % 2 else rng.uniform(1.2, 2.0)
                angle = rng.uniform(0.0, 2.0 * math.pi)
                center = radius * complex(math.cos(angle), math.sin(angle))
            else:
                center = complex(rng.uniform(-BOX, BOX), rng.uniform(-BOX, BOX))
            out.append((f"{example}/k={k}", (example, k, center)))
        return out

    def run(self, payload):
        gd = self.gd
        example, k, center = payload
        curve = gd.curve_for(example)
        sched = gd.ShrinkSchedule.roots_of_unity(k)
        report = gd.derivative_by_limit(curve, center, k, sched, gauge=gd.gauge_for(example))
        nodes = sched.tuple_at(center, CROSSCHECK_STEP)
        rel = gd.coefficient_distance(
            gd.divided_diff(curve, nodes), gd.divided_diff_lagrange(curve, nodes)
        )
        return report.verdict, rel

    def check(self, payload, out):
        example, k, _ = payload
        verdict, rel = out
        self.crosscheck[k] = max(self.crosscheck.get(k, 0.0), rel)
        dd = self.gd.divdiff
        expected = dd.DIVERGENT if example == "example3" else dd.CONVERGED_TO_ZERO
        return verdict == expected and rel <= CROSSCHECK_TOL

    def reset(self):
        self.crosscheck = {}


WORKLOADS = {w.name: w for w in (VerifySuite, OverlayAtoms, RegionBooleans, DivdiffDeep)}
