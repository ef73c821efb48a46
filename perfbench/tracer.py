"""Per-layer spans and counts, recorded from outside the gaussdiff package.

`Tracer.install` replaces public names of each module with wrappers.  A
function is replaced in every gaussdiff module that holds it, because
`from .x import y` binds the name at import time (for example
`gaussdiff.divdiff.linear_combine` and `gaussdiff.experiments.divided_diff`);
a class is traced through its `__init__` or `__call__`.  Source files are
never changed.

A span covers one call into a layer.  A call into a layer that is already
on the span stack is not a new span, so `region_contains` ->
`region_difference` or `linear_combine` -> `SimpleFunction` count once.
Self time is a span's duration minus the time of its child spans.  All
aggregates stay in memory; the caller reads them when the pass ends.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

SPANS = (
    "measure.interval",
    "measure.region",
    "measure.boolean",
    "measure.mass",
    "simplefn.overlay",
    "simplefn.gauge",
    "simplefn.support",
    "divdiff.recursion",
    "divdiff.lagrange",
    "divdiff.limit",
    "curves.eval",
    "montecarlo.samples",
    "montecarlo.mask",
    "experiments.run",
)

COUNTS = (
    "measure.region.cells_in",
    "measure.region.cells_out",
    "measure.boolean.cells_out",
    "simplefn.overlay.term_cells",
    "simplefn.overlay.elem_cells",
    "simplefn.overlay.atoms",
    "montecarlo.mask.point_tests",
    "montecarlo.mask.bytes_computed",
)


def _pieces(region) -> int:
    return len(region.cells) if region.family == "grid" else len(region.rings)


def _region_in(counts, args, kwargs):
    # GridRegion(cells) / RadialRegion(rings): pieces before canonicalisation
    given = args[1] if len(args) > 1 else next(iter(kwargs.values()), ())
    counts["measure.region.cells_in"] += len(given)


def _region_out(counts, args, kwargs, result):
    counts["measure.region.cells_out"] += _pieces(args[0])


def _boolean_out(counts, args, kwargs, result):
    if not isinstance(result, bool):
        counts["measure.boolean.cells_out"] += _pieces(result)


def _overlay_out(counts, args, kwargs, result):
    f = args[0] if result is None else result  # __init__ returns None
    pieces = [cell for _, reg in f.terms for cell in (reg.cells if f.family == "grid" else reg.rings)]
    counts["simplefn.overlay.term_cells"] += len(pieces)
    counts["simplefn.overlay.atoms"] += len(f.atoms)
    if f.family == "grid":
        xs = {p for cx, _ in pieces for p in (cx.lo, cx.hi)}
        ys = {p for _, cy in pieces for p in (cy.lo, cy.hi)}
        elem = max(len(xs) - 1, 0) * max(len(ys) - 1, 0)
    else:
        elem = max(len({p for ring in pieces for p in (ring.lo, ring.hi)}) - 1, 0)
    counts["simplefn.overlay.elem_cells"] += elem


def _mask_out(counts, args, kwargs, result):
    # region_mask(region, x, y) / mc_measure(region, x, y).  Bytes are
    # computed from array sizes: per point test, the float64 coordinates
    # read (x and y for a rectangle, r for a ring) plus the bool written;
    # rings add one hypot pass (reads x, y, writes r).  Temporaries and
    # cache effects are not counted.
    region, x = args[0], args[1]
    n, k = len(x), _pieces(region)
    counts["montecarlo.mask.point_tests"] += n * k
    if region.family == "grid":
        counts["montecarlo.mask.bytes_computed"] += n * k * 17
    else:
        counts["montecarlo.mask.bytes_computed"] += n * 24 + n * k * 9


@dataclass(frozen=True)
class Target:
    span: str
    module: str  # gaussdiff submodule that defines the name
    name: str  # function name, or Class.method
    before: Optional[Callable] = None
    after: Optional[Callable] = None


TARGETS = (
    Target("measure.interval", "measure", "Interval.__init__"),
    Target("measure.region", "measure", "GridRegion.__init__", _region_in, _region_out),
    Target("measure.region", "measure", "RadialRegion.__init__", _region_in, _region_out),
    *(
        Target("measure.boolean", "measure", name, after=_boolean_out)
        for name in (
            "region_union",
            "region_intersect",
            "region_difference",
            "region_symdiff",
            "region_complement",
            "region_contains",
        )
    ),
    *(
        Target("measure.mass", "measure", name)
        for name in ("nu_mass", "mu_grid", "mu_radial", "region_measure")
    ),
    Target("simplefn.overlay", "simplefn", "SimpleFunction.__init__", after=_overlay_out),
    Target("simplefn.overlay", "simplefn", "linear_combine", after=_overlay_out),
    *(
        Target("simplefn.gauge", "simplefn", name)
        for name in ("gauge_in_measure", "wk_member", "l0_gauge", "lp_gauge")
    ),
    Target("simplefn.support", "simplefn", "supported_in"),
    Target("divdiff.recursion", "divdiff", "divided_diff"),
    Target("divdiff.lagrange", "divdiff", "divided_diff_lagrange"),
    Target("divdiff.limit", "divdiff", "derivative_by_limit"),
    Target("curves.eval", "divdiff", "CurveMap.__call__"),
    Target("montecarlo.samples", "montecarlo", "plane_samples"),
    Target("montecarlo.mask", "montecarlo", "region_mask", after=_mask_out),
    Target("montecarlo.mask", "montecarlo", "mc_measure", after=_mask_out),
    Target("experiments.run", "experiments", "run_experiment"),
)


class Tracer:
    """Aggregated spans and counts for one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        # (parent span or None, child span) -> number of child spans
        self.edges: Counter = Counter()
        self.enabled = True
        self._stack: list[list] = []  # [span, child seconds]
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, target: Target, fn):
        span, before, after = target.span, target.before, target.after
        stack, active, clock = self._stack, self._active, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled or active[span]:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer.counts, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            active[span] = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[span] = 0
                dur = t1 - t0
                tracer.calls[span] += 1
                tracer.self_s[span] += dur - frame[1]
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            if stack:
                parent = stack[-1]
                # the after-hook is tracing cost: keep it out of the parent's self time too
                parent[1] += clock() - t0
                tracer.edges[(parent[0], span)] += 1
            else:
                tracer.edges[(None, span)] += 1
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, gd, modules) -> None:
        """Wrap every target in `gd`; `modules` are all loaded gaussdiff modules."""
        for target in TARGETS:
            owner = getattr(gd, target.module)
            if "." in target.name:
                cls_name, attr = target.name.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(target, original))
                self._undo.append((cls, attr, original))
                continue
            original = getattr(owner, target.name)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- reading -----------------------------------------------------------

    def deterministic(self) -> dict:
        """The counts that must repeat exactly for a fixed seed and batch."""
        out = {f"{s}.calls": self.calls[s] for s in SPANS}
        out.update({c: self.counts[c] for c in COUNTS})
        out["divdiff.recursion.combines"] = self.edges[("divdiff.recursion", "simplefn.overlay")]
        out["divdiff.recursion.curve_evals"] = self.edges[("divdiff.recursion", "curves.eval")]
        return out
