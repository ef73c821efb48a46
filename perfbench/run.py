"""gaussdiff benchmark: one seeded closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/` and from nowhere else.  One client in one process sends
the next op only when the previous one has returned.

--trace 0 runs whole rounds until S seconds have passed (and at least
MIN_OPS ops, so ten samples lie above p90) and prints the end-to-end
metrics.  Set-up (import gaussdiff, generate the inputs, run one warm-up
op) is measured in this process and in SETUP_PROBES fresh interpreters,
and the median is reported.  Every time is reported at the reference speed
of reference.py, which takes out the drift of a shared machine's speed;
the wall-clock values are printed on a line of their own.

--trace 1 runs a fixed batch of rounds once untraced and twice traced and
prints the per-layer metrics.  The deterministic counts of the two traced
passes must be equal, and equal to those of earlier runs of the same
source tree (kept under perfbench/results/); a mismatch is a benchmark
error (exit code 3).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it record the
environment, op counts, latency by op kind and the verify-suite report
digests.  Exit code 2 means the benchmark could not run.
"""

import os

# One client on a 2-core machine: keep numpy's BLAS/OpenMP pools single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402  (stdlib only; gaussdiff is imported in set-up)
from tracer import SPANS, COUNTS, Tracer  # noqa: E402
from reference import at_reference_speed, reference_s  # noqa: E402

MIN_OPS = 110
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60
POOL_ROUNDS = 64  # rounds of inputs generated in set-up; a longer run reuses them


class BenchError(Exception):
    """The benchmark itself cannot produce a valid result."""


class RepeatError(BenchError):
    """A deterministic count or report digest did not repeat exactly."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def require_source() -> None:
    if not (SRC / "gaussdiff" / "__init__.py").is_file():
        raise BenchError(f"no gaussdiff package under {SRC}")


def import_gaussdiff():
    require_source()
    sys.path.insert(0, str(SRC))
    import gaussdiff

    if Path(gaussdiff.__file__).resolve().parent != (SRC / "gaussdiff").resolve():
        raise BenchError(f"gaussdiff imported from {gaussdiff.__file__}, not from {SRC}")
    return gaussdiff


def run_batch(wl, inputs, stop, trace=None):
    """Run whole rounds of ops until `stop(ops, elapsed_s, rounds)` holds.

    Returns per-op records (kind, latency in s, latency at the reference
    speed, ok) and the number of rounds run; both latencies are None when
    the op raised.  The reference kernel is timed right before and right
    after each op.  Checks run outside the timed op and, when tracing, with
    the tracer paused.
    """
    records = []
    t_start = time.perf_counter()
    r = 0
    while True:
        for kind, payload in inputs[r % len(inputs)]:
            ref_before = reference_s()
            t0 = time.perf_counter()
            try:
                out = wl.run(payload)
            except Exception:
                records.append((kind, None, None, False))
                print(f"# op {kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            lat = time.perf_counter() - t0
            scaled = at_reference_speed(lat, ref_before, reference_s())
            if trace is not None:
                trace.enabled = False
            try:
                ok = bool(wl.check(payload, out))
            except Exception:
                ok = False
                print(f"# check of {kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
            if trace is not None:
                trace.enabled = True
            if not ok:
                print(f"# op {kind} failed its check", file=sys.stderr)
            records.append((kind, lat, scaled, ok))
        r += 1
        if stop(len(records), time.perf_counter() - t_start, r):
            return records, r


def reference_now() -> float:
    """Median of five reference timings, for brackets around set-up."""
    return statistics.median(reference_s() for _ in range(5))


def setup(workload: str, seed: int, rounds: int):
    """Import, generate `rounds` rounds of inputs, run one warm-up op.

    Returns (seconds taken at the reference speed, wall-clock seconds,
    workload, gaussdiff module, inputs).
    """
    ref_before = reference_now()
    t0 = time.perf_counter()
    gd = import_gaussdiff()
    wl = WORKLOADS[workload](gd, seed)
    inputs = [wl.round_inputs(r) for r in range(rounds)]
    wl.run(inputs[0][0][1])
    took = time.perf_counter() - t0
    return at_reference_speed(took, ref_before, reference_now()), took, wl, gd, inputs


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter, measured inside it: (scaled, wall clock)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    try:
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"set-up probe took over {PROBE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["wall_s"])


# ---------------------------------------------------------------------------
# environment and cross-run determinism
# ---------------------------------------------------------------------------


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gaussdiff").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int, src_sha: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": src_sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
    }


def check_repeat(src_sha: str, section: str, values: dict) -> None:
    """Compare `values` with those recorded for this source tree; record new ones.

    Raises RepeatError naming every key whose recorded value differs.
    """
    path = RESULTS / f"determinism-{src_sha[:16]}.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    seen = store.setdefault(section, {})
    bad = [k for k, v in values.items() if k in seen and seen[k] != v]
    if bad:
        raise RepeatError(f"{section}: values differ from an earlier run of this source: {bad[:10]}")
    seen.update(values)
    RESULTS.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, sort_keys=True, indent=1))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def ms(x: float) -> float:
    return 1e3 * x


def end_to_end(args) -> tuple[dict, int, int]:
    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    own, own_wall, wl, gd, inputs = setup(args.workload, args.seed, POOL_ROUNDS)
    setups = [s for s, _ in probes] + [own]
    setups_wall = [w for _, w in probes] + [own_wall]

    def stop(ops, elapsed, rounds):
        return elapsed >= args.seconds and ops >= MIN_OPS

    wl.reset()
    records, rounds = run_batch(wl, inputs, stop)
    raw = [lat for _, lat, _, _ in records if lat is not None]
    lats = [scaled for _, _, scaled, _ in records if scaled is not None]
    failed = sum(1 for *_, ok in records if not ok)
    deciles = statistics.quantiles(lats, n=10)
    p90 = deciles[8]
    above = sum(1 for x in lats if x > p90)
    if above < 10:
        raise BenchError(f"only {above} latency samples above p90")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (len(lats) / sum(lats), "1/s"),
        "latency_p50_ms": (ms(statistics.median(lats)), "ms"),
        "latency_p90_ms": (ms(p90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    by_kind: dict[str, list] = {}
    for kind, _, scaled, _ in records:
        if scaled is not None:
            by_kind.setdefault(kind, []).append(scaled)
    print(f"# rounds={rounds} ops={len(records)} latency_samples={len(lats)} above_p90={above}")
    print("# setup_s samples: " + json.dumps([round(x, 6) for x in setups]))
    print("# median latency by op kind (ms at reference speed): "
          + json.dumps({k: round(ms(statistics.median(v)), 3) for k, v in by_kind.items()}))
    print("# wall clock, not scaled: " + json.dumps({
        "setup_s": statistics.median(setups_wall),
        "throughput_ops_s": len(raw) / sum(raw),
        "latency_p50_ms": ms(statistics.median(raw)),
        "latency_p90_ms": ms(statistics.quantiles(raw, n=10)[8]),
        "speed_factor": sum(raw) / sum(lats),
    }))
    digests = getattr(wl, "digests", None)
    if digests:
        print("# report digests (sha256 without wall_time): " + json.dumps(digests, sort_keys=True))
        check_repeat(args.src_sha, "digests", digests)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failure_rate = {failed / len(records):.6g} ratio ({failed}/{len(records)})")
    return metrics, len(records), failed


def traced(args) -> tuple[dict, int, int]:
    wl_rounds = WORKLOADS[args.workload].trace_rounds
    _, _, wl, gd, inputs = setup(args.workload, args.seed, wl_rounds)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "gaussdiff" or n.startswith("gaussdiff.")]

    def stop(ops, elapsed, rounds):
        return rounds >= wl_rounds

    def op_seconds(records):
        return sum(lat for _, lat, _, _ in records if lat is not None)

    wl.reset()
    records, _ = run_batch(wl, inputs, stop)
    untraced_s = op_seconds(records)
    passes = []
    for _ in range(2):
        wl.reset()
        tr = Tracer()
        tr.install(gd, modules)
        try:
            recs, _ = run_batch(wl, inputs, stop, trace=tr)
        finally:
            tr.uninstall()
        passes.append((tr, op_seconds(recs), recs, dict(getattr(wl, "digests", {}))))
    (a, a_s, recs_a, dig_a), (b, b_s, recs_b, dig_b) = passes
    if a.deterministic() != b.deterministic() or dig_a != dig_b:
        raise RepeatError("deterministic counts or digests differ between the two traced passes")
    counts = a.deterministic()
    check_repeat(args.src_sha, f"counts/{args.workload}/{args.seed}/{wl_rounds}", counts)
    if dig_a:
        check_repeat(args.src_sha, "digests", dig_a)

    metrics = {}
    for span in SPANS:
        metrics[f"{span}.calls"] = (counts[f"{span}.calls"], "count")
        metrics[f"{span}.self_s"] = ((a.self_s[span] + b.self_s[span]) / 2.0, "s")
    for name in COUNTS + ("divdiff.recursion.combines", "divdiff.recursion.curve_evals"):
        metrics[name] = (counts[name], "bytes" if name.endswith("bytes_computed") else "count")
    elem = counts["simplefn.overlay.elem_cells"]
    metrics["simplefn.overlay.atom_yield"] = (counts["simplefn.overlay.atoms"] / elem if elem else 0.0, "ratio")
    rel = getattr(wl, "crosscheck", {})
    metrics["divdiff.crosscheck_max_rel"] = (max(rel.values(), default=0.0), "ratio")
    for k in range(1, 11):
        metrics[f"divdiff.crosscheck_max_rel.k{k}"] = (rel.get(k, 0.0), "ratio")
    metrics["trace.overhead_s"] = ((a_s + b_s) / 2.0 - untraced_s, "s")

    all_recs = records + recs_a + recs_b
    failed = sum(1 for *_, ok in all_recs if not ok)
    print(f"# traced batch: rounds={wl_rounds} ops={len(records)} untraced_op_s={untraced_s:.4f} "
          f"traced_op_s={a_s:.4f},{b_s:.4f}")
    if dig_a:
        print("# report digests (sha256 without wall_time): " + json.dumps(dig_a, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return metrics, len(all_recs), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        if args.setup_probe:
            setup_s, wall_s, *_ = setup(args.workload, args.seed, POOL_ROUNDS)
            print(json.dumps({"setup_s": setup_s, "wall_s": wall_s}))
            return 0
        require_source()
        args.src_sha = source_sha256()
        print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print(f"# why: {WORKLOADS[args.workload].why}")
        metrics, attempted, failed = (traced if args.trace else end_to_end)(args)
        print("# env " + json.dumps(environment(args.workload, args.seed, args.src_sha), sort_keys=True))
    except RepeatError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
