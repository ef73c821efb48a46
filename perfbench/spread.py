"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0-9 [--trace 0|1] [--out FILE]

Reads BENCHMARK.json at the root of the checkout and runs its command once
per (seed, workload) pair, one after another, for every workload it lists
and for its run_seconds.  It prints for every metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median.  With fewer than four values the quartiles would be
extrapolated, so only the minimum and maximum are given.
With --trace 0 each end-to-end spread is compared with a third of the
metric's bound, and the wall-clock values that run.py prints next to the
reference-speed ones are summarised the same way.  --out writes the summary
as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_PREFIX = "# wall clock, not scaled: "


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(vals: list) -> dict:
    med = statistics.median(vals)
    if len(vals) < 4:
        return {"median": med, "min": min(vals), "max": max(vals), "values": vals}
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": vals}


def show(w: str, name: str, row: dict, flag: str = "") -> None:
    if "spread" in row:
        print(f"{w:16s} {name:32s} median {row['median']:12.6g}  q1 {row['q1']:12.6g}  "
              f"q3 {row['q3']:12.6g}  spread {row['spread']:7.4f}  {flag}")
    else:
        print(f"{w:16s} {name:32s} median {row['median']:12.6g}  min {row['min']:12.6g}  max {row['max']:12.6g}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    values: dict = {w: {} for w in workloads}
    wall: dict = {w: {} for w in workloads}
    failures = []
    env = None
    for seed in seeds:
        for w in workloads:
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                failures.append((w, seed, f"exit {proc.returncode}"))
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if env is None:
                env = next((json.loads(x[len("# env "):]) for x in lines if x.startswith("# env ")), None)
                for key in ("workload", "seed"):
                    env.pop(key, None)
            if not result["correct"] or result["failed"]:
                failures.append((w, seed, f"{result['failed']}/{result['attempted']} ops failed"))
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            for line in lines:
                if line.startswith(WALL_PREFIX):
                    for name, v in json.loads(line[len(WALL_PREFIX):]).items():
                        wall[w].setdefault(name, []).append(v)
            print(f"# {w} seed={seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if args.trace == 0
            ), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"env": env, "seeds": seeds, "seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    steady = True
    for w in workloads:
        rows = summary["workloads"][w] = {}
        for name, vals in values[w].items():
            rows[name] = row = summarise(vals)
            flag = ""
            if args.trace == 0 and name in bounds:
                flag = f"bound {bounds[name]:.2f}"
                if row.get("spread", 0.0) > bounds[name] / 3:
                    flag += "  WIDE (> bound/3)"
                    steady = False
            show(w, name, row, flag)
        if wall[w]:
            walls = summary["workloads"][w]["wall_clock"] = {}
            for name, vals in wall[w].items():
                walls[name] = row = summarise(vals)
                show(w, f"wall_clock.{name}", row)
    for w, seed, why in failures:
        print(f"FAILED {w} seed={seed}: {why}")
    if args.out:
        summary["failures"] = failures
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
