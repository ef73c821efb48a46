"""Command-line front end: `verify <experiment> [options]` or `verify all`.

Single experiments print their report to stdout (or write it with --out);
`verify all` runs the whole suite and writes one report per experiment into
--outdir, the GAUSSDIFF_OUT_DIR environment variable, or ./reports.  The
exit code is 0 exactly when every verdict is PASS or DIVERGENT-AS-EXPECTED,
and 2 when the options do not form a valid configuration, such as a
negative --seed, a NaN --tol, --ceiling or --p, an option `all` drops
(it takes only --seed, --steps, --outdir and --format), or --outdir for a
single experiment, which writes to stdout or --out.  A center with a
negative real part needs `=`, as in `--center=-0.5,0.3`: argparse reads
a separate `-0.5,0.3` as an option.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    run_experiment,
    verify_all,
)

OUT_DIR_ENV = "GAUSSDIFF_OUT_DIR"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run the quantitative verification experiments and emit reports.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS + ("all",))
    parser.add_argument(
        "--example",
        choices=("example1", "example2", "example3"),
        help="curve under test (quadrant / annulus / half-plane)",
    )
    parser.add_argument("--k", type=int, help="derivative order (default 1)")
    parser.add_argument("--p", type=float, help="quasi-norm exponent in ]1/2,1[ (default 0.75)")
    parser.add_argument("--rho", type=float, help="shrink ratio in ]0,1[ (default 0.5)")
    parser.add_argument("--steps", type=int, help="schedule steps (default 40; blow-up 120)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--tol", type=float, help="convergence tolerance (default 1e-6)")
    parser.add_argument("--ceiling", type=float, help="divergence ceiling (default 1e6)")
    parser.add_argument("--center", type=str, help="evaluation center as RE,IM")
    parser.add_argument("--out", type=str, help="write the single report to this file")
    parser.add_argument(
        "--outdir",
        type=str,
        help=f"directory for `all` reports (default ${OUT_DIR_ENV} or ./reports)",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _parse_center(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise ConfigError(f"--center expects RE,IM, got {text!r}") from None


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    kwargs = {}
    if args.k is not None:
        kwargs["k"] = args.k
    if args.p is not None:
        kwargs["p"] = args.p
    if args.rho is not None:
        kwargs["rho"] = args.rho
    if args.steps is not None:
        kwargs["steps"] = args.steps
    if args.tol is not None:
        kwargs["convergence_tol"] = args.tol
    if args.ceiling is not None:
        kwargs["divergence_ceiling"] = args.ceiling
    if args.center is not None:
        kwargs["center"] = _parse_center(args.center)
    return ExperimentConfig(
        experiment=args.experiment,
        example=args.example,
        seed=args.seed,
        **kwargs,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.experiment == "all":
        single = ("k", "p", "rho", "tol", "ceiling", "center", "example", "out")
        dropped = [f"--{name}" for name in single if getattr(args, name) is not None]
        if dropped:
            raise ConfigError(f"`all` runs the default suite and takes no {', '.join(dropped)}")
        outdir = args.outdir or os.environ.get(OUT_DIR_ENV) or "reports"
        os.makedirs(outdir, exist_ok=True)
        overrides = {} if args.steps is None else {"steps": args.steps}
        all_ok = True
        for i, (name, report) in enumerate(verify_all(seed=args.seed, **overrides)):
            path = os.path.join(outdir, f"{i:02d}_{name}.{args.format}")
            report.write(path, args.format)
            print(f"[{report.verdict}] {name} ({report.wall_time:.2f}s) -> {path}")
            all_ok = all_ok and report.ok
        return 0 if all_ok else 1

    if args.outdir is not None:
        raise ConfigError("--outdir is for `all`; a single report goes to stdout or --out")
    if args.experiment != "measure-identities" and args.example is None:
        print(f"--example is required for {args.experiment}", file=sys.stderr)
        return 2
    report = run_experiment(_config_from_args(args))
    if args.out:
        report.write(args.out, args.format)
        print(f"[{report.verdict}] {args.experiment} ({report.wall_time:.2f}s) -> {args.out}")
    else:
        text = report.to_csv_str() if args.format == "csv" else report.to_json_str()
        print(text)
        print(f"[{report.verdict}] {args.experiment} ({report.wall_time:.2f}s)", file=sys.stderr)
    return 0 if report.ok else 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
