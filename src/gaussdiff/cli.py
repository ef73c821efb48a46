"""Command-line front end: `verify <experiment> [options]` or `verify all`.

Single experiments print their report to stdout (or write it with --out);
`verify all` runs the whole suite and writes one report per experiment into
--outdir, the GAUSSDIFF_OUT_DIR environment variable, or ./reports.  The
exit code is 0 exactly when every verdict is PASS or DIVERGENT-AS-EXPECTED,
and 2 when the options do not form a valid configuration, such as a
negative --seed, or a NaN --tol, --ceiling or --p.  A single experiment
exits 2 on an --example it does not run on, on --outdir (it writes to
stdout or --out), and on any option that it does not read on its example.
Each reads --seed, --out and --format, and beyond those:

    smoothness example1 example2:  --k --rho --steps --tol --ceiling --center
    taylor-failure example1:       --rho --steps --tol --ceiling --center
    identity-failure example2:     --k --rho --steps --tol --ceiling
    c1-not-c2 example3:            --p --rho --steps --tol --ceiling
    real-restriction example1:     --k --rho --steps --tol --ceiling --center
    real-restriction example3:     --p --rho --steps --tol --ceiling
    measure-identities:            nothing more; it takes no example

`all` takes only --seed, --steps, --outdir and --format; its --steps
reaches the runs that read it, so not measure-identities.  An --out or
--outdir that cannot be written (a missing directory, a file where a
directory should be, an --out that is a directory) also exits 2, with one
`verify: cannot write ...` line; a single experiment checks its --out
before it runs.  A center with a negative real part needs `=`, as in
`--center=-0.5,0.3`: argparse reads a separate `-0.5,0.3` as an option.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import stat
import sys
from typing import Optional, Sequence

from .curves import ExampleId
from .experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    run_experiment,
    run_for,
    verify_all,
)

OUT_DIR_ENV = "GAUSSDIFF_OUT_DIR"

#: The options that set an ExperimentConfig field, and the field each sets.
_FIELDS = {
    "k": "k",
    "p": "p",
    "rho": "rho",
    "steps": "steps",
    "tol": "convergence_tol",
    "ceiling": "divergence_ceiling",
    "center": "center",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run the quantitative verification experiments and emit reports.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS + ("all",))
    parser.add_argument(
        "--example",
        choices=[example.value for example in ExampleId],
        help="curve under test (quadrant / annulus / half-plane)",
    )
    parser.add_argument("--k", type=int, help="derivative order (default 1)")
    parser.add_argument("--p", type=float, help="quasi-norm exponent in ]1/2,1[ (default 0.75)")
    parser.add_argument("--rho", type=float, help="shrink ratio in ]0,1[ (default 0.5)")
    parser.add_argument("--steps", type=int, help="schedule steps (default: the experiment's own)")
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
    kwargs = {field: getattr(args, opt) for opt, field in _FIELDS.items()}
    kwargs = {field: value for field, value in kwargs.items() if value is not None}
    if "center" in kwargs:
        kwargs["center"] = _parse_center(kwargs["center"])
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


def _reject_given(args: argparse.Namespace, names: Sequence[str], why: str) -> None:
    """Raise ConfigError naming every option of `names` that was given, after `why`."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise ConfigError(f"{why} {', '.join(given)}")


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError of writing `path` into the ConfigError `main` reports."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_out(path: str) -> None:
    """Raise `_writing`'s ConfigError now if `path` cannot be a file, before a run is spent.

    Its directory must exist and `path` must not be a directory; the write
    itself stays inside `_writing`, because it can still fail (permissions).
    """
    with _writing(path):
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))


def _dispatch(args: argparse.Namespace) -> int:
    if args.experiment == "all":
        single = [opt for opt in (*_FIELDS, "example", "out") if opt != "steps"]
        _reject_given(args, single, "`all` runs the default suite and takes no")
        outdir = args.outdir or os.environ.get(OUT_DIR_ENV) or "reports"
        with _writing(outdir):
            os.makedirs(outdir, exist_ok=True)
        overrides = {} if args.steps is None else {"steps": args.steps}
        all_ok = True
        for i, (name, report) in enumerate(verify_all(seed=args.seed, **overrides)):
            path = os.path.join(outdir, f"{i:02d}_{name}.{args.format}")
            with _writing(path):
                report.write(path, args.format)
            print(f"[{report.verdict}] {name} ({report.wall_time:.2f}s) -> {path}")
            all_ok = all_ok and report.ok
        return 0 if all_ok else 1

    if args.outdir is not None:
        raise ConfigError("--outdir is for `all`; a single report goes to stdout or --out")
    reads = run_for(args.experiment, args.example).reads
    read = [opt for opt, field in _FIELDS.items() if field in reads]
    on = "" if args.example is None else f" on {args.example}"
    named = [f"--{opt}" for opt in read] + ["--seed", "--out"]
    why = f"`{args.experiment}`{on} reads only {', '.join(named)} and --format; it takes no"
    _reject_given(args, [opt for opt in _FIELDS if opt not in read], why)
    if args.out:
        _check_out(args.out)
    report = run_experiment(_config_from_args(args))
    if args.out:
        with _writing(args.out):
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
