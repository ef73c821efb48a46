"""Divided differences and their gauge traces are byte-identical to recorded digests.

The `verify_all` digests run derivative orders k <= 4 and hash gauges,
not coefficients, so they cannot tell two difference engines apart.
These can.  For each of the three example curves, each k in ORDERS, each
centre in CENTERS and each shrink ratio in RATIOS, on the roots-of-unity
schedule of STEPS steps, two kinds of entry are hashed with SHA-256:

* `.../trace`: the `float.hex` values of the gauge trace of
  `derivative_by_limit`, with the example's gauge, one per line (or the
  error's message, where it raises);
* `.../atoms@n`: `repr` of the atoms of the difference at step n, for n
  in ATOM_STEPS.

`PYTHONPATH=src python tests/test_difference_digests.py` rewrites the
data file with every entry, in well under a minute; `--out PATH` writes
them to another file instead, and `--against PATH` recomputes them and
prints each entry that differs from PATH's or that only one side has,
exiting 1 if there is any, so two source trees are compared by running
`--out` on one and `--against` on the other.  Tier-1 recomputes the
PINNED schedules only.  A change that moves an entry says which entries
moved and why.
"""

import argparse
import hashlib
import json
import pathlib
import sys

import pytest

from gaussdiff import ShrinkSchedule, curve_for, derivative_by_limit, divided_diffs, gauge_for
import digest_files

DIGESTS = pathlib.Path(__file__).parent / "data" / "difference_digests.json"
EXAMPLES = ("example1", "example2", "example3")
ORDERS = (2, 4, 8, 12, 16, 20)
CENTERS = (0.3 + 0.7j, -0.4 + 0.5j)
RATIOS = (0.5, 0.9)
STEPS = 40
ATOM_STEPS = (5, 20, 35)
PINNED = (
    ("example1", 20, 0.3 + 0.7j, 0.5),
    ("example2", 12, -0.4 + 0.5j, 0.9),
    ("example3", 16, 0.3 + 0.7j, 0.5),
    ("example3", 2, -0.4 + 0.5j, 0.9),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digests(example: str, k: int, center: complex, ratio: float) -> dict:
    name = f"{example}/k={k}/center={center}/rho={ratio}"
    curve, sched = curve_for(example), ShrinkSchedule.roots_of_unity(k, ratio, STEPS)
    try:
        rep = derivative_by_limit(curve, center, k, sched, gauge=gauge_for(example))
        trace = "\n".join(g.hex() for g in rep.gauge_trace)
    except ValueError as exc:  # FloatRangeError too
        trace = f"{type(exc).__name__}: {exc}"
    out = {f"{name}/trace": _sha(trace)}
    tuples = [sched.tuple_at(center, n) for n in ATOM_STEPS]
    for n, g in zip(ATOM_STEPS, divided_diffs(curve, tuples)):
        out[f"{name}/atoms@{n}"] = _sha(repr(g.atoms))
    return out


def all_digests() -> dict:
    return {
        key: digest
        for example in EXAMPLES
        for k in ORDERS
        for center in CENTERS
        for ratio in RATIOS
        for key, digest in _digests(example, k, center, ratio).items()
    }


@pytest.mark.parametrize("example, k, center, ratio", PINNED)
def test_differences_match_recorded_digests(example, k, center, ratio):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = _digests(example, k, center, ratio)
    assert got == {key: recorded[key] for key in got}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write divided-difference digests as JSON.")
    where = parser.add_mutually_exclusive_group()
    where.add_argument(
        "--out", type=pathlib.Path, default=DIGESTS, help="default: the pinned data file"
    )
    where.add_argument(
        "--against", type=pathlib.Path, help="compare with this file instead of writing one"
    )
    args = parser.parse_args()
    if args.against:
        sys.exit(digest_files.against(args.against, all_digests()))
    digest_files.write(args.out, all_digests())
