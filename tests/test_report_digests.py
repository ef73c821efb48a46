"""`verify_all` reports are byte-identical to recorded digests.

Each report's JSON form without `wall_time` (sorted keys, indent 2) is
hashed with SHA-256, exactly as `perfbench.workloads.report_digest` does.
Seed 22 is one where an identity-failure sample rounds onto the unit
circle.  A change that is meant to change reports regenerates the data file
with `PYTHONPATH=src python tests/test_report_digests.py` and names the
entries that moved.  `--seeds 0-159 --out PATH` writes the digests of a
seed range to another file instead, and `--seeds 0-159 --against PATH`
recomputes them on this tree (point PYTHONPATH at its `src/`) and prints
each entry that differs from PATH's or that only one side has, exiting 1
if there is any: run `--out` on one tree and `--against` on the other.
"""

import argparse
import hashlib
import json
import pathlib
import sys

import pytest

from gaussdiff import verify_all
import digest_files

DIGESTS = pathlib.Path(__file__).parent / "data" / "verify_all_digests.json"
SEEDS = (0, 22, 42)


def _digests(seed: int) -> dict:
    out = {}
    for name, report in verify_all(seed=seed):
        d = report.to_json_dict()
        d.pop("wall_time", None)
        text = json.dumps(d, sort_keys=True, indent=2)
        out[f"{seed}/{name}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_all_reports_match_recorded_digests(seed):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    want = {key: digest for key, digest in recorded.items() if key.startswith(f"{seed}/")}
    assert _digests(seed) == want


def all_digests(seeds) -> dict:
    return {key: digest for seed in seeds for key, digest in _digests(seed).items()}


def seed_range(text: str) -> range:
    """The seeds of an inclusive range A-B, or of one seed A."""
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write verify_all report digests as JSON.")
    parser.add_argument(
        "--seeds", type=seed_range, default=SEEDS, help="inclusive range A-B (default: 0, 22, 42)"
    )
    where = parser.add_mutually_exclusive_group()
    where.add_argument(
        "--out", type=pathlib.Path, default=DIGESTS, help="default: the pinned data file"
    )
    where.add_argument(
        "--against", type=pathlib.Path, help="compare with this file instead of writing one"
    )
    args = parser.parse_args()
    digests = all_digests(args.seeds)
    if args.against:
        sys.exit(digest_files.against(args.against, digests))
    digest_files.write(args.out, digests)
