"""Write or check all three digest gates of one source tree in one command.

The gates are the `verify_all` reports (`test_report_digests.py`, seeds
0-159 unless --seeds says otherwise), the divided differences
(`test_difference_digests.py`) and the region Booleans
(`test_region_digests.py`).  `--out DIR` writes their digests, computed
on the tree whose `src/` is on PYTHONPATH, to DIR/reports.json,
DIR/differences.json and DIR/regions.json.  `--against DIR` recomputes
them and prints each entry that differs from DIR's or that only one side
has, then one line per gate, and exits 1 if any entry moved.  To compare
two trees:

    PYTHONPATH=<parent>/src python tests/gates.py --out DIR
    PYTHONPATH=<change>/src python tests/gates.py --against DIR

with the same --seeds on both.  Each script also runs on its own.
"""

import argparse
import pathlib
import sys

import digest_files
import test_difference_digests
import test_region_digests
import test_report_digests


def all_gates(seeds: range) -> dict:
    """Each gate's file name and digests, on the tree on PYTHONPATH."""
    return {
        "reports.json": test_report_digests.all_digests(seeds),
        "differences.json": test_difference_digests.all_digests(),
        "regions.json": test_region_digests.all_digests(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write or check all three digest gates.")
    parser.add_argument(
        "--seeds",
        type=test_report_digests.seed_range,
        default="0-159",
        help="report seeds, an inclusive range A-B (default: 0-159)",
    )
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--out", type=pathlib.Path, help="write the digest files into this directory")
    where.add_argument("--against", type=pathlib.Path, help="compare with this directory's files")
    args = parser.parse_args(argv)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    moved = 0
    for name, digests in all_gates(args.seeds).items():
        if args.out:
            digest_files.write(args.out / name, digests)
            continue
        code = digest_files.against(args.against / name, digests)
        print(f"{name}: {'moved' if code else 'identical'} ({len(digests)} entries)")
        moved |= code
    return moved


if __name__ == "__main__":
    sys.exit(main())
