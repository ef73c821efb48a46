"""Region Booleans of many pieces are byte-identical to recorded digests.

The `verify_all` digests see only Booleans of one-piece operands.  These
see the Booleans of large canonical regions.  For each family (grid:
rectangles, radial: annuli), each draw in DRAWS, each seed in SEEDS and
each size m in SIZES, m pieces are drawn.  The "uniform" draw is the
benchmark's `region-booleans` one (rectangle corners uniform on
[-BOX, BOX], ring radii uniform on [0, 1.5 BOX]); it never makes two
pieces share an endpoint.  The "lattice" draw makes them touch: a
rectangle's x-sides and a ring's radii are multiples of STEP in the same
ranges, 1 to SPAN steps apart, and a rectangle's y-sides are two of
THIRDS, so neighbouring columns often have the same cross-section.  A
Boolean's kept columns then meet the swept ones at the window's edges,
where they must merge.

The union fold a of the first half of the pieces and the symmetric
difference fold b of the second half are built, then a's complement and
each Boolean of a and b.  Every region's entry is the SHA-256 of its
pieces' endpoints as `float.hex`, one piece a line, and of its mass;
`contains` hashes `region_contains` over the pairs in CONTAINS.

`PYTHONPATH=src python tests/test_region_digests.py` rewrites the data
file with every entry in about a second; `--out PATH` writes them to
another file instead, and `--against PATH` recomputes them and prints
each entry that differs from PATH's or that only one side has, exiting 1
if there is any, so two source trees are compared by running `--out` on
one and `--against` on the other.  Tier-1 recomputes the PINNED cases
only.  A change that moves an entry says which entries moved and why.
"""

import argparse
import hashlib
import json
import pathlib
import random
import sys
from functools import reduce

import pytest

from gaussdiff import (
    annulus,
    rect,
    region_complement,
    region_contains,
    region_difference,
    region_intersect,
    region_measure,
    region_symdiff,
    region_union,
)
import digest_files

DIGESTS = pathlib.Path(__file__).parent / "data" / "region_digests.json"
FAMILIES = ("grid", "radial")
DRAWS = ("uniform", "lattice")
SEEDS = (0, 1, 2, 3)
SIZES = (8, 32, 128)
BOX = 2.0
STEP = 0.25
SPAN = 3
THIRDS = (-BOX, 0.0, BOX)
CONTAINS = (("union", "a"), ("union", "b"), ("a", "intersect"), ("a", "b"), ("b", "a"))
PINNED = (
    ("grid", "uniform", 0, 128),
    ("radial", "uniform", 1, 128),
    ("grid", "uniform", 2, 32),
    ("radial", "uniform", 3, 8),
    ("grid", "lattice", 0, 32),
    ("radial", "lattice", 2, 32),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sides(rng: random.Random, draw: str, lo: float, hi: float) -> list:
    """Two sorted endpoints in [lo, hi]; on the lattice, 1 to SPAN steps apart."""
    if draw == "uniform":
        return sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
    k = rng.randrange(round(lo / STEP), round(hi / STEP) - SPAN + 1)
    return [STEP * k, STEP * (k + rng.randint(1, SPAN))]


def _pieces(family: str, draw: str, seed: int, m: int) -> list:
    rng = random.Random(f"region-digests:{family}:{draw}:{seed}:{m}")
    if family == "radial":
        return [annulus(*_sides(rng, draw, 0.0, 1.5 * BOX)) for _ in range(m)]
    out = []
    for _ in range(m):
        x = _sides(rng, draw, -BOX, BOX)
        y = _sides(rng, draw, -BOX, BOX) if draw == "uniform" else sorted(rng.sample(THIRDS, 2))
        out.append(rect(*x, *y))
    return out


def _text(region) -> str:
    if region.family == "grid":
        pieces = (f"{x.lo.hex()} {x.hi.hex()} {y.lo.hex()} {y.hi.hex()}" for x, y in region.cells)
    else:
        pieces = (f"{r.lo.hex()} {r.hi.hex()}" for r in region.rings)
    return "\n".join([*pieces, f"mass {region_measure(region).hex()}"])


def _digests(family: str, draw: str, seed: int, m: int) -> dict:
    pieces = _pieces(family, draw, seed, m)
    a = reduce(region_union, pieces[: m // 2])
    b = reduce(region_symdiff, pieces[m // 2 :])
    regions = {
        "a": a,
        "b": b,
        "union": region_union(a, b),
        "intersect": region_intersect(a, b),
        "a-b": region_difference(a, b),
        "b-a": region_difference(b, a),
        "symdiff": region_symdiff(a, b),
        "complement": region_complement(a),
    }
    name = f"{family}/{draw}/seed={seed}/m={m}"
    out = {f"{name}/{key}": _sha(_text(r)) for key, r in regions.items()}
    inside = (region_contains(regions[o], regions[i]) for o, i in CONTAINS)
    out[f"{name}/contains"] = _sha(" ".join(map(str, inside)))
    return out


def all_digests() -> dict:
    return {
        key: digest
        for family in FAMILIES
        for draw in DRAWS
        for seed in SEEDS
        for m in SIZES
        for key, digest in _digests(family, draw, seed, m).items()
    }


@pytest.mark.parametrize("family, draw, seed, m", PINNED)
def test_booleans_match_recorded_digests(family, draw, seed, m):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = _digests(family, draw, seed, m)
    assert got == {key: recorded[key] for key in got}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Write region Boolean digests as JSON.")
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
