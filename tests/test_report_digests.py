"""`verify_all` reports are byte-identical to recorded digests.

Each report's JSON form without `wall_time` (sorted keys, indent 2) is
hashed with SHA-256, exactly as `perfbench.workloads.report_digest` does.
Seed 22 is one where an identity-failure sample rounds onto the unit
circle.  A change that is meant to change reports regenerates the data file
with `PYTHONPATH=src python tests/test_report_digests.py` and names the
entries that moved.
"""

import hashlib
import json
import pathlib

import pytest

from gaussdiff import verify_all

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


if __name__ == "__main__":
    digests = {key: d for seed in SEEDS for key, d in _digests(seed).items()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
