"""Write a digest file, or compare digests against one, for the digest scripts.

`tests/test_report_digests.py` and `tests/test_difference_digests.py`
each map entry names to SHA-256 digests.  `--out PATH` writes them;
`--against PATH` recomputes them on the current tree and prints every
entry whose digest differs from PATH's or that only one side has.
"""

import json
import pathlib


def write(path: pathlib.Path, digests: dict) -> None:
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def against(path: pathlib.Path, digests: dict) -> int:
    """Print each entry that differs from PATH's or is missing on one side; 1 if any, else 0."""
    recorded = json.loads(path.read_text(encoding="utf-8"))
    moved = 0
    for key in sorted(recorded.keys() | digests.keys()):
        if key not in digests:
            print(f"{key}: only in {path}")
        elif key not in recorded:
            print(f"{key}: not in {path}")
        elif recorded[key] != digests[key]:
            print(f"{key}: differs")
        else:
            continue
        moved += 1
    return 1 if moved else 0
