"""Write the reference density for the density-signed workload.

    python3 layerbench/make_reference.py

Runs `rank1spec density` with the workload's flags from this checkout's
`src/` and stores lambda in full and rho rounded to DECIMALS places,
together with the commit and source tree it came from. Regenerate it
only when a change to the solver's output is intended, and say so.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECIMALS = 6


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from rank1spec import cli
    from workloads import SIGNED_ARGV, SIGNED_REFERENCE

    with tempfile.TemporaryDirectory() as out:
        rc = cli.main(SIGNED_ARGV + ["--out", out])
        if rc != 0:
            print(f"density exited {rc}", file=sys.stderr)
            return 1
        table = np.loadtxt(Path(out) / "density.csv", delimiter=",",
                           skiprows=1)
    dirty = git("status", "--porcelain", "--", "src")
    reference = {
        "argv": SIGNED_ARGV,
        "commit": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "src_dirty": bool(dirty),
        "decimals": DECIMALS,
        "lambda": [float(x) for x in table[:, 0]],
        "rho": [round(float(v), DECIMALS) for v in table[:, 1]],
    }
    SIGNED_REFERENCE.write_text(json.dumps(reference) + "\n")
    print(f"wrote {SIGNED_REFERENCE} from commit {reference['commit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
