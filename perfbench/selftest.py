"""Show that the oracles catch wrong answers.

    python3 perfbench/selftest.py

Runs one pass of a workload with each fault of faults.py injected: a reading
list cut short by one (scope-parse), a corrupted rule in the registry
(soundness-sweep) and a cut left in the output of cut elimination
(proof-transform).  Each must raise the failed ratio above 0; the exit code
is 0 only if all three do.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import worker

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from faults import FAULTS                                   # noqa: E402

SEED = 1


def main() -> int:
    caught = 0
    for fault, (workload, _) in FAULTS.items():
        docs, _ = worker(["--prepare", workload, str(SEED)])
        res, _ = worker([workload, str(SEED), "0", "0", "--inject", fault], json.dumps(docs))
        ratio = res["failed"] / len(res["latencies"])
        caught += ratio > 0
        first = res["errors"][0] if res["errors"] else "none"
        print(f"{fault:18} {workload:16} failed_ratio {ratio:.4f} "
              f"({res['failed']}/{len(res['latencies'])}); first: {first}")
    return 0 if caught == len(FAULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
