"""Run the benchmark on several seeds and summarize each metric's spread.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1-10] [--trace 0|1]
                                [--out FILE]

For every workload and metric it prints the median, the first and third
quartile (statistics.quantiles, n=4) and the spread, (q3 - q1) / median,
next to the metric's bound.  With --out it writes the same as JSON, the form
of baseline.json.  Run from the repository root; each run takes the
run_seconds of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out")
    a = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for workload in a.workloads.split(","):
        runs = []
        for seed in _seeds(a.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]), "--trace", a.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.splitlines()[-1])
            ok &= res["correct"] and res["failed"] == 0
            runs.append(res)
            print(workload, seed, json.dumps({k: v["value"] for k, v in res["metrics"].items()}),
                  file=sys.stderr, flush=True)
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            summary[workload][name] = s
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound}"
            if bound is not None and s["spread"] > bound:
                flag += " OVER"
            print(f"{workload:16} {name:28} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.3f}{flag}")
    if a.out:
        Path(a.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
