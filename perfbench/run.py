"""Benchmark of the fdlg toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of BENCHMARK.json as a closed loop of passes: one process
with one thread at a time, each pass in a fresh process so that no pass finds
a cache warmed by another, and the next pass starting when the previous one
has ended.  A pass starts only if, judged by the pass before it, it ends
within --seconds; at least two passes run.
Every output is checked against the benchmark's oracles.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of BENCHMARK.json
with --trace 0, and its per-layer metrics with --trace 1.  A traced run
alternates untraced and traced passes, and reports the difference of their
mean pass times as the tracing overhead.

The end-to-end times are taken to a reference machine speed: each item's
latency is scaled by the time of the calibration probe (calibrate.py) that
its pass runs between items, next to that item.  The per-layer times are not
scaled; `bench.probe_ms` gives the probe time of the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
MIN_PASSES = 2
# Processes started only to time set-up, before the first pass, so that
# setup_s is a median of several even when only MIN_PASSES passes fit.
SETUP_RUNS = 3
# No pass starts that would end after this many seconds of the run, so a run
# stays within the three minutes it is allowed.
HARD_LIMIT_S = 150
# An item's time is scaled by the probes timed within this many seconds of
# it; at least common.PROBE_EVERY_S, so that every item has one.
PROBE_WINDOW_S = 0.2
# The fixed hash seed makes every pass hash, and so iterate sets, alike.
ENV = {**os.environ, "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker(args: list[str], stdin: str = "", timeout: float = HARD_LIMIT_S):
    """Run the worker to its end; its JSON line and its start time."""
    started = _now()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], input=stdin,
                              capture_output=True, text=True, timeout=timeout,
                              env=ENV, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran over {timeout:.0f}s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.splitlines()[-5:])
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{tail}")
    try:
        return json.loads(lines[-1]), started
    except ValueError:
        raise BenchError(f"worker {' '.join(args)} printed no result") from None


def run_passes(workload: str, seed: int, seconds: int,
               trace: bool) -> tuple[list[dict], list[dict]]:
    """The set-up-only runs and the passes of one run."""
    docs, _ = worker(["--prepare", workload, str(seed)])
    stdin = json.dumps(docs)
    start = _now()
    setups: list[dict] = []
    for i in range(SETUP_RUNS):
        res, started = worker(["--setup-only", workload, str(seed), str(-1 - i), "0"], stdin)
        res["setup_s"] = res["ready"] - started
        setups.append(res)
    passes: list[dict] = []
    last = 0.0
    while True:
        elapsed = _now() - start
        if len(passes) >= MIN_PASSES and elapsed + last > seconds:
            break
        if passes and elapsed + last > HARD_LIMIT_S:
            break
        traced = trace and len(passes) % 2 == 1
        res, started = worker([workload, str(seed), str(len(passes)), "1" if traced else "0"],
                               stdin, timeout=HARD_LIMIT_S - elapsed)
        last = _now() - started
        res["setup_s"] = res["ready"] - started
        res["traced"] = traced
        passes.append(res)
    return setups, passes


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _scale(probes: list, t0: float, t1: float) -> float:
    """The factor that takes a time spent from t0 to t1 to reference speed:
    calibrate.REFERENCE_S over the median probe time within PROBE_WINDOW_S
    of that stretch.  A pass times a probe at most common.PROBE_EVERY_S,
    plus the probe's own 2 ms, before each item starts, so there is one."""
    near = [d for t, d in probes if t0 - PROBE_WINDOW_S <= t <= t1 + PROBE_WINDOW_S]
    return calibrate.REFERENCE_S / statistics.median(near)


def scaled(p: dict) -> dict:
    """The pass with its item latencies, pass time and set-up time taken to
    reference speed.  The pass time becomes the sum of its item latencies,
    which leaves out the probes; set-up is scaled by the probes at the start
    of the pass."""
    probes, starts = p["probes"], p["starts"]
    latencies = [x * _scale(probes, t, t + x) for t, x in zip(starts, p["latencies"])]
    return {**p, "latencies": latencies, "wall_s": sum(latencies),
            "setup_s": scaled_setup(p)}


def scaled_setup(p: dict) -> float:
    """Set-up time at reference speed, by the first probes after set-up."""
    first = p["probes"][0][0]
    return p["setup_s"] * _scale(p["probes"], first, first)


def item_latencies(passes: list[dict]) -> list[float]:
    """Each item's latency: its mean over the passes of the run.

    Every pass runs the same items in the same order, only renamed, so item i
    of one pass is item i of every other.  Averaging an item over passes taken
    seconds apart smooths out the machine's changes of speed, which pooling
    the passes' latencies would turn into jumps of the percentiles."""
    if len({len(p["latencies"]) for p in passes}) != 1:
        raise BenchError("passes of one run ran different numbers of items")
    return [statistics.fmean(item) for item in zip(*(p["latencies"] for p in passes))]


def end_to_end(setups: list[float], passes: list[dict]) -> dict[str, float]:
    latencies = item_latencies(passes)
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "wall_s": statistics.fmean(p["wall_s"] for p in passes),
        "item_p50_ms": _percentile(latencies, 50) * 1e3,
        "item_p90_ms": _percentile(latencies, 90) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": 1 - failed / attempted,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(p: dict, names) -> dict[str, float]:
    """Layer metrics of one traced pass.  A name ending in `_s` is the time
    summed over that layer's spans; any other name is a count."""
    layers, counts = p["layers"], p["counts"]
    derived = {
        "search.empty_s": p["empty_search_s"],
        "rules.match_hit_ratio": _ratio(counts.get("rules.match_hits", 0),
                                        counts.get("rules.match_calls", 0)),
        "cutelim.growth_ratio": _ratio(counts.get("cutelim.nodes_out", 0),
                                       counts.get("cutelim.nodes_in", 0)),
        "bench.self_s": layers.get("bench.item.self", 0.0),
        "bench.probe_ms": statistics.median(d for _, d in p["probes"]) * 1e3,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith("_s"):
            out[name] = layers.get(name[:-2], 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out


def report(spec: dict, setups: list[dict], passes: list[dict], trace: bool) -> dict:
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        for err in p["errors"]:
            print(f"failed: {err}", file=sys.stderr)
    correct = failed == 0
    passes = [scaled(p) for p in passes]
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        values = end_to_end([scaled_setup(p) for p in setups], plain)
        metrics = spec["end_to_end"]
    else:
        traced = [p for p in passes if p["traced"]]
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "bench.trace_overhead_s"]
        per_pass = [per_layer(p, names) for p in traced]
        values = {}
        for name in names:
            column = [v[name] for v in per_pass]
            if name.endswith(("_s", "_ms")):
                values[name] = statistics.median(column)
                continue
            if len(set(column)) > 1:
                print(f"count {name} differs between passes: {column}", file=sys.stderr)
                correct = False
            values[name] = column[0]
        values["bench.trace_overhead_s"] = (statistics.fmean(p["wall_s"] for p in traced)
                                            - statistics.fmean(p["wall_s"] for p in plain))
        metrics = spec["per_layer"]
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metrics}}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be positive")
    try:
        setups, passes = run_passes(a.workload, a.seed, a.seconds, bool(a.trace))
        result = report(spec, setups, passes, bool(a.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
