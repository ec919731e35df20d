"""One pass of one workload, in a process of its own.

    python3 perfbench/worker.py WORKLOAD SEED PASS TRACE [--inject FAULT]
    python3 perfbench/worker.py --prepare WORKLOAD SEED
    python3 perfbench/worker.py --setup-only WORKLOAD SEED PASS 0

Prints one JSON line: when the inputs were ready (CLOCK_MONOTONIC, shared
with the parent), every item's start and latency, the start
and time of every calibration probe, the failures, the peak resident memory
and, with TRACE 1, the per-layer totals.  `--setup-only` stops after the
set-up and prints when it was ready and the times of a few probes.  `--prepare`
prints the inputs made outside the timed process instead: the reading
documents of proof-transform, none for the other workloads.  The parent feeds
them to every pass on standard input.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fdlg import algebra                                    # noqa: E402

import faults                                               # noqa: E402
import proof_transform                                      # noqa: E402
import scope_parse                                          # noqa: E402
import soundness_sweep                                      # noqa: E402
import term_closure                                         # noqa: E402
from common import Context, Pass                            # noqa: E402
from spans import NullTracer, Tracer                        # noqa: E402

# Probes a set-up-only process times once its inputs are ready.
SETUP_PROBES = 3

WORKLOADS = {
    "scope-parse": scope_parse,
    "soundness-sweep": soundness_sweep,
    "proof-transform": proof_transform,
    "term-closure": term_closure,
}


def _generate_once(tracer) -> None:
    """Time random_instances, for information: the sweep reads frozen text."""
    with tracer.span("algebra.generate"):
        algebra.random_instances(soundness_sweep.COUNT, seed=soundness_sweep.GENERATOR_SEED)


def run_pass(workload: str, seed: int, pass_index: int, trace: bool, fault: str | None,
             setup_only: bool = False) -> dict:
    tracer = Tracer() if trace else NullTracer()
    if fault:
        faults.inject(fault)
    module = WORKLOADS[workload]
    ctx = Context(seed, pass_index, tracer)
    if module is proof_transform:
        inputs = module.setup(ctx, json.load(sys.stdin))
    else:
        inputs = module.setup(ctx)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    p = Pass(tracer)
    if setup_only:
        for _ in range(SETUP_PROBES):
            p.probe()
        return {"ready": ready, "probes": p.probes}
    module.run(inputs, p)
    p.probe()
    out = {"ready": ready, "starts": p.starts, "latencies": p.latencies,
           "probes": p.probes, "failed": p.failed, "errors": p.errors,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        if module is soundness_sweep:
            _generate_once(tracer)
        out["layers"] = tracer.layer_totals()
        out["counts"] = tracer.counts
        out["empty_search_s"] = sum(sp.end - sp.start for sp in tracer.spans
                                    if sp.name == "search.prove" and sp.attrs["readings"] == 0)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--prepare", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject", choices=sorted(faults.FAULTS))
    ap.add_argument("args", nargs="+")
    a = ap.parse_args()
    if a.prepare:
        workload, seed = a.args
        docs = proof_transform.prepare(int(seed)) if workload == "proof-transform" else []
        print(json.dumps(docs))
        return
    workload, seed, pass_index, trace = a.args
    print(json.dumps(run_pass(workload, int(seed), int(pass_index), trace == "1", a.inject,
                              a.setup_only)))


if __name__ == "__main__":
    main()
