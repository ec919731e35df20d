"""What every workload shares: the pass context, the item runner and oracles."""

from __future__ import annotations

import random
import time

import calibrate
from gen import new_tag
from spans import NullTracer, Tracer

# How often a pass times the calibration probe, at most.
PROBE_EVERY_S = 0.1
CUT_RULES = frozenset(("P-Cut", "N-Cut", "Pn-Cut", "nN-Cut"))
LOGICAL_RULES = frozenset((
    "otimes_L", "otimes_R", "oplus_L", "oplus_R", "oslash_L", "oslash_R",
    "obslash_L", "obslash_R", "under_L", "under_R", "over_L", "over_R"))


class OracleError(Exception):
    """An output that the benchmark's oracle rejects."""


def expect(cond, what: str) -> None:
    if not cond:
        raise OracleError(what)


def nodes(d) -> int:
    """Rule applications in a derivation of either calculus."""
    return 1 + sum(nodes(p) for p in d.premises)


def rules_used(d, out=None) -> set:
    out = set() if out is None else out
    out.add(d.rule)
    for p in d.premises:
        rules_used(p, out)
    return out


def logical_count(d) -> int:
    return (d.rule in LOGICAL_RULES) + sum(logical_count(p) for p in d.premises)


class Context:
    """Seed, pass index and tracer of one pass; `tag` draws fresh names."""

    def __init__(self, seed: int, pass_index: int, tracer: Tracer | NullTracer):
        self.tracer = tracer
        self._names = random.Random(f"names/{seed}/{pass_index}")
        self._used: set = set()

    def tag(self) -> str:
        return new_tag(self._names, self._used)


class Pass:
    """Runs items one after another and records latency and failures.

    Between items, at most every PROBE_EVERY_S, it times `calibrate.probe`,
    so that each item's time can be scaled to a reference machine speed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.probes: list[tuple[float, float]] = []
        self.failed = 0
        self.errors: list[str] = []
        self._next_probe = 0.0

    def probe(self) -> None:
        """Time the probe now; (start, seconds) goes into `probes`."""
        t = time.perf_counter()
        self.probes.append((t, calibrate.probe()))
        self._next_probe = time.perf_counter() + PROBE_EVERY_S

    def item(self, item, fn, *args) -> None:
        if time.perf_counter() >= self._next_probe:
            self.probe()
        t0 = time.perf_counter()
        self.starts.append(t0)
        try:
            with self.tracer.span("bench.item", item):
                fn(*args)
        except Exception as exc:    # a failing item is counted; the pass goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{item}: {type(exc).__name__}: {exc}")
        self.latencies.append(time.perf_counter() - t0)
