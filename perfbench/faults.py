"""Faults injected into one pass, to show that the oracles catch them.

Each fault replaces one public function or rule of the program inside the
pass's own process; nothing on disk changes.
"""

from __future__ import annotations

from fdlg import cutelim, rules, search

from soundness_sweep import corrupted_rule


def _truncate_readings():
    parse = search.parse_sentence
    search.parse_sentence = lambda *args, **kw: parse(*args, **kw)[:-1]


def _corrupt_rule():
    bogus = corrupted_rule().schema
    rules.REGISTRY["otimes_R"] = rules.Directed(rules.RuleSchema(
        "otimes_R", bogus.klass, bogus.premises, bogus.conclusion))


def _keep_cut():
    cutelim.eliminate_cuts = lambda d, trace=None: d


# fault -> (workload it shows on, injector)
FAULTS = {
    "truncate-readings": ("scope-parse", _truncate_readings),
    "corrupt-rule": ("soundness-sweep", _corrupt_rule),
    "keep-cut": ("proof-transform", _keep_cut),
}


def inject(fault: str) -> None:
    FAULTS[fault][1]()
