"""A fixed piece of pure-Python work that measures the machine's speed.

The CPU of a shared virtual machine changes speed on its own, by up to a
factor of two, for a fraction of a second to minutes at a time.  `probe` does
the same work on every call: it builds small trees of slotted objects and
tuples, hashes them into a dictionary and walks them, as the toolkit does
with its terms.  It uses none of the toolkit's code, so no change to the
toolkit changes its time, and it runs with the garbage collector off, so the
toolkit's live objects are not scanned in it.  A pass runs it between items,
and the benchmark reports the item times scaled to the speed at which the
probe takes `REFERENCE_S`.
"""

from __future__ import annotations

import gc
import time

# The probe's median time on the machine the baseline was measured on.
REFERENCE_S = 0.002
_ROUNDS = 160


class _Node:
    __slots__ = ("op", "args", "key")

    def __init__(self, op: str, args: tuple):
        self.op = op
        self.args = args
        self.key = (op, tuple(a.key if isinstance(a, _Node) else a for a in args))


def _depth(x) -> int:
    if not isinstance(x, _Node):
        return 0
    return 1 + max(_depth(a) for a in x.args)


def _work() -> int:
    table: dict = {}
    total = 0
    for i in range(_ROUNDS):
        leaf = _Node("atom", (i % 17,))
        t = _Node("*", (_Node("\\", (leaf, _Node("atom", (i % 5,)))), leaf))
        table[t.key] = table.get(t.key, 0) + 1
        total += _depth(t)
    return total + len(table)


def probe() -> float:
    """Seconds that one run of the fixed work takes, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
