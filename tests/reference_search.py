"""The display-orbit search of `fdlg.search` as it read before one call
computed each orbit and each sequent's steps once.

Every goal the search meets has its orbit rebuilt, and every orbit member has
its display postulates matched by `_display_steps` and its other rules by
`_expansions`, which takes them from the all-rules scan
`reference_rules.backward_expansions`, not from `fdlg.rules.backward`.
`test_search_reference` requires `fdlg.search.prove` to return the same
list, in the same order.
"""

from __future__ import annotations

from itertools import product

from fdlg.kernel import Derivation
from fdlg.rules import (REGISTRY, ORDERED_RULES, SHIFT_DPS, candidates,
                        match_sequent, instantiate_sequent, MatchFail)
from fdlg.search import SearchConfig
from fdlg.syntax import Sequent

from reference_rules import backward_expansions


# Display postulates the orbit may use, keyed by allow_variants.
_ORBIT_DPS = {v: frozenset(r for r in ORDERED_RULES if r.klass == "dp"
                           and r.name not in SHIFT_DPS
                           and (v or not r.schema.uses_variants))
              for v in (False, True)}


def _display_steps(seq: Sequent, allow_variants: bool):
    """(rule, premise) for each orbit display postulate concluding `seq`."""
    dps = _ORBIT_DPS[allow_variants]
    out = []
    for rule in candidates(seq):
        if rule not in dps:
            continue
        env: dict = {}
        try:
            match_sequent(rule.schema.conclusion, seq, env)
            prem = instantiate_sequent(rule.schema.premises[0], env)
        except (MatchFail, KeyError):
            continue
        out.append((rule.name, prem))
    return out


def _orbit(goal: Sequent):
    """Display orbit of `goal`: list of (member, downward dp path).

    The path lists (rule, conclusion) pairs rebuilding the chain from the
    member down to `goal`; breadth-first, deterministic order.
    """
    seen = {goal}
    out = [(goal, [])]
    frontier = [(goal, [])]
    while frontier:
        nxt = []
        for seq, path in frontier:
            for name, prem in _display_steps(seq, False):
                if prem in seen:
                    continue
                seen.add(prem)
                entry = (prem, [(name, seq)] + path)
                out.append(entry)
                nxt.append(entry)
        frontier = nxt
    return out


def _expansions(goal: Sequent):
    """Non-display backward expansions in the cut-free, variant-free fragment."""
    out = []
    for name, prems in backward_expansions(goal):
        if REGISTRY[name].klass == "dp":
            continue
        out.append((name, prems))
    return out


def _wrap_path(d: Derivation, path) -> Derivation:
    """Rebuild the dp chain below a subproof of an orbit member."""
    for rule, concl in path:
        d = Derivation(rule, concl, (d,))
    return d


def prove(goal: Sequent, cfg: SearchConfig | None = None) -> list[Derivation]:
    """All minimal proofs of `goal` up to the height bound, deduplicated.

    Complete for the minimal-proof search space within cfg.max_depth; an
    empty list means no proof was found within the bounds.  max_solutions
    caps the returned list (the enumeration order is deterministic).
    """
    cfg = cfg or SearchConfig()
    sols = _prove(goal, cfg.max_depth, frozenset())
    uniq: list[Derivation] = []
    seen = set()
    for d in sols:
        if d not in seen:
            seen.add(d)
            uniq.append(d)
    if cfg.max_solutions:
        uniq = uniq[:cfg.max_solutions]
    return uniq


def _prove(goal: Sequent, depth: int, visited: frozenset) -> list[Derivation]:
    if depth <= 0 or goal in visited:
        return []
    results: list[Derivation] = []
    orbit = _orbit(goal)
    blocked = visited | {m for m, _ in orbit}
    for member, path in orbit:
        cost = len(path) + 1
        if cost > depth:
            continue
        for name, prems in _expansions(member):
            if not prems:
                results.append(_wrap_path(Derivation(name, member), path))
                continue
            sub_lists = []
            dead = False
            for prem in prems:
                subs = _prove(prem, depth - cost, blocked)
                if not subs:
                    dead = True
                    break
                sub_lists.append(subs)
            if dead:
                continue
            for combo in product(*sub_lists):
                results.append(_wrap_path(Derivation(name, member, tuple(combo)), path))
    return results


