"""All-rules reference scans for the root-connective rule index.

These are the backward expansion of `fdlg.kernel` and the display-orbit step
of `fdlg.search` as they read before rules were indexed: every rule of
ORDERED_RULES is tried against the sequent.  `test_rule_index` requires the
indexed versions to return the same lists in the same order.  Likewise
`identify_rule` and `reapply` try every rule of REGISTRY, as
`fdlg.kernel.identify_rule` and the re-application of `fdlg.cutelim` did
before they scanned only the candidate rules; `test_kernel` and
`test_cutelim` require the same rule to be picked.
"""

from __future__ import annotations

from fdlg.kernel import KernelError, apply_rule_forward, match_rule
from fdlg.rules import (ORDERED_RULES, REGISTRY, SHIFT_DPS, MatchFail,
                        instantiate_sequent, match_sequent)
from fdlg.syntax import formula_nodes, leaf, render


def backward_expansions(goal, allow_variants=False, allow_cuts=False):
    out = []
    for rule in ORDERED_RULES:
        if rule.klass == "cut":
            continue
        if not allow_variants and rule.schema.uses_variants:
            continue
        env: dict = {}
        try:
            match_sequent(rule.schema.conclusion, goal, env)
        except MatchFail:
            continue
        if rule.klass == "axiom":
            out.append((rule.name, []))
            continue
        try:
            prems = [instantiate_sequent(p, env) for p in rule.schema.premises]
        except KeyError:
            continue
        out.append((rule.name, prems))
    if allow_cuts:
        for rule in ORDERED_RULES:
            if rule.klass != "cut":
                continue
            for a in sorted(set(formula_nodes(goal)), key=render):
                env = {}
                try:
                    match_sequent(rule.schema.conclusion, goal, env)
                    env["A"] = leaf(a)
                    prems = [instantiate_sequent(p, env) for p in rule.schema.premises]
                except (MatchFail, KeyError, ValueError):
                    continue
                out.append((rule.name, prems))
    return out


def display_steps(seq, allow_variants):
    dps = [r for r in ORDERED_RULES if r.klass == "dp"
           and r.name not in SHIFT_DPS
           and (allow_variants or not r.schema.uses_variants)]
    out = []
    for rule in dps:
        env: dict = {}
        try:
            match_sequent(rule.schema.conclusion, seq, env)
            prem = instantiate_sequent(rule.schema.premises[0], env)
        except (MatchFail, KeyError):
            continue
        out.append((rule.name, prem))
    return out


def identify_rule(conclusion, premises):
    orders = [list(premises)]
    if len(premises) == 2:
        orders.append([premises[1], premises[0]])
    for name, rule in REGISTRY.items():
        if rule.arity != len(premises):
            continue
        for prems in orders:
            if match_rule(name, conclusion, prems) is not None:
                return name if prems == list(premises) else name + "@swap"
    return None


def reapply(hint, premises, expected):
    """Name of the rule that re-applies over `premises` to give `expected`:
    the hint first, then every other rule; None if there is none."""
    prem_seqs = [p.conclusion for p in premises]
    for name in [hint] + [n for n in REGISTRY if n != hint]:
        if REGISTRY[name].arity != len(premises):
            continue
        try:
            conc = apply_rule_forward(name, prem_seqs)
        except KernelError:
            continue
        if conc == expected:
            return name
    return None
