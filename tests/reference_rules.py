"""The per-class matcher and all-rules reference scans.

`match_sequent` and `instantiate_sequent` are those of `fdlg.rules` as they
read before one `_match` and one `_inst` took either a formula or a
structure: a formula walk and a structure walk each, the structure walk
handing a leaf's formula to the formula walk.  `test_rules_reference`
requires both to fail or give equal bindings, and equal instances, for every
rule pattern; the scans below use this pair, so `test_rule_index` does not
compare the live matcher with itself.

The scans are the backward expansion of `fdlg.kernel` and the display-orbit step
of `fdlg.search` as they read before rules were indexed: every rule of
ORDERED_RULES is tried against the sequent.  `test_rule_index` requires the
indexed versions to return the same lists in the same order.  Likewise
`identify_rule` and `reapply` try every rule of REGISTRY, as
`fdlg.kernel.identify_rule` and the re-application of `fdlg.cutelim` did
before they scanned only the candidate rules; `test_kernel` and
`test_cutelim` require the same rule to be picked.

`thread_up` is `Directed.thread_up` as it read before the rules compiled
their thread maps: it scans the conclusion's metavariables and then the
premises' on every call.  `check_strong_focalization` is the focalization
check as it read before it threaded each component from its root: it traces
every member from the end-sequent with `trace_to_intro`, itself built on this
`thread_up`.  `test_threading` requires the same answers.
"""

from __future__ import annotations

from fdlg.cutelim import has_cut
from fdlg.focus import FocalizationReport, _formula_components, _formula_positions
from fdlg.kernel import Derivation, KernelError, apply_rule_forward, match_rule, path_str
from fdlg.rules import (ORDERED_RULES, REGISTRY, SHIFT_DPS, TONICITY_RULES, AVar, FNode,
                        FVar, MatchFail, SNode, SVar)
from fdlg.syntax import Formula, Sequent, Structure, formula_nodes, leaf, render


def _match_formula(pat, fml: Formula, env: dict) -> None:
    if isinstance(pat, FVar):
        st = fml.sort
        if st.positive != pat.positive or (pat.shifted is not None and st.shifted != pat.shifted):
            raise MatchFail
        if pat.name in env and env[pat.name] != fml:
            raise MatchFail
        env[pat.name] = fml
        return
    if isinstance(pat, AVar):
        if fml.conn is not None or fml.atom.positive != pat.positive:
            raise MatchFail
        if pat.name in env and env[pat.name] != fml:
            raise MatchFail
        env[pat.name] = fml
        return
    if isinstance(pat, FNode):
        if fml.conn != pat.conn:
            raise MatchFail
        for p, a in zip(pat.args, fml.args):
            _match_formula(p, a, env)
        return
    raise MatchFail


def _match(pat, st: Structure, env: dict) -> None:
    if isinstance(pat, SVar):
        so = st.sort
        if so.positive != pat.positive or (pat.shifted is not None and so.shifted != pat.shifted):
            raise MatchFail
        if pat.name in env and env[pat.name] != st:
            raise MatchFail
        env[pat.name] = st
        return
    if isinstance(pat, (FVar, AVar, FNode)):
        if st.conn is not None:
            raise MatchFail
        _match_formula(pat, st.leaf, env)
        return
    if isinstance(pat, SNode):
        if st.conn != pat.conn:
            raise MatchFail
        for p, a in zip(pat.args, st.args):
            _match(p, a, env)
        return
    raise MatchFail


def _inst_formula(pat, env: dict) -> Formula:
    if isinstance(pat, (FVar, AVar)):
        v = env[pat.name]
        if isinstance(v, Structure):     # a formula var may hold a leaf binding
            v = v.leaf
        return v
    if isinstance(pat, FNode):
        return Formula(pat.conn, None, tuple(_inst_formula(p, env) for p in pat.args))
    raise ValueError(f"cannot instantiate {pat!r} as a formula")


def _inst(pat, env: dict) -> Structure:
    if isinstance(pat, SVar):
        return env[pat.name]
    if isinstance(pat, (FVar, AVar, FNode)):
        return leaf(_inst_formula(pat, env))
    if isinstance(pat, SNode):
        return Structure(pat.conn, None, tuple(_inst(p, env) for p in pat.args))
    raise ValueError(f"cannot instantiate {pat!r}")


def match_sequent(pat, seq, env: dict) -> None:
    _match(pat.pre, seq.pre, env)
    _match(pat.suc, seq.suc, env)


def instantiate_sequent(pat, env: dict):
    return Sequent(_inst(pat.pre, env), _inst(pat.suc, env))


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


def thread_up(self, pos):
    """Map a conclusion position to ('principal', None) or (i, premise pos).

    A position inside a metavariable occurrence threads to the premise
    holding that metavariable; anything on the template skeleton counts as
    introduced by the rule.
    """
    side, path = pos
    for var, (vside, vpath) in self.conc_vars.items():
        if vside != side:
            continue
        if path[:len(vpath)] == vpath:
            rest = path[len(vpath):]
            for i, pv in enumerate(self.prem_vars):
                if var in pv:
                    pside, ppath = pv[var]
                    return (i, (pside, ppath + rest))
            return ("principal", None)   # var absent from premises (axiom atoms)
    return ("principal", None)


def trace_to_intro(node: Derivation, pos, path: tuple[int, ...] = ()):
    """Derivation path of the node whose rule introduced the occurrence."""
    path = list(path)
    while True:
        res = thread_up(REGISTRY[node.rule], pos)
        if res[0] == "principal":
            return tuple(path)
        i, pos = res
        path.append(i)
        node = node.premises[i]


def check_strong_focalization(d: Derivation) -> FocalizationReport:
    """Cut-free, and every PIA subtree of every formula is built by an
    uninterrupted tonicity section.

    Every formula occurring in a cut-free proof occurs inside the end-sequent
    (no rule erases material and signs are preserved along threads), so the
    check anchors on end-sequent occurrences.
    """
    if has_cut(d):
        return FocalizationReport(False, "proof contains a cut", "(root)")
    for (pos, fml, sign) in _formula_positions(d.conclusion):
        for kind, members in _formula_components(fml, sign):
            if kind != "pia" or not members:
                continue
            side, base = pos
            intro_paths = {}
            for fpath in members:
                node_path = trace_to_intro(d, (side, base + fpath))
                intro_paths[fpath] = node_path
            root_fpath = min(members, key=len)
            n0 = intro_paths[root_fpath]
            internal = set()
            for fpath, np in intro_paths.items():
                if np[:len(n0)] != n0:
                    return FocalizationReport(
                        False, "PIA subtree split across branches",
                        f"{render(fml)} at {path_str(np)}")
                for k in range(len(n0), len(np) + 1):
                    internal.add(np[:k])
            for np in internal:
                node = d
                for i in np:
                    node = node.premises[i]
                if node.rule not in TONICITY_RULES:
                    return FocalizationReport(
                        False,
                        f"PIA subtree of {render(fml)} interrupted by {node.rule}",
                        path_str(np))
    return FocalizationReport(True)
