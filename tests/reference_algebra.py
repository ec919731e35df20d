"""Node-by-node evaluator for finite instances, kept as the reference.

`fdlg.algebra` evaluates rule patterns and sequents column-wise over tables
resolved once per instance.  This module keeps the straightforward version:
every node of every pattern is evaluated for every assignment by resolving
its connective again.  The differential tests require both to give the same
reports.  `_pattern_vars` and `_is_formula_var` walk the rule patterns as
`fdlg.algebra` did before `rules.Directed` compiled `var_sorts` and
`formula_vars`; a test requires the compiled maps to equal them.
"""

from __future__ import annotations

from itertools import product

from fdlg.algebra import (TAGS, AlgebraError, SoundnessReport, _KIND_BY_TAGS,
                          _OP_TARGET, _VAR_TARGET, atoms_of, valuations)
from fdlg.rules import (REGISTRY, Directed, SVar, FVar, AVar, SNode, FNode,
                        instantiate_sequent)
from fdlg.syntax import OP_OF_STRUCT, iter_structures


def tag_of(a, x) -> str:
    for t in TAGS:
        if x in a.poset(t).elements:
            return t
    raise AlgebraError(f"element {x!r} outside every carrier")


def relation_for_kind(a, kind: str):
    table = {
        "r": a.P.le, "r.": lambda x, y: (x, y) in a.wr_shifted_pos,
        "r:": a.Pd.le,
        "b": a.N.le, "b_": lambda x, y: (x, y) in a.wr_shifted_neg,
        "b:": a.Nd.le,
        "n": lambda x, y: (x, y) in a.wr_pure,
        "n_": a.preceqq, "n.": a.eqql,
    }
    if kind not in table:
        raise AlgebraError(f"no weakening relation interprets kind {kind!r}")
    return table[kind]


def apply(a, sym: str, *args):
    base = OP_OF_STRUCT.get(sym, sym)
    if base in ("up", "dn"):
        m = {"up": a.up, "dn": a.dn}[base]
        return m[args[0]]
    if sym == ".upl":
        return a.upl[args[0]]
    if sym == ".dnr":
        return a.dnr[args[0]]
    if base in _OP_TARGET:
        return a.ops[base][args]
    v = sym[1:] if sym.startswith(".") else sym
    if v in _VAR_TARGET:
        return a.variants[v][args]
    raise AlgebraError(f"no operation for {sym!r}")


def _eval_pattern(pat, a, env):
    if isinstance(pat, (SVar, FVar, AVar)):
        return env[pat.name]
    return apply(a, pat.conn, *(_eval_pattern(p, a, env) for p in pat.args))


def _pattern_vars(rule: Directed):
    out = {}

    def go(pat):
        if isinstance(pat, (SVar, FVar)):
            out[pat.name] = (pat.positive, pat.shifted)
        elif isinstance(pat, AVar):
            out[pat.name] = (pat.positive, False)
        elif isinstance(pat, (SNode, FNode)):
            for p in pat.args:
                go(p)

    for sp in list(rule.schema.premises) + [rule.schema.conclusion]:
        go(sp.pre)
        go(sp.suc)
    return out


def _is_formula_var(rule: Directed, name: str) -> bool:
    hit = []

    def go(pat):
        if isinstance(pat, (FVar, AVar)) and pat.name == name:
            hit.append(True)
        elif isinstance(pat, (SNode, FNode)):
            for p in pat.args:
                go(p)

    for sp in list(rule.schema.premises) + [rule.schema.conclusion]:
        go(sp.pre)
        go(sp.suc)
    return bool(hit)


def _pattern_truth(sp, a, env):
    """True/False, or None when the instance falls on an uninterpretable kind."""
    l = _eval_pattern(sp.pre, a, env)
    r = _eval_pattern(sp.suc, a, env)
    kind = _KIND_BY_TAGS.get((tag_of(a, l), tag_of(a, r)))
    if kind is None:
        return None
    return relation_for_kind(a, kind)(l, r)


def check_rule_soundness(rule, a, max_checks: int = 0) -> SoundnessReport:
    if isinstance(rule, str):
        rule = REGISTRY[rule]
    varspec = _pattern_vars(rule)
    names = sorted(varspec)
    pools = []
    for n in names:
        pol, sh = varspec[n]
        if pol:
            pool = (a.P.elements if sh is False else ()) + \
                   (a.Pd.elements if sh is True else ())
            if sh is None:
                pool = a.P.elements + a.Pd.elements
        else:
            pool = (a.N.elements if sh is False else ()) + \
                   (a.Nd.elements if sh is True else ())
            if sh is None:
                pool = a.N.elements + a.Nd.elements
        pools.append(pool)
    checked = 0
    violations = []
    for combo in product(*pools):
        if max_checks and checked >= max_checks:
            break
        env = dict(zip(names, combo))
        checked += 1
        try:
            prems = [_pattern_truth(sp, a, env) for sp in rule.schema.premises]
            conc = _pattern_truth(rule.schema.conclusion, a, env)
        except (KeyError, AlgebraError):
            continue
        if conc is None or any(p is None for p in prems):
            continue
        if all(prems) and not conc:
            violations.append(env)
    return SoundnessReport(rule.name, checked, violations)


def _eval_formula(x, a, v):
    if x.conn is None:
        return v[(x.atom.name, x.atom.positive)]
    return apply(a, x.conn, *(_eval_formula(y, a, v) for y in x.args))


def _eval_structure(x, a, v):
    if x.conn is None:
        return _eval_formula(x.leaf, a, v)
    return apply(a, x.conn, *(_eval_structure(y, a, v) for y in x.args))


def interpret(seq, a, v) -> bool:
    rel = relation_for_kind(a, seq.kind)
    return rel(_eval_structure(seq.pre, a, v), _eval_structure(seq.suc, a, v))


def template_checks(rule_name: str, a, atoms, depth: int = 2, cap: int = 12000):
    """The checks of the template sweep, in order: (env, premises, conclusion,
    valuation).  Instantiation failures of any kind are skipped."""
    rule = REGISTRY[rule_name]
    varspec = _pattern_vars(rule)
    names = sorted(varspec)
    all_structs = list(iter_structures(tuple(atoms), depth, include_variants=False))
    pools = []
    for n in names:
        pol, sh = varspec[n]
        pool = [st for st in all_structs
                if st.sort.positive == pol and (sh is None or st.sort.shifted == sh)]
        if rule.klass == "axiom" or _is_formula_var(rule, n):
            pool = [st for st in pool if st.conn is None]
        pools.append(pool)
    checked = 0
    for combo in product(*pools):
        if checked >= cap:
            break
        env = dict(zip(names, combo))
        try:
            prems = [instantiate_sequent(sp, env) for sp in rule.schema.premises]
            conc = instantiate_sequent(rule.schema.conclusion, env)
        except Exception:
            continue
        seq_atoms = atoms_of(conc)
        for at in (at for p in prems for at in atoms_of(p)):
            if at not in seq_atoms:
                seq_atoms.append(at)
        for v in valuations(a, seq_atoms):
            checked += 1
            yield env, prems, conc, v


def check_rule_soundness_templates(rule_name: str, a, atoms, depth: int = 2,
                                   cap: int = 12000) -> SoundnessReport:
    checked = 0
    violations = []
    for env, prems, conc, v in template_checks(rule_name, a, atoms, depth, cap):
        checked += 1
        try:
            pv = [interpret(p, a, v) for p in prems]
            cv = interpret(conc, a, v)
        except AlgebraError:
            continue
        if all(pv) and not cv:
            violations.append((env, v))
    return SoundnessReport(rule_name, checked, violations)
