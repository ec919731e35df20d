"""Node-by-node evaluator for finite instances, kept as the reference.

`fdlg.algebra` evaluates rule patterns and sequents column-wise over tables
resolved once per instance.  This module keeps the straightforward version:
every node of every pattern is evaluated for every assignment by resolving
its connective again.  The differential tests require both to give the same
reports.  `_pattern_vars` and `_is_formula_var` walk the rule patterns as
`fdlg.algebra` did before `rules.Directed` compiled `var_sorts` and
`formula_vars`; a test requires the compiled maps to equal them.

`check_fplg_axioms` is the axiom check as it was before `fdlg.algebra` read
its signature from `syntax.STRUCT_SIG` and generated its residuation laws:
hand-typed targets and argument collages, two base and six variant
adjunction loops.  It keeps its own copies of the tables it used, and of
`is_weakening_relation` as it was then, which did not ask that a relation
lie inside its carriers.
"""

from __future__ import annotations

from itertools import product

from fdlg.algebra import (LG_OPS, TAGS, AlgebraError, FinitePoset, SoundnessReport,
                          _KIND_BY_TAGS, atoms_of, valuations)
from fdlg.rules import (REGISTRY, Directed, SVar, FVar, AVar, SNode, FNode,
                        instantiate_sequent)
from fdlg.syntax import OP_OF_STRUCT, iter_structures

_VARIANTS = ("*l", "*r", "(+)l", "(+)r", "\\l", "\\r", "/l", "/r",
             "(/)l", "(/)r", "(\\)l", "(\\)r")

# output carrier per operation
_OP_TARGET = {"*": "P", "(/)": "P", "(\\)": "P", "(+)": "N", "\\": "N", "/": "N"}
_VAR_TARGET = {v: ("Nd" if v[0] in "*(" and not v.startswith("(+)") else "Pd")
               for v in _VARIANTS}


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


def check_rule_soundness(rule, a) -> SoundnessReport:
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


def is_weakening_relation(rel, src: FinitePoset, tgt: FinitePoset) -> bool:
    """a' <= a, a R b, b <= b'  implies  a' R b'."""
    for (a, b) in rel:
        for a2 in src.elements:
            if not src.le(a2, a):
                continue
            for b2 in tgt.elements:
                if tgt.le(b, b2) and (a2, b2) not in rel:
                    return False
    return True


def check_fplg_axioms(a: FiniteFPLG) -> list[str]:
    """Exhaustive verification of the definition plus the collage equalities."""
    bad: list[str] = []
    carriers = {t: a.poset(t) for t in TAGS}
    seen = set()
    for t in TAGS:
        bad += [f"{t}: {m}" for m in carriers[t].check()]
        if seen & set(carriers[t].elements):
            bad.append(f"carrier {t} overlaps another carrier")
        seen |= set(carriers[t].elements)
    if bad:
        return bad

    def monotone(m, src: FinitePoset, tgt: FinitePoset, name: str):
        for x in src.elements:
            if x not in m or m[x] not in tgt.elements:
                bad.append(f"{name} not total at {x!r}")
                return
        for x, y in src.leq:
            if not tgt.le(m[x], m[y]):
                bad.append(f"{name} not monotone at {x!r},{y!r}")

    monotone(a.up, a.P, a.Nd, "up")
    monotone(a.upl, a.Pd, a.N, "upl")
    monotone(a.dn, a.N, a.Pd, "dn")
    monotone(a.dnr, a.Nd, a.P, "dnr")
    if bad:
        return bad

    for p, nd in product(a.P.elements, a.Nd.elements):
        if a.Nd.le(a.up[p], nd) != a.P.le(p, a.dnr[nd]):
            bad.append(f"outer shift adjunction fails at {p!r},{nd!r}")
    for pd, n in product(a.Pd.elements, a.N.elements):
        if a.N.le(a.upl[pd], n) != a.Pd.le(pd, a.dn[n]):
            bad.append(f"inner shift adjunction fails at {pd!r},{n!r}")

    if not is_weakening_relation(a.wr_shifted_pos, a.P, a.Pd):
        bad.append("the P-Pd relation is not a weakening relation")
    if not is_weakening_relation(a.wr_pure, a.P, a.N):
        bad.append("the P-N relation is not a weakening relation")
    if not is_weakening_relation(a.wr_shifted_neg, a.Nd, a.N):
        bad.append("the Nd-N relation is not a weakening relation")

    for p, n in product(a.P.elements, a.N.elements):
        r1 = (a.up[p], n) in a.wr_shifted_neg
        r2 = (p, n) in a.wr_pure
        r3 = (p, a.dn[n]) in a.wr_shifted_pos
        if not (r1 == r2 == r3):
            bad.append(f"shift intro/elim law fails at {p!r},{n!r}")
    if bad:
        return bad

    # composition equalities on the collage square
    for p, n in product(a.P.elements, a.N.elements):
        via_pd = any((p, pd) in a.wr_shifted_pos and a.preceqq(pd, n)
                     for pd in a.Pd.elements)
        via_nd = any(a.eqql(p, nd) and (nd, n) in a.wr_shifted_neg
                     for nd in a.Nd.elements)
        direct = (p, n) in a.wr_pure
        if not (via_pd == direct == via_nd):
            bad.append(f"collage composition equality fails at {p!r},{n!r}")

    rp, rn = a.ring_pos(), a.ring_neg()
    bad += [f"ring-pos: {m}" for m in rp.check()]
    bad += [f"ring-neg: {m}" for m in rn.check()]

    for sym in LG_OPS:
        table = a.ops.get(sym)
        if table is None:
            bad.append(f"missing operation {sym}")
            continue
        left = rp.elements if sym in ("*", "(/)", "\\") else rn.elements
        right = {"*": rp, "(/)": rn, "(\\)": rp,
                 "(+)": rn, "\\": rn, "/": rp}[sym].elements
        tgt = carriers[_OP_TARGET[sym]].elements
        for x, y in product(left, right):
            if (x, y) not in table or table[(x, y)] not in tgt:
                bad.append(f"{sym} not total into {_OP_TARGET[sym]} at {(x, y)!r}")
                return bad
    if bad:
        return bad

    hvd = a.hvd
    for p_, q_ in product(rp.elements, rp.elements):
        for n_ in rn.elements:
            r1 = hvd(q_, a.ops["\\"][(p_, n_)])
            r2 = hvd(a.ops["*"][(p_, q_)], n_)
            r3 = hvd(p_, a.ops["/"][(n_, q_)])
            if not (r1 == r2 == r3):
                bad.append(f"product adjunction fails at {(p_, q_, n_)!r}")
    for p_ in rp.elements:
        for m_, n_ in product(rn.elements, rn.elements):
            g1 = hvd(a.ops["(/)"][(p_, n_)], m_)
            g2 = hvd(p_, a.ops["(+)"][(m_, n_)])
            g3 = hvd(a.ops["(\\)"][(m_, p_)], n_)
            if not (g1 == g2 == g3):
                bad.append(f"coproduct adjunction fails at {(p_, m_, n_)!r}")
    if bad:
        return bad

    for v in _VARIANTS:
        if v not in a.variants:
            bad.append(f"missing variant {v}")
    if bad:
        return bad

    lep, len_ = rp.le, rn.le
    P_, N_ = rp.elements, rn.elements
    va, ops = a.variants, a.ops
    for p_, q_, r_ in product(P_, P_, P_):
        if not (lep(q_, va["\\r"][(p_, r_)])
                == lep(ops["*"][(p_, q_)], r_)
                == lep(p_, va["/l"][(r_, q_)])):
            bad.append(f"variant adjunction (product, pos) fails at {(p_, q_, r_)!r}")
            return bad
    for l_, m_, n_ in product(N_, N_, N_):
        if not (len_(va["(/)l"][(l_, n_)], m_)
                == len_(l_, ops["(+)"][(m_, n_)])
                == len_(va["(\\)r"][(m_, l_)], n_)):
            bad.append(f"variant adjunction (coproduct, neg) fails at {(l_, m_, n_)!r}")
            return bad
    for q_, l_, n_ in product(P_, N_, N_):
        if not (lep(q_, va["\\l"][(l_, n_)])
                == len_(va["*l"][(l_, q_)], n_)
                == len_(l_, ops["/"][(n_, q_)])):
            bad.append(f"variant adjunction (mixed under) fails at {(q_, l_, n_)!r}")
            return bad
    for p_, r_, m_ in product(P_, P_, N_):
        if not (len_(va["(/)r"][(p_, r_)], m_)
                == lep(p_, va["(+)r"][(m_, r_)])
                == lep(ops["(\\)"][(m_, p_)], r_)):
            bad.append(f"variant adjunction (mixed co-under) fails at {(p_, r_, m_)!r}")
            return bad
    for l_, p_, n_ in product(N_, P_, N_):
        if not (len_(l_, ops["\\"][(p_, n_)])
                == len_(va["*r"][(p_, l_)], n_)
                == lep(p_, va["/r"][(n_, l_)])):
            bad.append(f"variant adjunction (mixed over) fails at {(l_, p_, n_)!r}")
            return bad
    for p_, r_, n_ in product(P_, P_, N_):
        if not (lep(ops["(/)"][(p_, n_)], r_)
                == lep(p_, va["(+)l"][(r_, n_)])
                == len_(va["(\\)l"][(r_, p_)], n_)):
            bad.append(f"variant adjunction (mixed co-over) fails at {(p_, r_, n_)!r}")
            return bad
    return bad
