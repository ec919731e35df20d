"""Derivation trees, schema checking, forward/backward rule application.

Also houses the three derivation builders used by the completeness argument:
identity expansion on structures, the structural cut, and translation
saturation of one side of a sequent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .syntax import (Formula, Structure, Sequent, Atom, leaf,
                     render_sequent, parse_sequent, render_formula,
                     OP_OF_STRUCT, STRUCT_OF_OP, ParseError)
from .rules import (REGISTRY, MatchFail, candidates, match_sequent,
                    instantiate_sequent, CUT_RULES)


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()

    def __repr__(self) -> str:
        return f"[{self.rule}: {render_sequent(self.conclusion)}]"


def rule_count(d: Derivation) -> int:
    return 1 + sum(rule_count(p) for p in d.premises)


def height(d: Derivation) -> int:
    return 1 + max((height(p) for p in d.premises), default=0)


def iter_nodes(d: Derivation, path: tuple[int, ...] = ()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from iter_nodes(p, path + (i,))


def path_str(path: tuple[int, ...]) -> str:
    return ".".join(f"premises[{i}]" for i in path) or "(root)"


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    path: tuple[int, ...] | None = None
    reason: str | None = None

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return f"{path_str(self.path)}: {self.reason}"


def match_rule(name: str, conclusion: Sequent, premises) -> dict | None:
    """Environment instantiating rule `name` at the given node, or None."""
    rule = REGISTRY.get(name)
    if rule is None or rule.arity != len(premises):
        return None
    env: dict = {}
    try:
        match_sequent(rule.schema.conclusion, conclusion, env)
        for pat, prem in zip(rule.schema.premises, premises):
            match_sequent(pat, prem, env)
    except MatchFail:
        return None
    return env


def check_derivation(d: Derivation) -> CheckReport:
    """Bottom-up schema check; reports the uppermost failing node."""
    nodes = sorted(iter_nodes(d), key=lambda pn: len(pn[0]), reverse=True)
    for path, node in nodes:
        rule = REGISTRY.get(node.rule)
        if rule is None:
            return CheckReport(False, path, f"unknown rule {node.rule!r}")
        if rule.arity != len(node.premises):
            return CheckReport(False, path,
                               f"{node.rule} expects {rule.arity} premise(s), got {len(node.premises)}")
        env = match_rule(node.rule, node.conclusion, [p.conclusion for p in node.premises])
        if env is None:
            return CheckReport(False, path,
                               f"{render_sequent(node.conclusion)} is not an instance of {node.rule}")
    return CheckReport(True)


def apply_rule_forward(name: str, premises, selector: Atom | None = None) -> Sequent:
    """The unique conclusion of `name` applied to premise sequents.

    Axioms have no premises; `selector` supplies their atom.
    """
    rule = REGISTRY.get(name)
    if rule is None:
        raise KernelError(f"unknown rule {name!r}")
    if rule.arity != len(premises):
        raise KernelError(f"{name} expects {rule.arity} premise(s)")
    env: dict = {}
    if rule.klass == "axiom":
        if selector is None:
            raise KernelError(f"{name} needs an atom selector")
        env["a"] = Formula(None, selector)
    try:
        for pat, prem in zip(rule.schema.premises, premises):
            match_sequent(pat, prem, env)
        return instantiate_sequent(rule.schema.conclusion, env)
    except (MatchFail, KeyError):
        raise KernelError(f"premises do not match the {name} schema") from None


def _subformulas(x) -> set[Formula]:
    out: set[Formula] = set()

    def go_f(fml: Formula):
        out.add(fml)
        for a in fml.args:
            go_f(a)

    def go_s(st: Structure):
        if st.conn is None:
            go_f(st.leaf)
        else:
            for a in st.args:
                go_s(a)

    go_s(x.pre)
    go_s(x.suc)
    return out


def backward_expansions(goal: Sequent, allow_variants: bool = False,
                        allow_cuts: bool = False):
    """All (rule, premise list) whose conclusion equals `goal`.

    With allow_variants=False, rules mentioning l/r-variants or shift adjoints
    are skipped.  Cut premises are not finitely enumerable in general; with
    allow_cuts=True, cut instances range over subformulas of the goal.
    """
    out = []
    rules = candidates(goal)
    for rule in rules:
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
        for rule in rules:
            if rule.klass != "cut":
                continue
            for a in sorted(_subformulas(goal), key=render_formula):
                env = {}
                try:
                    match_sequent(rule.schema.conclusion, goal, env)
                    env["A"] = leaf(a)
                    prems = [instantiate_sequent(p, env) for p in rule.schema.premises]
                except (MatchFail, KeyError, ValueError):
                    continue
                out.append((rule.name, prems))
    return out


def cut_rule_for(left: Sequent, right: Sequent) -> str:
    """The cut name in the four-rule inventory joining these premises."""
    a = left.suc
    if a.conn is not None or right.pre != a:
        raise KernelError("cut premises must share a displayed cut formula")
    if a.sort.positive:
        name = "P-Cut" if right.suc.sort.positive else "Pn-Cut"
    else:
        name = "N-Cut" if not left.pre.sort.positive else "nN-Cut"
    if match_rule(name, apply_rule_forward(name, [left, right]), [left, right]) is None:
        raise KernelError("no cut rule covers these premises")
    return name


def make_cut(d1: Derivation, d2: Derivation) -> Derivation:
    name = cut_rule_for(d1.conclusion, d2.conclusion)
    return Derivation(name, apply_rule_forward(name, [d1.conclusion, d2.conclusion]),
                      (d1, d2))


# ---------------------------------------------------------------------------
# Occurrence threading.  Positions are ('pre'|'suc', path); the path walks
# structure arguments first and continues into formula arguments once it
# crosses a leaf.  Threading a conclusion position upward either lands inside
# a premise or hits the rule template itself (the occurrence is principal).


def node_env(node: Derivation) -> dict:
    env = match_rule(node.rule, node.conclusion, [p.conclusion for p in node.premises])
    if env is None:
        raise KernelError(f"node is not an instance of {node.rule}")
    return env


def thread_up_at(node: Derivation, pos):
    """('principal', None) or (premise index, premise position)."""
    return REGISTRY[node.rule].thread_up(pos)


def trace_to_intro(node: Derivation, pos, path: tuple[int, ...] = ()):
    """Derivation path of the node whose rule introduced the occurrence."""
    res = thread_up_at(node, pos)
    if res[0] == "principal":
        return path
    i, pos2 = res
    return trace_to_intro(node.premises[i], pos2, path + (i,))


def struct_at(seq: Sequent, pos) -> Structure | Formula:
    side, path = pos
    cur = seq.pre if side == "pre" else seq.suc
    for k, i in enumerate(path):
        if cur.conn is None:
            fml = cur.leaf
            for j in path[k:]:
                fml = fml.args[j]
            return fml
        cur = cur.args[i]
    return cur


class MutationError(KernelError):
    pass


def subst_structure(st: Structure, path, repl: Structure) -> Structure:
    """Replace the subtree at `path`, relabelling connectives whose argument
    sorts no longer fit (the connective-level content of a mutation)."""
    if not path:
        return repl
    i = path[0]
    if st.conn is None:
        raise MutationError("substitution path crosses into a formula")
    args = list(st.args)
    args[i] = subst_structure(st.args[i], path[1:], repl)
    from .syntax import SortError, GROUP_OF
    try:
        return Structure(st.conn, None, tuple(args))
    except SortError:
        for alt in GROUP_OF.get(st.conn, ()):
            if alt == st.conn:
                continue
            try:
                return Structure(alt, None, tuple(args))
            except SortError:
                continue
        raise MutationError(f"star propagation reaches {st.conn!r}, which has "
                            f"no mutation for the new argument sorts")


def subst_at(seq: Sequent, pos, repl: Structure) -> Sequent:
    side, path = pos
    from .syntax import SortError
    try:
        if side == "pre":
            return Sequent(subst_structure(seq.pre, path, repl), seq.suc)
        return Sequent(seq.pre, subst_structure(seq.suc, path, repl))
    except SortError as e:
        raise MutationError(str(e)) from None


def identify_rule(conclusion: Sequent, premises) -> str | None:
    """The rule this (conclusion, premises) pair instantiates, trying both
    premise orders for binary rules."""
    from itertools import permutations
    orders = [list(premises)]
    if len(premises) == 2:
        orders.append([premises[1], premises[0]])
    for name, rule in REGISTRY.items():
        if rule.arity != len(premises):
            continue
        for prems in orders:
            if match_rule(name, conclusion, prems) is not None:
                if prems == list(premises):
                    return name
                return name + "@swap"
    return None


def transform_derivation(d: Derivation, seq_map) -> Derivation:
    """Map every sequent through `seq_map` and re-identify each rule.

    Fails if some node's image instantiates no rule; used for pushing proofs
    through the term symmetries.
    """
    prems = tuple(transform_derivation(p, seq_map) for p in d.premises)
    conc = seq_map(d.conclusion)
    name = identify_rule(conc, [p.conclusion for p in prems])
    if name is None:
        raise KernelError(f"image of {d.rule} instantiates no rule")
    if name.endswith("@swap"):
        name = name[:-5]
        prems = (prems[1], prems[0])
    return Derivation(name, conc, prems)


# ---------------------------------------------------------------------------
# Exchange format


def derivation_to_json(d: Derivation, neg_atoms) -> str:
    def node(x: Derivation):
        return {"rule": x.rule,
                "conclusion": render_sequent(x.conclusion),
                "premises": [node(p) for p in x.premises]}
    doc = {"negAtoms": sorted(neg_atoms)}
    doc.update(node(d))
    return json.dumps(doc, indent=1)


def read_document(text: str) -> tuple[dict, frozenset[str]]:
    """The top-level object and the negative atoms of an exchange document;
    a malformed document raises ParseError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ParseError("a derivation document must be a JSON object")
    neg = doc.get("negAtoms", [])
    if not (isinstance(neg, list) and all(isinstance(a, str) for a in neg)):
        raise ParseError("negAtoms must be a list of atom names")
    return doc, frozenset(neg)


def read_nodes(x, make):
    """make(rule, conclusion text, premises) over a document's node tree,
    premises first; a malformed node raises ParseError."""
    if not isinstance(x, dict):
        raise ParseError("a derivation node must be a JSON object")
    for key in ("rule", "conclusion"):
        if not isinstance(x.get(key), str):
            raise ParseError(f"a derivation node needs a string {key!r}")
    premises = x.get("premises", [])
    if not isinstance(premises, list):
        raise ParseError("premises must be a list")
    return make(x["rule"], x["conclusion"], tuple(read_nodes(p, make) for p in premises))


def derivation_from_json(text: str) -> tuple[Derivation, frozenset[str]]:
    doc, neg = read_document(text)
    return read_nodes(doc, lambda rule, conclusion, premises: Derivation(
        rule, parse_sequent(conclusion, neg), premises)), neg


def neg_atoms_of(d: Derivation) -> frozenset[str]:
    out = set()

    def go_f(fml: Formula):
        if fml.conn is None:
            if not fml.atom.positive:
                out.add(fml.atom.name)
        else:
            for a in fml.args:
                go_f(a)

    def go_s(st: Structure):
        if st.conn is None:
            go_f(st.leaf)
        else:
            for a in st.args:
                go_s(a)

    for _, nd in iter_nodes(d):
        go_s(nd.conclusion.pre)
        go_s(nd.conclusion.suc)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Str / Form

def struct_of_formula(a: Formula) -> Structure:
    """Turn every connective of a formula into its structural counterpart."""
    if a.conn is None:
        return leaf(a)
    return Structure(STRUCT_OF_OP[a.conn], None,
                     tuple(struct_of_formula(x) for x in a.args))


def formula_of_struct(x: Structure) -> Formula | None:
    """All-operational reading of a structure; None where a connective has no
    operational counterpart (variants, shift adjoints)."""
    if x.conn is None:
        return x.leaf
    op = OP_OF_STRUCT.get(x.conn)
    if op is None:
        return None
    args = []
    for a in x.args:
        fa = formula_of_struct(a)
        if fa is None:
            return None
        args.append(fa)
    return Formula(op, None, tuple(args))


# ---------------------------------------------------------------------------
# Translation saturation: fold one side of the end-sequent into a formula by
# display moves plus translation rules.  Works on neutral sequents (and on the
# grey positive/negative forms whose only blocker is a structural shift at the
# root, which the invertible structural rules remove).


def _extend(d: Derivation, rule: str) -> Derivation:
    return Derivation(rule, apply_rule_forward(rule, [d.conclusion]), (d,))


def saturate_translations(d: Derivation, side: str) -> Derivation:
    """Extend `d` until the chosen side of its end-sequent is a formula."""
    if side not in ("pre", "suc"):
        raise KernelError("side must be 'pre' or 'suc'")
    target = d.conclusion.pre if side == "pre" else d.conclusion.suc
    if formula_of_struct(target) is None:
        raise KernelError("side contains a connective with no operational counterpart")
    return _fold_pre(d) if side == "pre" else _fold_suc(d)


def _fold_suc(d: Derivation) -> Derivation:
    suc = d.conclusion.suc
    if suc.conn is None:
        return d
    c = suc.conn
    if c == ".dn":
        d = _extend(d, "s-down'")
        d = _fold_suc(d)
        d = _extend(d, "s-down")
        return _extend(d, "down_R")
    if c == ".(+)":
        if suc.args[0].conn is not None:
            d = _extend(d, "dp(.(/),.(+))'")    # left summand becomes the succedent
            d = _fold_suc(d)
            d = _extend(d, "dp(.(/),.(+))")
        if d.conclusion.suc.args[1].conn is not None:
            d = _extend(d, "dp(.(\\),.(+))")    # right summand becomes the succedent
            d = _fold_suc(d)
            d = _extend(d, "dp(.(\\),.(+))'")
        return _extend(d, "oplus_R")
    if c == ".\\":
        if suc.args[0].conn is not None:
            d = _extend(d, "dp(.*,.\\)")        # numerator to the precedent, then out
            d = _extend(d, "dp(.*,./)")
            d = _fold_pre(d)
            d = _extend(d, "dp(.*,./)'")
            d = _extend(d, "dp(.*,.\\)'")
        if d.conclusion.suc.args[1].conn is not None:
            d = _extend(d, "dp(.*,.\\)")
            d = _fold_suc(d)
            d = _extend(d, "dp(.*,.\\)'")
        return _extend(d, "under_R")
    if c == "./":
        if suc.args[1].conn is not None:
            d = _extend(d, "dp(.*,./)'")
            d = _extend(d, "dp(.*,.\\)'")
            d = _fold_pre(d)
            d = _extend(d, "dp(.*,.\\)")
            d = _extend(d, "dp(.*,./)")
        if d.conclusion.suc.args[0].conn is not None:
            d = _extend(d, "dp(.*,./)'")
            d = _fold_suc(d)
            d = _extend(d, "dp(.*,./)")
        return _extend(d, "over_R")
    raise KernelError(f"cannot fold succedent connective {c!r} in this position")


def _fold_pre(d: Derivation) -> Derivation:
    pre = d.conclusion.pre
    if pre.conn is None:
        return d
    c = pre.conn
    if c == ".up":
        d = _extend(d, "s-up'")
        d = _fold_pre(d)
        d = _extend(d, "s-up")
        return _extend(d, "up_L")
    if c == ".*":
        if pre.args[0].conn is not None:
            d = _extend(d, "dp(.*,./)")
            d = _fold_pre(d)
            d = _extend(d, "dp(.*,./)'")
        if d.conclusion.pre.args[1].conn is not None:
            d = _extend(d, "dp(.*,.\\)'")
            d = _fold_pre(d)
            d = _extend(d, "dp(.*,.\\)")
        return _extend(d, "otimes_L")
    if c == ".(/)":
        if pre.args[0].conn is not None:
            d = _extend(d, "dp(.(/),.(+))")
            d = _fold_pre(d)
            d = _extend(d, "dp(.(/),.(+))'")
        if d.conclusion.pre.args[1].conn is not None:
            d = _extend(d, "dp(.(/),.(+))")     # co-denominator to the succedent
            d = _extend(d, "dp(.(\\),.(+))")
            d = _fold_suc(d)
            d = _extend(d, "dp(.(\\),.(+))'")
            d = _extend(d, "dp(.(/),.(+))'")
        return _extend(d, "oslash_L")
    if c == ".(\\)":
        if pre.args[1].conn is not None:
            d = _extend(d, "dp(.(\\),.(+))'")
            d = _fold_pre(d)
            d = _extend(d, "dp(.(\\),.(+))")
        if d.conclusion.pre.args[0].conn is not None:
            d = _extend(d, "dp(.(\\),.(+))'")
            d = _extend(d, "dp(.(/),.(+))'")
            d = _fold_suc(d)
            d = _extend(d, "dp(.(/),.(+))")
            d = _extend(d, "dp(.(\\),.(+))")
        return _extend(d, "obslash_L")
    raise KernelError(f"cannot fold precedent connective {c!r} in this position")


# ---------------------------------------------------------------------------
# Identity expansion on structures: derives  lo(psi) |- hi(psi)  whenever both
# standard transforms are defined (see fdlg.standardize).


def _expand_right(child: Structure) -> Derivation:
    """Derivation whose end-sequent is  lo(child) |- Form(child)  (a formula)."""
    d = identity_expansion(child)
    return _fold_suc(d)


def _expand_left(child: Structure) -> Derivation:
    """Derivation whose end-sequent is  Form(child) |- hi(child)."""
    d = identity_expansion(child)
    return _fold_pre(d)


def identity_expansion(psi: Structure) -> Derivation:
    from .standardize import ftom, ftoM   # local import; standardize is pure syntax

    lo_t, hi_t = ftom(psi), ftoM(psi)     # raises StandardizeError if undefined
    if psi.conn is None:
        a = psi.leaf
        if a.conn is None:
            name = "p-Id" if a.atom.positive else "n-Id"
            return Derivation(name, apply_rule_forward(name, [], selector=a.atom))
        return identity_expansion(struct_of_formula(a))
    c = psi.conn
    if c == ".dn":
        sub = identity_expansion(psi.args[0])   # Form(D) |- hi(D), precedent is a formula
        return _extend(sub, "down_L")
    if c == ".up":
        sub = identity_expansion(psi.args[0])   # lo(X) |- Form(X)
        return _extend(sub, "up_R")
    if c == ".*":
        l = _expand_right(psi.args[0])
        r = _expand_right(psi.args[1])
        return Derivation("otimes_R",
                          apply_rule_forward("otimes_R", [l.conclusion, r.conclusion]),
                          (l, r))
    if c == ".(/)":
        l = _expand_right(psi.args[0])
        r = _expand_left(psi.args[1])
        return Derivation("oslash_R",
                          apply_rule_forward("oslash_R", [l.conclusion, r.conclusion]),
                          (l, r))
    if c == ".(\\)":
        l = _expand_left(psi.args[0])
        r = _expand_right(psi.args[1])
        return Derivation("obslash_R",
                          apply_rule_forward("obslash_R", [l.conclusion, r.conclusion]),
                          (l, r))
    if c == ".(+)":
        l = _expand_left(psi.args[0])
        r = _expand_left(psi.args[1])
        return Derivation("oplus_L",
                          apply_rule_forward("oplus_L", [l.conclusion, r.conclusion]),
                          (l, r))
    if c == ".\\":
        l = _expand_right(psi.args[0])
        r = _expand_left(psi.args[1])
        return Derivation("under_L",
                          apply_rule_forward("under_L", [l.conclusion, r.conclusion]),
                          (l, r))
    if c == "./":
        l = _expand_left(psi.args[0])
        r = _expand_right(psi.args[1])
        return Derivation("over_L",
                          apply_rule_forward("over_L", [l.conclusion, r.conclusion]),
                          (l, r))
    raise KernelError(f"identity expansion undefined at {c!r}")


# ---------------------------------------------------------------------------
# Structural cut: from  lo(psi) |- hi(phi)  and  lo(phi) |- hi(psi')  derive
# lo(psi) |- hi(psi'), by induction on the shared structure phi, using only
# the four formula cuts plus display moves.


def _trace_chain(d: Derivation, pos):
    """Follow an occurrence upward to where it is principal (or an axiom).

    Returns (chain, top) where chain lists (node, conclusion position,
    premise index) from `d` upward, excluding the top node.
    """
    chain = []
    node = d
    while True:
        res = thread_up_at(node, pos)
        if res[0] == "principal":
            return chain, node
        i, pos2 = res
        chain.append((node, pos, i))
        node, pos = node.premises[i], pos2


def _rebuild_with(chain, rho: Derivation, repl: Structure) -> Derivation:
    """Re-run a traced section over a replacement subproof; the substituted
    occurrence may change sort, so nodes relabel per the matching mutation."""
    from .cutelim import mutate_sequent, mutation_for, position_class, CutElimError
    for node, pos, i in reversed(chain):
        old = struct_at(node.conclusion, pos)
        mu = mutation_for(old.sort, position_class(node.conclusion, pos), repl.sort)
        expected = mutate_sequent(node.conclusion, [pos], [repl], mu)
        prems = list(node.premises)
        prems[i] = rho
        rho = _reapply_any(node.rule, tuple(prems), expected)
    return rho


def _reapply_any(hint: str, premises, expected: Sequent) -> Derivation:
    prem_seqs = [p.conclusion for p in premises]
    for name in [hint] + [n for n in REGISTRY if n != hint]:
        if REGISTRY[name].arity != len(premises):
            continue
        try:
            conc = apply_rule_forward(name, prem_seqs)
        except KernelError:
            continue
        if conc == expected:
            return Derivation(name, conc, premises)
    raise KernelError(f"mutated instance of {hint} is not derivable")


def structural_cut(d1: Derivation, d2: Derivation, phi: Structure) -> Derivation:
    """Cut along a shared structure whose standard transforms both exist."""
    from .standardize import ftom, ftoM
    lo_phi, hi_phi = ftom(phi), ftoM(phi)
    if d1.conclusion.suc != hi_phi or d2.conclusion.pre != lo_phi:
        raise KernelError("end-sequents do not share the cut structure's transforms")
    return _scut(d1, d2)


def _inv(name: str) -> str:
    return name[:-1] if name.endswith("'") else name + "'"


def _scut(d1: Derivation, d2: Derivation) -> Derivation:
    """The shared piece sits displayed as d1's succedent (its upper standard
    transform) and d2's precedent (its lower one).  At most one of the two is
    structural; when both are formulas a plain cut applies."""
    suc, pre = d1.conclusion.suc, d2.conclusion.pre
    if pre.conn is not None:
        # lower transform structural: the piece is skeleton-positive, d1 ends
        # on its tonicity introduction (possibly below a parametric section)
        c = pre.conn
        chain, top = _trace_chain(d1, ("suc", ()))
        red = d2.conclusion.suc.sort.positive      # positive residue: variant moves
        if c == ".*":
            d_u, d_o = ("dp(.*,.\\r)", "dp(.*,./l)") if red else \
                       ("dp(.*,.\\)", "dp(.*,./)")
            s = _extend(d2, _inv(d_u))
            s = _scut(top.premises[1], s)
            s = _extend(s, d_u)
            s = _extend(s, d_o)
            s = _scut(top.premises[0], s)
            s = _extend(s, _inv(d_o))
        elif c == ".(/)":
            d_a, d_b = ("dp(.(/),.(+)l)", "dp(.(\\)l,.(+)l)") if red else \
                       ("dp(.(/),.(+))", "dp(.(\\),.(+))")
            s = _extend(d2, d_a)
            s = _scut(top.premises[0], s)
            s = _extend(s, d_b)
            s = _scut(s, top.premises[1])
            s = _extend(s, _inv(d_b))
            s = _extend(s, _inv(d_a))
        elif c == ".(\\)":
            d_a, d_b = ("dp(.(\\),.(+)r)", "dp(.(/)r,.(+)r)") if red else \
                       ("dp(.(\\),.(+))'", "dp(.(/),.(+))'")
            s = _extend(d2, d_a)
            s = _scut(top.premises[1], s)
            s = _extend(s, d_b)
            s = _scut(s, top.premises[0])
            s = _extend(s, _inv(d_b))
            s = _extend(s, _inv(d_a))
        elif c == ".up":
            dp = "dp(.up,.dnr)" if d2.conclusion.suc.sort.shifted else "dp(.up,.dn)"
            s = _extend(d2, dp)
            s = _scut(top.premises[0], s)
            s = _extend(s, _inv(dp))
        else:
            raise KernelError(f"structural cut undefined at {c!r}")
        return _rebuild_with(chain, s, d2.conclusion.suc)
    if suc.conn is not None:
        # upper transform structural: dual, d2 ends on the introduction
        c = suc.conn
        chain, top = _trace_chain(d2, ("pre", ()))
        blue = not d1.conclusion.pre.sort.positive
        if c == ".dn":
            s = _extend(d1, "s-down'")
            s = _scut(s, top.premises[0])
            s = _extend(s, "s-down")
        elif c == ".\\":
            d_u, d_o = ("dp(.*r,.\\)", "dp(.*r,./r)") if blue else \
                       ("dp(.*,.\\)", "dp(.*,./)")
            s = _extend(d1, d_u)
            s = _scut(s, top.premises[1])
            s = _extend(s, d_o)
            s = _scut(top.premises[0], s)
            s = _extend(s, _inv(d_o))
            s = _extend(s, _inv(d_u))
        elif c == "./":
            d_a, d_b = ("dp(.*l,./)'", "dp(.*l,.\\l)'") if blue else \
                       ("dp(.*,./)'", "dp(.*,.\\)'")
            s = _extend(d1, d_a)
            s = _scut(s, top.premises[0])
            s = _extend(s, d_b)
            s = _scut(top.premises[1], s)
            s = _extend(s, _inv(d_b))
            s = _extend(s, _inv(d_a))
        elif c == ".(+)":
            d_a, d_b = ("dp(.(/)l,.(+))'", "dp(.(\\)r,.(+))") if blue else \
                       ("dp(.(/),.(+))'", "dp(.(\\),.(+))")
            s = _extend(d1, d_a)
            s = _scut(s, top.premises[0])
            s = _extend(s, _inv(d_a))
            s = _extend(s, d_b)
            s = _scut(s, top.premises[1])
            s = _extend(s, _inv(d_b))
        else:
            raise KernelError(f"structural cut undefined at {c!r}")
        return _rebuild_with(chain, s, d1.conclusion.pre)
    if pre != suc:
        raise KernelError("cut pieces disagree")
    return make_cut(d1, d2)
