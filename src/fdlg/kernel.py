"""Derivation trees, schema checking, forward/backward rule application.

Also houses the three derivation builders used by the completeness argument:
identity expansion on structures, the structural cut, and translation
saturation of one side of a sequent.  The structural cut re-runs the
parametric section below the cut through `fdlg.cutelim`, the same surgery
as a parametric cut-elimination move.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .syntax import (Formula, Structure, Sequent, Atom, leaf, formula_nodes,
                     render_sequent, parse_sequent, render_formula,
                     ParseError, MAX_NESTING)
from .rules import (REGISTRY, MatchFail, candidates, match_sequent,
                    instantiate_sequent)
from .standardize import StandardizeError, form_of, ftoM, ftom, str_of


class KernelError(ValueError):
    pass


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()

    def __repr__(self) -> str:
        return f"[{self.rule}: {render_sequent(self.conclusion)}]"


def rule_count(d) -> int:
    """Rule applications in a derivation of either calculus; any depth."""
    return sum(1 for _ in iter_nodes(d))


def height(d: Derivation) -> int:
    return 1 + max(len(path) for path, _ in iter_nodes(d))


def iter_nodes(d: Derivation, path: tuple[int, ...] = ()):
    """(path, node) for every node, in pre-order; iterative, so any depth.
    Walks any tree whose nodes keep their children in `premises`, so the
    companion calculus's derivations too."""
    stack = [(path, d)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((path + (i,), node.premises[i]))


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


def derive(name: str, *premises: Derivation, selector: Atom | None = None) -> Derivation:
    """Rule `name` applied forward to the premise derivations; axioms take
    their atom from `selector`."""
    return Derivation(name, apply_rule_forward(
        name, [p.conclusion for p in premises], selector), premises)


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
            for a in sorted(set(formula_nodes(goal)), key=render_formula):
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
    return derive(cut_rule_for(d1.conclusion, d2.conclusion), d1, d2)


# ---------------------------------------------------------------------------
# Occurrence threading.  Positions are ('pre'|'suc', path); the path walks
# structure arguments first and continues into formula arguments once it
# crosses a leaf.  Threading a conclusion position upward either lands inside
# a premise or hits the rule template itself (the occurrence is principal).


def trace_to_intro(node: Derivation, pos, path: tuple[int, ...] = ()):
    """Derivation path of the node whose rule introduced the occurrence."""
    res = REGISTRY[node.rule].thread_up(pos)
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
    orders = [list(premises)]
    if len(premises) == 2:
        orders.append([premises[1], premises[0]])
    for rule in candidates(conclusion):
        if rule.arity != len(premises):
            continue
        for prems in orders:
            if match_rule(rule.name, conclusion, prems) is not None:
                if prems == list(premises):
                    return rule.name
                return rule.name + "@swap"
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
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("a derivation document must be a JSON object")
    neg = doc.get("negAtoms", [])
    if not (isinstance(neg, list) and all(isinstance(a, str) for a in neg)):
        raise ParseError("negAtoms must be a list of atom names")
    return doc, frozenset(neg)


def read_nodes(x, make):
    """make(rule, conclusion text, premises) over a document's node tree,
    premises first; a malformed node, or premises nested more than
    MAX_NESTING deep, raises ParseError."""
    def node(x, depth: int):
        if depth > MAX_NESTING:
            raise ParseError(f"premises nested more than {MAX_NESTING} levels deep")
        if not isinstance(x, dict):
            raise ParseError("a derivation node must be a JSON object")
        for key in ("rule", "conclusion"):
            if not isinstance(x.get(key), str):
                raise ParseError(f"a derivation node needs a string {key!r}")
        premises = x.get("premises", [])
        if not isinstance(premises, list):
            raise ParseError("premises must be a list")
        return make(x["rule"], x["conclusion"],
                    tuple(node(p, depth + 1) for p in premises))
    return node(x, 0)


def derivation_from_json(text: str) -> tuple[Derivation, frozenset[str]]:
    doc, neg = read_document(text)
    return read_nodes(doc, lambda rule, conclusion, premises: Derivation(
        rule, parse_sequent(conclusion, neg), premises)), neg


def neg_atoms_of(d: Derivation) -> frozenset[str]:
    return frozenset(x.atom.name for _, nd in iter_nodes(d)
                     for x in formula_nodes(nd.conclusion)
                     if x.conn is None and not x.atom.positive)


# ---------------------------------------------------------------------------
# Translation saturation: fold one side of the end-sequent into a formula by
# display moves plus translation rules.  Works on neutral sequents (and on the
# grey positive/negative forms whose only blocker is a structural shift at the
# root, which the invertible structural rules remove).


def saturate_translations(d: Derivation, side: str) -> Derivation:
    """Extend `d` until the chosen side of its end-sequent is a formula."""
    if side not in ("pre", "suc"):
        raise KernelError("side must be 'pre' or 'suc'")
    target = d.conclusion.pre if side == "pre" else d.conclusion.suc
    try:
        form_of(target)
    except StandardizeError:
        raise KernelError("side contains a connective with no operational "
                          "counterpart") from None
    return _fold_pre(d) if side == "pre" else _fold_suc(d)


def _fold_suc(d: Derivation) -> Derivation:
    suc = d.conclusion.suc
    if suc.conn is None:
        return d
    c = suc.conn
    if c == ".dn":
        d = derive("s-down'", d)
        d = _fold_suc(d)
        d = derive("s-down", d)
        return derive("down_R", d)
    if c == ".(+)":
        if suc.args[0].conn is not None:
            d = derive("dp(.(/),.(+))'", d)    # left summand becomes the succedent
            d = _fold_suc(d)
            d = derive("dp(.(/),.(+))", d)
        if d.conclusion.suc.args[1].conn is not None:
            d = derive("dp(.(\\),.(+))", d)    # right summand becomes the succedent
            d = _fold_suc(d)
            d = derive("dp(.(\\),.(+))'", d)
        return derive("oplus_R", d)
    if c == ".\\":
        if suc.args[0].conn is not None:
            d = derive("dp(.*,.\\)", d)        # numerator to the precedent, then out
            d = derive("dp(.*,./)", d)
            d = _fold_pre(d)
            d = derive("dp(.*,./)'", d)
            d = derive("dp(.*,.\\)'", d)
        if d.conclusion.suc.args[1].conn is not None:
            d = derive("dp(.*,.\\)", d)
            d = _fold_suc(d)
            d = derive("dp(.*,.\\)'", d)
        return derive("under_R", d)
    if c == "./":
        if suc.args[1].conn is not None:
            d = derive("dp(.*,./)'", d)
            d = derive("dp(.*,.\\)'", d)
            d = _fold_pre(d)
            d = derive("dp(.*,.\\)", d)
            d = derive("dp(.*,./)", d)
        if d.conclusion.suc.args[0].conn is not None:
            d = derive("dp(.*,./)'", d)
            d = _fold_suc(d)
            d = derive("dp(.*,./)", d)
        return derive("over_R", d)
    raise KernelError(f"cannot fold succedent connective {c!r} in this position")


def _fold_pre(d: Derivation) -> Derivation:
    pre = d.conclusion.pre
    if pre.conn is None:
        return d
    c = pre.conn
    if c == ".up":
        d = derive("s-up'", d)
        d = _fold_pre(d)
        d = derive("s-up", d)
        return derive("up_L", d)
    if c == ".*":
        if pre.args[0].conn is not None:
            d = derive("dp(.*,./)", d)
            d = _fold_pre(d)
            d = derive("dp(.*,./)'", d)
        if d.conclusion.pre.args[1].conn is not None:
            d = derive("dp(.*,.\\)'", d)
            d = _fold_pre(d)
            d = derive("dp(.*,.\\)", d)
        return derive("otimes_L", d)
    if c == ".(/)":
        if pre.args[0].conn is not None:
            d = derive("dp(.(/),.(+))", d)
            d = _fold_pre(d)
            d = derive("dp(.(/),.(+))'", d)
        if d.conclusion.pre.args[1].conn is not None:
            d = derive("dp(.(/),.(+))", d)     # co-denominator to the succedent
            d = derive("dp(.(\\),.(+))", d)
            d = _fold_suc(d)
            d = derive("dp(.(\\),.(+))'", d)
            d = derive("dp(.(/),.(+))'", d)
        return derive("oslash_L", d)
    if c == ".(\\)":
        if pre.args[1].conn is not None:
            d = derive("dp(.(\\),.(+))'", d)
            d = _fold_pre(d)
            d = derive("dp(.(\\),.(+))", d)
        if d.conclusion.pre.args[0].conn is not None:
            d = derive("dp(.(\\),.(+))'", d)
            d = derive("dp(.(/),.(+))'", d)
            d = _fold_suc(d)
            d = derive("dp(.(/),.(+))", d)
            d = derive("dp(.(\\),.(+))", d)
        return derive("obslash_L", d)
    raise KernelError(f"cannot fold precedent connective {c!r} in this position")


# ---------------------------------------------------------------------------
# Identity expansion on structures: derives  lo(psi) |- hi(psi)  whenever both
# standard transforms are defined (see fdlg.standardize).


# Binary structural connective -> (rule, fold of the left argument's
# expansion, fold of the right one).  _fold_suc turns  lo(X) |- hi(X)  into
# lo(X) |- Form(X), _fold_pre into  Form(X) |- hi(X).
_EXPANSION = {
    ".*": ("otimes_R", _fold_suc, _fold_suc),
    ".(/)": ("oslash_R", _fold_suc, _fold_pre),
    ".(\\)": ("obslash_R", _fold_pre, _fold_suc),
    ".(+)": ("oplus_L", _fold_pre, _fold_pre),
    ".\\": ("under_L", _fold_suc, _fold_pre),
    "./": ("over_L", _fold_pre, _fold_suc),
}


def identity_expansion(psi: Structure) -> Derivation:
    ftom(psi), ftoM(psi)                  # raise StandardizeError if undefined
    if psi.conn is None:
        a = psi.leaf
        if a.conn is None:
            return derive("p-Id" if a.atom.positive else "n-Id", selector=a.atom)
        return identity_expansion(str_of(a))
    c = psi.conn
    if c == ".dn":
        sub = identity_expansion(psi.args[0])   # Form(D) |- hi(D), precedent is a formula
        return derive("down_L", sub)
    if c == ".up":
        sub = identity_expansion(psi.args[0])   # lo(X) |- Form(X)
        return derive("up_R", sub)
    if c not in _EXPANSION:
        raise KernelError(f"identity expansion undefined at {c!r}")
    rule, fold_l, fold_r = _EXPANSION[c]
    return derive(rule, fold_l(identity_expansion(psi.args[0])),
                  fold_r(identity_expansion(psi.args[1])))


# ---------------------------------------------------------------------------
# Structural cut: from  lo(psi) |- hi(phi)  and  lo(phi) |- hi(psi')  derive
# lo(psi) |- hi(psi'), by induction on the shared structure phi, using only
# the four formula cuts plus display moves.


def structural_cut(d1: Derivation, d2: Derivation, phi: Structure) -> Derivation:
    """Cut along a shared structure whose standard transforms both exist."""
    lo_phi, hi_phi = ftom(phi), ftoM(phi)
    if d1.conclusion.suc != hi_phi or d2.conclusion.pre != lo_phi:
        raise KernelError("end-sequents do not share the cut structure's transforms")
    return _scut(d1, d2)


def _inv(name: str) -> str:
    return name[:-1] if name.endswith("'") else name + "'"


def _scut(d1: Derivation, d2: Derivation) -> Derivation:
    """The shared piece sits displayed as d1's succedent (its upper standard
    transform) and d2's precedent (its lower one).  At most one of the two is
    structural; when both are formulas a plain cut applies.  A parametric
    section above the traced end-sequent is re-run over the result, relabelled
    by the mutation the cut structure's sort change calls for."""
    from .cutelim import mutation_for, rebuild_chain, trace_chain   # cutelim imports kernel
    suc, pre = d1.conclusion.suc, d2.conclusion.pre
    if pre.conn is not None:
        # lower transform structural: the piece is skeleton-positive, d1 ends
        # on its tonicity introduction (possibly below a parametric section)
        c = pre.conn
        chain, top = trace_chain(d1, ("suc", ()))
        red = d2.conclusion.suc.sort.positive      # positive residue: variant moves
        if c == ".*":
            d_u, d_o = ("dp(.*,.\\r)", "dp(.*,./l)") if red else \
                       ("dp(.*,.\\)", "dp(.*,./)")
            s = derive(_inv(d_u), d2)
            s = _scut(top.premises[1], s)
            s = derive(d_u, s)
            s = derive(d_o, s)
            s = _scut(top.premises[0], s)
            s = derive(_inv(d_o), s)
        elif c == ".(/)":
            d_a, d_b = ("dp(.(/),.(+)l)", "dp(.(\\)l,.(+)l)") if red else \
                       ("dp(.(/),.(+))", "dp(.(\\),.(+))")
            s = derive(d_a, d2)
            s = _scut(top.premises[0], s)
            s = derive(d_b, s)
            s = _scut(s, top.premises[1])
            s = derive(_inv(d_b), s)
            s = derive(_inv(d_a), s)
        elif c == ".(\\)":
            d_a, d_b = ("dp(.(\\),.(+)r)", "dp(.(/)r,.(+)r)") if red else \
                       ("dp(.(\\),.(+))'", "dp(.(/),.(+))'")
            s = derive(d_a, d2)
            s = _scut(top.premises[1], s)
            s = derive(d_b, s)
            s = _scut(s, top.premises[0])
            s = derive(_inv(d_b), s)
            s = derive(_inv(d_a), s)
        elif c == ".up":
            dp = "dp(.up,.dnr)" if d2.conclusion.suc.sort.shifted else "dp(.up,.dn)"
            s = derive(dp, d2)
            s = _scut(top.premises[0], s)
            s = derive(_inv(dp), s)
        else:
            raise KernelError(f"structural cut undefined at {c!r}")
        if chain:
            repl = d2.conclusion.suc
            s = rebuild_chain(chain, s, repl, mutation_for(suc.sort, "suc", repl.sort))
        return s
    if suc.conn is not None:
        # upper transform structural: dual, d2 ends on the introduction
        c = suc.conn
        chain, top = trace_chain(d2, ("pre", ()))
        blue = not d1.conclusion.pre.sort.positive
        if c == ".dn":
            s = derive("s-down'", d1)
            s = _scut(s, top.premises[0])
            s = derive("s-down", s)
        elif c == ".\\":
            d_u, d_o = ("dp(.*r,.\\)", "dp(.*r,./r)") if blue else \
                       ("dp(.*,.\\)", "dp(.*,./)")
            s = derive(d_u, d1)
            s = _scut(s, top.premises[1])
            s = derive(d_o, s)
            s = _scut(top.premises[0], s)
            s = derive(_inv(d_o), s)
            s = derive(_inv(d_u), s)
        elif c == "./":
            d_a, d_b = ("dp(.*l,./)'", "dp(.*l,.\\l)'") if blue else \
                       ("dp(.*,./)'", "dp(.*,.\\)'")
            s = derive(d_a, d1)
            s = _scut(s, top.premises[0])
            s = derive(d_b, s)
            s = _scut(top.premises[1], s)
            s = derive(_inv(d_b), s)
            s = derive(_inv(d_a), s)
        elif c == ".(+)":
            d_a, d_b = ("dp(.(/)l,.(+))'", "dp(.(\\)r,.(+))") if blue else \
                       ("dp(.(/),.(+))'", "dp(.(\\),.(+))")
            s = derive(d_a, d1)
            s = _scut(s, top.premises[0])
            s = derive(_inv(d_a), s)
            s = derive(d_b, s)
            s = _scut(s, top.premises[1])
            s = derive(_inv(d_b), s)
        else:
            raise KernelError(f"structural cut undefined at {c!r}")
        if chain:
            repl = d1.conclusion.pre
            s = rebuild_chain(chain, s, repl, mutation_for(pre.sort, "pre", repl.sort))
        return s
    if pre != suc:
        raise KernelError("cut pieces disagree")
    return make_cut(d1, d2)
