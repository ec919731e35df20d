"""Signed generation trees, focalization checking and proof minimization.

Skeleton nodes are positively signed F-connectives or negatively signed
G-connectives; everything else (atoms included) is PIA.  For the partition
into maximal subtrees an atom joins its parent's component, so a PIA subtree
never consists of shift nodes alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_not

from .syntax import (Formula, Structure, Sequent, FAMILY, ORDER_TYPE,
                     STRUCT_SHIFTS, VARIANT_STRUCTS, render_formula)
from .rules import REGISTRY, TONICITY_RULES, SHIFT_DPS
from .kernel import (Derivation, iter_nodes, path_str, trace_to_intro,
                     derive, check_derivation, fold)
from .cutelim import eliminate_cuts, has_cut


# ---------------------------------------------------------------------------
# Signed generation trees


@dataclass(frozen=True)
class SignedNode:
    label: str              # connective token or atom name
    sign: bool              # True = +
    is_atom: bool
    classification: str     # 'skeleton' | 'pia'
    is_transition: bool


@dataclass(frozen=True)
class SignedTree:
    """Node map keyed by ('pre'|'suc', path) plus the component partition."""
    nodes: dict
    components: tuple       # tuple of (kind, frozenset of positions)


def _walk(x: Structure, sign: bool, side: str, path: tuple, out: dict):
    if x.conn is None:
        _walk_formula(x.leaf, sign, side, path, out)
        return
    out[(side, path)] = (x.conn, sign, False)
    for i, arg in enumerate(x.args):
        child = sign if ORDER_TYPE[x.conn][i] == 1 else not sign
        _walk(arg, child, side, path + (i,), out)


def _walk_formula(a: Formula, sign: bool, side: str, path: tuple, out: dict):
    if a.conn is None:
        out[(side, path)] = (a.atom.name, sign, True)
        return
    out[(side, path)] = (a.conn, sign, False)
    for i, arg in enumerate(a.args):
        child = sign if ORDER_TYPE[a.conn][i] == 1 else not sign
        _walk_formula(arg, child, side, path + (i,), out)


def _classify(label: str, sign: bool, is_atom: bool) -> str:
    if is_atom:
        return "pia"
    fam = FAMILY[label]
    return "skeleton" if (sign and fam == "F") or (not sign and fam == "G") else "pia"


def _components(raw: dict) -> list[tuple[str, set]]:
    """Maximal same-kind components of a signed tree given as position ->
    (label, sign, is_atom), as (kind, positions); an atom joins its parent's."""
    comp_of: dict = {}
    comps: list[tuple[str, set]] = []
    for pos in sorted(raw, key=lambda p: (p[0], len(p[1]), p[1])):
        label, sign, is_atom = raw[pos]
        cls = _classify(label, sign, is_atom)
        side, path = pos
        cid = comp_of.get((side, path[:-1])) if path else None
        if cid is not None and (is_atom or comps[cid][0] == cls):
            comps[cid][1].add(pos)
        else:
            cid = len(comps)
            comps.append((cls, {pos}))
        comp_of[pos] = cid
    return comps


def signed_tree(seq: Sequent) -> SignedTree:
    raw: dict = {}
    _walk(seq.pre, True, "pre", (), raw)
    _walk(seq.suc, False, "suc", (), raw)
    components = _components(raw)
    nodes = {}
    roots = {min(members, key=lambda p: (len(p[1]), p[1]))
             for _, members in components}
    for pos, (label, sign, is_atom) in raw.items():
        cls = _classify(label, sign, is_atom)
        is_trans = pos in roots and pos[1] != ()
        nodes[pos] = SignedNode(label, sign, is_atom, cls, is_trans)
    comps = tuple((kind, frozenset(members)) for kind, members in components)
    return SignedTree(nodes, comps)


# ---------------------------------------------------------------------------
# Phases


def classify_phase(seq: Sequent) -> str:
    """'focused-positive' | 'focused-negative' | 'non-focused'."""
    fam = seq.kind[0]
    if fam == "n":
        return "non-focused"
    if _has_struct_shift(seq.pre) or _has_struct_shift(seq.suc):
        return "non-focused"
    return "focused-positive" if fam == "r" else "focused-negative"


def _has_struct_shift(x: Structure) -> bool:
    if x.conn is None:
        return False
    if x.conn in STRUCT_SHIFTS:
        return True
    return any(_has_struct_shift(a) for a in x.args)


def region(seq: Sequent) -> str:
    """Region in the rule-topology diagram: white focused phases, yellow
    neutral sequents, grey for the rest."""
    fam = seq.kind[0]
    if fam == "n":
        return "yellow"
    return "grey" if classify_phase(seq) == "non-focused" else "white"


_SHIFT_EDGES = {
    "down_L": ("white", "grey"), "up_R": ("white", "grey"),
    "down_R": ("grey", "white"), "up_L": ("grey", "white"),
}


def phase_edge_ok(rule: str, premise_regions, concl_region) -> bool:
    """Conformance of one rule application with the topology of rules."""
    klass = REGISTRY[rule].klass
    if klass == "axiom":
        return concl_region == "white"
    if klass == "shift":
        want_prem, want_conc = _SHIFT_EDGES[rule]
        return all(r == want_prem for r in premise_regions) and concl_region == want_conc
    if klass == "struct":
        (p,), c = premise_regions, concl_region
        return {p, c} == {"yellow", "grey"}
    if klass == "dp":
        if rule in SHIFT_DPS:
            return all(r == "grey" for r in premise_regions) and concl_region == "grey"
        if REGISTRY[rule].schema.uses_variants:
            return all(r in ("white", "grey") for r in premise_regions)
        return all(r == "yellow" for r in premise_regions) and concl_region == "yellow"
    if klass == "tonicity":
        return all(r == "white" for r in premise_regions) and concl_region == "white"
    if klass == "translation":
        return all(r == "yellow" for r in premise_regions) and concl_region == "yellow"
    return False


# ---------------------------------------------------------------------------
# Strong focalization


@dataclass(frozen=True)
class FocalizationReport:
    ok: bool
    reason: str | None = None
    where: str | None = None

    def __str__(self):
        return "ok" if self.ok else f"{self.where}: {self.reason}"


def _formula_positions(seq: Sequent):
    """Positions of formula leaves in the end-sequent, with their signs."""
    out = []

    def go(x: Structure, sign: bool, side: str, path: tuple):
        if x.conn is None:
            out.append(((side, path), x.leaf, sign))
            return
        for i, arg in enumerate(x.args):
            child = sign if ORDER_TYPE[x.conn][i] == 1 else not sign
            go(arg, child, side, path + (i,))

    go(seq.pre, True, "pre", ())
    go(seq.suc, False, "suc", ())
    return out


def _formula_components(fml: Formula, sign: bool):
    """Maximal same-kind components of a formula's signed tree; atoms join
    their parent.  Yields (kind, positions of connective nodes)."""
    raw: dict = {}
    _walk_formula(fml, sign, "f", (), raw)
    return [(kind, frozenset(path for side, path in members if not raw[side, path][2]))
            for kind, members in _components(raw)]


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
                        f"{render_formula(fml)} at {path_str(np)}")
                for k in range(len(n0), len(np) + 1):
                    internal.add(np[:k])
            for np in internal:
                node = d
                for i in np:
                    node = node.premises[i]
                if node.rule not in TONICITY_RULES:
                    return FocalizationReport(
                        False,
                        f"PIA subtree of {render_formula(fml)} interrupted by {node.rule}",
                        path_str(np))
    return FocalizationReport(True)


# ---------------------------------------------------------------------------
# Entry and exit points


def entry_exit_points(d: Derivation):
    """(formula, tag, conclusion) per shift-rule application, root-first.

    The conclusion pins down the occurrence; distinct occurrences of one
    lexical formula are told apart by the sequent they are attacked in.
    """
    tags = {"down_L": "pos-entry", "up_R": "neg-entry",
            "down_R": "pos-exit", "up_L": "neg-exit"}
    out = []
    for path, node in iter_nodes(d):
        tag = tags.get(node.rule)
        if tag is None:
            continue
        if node.rule in ("down_L", "up_L"):
            fml = node.conclusion.pre.leaf
        else:
            fml = node.conclusion.suc.leaf
        out.append((fml, tag, node.conclusion))
    return out


# ---------------------------------------------------------------------------
# Proof minimization


class MinimizeError(ValueError):
    pass


def _cancel(d: Derivation, prems) -> Derivation:
    """One minimization step at `d`, whose premises were reduced to `prems`;
    `d` itself when nothing changes."""
    if any(map(is_not, prems, d.premises)):
        d = Derivation(d.rule, d.conclusion, prems)
    # the plain shift postulate is derivable from the two structural rules;
    # expanding it lets cancellation remove the fused shift detours
    if d.rule == "dp(.up,.dn)":
        d = Derivation("s-down", d.conclusion, (derive("s-up'", prems[0]),))
    elif d.rule == "dp(.up,.dn)'":
        d = Derivation("s-up", d.conclusion, (derive("s-down'", prems[0]),))
    inv = REGISTRY[d.rule].schema.inverse
    if inv and d.premises and d.premises[0].rule == inv:
        inner = d.premises[0].premises[0]
        if inner.conclusion == d.conclusion:
            return inner
    return d


def _contains_variants(d: Derivation) -> bool:
    def has_var(x: Structure) -> bool:
        if x.conn is None:
            return False
        if x.conn in VARIANT_STRUCTS or x.conn in (".upl", ".dnr"):
            return True
        return any(has_var(a) for a in x.args)
    return any(has_var(n.conclusion.pre) or has_var(n.conclusion.suc)
               for _, n in iter_nodes(d))


def minimize_proof(d: Derivation) -> Derivation:
    """Cut-free, variant-free proof of the same end-sequent with no adjacent
    rule/inverse pair and no shift display postulate."""
    end = d.conclusion
    if has_cut(d):
        d = eliminate_cuts(d)
    while True:
        nxt = fold(d, _cancel)
        if nxt is d:
            break
        d = nxt
    if d.conclusion != end:
        raise MinimizeError("minimization changed the end-sequent")
    if any(node.rule in SHIFT_DPS for _, node in iter_nodes(d)):
        raise MinimizeError("a shift display postulate resists cancellation; "
                            "the input is outside the reducible fragment")
    if _contains_variants(d):
        raise MinimizeError("an l/r-variant resists cancellation")
    rep = check_derivation(d)
    if not rep.ok:
        raise MinimizeError(f"minimized proof fails to re-check: {rep}")
    return d
