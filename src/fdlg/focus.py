"""Signed generation trees, focalization checking and proof minimization.

Skeleton nodes are positively signed F-connectives or negatively signed
G-connectives (`syntax.skeleton`); everything else (atoms included) is PIA.
`syntax.signed_partition` splits a tree into maximal subtrees of one kind;
an atom joins its parent's component, so a PIA subtree never consists of
shift nodes alone.

A cut-free proof is strongly focalized when each PIA subtree of the
end-sequent is built by one uninterrupted tonicity section.  The check is
local to the nodes: no node is a cut, and each PIA connective that is an
argument of a PIA connective a node introduces meets only tonicity nodes on
its thread up to the node that introduces it.  Each rule's conclusion
pattern gives the connectives it introduces and their argument signs once
(`rules.Directed.pia`); only the tonicity rules introduce a PIA connective,
so a node that introduces one is a tonicity node.  On a kernel-valid
derivation this equals the definition anchored on the end-sequent, because:
- in a cut-free proof each end-sequent connective is introduced by exactly
  one node, and every connective a node introduces reaches the end-sequent;
- every rule keeps each metavariable's sign from conclusion to premise, so a
  connective that is PIA where it is introduced is PIA in the end-sequent;
- a member's thread passes through the node that introduces its parent, so
  a component's section is the union of its parent-child segments.
Only a proof that fails is walked from the end-sequent, to build the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, is_not

from .syntax import (Formula, Sequent, STRUCT_SHIFTS, skeleton, VARIANT_STRUCTS,
                     SHIFT_ADJOINTS, signed_nodes, signed_partition, render)
from .rules import CUT_RULES, REGISTRY, TONICITY_RULES, SHIFT_DPS
from .kernel import (Derivation, iter_nodes, nodes, path_str, struct_at, thread,
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


def signed_tree(seq: Sequent) -> SignedTree:
    labels, components = signed_partition((("pre", seq.pre, True), ("suc", seq.suc, False)))
    roots = {min(members, key=lambda p: (len(p[1]), p[1])) for _, members in components}
    # a connective's kind is its component's; an atom is PIA
    kind_of = {pos: kind for kind, members in components for pos in members}
    nodes = {pos: SignedNode(label, sign, is_atom, "pia" if is_atom else kind_of[pos],
                             pos in roots and pos[1] != ())
             for pos, (label, sign, is_atom) in labels.items()}
    return SignedTree(nodes, tuple((kind, frozenset(members)) for kind, members in components))


# ---------------------------------------------------------------------------
# Phases


def classify_phase(seq: Sequent) -> str:
    """'focused-positive' | 'focused-negative' | 'non-focused'."""
    fam = seq.kind[0]
    if fam == "n":
        return "non-focused"
    if _uses(seq, STRUCT_SHIFTS):
        return "non-focused"
    return "focused-positive" if fam == "r" else "focused-negative"


# A walk that stops at leaf structures sees the structure nodes alone.
_STRUCTURES = attrgetter("conn")


def _uses(seq: Sequent, conns: frozenset) -> bool:
    """Whether a structure node of `seq` has a connective in `conns`."""
    return any(node.conn in conns for x in (seq.pre, seq.suc)
               for _, node, _ in signed_nodes(x, below=_STRUCTURES))


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
    return [((side, path), node.leaf, sign)
            for side, x, side_sign in (("pre", seq.pre, True), ("suc", seq.suc, False))
            for path, node, sign in signed_nodes(x, side_sign, _STRUCTURES)
            if node.conn is None]


def _formula_components(fml: Formula, sign: bool):
    """The components of a formula's signed tree (`signed_partition`), as
    (kind, paths of their connective nodes)."""
    labels, components = signed_partition((("f", fml, sign),))
    return [(kind, frozenset(pos[1] for pos in members if not labels[pos][2]))
            for kind, members in components]


def _focalized(d: Derivation) -> bool:
    """Whether every node of `d` passes its local test: it is no cut, and
    each PIA child connective of a PIA connective it introduces meets only
    tonicity nodes on its thread up to the node that introduces it."""
    for node in nodes(d):
        if node.rule in CUT_RULES:
            return False
        for side, children in REGISTRY[node.rule].pia:
            for path, sign, (i, pside, ppath) in children:
                child = struct_at(node.conclusion, (side, path))
                if child.conn is None or skeleton(child.conn, sign):
                    continue
                for above, _, _ in thread(node.premises[i], (pside, ppath))[0]:
                    if above.rule not in TONICITY_RULES:
                        return False
    return True


def check_strong_focalization(d: Derivation) -> FocalizationReport:
    """Cut-free, and every PIA subtree of every formula is built by an
    uninterrupted tonicity section.

    `d` must be a derivation that passes `check_derivation`.  The verdict is
    local (`_focalized`); the module docstring says why it is the anchored
    definition on such a derivation.  Only a derivation that fails gets the
    anchored walk, which picks the report (`_anchored`), so every report is
    the anchored one.
    """
    if _focalized(d):
        return FocalizationReport(True)
    return _anchored(d)


def _anchored(d: Derivation) -> FocalizationReport:
    """The report of the check, anchored on end-sequent occurrences.

    A component's members all lie below its root, the member with the
    shortest path, and pattern leaves are never prefixes of one another:
    wherever the root's occurrence threads through a metavariable, so does
    each member, at the root's position plus the same suffix.  So the root is
    threaded once, to the node `top` that introduces it, and each member from
    `top` on; the whole section lies above `top`.  Members are visited in
    pre-order and each one's nodes from `top` up, so of several
    interruptions the one reported is the lowest on the first member's thread
    that has one.  A member's own introducer is not visited: it introduces a
    PIA connective, so it is a tonicity node.
    """
    if has_cut(d):
        return FocalizationReport(False, "proof contains a cut", "(root)")
    for ((side, base), fml, sign) in _formula_positions(d.conclusion):
        for kind, members in _formula_components(fml, sign):
            if kind != "pia" or not members:
                continue
            root = min(members)                 # a prefix of every member
            chain, top, (tside, tpath) = thread(d, (side, base + root))
            for fpath in sorted(members):       # pre-order
                section, _, _ = thread(top, (tside, tpath + fpath[len(root):]))
                for k, (node, _, _) in enumerate(section):
                    if node.rule not in TONICITY_RULES:
                        return FocalizationReport(
                            False,
                            f"PIA subtree of {render(fml)} interrupted by {node.rule}",
                            path_str(tuple(i for _, _, i in chain + section[:k])))
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


# the structural connectives that a minimal proof never uses
_VARIANTS = VARIANT_STRUCTS | SHIFT_ADJOINTS


def minimize_proof(d: Derivation) -> Derivation:
    """Cut-free, variant-free proof of the same end-sequent with no adjacent
    rule/inverse pair and no shift display postulate; `d` must pass
    `check_derivation`."""
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
    # one walk; a shift display postulate is reported before any variant
    variant = False
    for node in nodes(d):
        if node.rule in SHIFT_DPS:
            raise MinimizeError("a shift display postulate resists cancellation; "
                                "the input is outside the reducible fragment")
        variant = variant or _uses(node.conclusion, _VARIANTS)
    if variant:
        raise MinimizeError("an l/r-variant resists cancellation")
    rep = check_derivation(d)
    if not rep.ok:
        raise MinimizeError(f"minimized proof fails to re-check: {rep}")
    return d
