"""Mutations, cross-sort uniform substitution, cut elimination and the
structural cut.

A parametric move pushes a cut to the uppermost principal occurrence of the
cut formula, substituting the other premise's side for the congruent
occurrences along the way.  The substituted structure can change sort, so the
connectives and turnstiles on the way down relabel according to one of the
four mutations.  A principal move reduces a cut on an introduced connective
to cuts on its immediate subformulas via display moves.  The structural cut
of the completeness argument reduces a cut on a whole structure the same
way, one connective at a time, and re-runs the parametric section above it
like a parametric move.  Both read their display moves and smaller cuts from
rows keyed by the displayed structural connective and the sort of the other
side: a binary connective's row comes from the display chains of its
residuation law (`rules.display_chain`), a shift's is typed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (OP_OF_STRUCT, Structure, Sequent, Sort, PP, PS, NP, NS, display_side,
                     render, render_sequent)
from .rules import (REGISTRY, CUT_RULES, PRINCIPAL_LEFT, PRINCIPAL_RIGHT, display_chain,
                    identify)
from .kernel import (Derivation, KernelError, TONICITY_SIDES, derive, fold,
                     make_cut, MutationError, nodes, subst_path, thread)
from .standardize import ftom, ftoM


class CutElimError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The four mutations.  Patterns map (sort, position) to a sort; everything not
# listed is fixed.  Connective and turnstile relabelling follows structurally
# (overloaded connectives absorb purity changes; shift connectives and
# variants swap within their group; the turnstile is recomputed from sorts).


@dataclass(frozen=True)
class Mutation:
    name: str
    patterns: dict = field(default_factory=dict)   # (Sort, 'pre'|'suc') -> Sort

    def sort_map(self, sort: Sort, pst: str) -> Sort:
        return self.patterns.get((sort, pst), sort)

    def contains(self, sort: Sort, pst: str, target: Sort) -> bool:
        return self.sort_map(sort, pst) == target


MU_ID = Mutation("mu(id)")
MU_DOTTED = Mutation("mu(r.,b_)", {
    (PS, "pre"): PP, (PP, "suc"): PS,
    (NP, "pre"): NS, (NS, "suc"): NP,
})
MU_NEUTRAL_DOTTED = Mutation("mu(n_,n.)", {
    (PP, "suc"): NS, (PS, "suc"): NP,
    (NP, "pre"): PS, (NS, "pre"): PP,
})
MU_NEUTRAL = Mutation("mu(n)", {
    (PP, "suc"): NP, (NP, "pre"): PP,
})

MUTATIONS = (MU_ID, MU_DOTTED, MU_NEUTRAL_DOTTED, MU_NEUTRAL)


def mutation_for(source: Sort, pst: str, target: Sort) -> Mutation:
    """The unique mutation containing the pattern source --pst--> target."""
    if source == target:
        return MU_ID
    for mu in MUTATIONS[1:]:
        if mu.contains(source, pst, target):
            return mu
    raise CutElimError(f"no mutation maps {source} to {target} at {pst}; "
                       f"the source sequent kind cannot be derivable")


def mutate_sequent(seq: Sequent, pos, repl: Structure, mu: Mutation) -> Sequent:
    """Uniform substitution with mutation.

    `pos` is the position of a formula occurrence in `seq`; `repl` must have
    the sort the mutation assigns to it there.  Relabelling of enclosing
    connectives and of the turnstile is forced by the new sorts.
    """
    side, path = pos
    # one descent gives the structures above the target, its parent and the
    # target; a path may go on into a leaf's formula, never substituted
    node, nodes, into_formula = seq.pre if side == "pre" else seq.suc, [], False
    for i in path:
        nodes.append(node)
        if node.conn is None and node.__class__ is Structure:
            node, into_formula = node.leaf, True
        node = node.args[i]
    pst = display_side(nodes[-1].conn, path[-1]) if path else side
    if not mu.contains(node.sort, pst, repl.sort):
        raise CutElimError(
            f"{mu.name} does not contain {node.sort} --{pst}--> {repl.sort}")
    if into_formula:
        raise MutationError("substitution path crosses into a formula")
    return subst_path(seq, side, nodes, path, repl)


# ---------------------------------------------------------------------------
# Cut elimination


def has_cut(d: Derivation) -> bool:
    return any(node.rule in CUT_RULES for node in nodes(d))


def _reapply(hint: str, premises: tuple[Derivation, ...], expected: Sequent) -> Derivation:
    """Rebuild one rule application over mutated premises.

    The original rule is tried first, then the candidates: when the mutation
    renames the rule (a variant postulate becoming its base instance, a shift
    adjoint becoming a shift), the first candidate rule that the node
    instantiates, matched with its premises as the kernel checks it, wins.
    """
    found = identify(expected, [premises], REGISTRY[hint])
    if found is None:
        raise CutElimError(f"mutated instance of {hint} is not derivable "
                           f"(expected {render_sequent(expected)})")
    return Derivation(found[0].name, expected, premises)


def rebuild_chain(chain, rho: Derivation, repl: Structure, mu: Mutation,
                  trace=None) -> Derivation:
    """Re-run a traced section over `rho`, which replaces its top node; the
    substituted occurrence becomes `repl`, and each conclusion relabels by
    `mu`.  Renamed rules are logged to `trace`."""
    for node, pos, i in reversed(chain):
        prems = list(node.premises)
        prems[i] = rho
        expected = mutate_sequent(node.conclusion, pos, repl, mu)
        rho = _reapply(node.rule, tuple(prems), expected)
        if trace is not None and rho.rule != node.rule:
            trace.append(f"mutated {node.rule} -> {rho.rule} under {mu.name}")
    return rho


def _parametric(d1: Derivation, d2: Derivation, side: str, trace) -> Derivation:
    """Push the cut into the premise where the cut formula, at `side` of its
    end-sequent, is not principal: d2 for 'pre', d1 for 'suc'."""
    traced, other = (d2, d1) if side == "pre" else (d1, d2)
    a, repl = getattr(traced.conclusion, side), getattr(other.conclusion, side)
    mu = mutation_for(a.sort, side, repl.sort)
    chain, top, _ = thread(traced, (side, ()))
    if trace is not None:
        trace.append(f"parametric {render(a.leaf)} {mu.name}")
    rho = _eliminate_cut(d1, top, trace) if side == "pre" else _eliminate_cut(top, d2, trace)
    return rebuild_chain(chain, rho, repl, mu, trace)


# ---------------------------------------------------------------------------
# Cut reductions.  A cut whose piece one premise displays as a structure and
# the other introduces (a principal cut on a formula, or the structural cut
# on a structure) reduces to cuts against the introducing node's premises by
# display moves on the displaying premise.  A row lists them in order, for the
# displayed structural connective and the sort of the residue, the displaying
# premise's other side: a move is a rule name, and an int i cuts against
# premise i of the introducing node, on the left of the cut when that
# premise's argument stands in its succedent (kernel.TONICITY_SIDES).  A
# binary connective's row displays the argument that the display chain search
# reaches first, cuts it, displays the other argument, cuts it, and moves
# back.  A cut leaves a structure of the argument's polarity in its place,
# which no binary display postulate tells apart from the argument, so the
# sample sequent's chains serve.  The shift rows are typed: a row's first
# comment gives the displaying premise's end-sequent and the introducing
# premise, the comment of each step the sequent it derives.

_SORTS = (PP, PS, NP, NS)

_SHIFT_REDUCTIONS = {
    **{(".dn", residue): (                                    # X |- .dn N;  N |- D
        "s-down'",                                            # X |- N
        0,                                                    # X |- D
        "s-down") for residue in _SORTS},                     # X |- .dn D
    **{(".up", residue): (                                    # .up P |- D;  X |- P
        dp,                                                   # P |- .dn D
        0,                                                    # X |- .dn D
        dp + "'") for residue in _SORTS                       # .up X |- D
       for dp in ["dp(.up,.dnr)" if residue.shifted else "dp(.up,.dn)"]},
}
# Cut elimination takes a principal up formula apart by the structural shift
# rule instead.
_SHIFT_ELIMINATIONS = {**_SHIFT_REDUCTIONS, **{(".up", residue): (
    "s-up'",                                                  # P |- D
    0,                                                        # X |- D
    "s-up") for residue in _SORTS}}                           # .up X |- D


def _binary_reduction(conn: str, residue: Sort) -> tuple:
    """The row of binary structural connective `conn` and residue sort
    `residue`."""
    first, i = display_chain(conn, residue.positive, None, (0, 1))
    then, j = display_chain(conn, residue.positive, i, (1 - i,))
    back, _ = display_chain(conn, residue.positive, j, (None,))
    return (*first, i, *then, j, *back)


def _reduce(shifts, shown: Derivation, side: str, intro: Derivation, cut) -> Derivation:
    """Run the row of the structure at `side` of `shown`'s end-sequent,
    introduced by `intro`, with the shift rows `shifts`; cut(left, right)
    makes each smaller cut."""
    conn = getattr(shown.conclusion, side).conn
    residue = getattr(shown.conclusion, "suc" if side == "pre" else "pre").sort
    steps = shifts.get((conn, residue)) or _binary_reduction(conn, residue)
    sides, s = TONICITY_SIDES[intro.rule], shown
    for step in steps:
        if step.__class__ is int:
            p = intro.premises[step]
            s = cut(p, s) if sides[step] == "suc" else cut(s, p)
        else:
            s = derive(step, s)
    return s


def _eliminate_cut(d1: Derivation, d2: Derivation, trace) -> Derivation:
    """Cut-free proof of the cut of two cut-free premise proofs."""
    a = d1.conclusion.suc
    if a.conn is not None or d2.conclusion.pre != a:
        raise CutElimError("cut formula must be displayed on both premises")
    if d1.rule in ("p-Id", "n-Id"):
        return d2
    if d2.rule in ("p-Id", "n-Id"):
        return d1
    if d2.rule not in PRINCIPAL_LEFT:
        return _parametric(d1, d2, "pre", trace)
    if d1.rule not in PRINCIPAL_RIGHT:
        return _parametric(d1, d2, "suc", trace)
    if trace is not None:
        trace.append(f"principal {render(a.leaf)}")
    # one premise introduces the cut formula; the other's premise displays it
    shown, side, intro = ((d2.premises[0], "pre", d1) if d1.rule in TONICITY_SIDES
                          else (d1.premises[0], "suc", d2))
    return _reduce(_SHIFT_ELIMINATIONS, shown, side, intro,
                   lambda l, r: _eliminate_cut(l, r, trace))


def eliminate_cuts(d: Derivation, trace: list | None = None) -> Derivation:
    """Cut-free derivation of the same end-sequent, keeping its cut-free subderivations."""
    def step(node: Derivation, prems) -> Derivation:
        if node.rule not in CUT_RULES:
            if all(p is q for p, q in zip(prems, node.premises)):
                return node
            return Derivation(node.rule, node.conclusion, prems)
        out = _eliminate_cut(prems[0], prems[1], trace)
        if out.conclusion != node.conclusion:
            raise CutElimError("cut elimination changed the end-sequent")
        return out
    return fold(d, step)


# ---------------------------------------------------------------------------
# Structural cut: from  lo(psi) |- hi(phi)  and  lo(phi) |- hi(psi')  derive
# lo(psi) |- hi(psi'), by induction on the shared structure phi, using only
# the four formula cuts plus the display moves of the reductions above.


def structural_cut(d1: Derivation, d2: Derivation, phi: Structure) -> Derivation:
    """Cut along a shared structure whose standard transforms both exist."""
    if d1.conclusion.suc != ftoM(phi) or d2.conclusion.pre != ftom(phi):
        raise KernelError("end-sequents do not share the cut structure's transforms")
    return _structural_cut(d1, d2)


def _structural_cut(d1: Derivation, d2: Derivation) -> Derivation:
    """The shared piece sits displayed as d1's succedent (its upper standard
    transform) and d2's precedent (its lower one).  At most one of the two is
    structural; when both are formulas a plain cut applies.  Otherwise the
    other premise introduces the piece, possibly below a parametric section,
    which is re-run over the reduction, relabelled by the mutation the cut
    structure's sort change calls for."""
    suc, pre = d1.conclusion.suc, d2.conclusion.pre
    if pre.conn is None and suc.conn is None:
        if pre != suc:
            raise KernelError("cut pieces disagree")
        return make_cut(d1, d2)
    shown, side, traced, where = ((d2, "pre", d1, "suc") if pre.conn is not None
                                  else (d1, "suc", d2, "pre"))
    conn = getattr(shown.conclusion, side).conn
    if conn not in OP_OF_STRUCT:
        raise KernelError(f"structural cut undefined at {conn!r}")
    chain, top, _ = thread(traced, (where, ()))
    s = _reduce(_SHIFT_REDUCTIONS, shown, side, top, _structural_cut)
    if chain:
        repl = getattr(shown.conclusion, where)
        mu = mutation_for(getattr(traced.conclusion, where).sort, where, repl.sort)
        s = rebuild_chain(chain, s, repl, mu)
    return s
