"""Mutations, cross-sort uniform substitution and cut elimination.

A parametric move pushes a cut to the uppermost principal occurrence of the
cut formula, substituting the other premise's side for the congruent
occurrences along the way.  The substituted structure can change sort, so the
connectives and turnstiles on the way down relabel according to one of the
four mutations.  Principal moves reduce a cut on an introduced connective to
cuts on its immediate subformulas via display moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (Structure, Sequent, Sort, PP, PS, NP, NS,
                     render, render_sequent)
from .rules import REGISTRY, CUT_RULES, PRINCIPAL_LEFT, PRINCIPAL_RIGHT, candidates
from .kernel import (Derivation, KernelError, apply_rule_forward, derive,
                     fold, iter_nodes, subst_at, struct_at, thread)


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


def position_class(seq: Sequent, pos) -> str:
    """Display position of an occurrence: 'pre' or 'suc'.

    Invariant under display postulates: an argument slot of an F-connective is
    precedent-positioned where covariant, and dually for G-connectives; whole
    sides carry their literal position.
    """
    from .syntax import FAMILY, ORDER_TYPE
    side, path = pos
    if not path:
        return side
    parent = struct_at(seq, (side, path[:-1]))
    conn = parent.conn if isinstance(parent, Structure) else parent.conn
    fam, eps = FAMILY[conn], ORDER_TYPE[conn][path[-1]]
    return "pre" if (fam == "F") == (eps == 1) else "suc"


def mutate_sequent(seq: Sequent, targets, replacements, mu: Mutation) -> Sequent:
    """Uniform substitution with mutation.

    `targets` are positions of formula occurrences in `seq`; each replacement
    must have the sort the mutation assigns to its target.  Relabelling of
    enclosing connectives and of the turnstile is forced by the new sorts.
    """
    if len(targets) != len(replacements):
        raise CutElimError("one replacement per target")
    out = seq
    for pos, repl in zip(targets, replacements):
        pst = position_class(seq, pos)
        old = struct_at(seq, pos)
        old_sort = old.sort
        if not mu.contains(old_sort, pst, repl.sort):
            raise CutElimError(
                f"{mu.name} does not contain {old_sort} --{pst}--> {repl.sort}")
        out = subst_at(out, pos, repl)
    return out


# ---------------------------------------------------------------------------
# Cut elimination


def _is_cut(d: Derivation) -> bool:
    return d.rule in CUT_RULES


def has_cut(d: Derivation) -> bool:
    return any(_is_cut(node) for _, node in iter_nodes(d))


def _reapply(hint: str, premises: tuple[Derivation, ...], expected: Sequent) -> Derivation:
    """Rebuild one rule application over mutated premises.

    The original rule name is tried first; when the mutation renames the rule
    (a variant postulate becoming its base instance, a shift adjoint becoming
    a shift), the first candidate rule for the expected conclusion that
    produces it exactly wins.
    """
    prem_seqs = [p.conclusion for p in premises]
    for rule in (REGISTRY[hint], *candidates(expected)):
        if rule.arity != len(premises):
            continue
        try:
            conc = apply_rule_forward(rule.name, prem_seqs)
        except KernelError:
            continue
        if conc == expected:
            return Derivation(rule.name, conc, premises)
    raise CutElimError(f"mutated instance of {hint} is not derivable "
                       f"(expected {render_sequent(expected)})")


def rebuild_chain(chain, rho: Derivation, repl: Structure, mu: Mutation,
                  trace=None) -> Derivation:
    """Re-run a traced section over `rho`, which replaces its top node; the
    substituted occurrence becomes `repl`, and each conclusion relabels by
    `mu`.  Renamed rules are logged to `trace`."""
    for node, pos, i in reversed(chain):
        prems = list(node.premises)
        prems[i] = rho
        expected = mutate_sequent(node.conclusion, [pos], [repl], mu)
        rho = _reapply(node.rule, tuple(prems), expected)
        if trace is not None and rho.rule != node.rule:
            trace.append(f"mutated {node.rule} -> {rho.rule} under {mu.name}")
    return rho


def _parametric_right(d1: Derivation, d2: Derivation, trace) -> Derivation:
    """Push the cut into the right premise (occurrence not principal there)."""
    a = d2.conclusion.pre
    psi = d1.conclusion.pre
    mu = mutation_for(a.sort, "pre", psi.sort)
    chain, top, _ = thread(d2, ("pre", ()))
    if trace is not None:
        trace.append(f"parametric {render(a.leaf)} {mu.name}")
    if top.rule in ("p-Id", "n-Id"):
        rho = d1
    else:
        rho = _eliminate_cut(d1, top, trace)
    return rebuild_chain(chain, rho, psi, mu, trace)


def _parametric_left(d1: Derivation, d2: Derivation, trace) -> Derivation:
    a = d1.conclusion.suc
    phi = d2.conclusion.suc
    mu = mutation_for(a.sort, "suc", phi.sort)
    chain, top, _ = thread(d1, ("suc", ()))
    if trace is not None:
        trace.append(f"parametric {render(a.leaf)} {mu.name}")
    if top.rule in ("p-Id", "n-Id"):
        rho = d2
    else:
        rho = _eliminate_cut(top, d2, trace)
    return rebuild_chain(chain, rho, phi, mu, trace)


def _cut(l: Derivation, r: Derivation, trace) -> Derivation:
    return _eliminate_cut(l, r, trace)


def _principal(d1: Derivation, d2: Derivation, trace) -> Derivation:
    """Both premises introduce the cut formula; reduce to smaller cuts."""
    a = d1.conclusion.suc.leaf
    if trace is not None:
        trace.append(f"principal {render(a)}")
    conn = a.conn
    if conn == "*":
        pa, pb = d1.premises            # X|-P , Y|-Q
        body = d2.premises[0]           # P .* Q |- D
        step = derive("dp(.*,.\\)'", body)        # Q |- P .\ D
        step = _cut(pb, step, trace)            # Y |- P .\ D
        step = derive("dp(.*,.\\)", step)         # P .* Y |- D
        step = derive("dp(.*,./)", step)          # P |- D ./ Y
        step = _cut(pa, step, trace)            # X |- D ./ Y
        step = derive("dp(.*,./)'", step)         # X .* Y |- D
        return step
    if conn == "(+)":
        body = d1.premises[0]           # X |- N .(+) M
        pa, pb = d2.premises            # N|-G , M|-D
        step = derive("dp(.(/),.(+))'", body)     # X .(/) M |- N
        step = _cut(step, pa, trace)            # X .(/) M |- G
        step = derive("dp(.(/),.(+))", step)      # X |- G .(+) M
        step = derive("dp(.(\\),.(+))", step)     # G .(\) X |- M
        step = _cut(step, pb, trace)            # G .(\) X |- D
        step = derive("dp(.(\\),.(+))'", step)    # X |- G .(+) D
        return step
    if conn == "\\":
        body = d1.premises[0]           # X |- P .\ N
        pa, pb = d2.premises            # X'|-P , N|-D
        step = derive("dp(.*,.\\)", body)         # P .* X |- N
        step = _cut(step, pb, trace)            # P .* X |- D
        step = derive("dp(.*,./)", step)          # P |- D ./ X
        step = _cut(pa, step, trace)            # X' |- D ./ X
        step = derive("dp(.*,./)'", step)         # X' .* X |- D
        step = derive("dp(.*,.\\)'", step)        # X |- X' .\ D
        return step
    if conn == "/":
        body = d1.premises[0]           # X |- N ./ P
        pa, pb = d2.premises            # N|-D , X'|-P
        step = derive("dp(.*,./)'", body)         # X .* P |- N
        step = _cut(step, pa, trace)            # X .* P |- D
        step = derive("dp(.*,.\\)'", step)        # P |- X .\ D
        step = _cut(pb, step, trace)            # X' |- X .\ D
        step = derive("dp(.*,.\\)", step)         # X .* X' |- D
        step = derive("dp(.*,./)", step)          # X |- D ./ X'
        return step
    if conn == "(/)":
        pa, pb = d1.premises            # X|-P , N|-D
        body = d2.premises[0]           # P .(/) N |- D'
        step = derive("dp(.(/),.(+))", body)      # P |- D' .(+) N
        step = _cut(pa, step, trace)            # X |- D' .(+) N
        step = derive("dp(.(\\),.(+))", step)     # D' .(\) X |- N
        step = _cut(step, pb, trace)            # D' .(\) X |- D
        step = derive("dp(.(\\),.(+))'", step)    # X |- D' .(+) D
        step = derive("dp(.(/),.(+))'", step)     # X .(/) D |- D'
        return step
    if conn == "(\\)":
        pa, pb = d1.premises            # N|-D , X|-P
        body = d2.premises[0]           # N .(\) P |- D'
        step = derive("dp(.(\\),.(+))'", body)    # P |- N .(+) D'
        step = _cut(pb, step, trace)            # X |- N .(+) D'
        step = derive("dp(.(/),.(+))'", step)     # X .(/) D' |- N
        step = _cut(step, pa, trace)            # X .(/) D' |- D
        step = derive("dp(.(/),.(+))", step)      # X |- D .(+) D'
        step = derive("dp(.(\\),.(+))", step)     # D .(\) X |- D'
        return step
    if conn == "dn":
        body = d1.premises[0]           # X |- .dn N
        sub = d2.premises[0]            # N |- D
        step = derive("s-down'", body)            # X |- N
        step = _cut(step, sub, trace)           # X |- D
        return derive("s-down", step)             # X |- .dn D
    if conn == "up":
        sub = d1.premises[0]            # X |- P
        body = d2.premises[0]           # .up P |- D
        step = derive("s-up'", body)              # P |- D
        step = _cut(sub, step, trace)           # X |- D
        return derive("s-up", step)               # .up X |- D
    raise CutElimError(f"no principal reduction for {conn!r}")


def _eliminate_cut(d1: Derivation, d2: Derivation, trace) -> Derivation:
    """Cut-free proof of the cut of two cut-free premise proofs."""
    a = d1.conclusion.suc
    if a.conn is not None or d2.conclusion.pre != a:
        raise CutElimError("cut formula must be displayed on both premises")
    if d1.rule in ("p-Id", "n-Id"):
        return d2
    if d2.rule in ("p-Id", "n-Id"):
        return d1
    left_principal = d1.rule in PRINCIPAL_RIGHT
    right_principal = d2.rule in PRINCIPAL_LEFT
    if left_principal and right_principal:
        return _principal(d1, d2, trace)
    if not right_principal:
        return _parametric_right(d1, d2, trace)
    return _parametric_left(d1, d2, trace)


def eliminate_cuts(d: Derivation, trace: list | None = None) -> Derivation:
    """Cut-free derivation of the same end-sequent."""
    def step(node: Derivation, prems) -> Derivation:
        if node.rule not in CUT_RULES:
            return Derivation(node.rule, node.conclusion, prems)
        out = _eliminate_cut(prems[0], prems[1], trace)
        if out.conclusion != node.conclusion:
            raise CutElimError("cut elimination changed the end-sequent")
        return out
    return fold(d, step)
