"""Cut elimination and the structural cut as they read before one table of
reduction programs served both: one hand-written case per connective in
each.

`test_cutelim_reference` requires `fdlg.cutelim.eliminate_cuts` and
`fdlg.cutelim.structural_cut` to return the same derivations, and cut
elimination the same trace.

`REDUCTIONS` and `ELIMINATION` are the one table of `fdlg.cutelim` as it was
typed by hand, before its binary rows were generated from the residuation
laws; `test_generated_tables` requires the generated rows to equal them.

`reapply_by_building` is the rule choice of `fdlg.cutelim._reapply` as it read
before the rule was matched against the expected conclusion and the premises
together: it built each candidate's conclusion forward from the premises and
compared it with the expected one.  `test_cutelim_reference` requires the
same rule to be picked.

`mutate_sequent` is `fdlg.cutelim.mutate_sequent` as it read before one
descent served the check and the substitution: it walked each target's path
three times, for its position class, its old node and the substitution.
`test_cutelim_reference` requires the same sequents and the same errors.
"""

from __future__ import annotations

from fdlg.cutelim import CutElimError, mutation_for, rebuild_chain
from fdlg.kernel import (Derivation, KernelError, MutationError, apply_rule_forward, derive,
                         fold, make_cut, struct_at, thread)
from fdlg.rules import CUT_RULES, PRINCIPAL_LEFT, PRINCIPAL_RIGHT, REGISTRY, candidates
from fdlg.standardize import ftoM, ftom
from fdlg.syntax import (GROUP_OF, NP, NS, PP, PS, Sequent, SortError, Structure,
                         display_side, render)


def _inv(name: str) -> str:
    return name[:-1] if name.endswith("'") else name + "'"


def _parametric_right(d1, d2, trace):
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


def _parametric_left(d1, d2, trace):
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


def _principal(d1, d2, trace):
    a = d1.conclusion.suc.leaf
    if trace is not None:
        trace.append(f"principal {render(a)}")
    conn = a.conn

    def cut(l, r):
        return _eliminate_cut(l, r, trace)

    if conn == "*":
        pa, pb = d1.premises
        body = d2.premises[0]
        step = derive("dp(.*,.\\)'", body)
        step = cut(pb, step)
        step = derive("dp(.*,.\\)", step)
        step = derive("dp(.*,./)", step)
        step = cut(pa, step)
        return derive("dp(.*,./)'", step)
    if conn == "(+)":
        body = d1.premises[0]
        pa, pb = d2.premises
        step = derive("dp(.(/),.(+))'", body)
        step = cut(step, pa)
        step = derive("dp(.(/),.(+))", step)
        step = derive("dp(.(\\),.(+))", step)
        step = cut(step, pb)
        return derive("dp(.(\\),.(+))'", step)
    if conn == "\\":
        body = d1.premises[0]
        pa, pb = d2.premises
        step = derive("dp(.*,.\\)", body)
        step = cut(step, pb)
        step = derive("dp(.*,./)", step)
        step = cut(pa, step)
        step = derive("dp(.*,./)'", step)
        return derive("dp(.*,.\\)'", step)
    if conn == "/":
        body = d1.premises[0]
        pa, pb = d2.premises
        step = derive("dp(.*,./)'", body)
        step = cut(step, pa)
        step = derive("dp(.*,.\\)'", step)
        step = cut(pb, step)
        step = derive("dp(.*,.\\)", step)
        return derive("dp(.*,./)", step)
    if conn == "(/)":
        pa, pb = d1.premises
        body = d2.premises[0]
        step = derive("dp(.(/),.(+))", body)
        step = cut(pa, step)
        step = derive("dp(.(\\),.(+))", step)
        step = cut(step, pb)
        step = derive("dp(.(\\),.(+))'", step)
        return derive("dp(.(/),.(+))'", step)
    if conn == "(\\)":
        pa, pb = d1.premises
        body = d2.premises[0]
        step = derive("dp(.(\\),.(+))'", body)
        step = cut(pb, step)
        step = derive("dp(.(/),.(+))'", step)
        step = cut(step, pa)
        step = derive("dp(.(/),.(+))", step)
        return derive("dp(.(\\),.(+))", step)
    if conn == "dn":
        step = derive("s-down'", d1.premises[0])
        step = cut(step, d2.premises[0])
        return derive("s-down", step)
    if conn == "up":
        step = derive("s-up'", d2.premises[0])
        step = cut(d1.premises[0], step)
        return derive("s-up", step)
    raise CutElimError(f"no principal reduction for {conn!r}")


def _eliminate_cut(d1, d2, trace):
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


def eliminate_cuts(d, trace=None):
    def step(node, prems):
        if node.rule not in CUT_RULES:
            return Derivation(node.rule, node.conclusion, prems)
        out = _eliminate_cut(prems[0], prems[1], trace)
        if out.conclusion != node.conclusion:
            raise CutElimError("cut elimination changed the end-sequent")
        return out
    return fold(d, step)


def structural_cut(d1, d2, phi):
    lo_phi, hi_phi = ftom(phi), ftoM(phi)
    if d1.conclusion.suc != hi_phi or d2.conclusion.pre != lo_phi:
        raise KernelError("end-sequents do not share the cut structure's transforms")
    return _scut(d1, d2)


def _scut(d1, d2):
    suc, pre = d1.conclusion.suc, d2.conclusion.pre
    if pre.conn is None and suc.conn is None:
        if pre != suc:
            raise KernelError("cut pieces disagree")
        return make_cut(d1, d2)
    if pre.conn is not None:
        c = pre.conn
        chain, top, _ = thread(d1, ("suc", ()))
        red = d2.conclusion.suc.sort.positive
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
        repl, source, where = d2.conclusion.suc, suc.sort, "suc"
    else:
        c = suc.conn
        chain, top, _ = thread(d2, ("pre", ()))
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
        repl, source, where = d1.conclusion.pre, pre.sort, "pre"
    if chain:
        s = rebuild_chain(chain, s, repl, mutation_for(source, where, repl.sort))
    return s


# ---------------------------------------------------------------------------
# Cut reductions.  A cut whose piece one premise displays as a structure and
# the other introduces (a principal cut on a formula, or the structural cut
# on a structure) reduces to cuts against the introducing node's premises by
# display moves on the displaying premise.  The row of the displayed
# structural connective lists the moves and the cuts in order: a move is a
# rule name or (plain name, l/r-variant name), and an int i cuts against
# premise i of the introducing node, on the left of the cut when that
# premise's argument stands in its succedent (TONICITY_PREMISES, plus the two
# shift rows).  The variant names apply when the residue, the displaying
# premise's other side, has a sort of the row's set.  A row's first comment
# gives the displaying premise's end-sequent and the introducing premises;
# the comment of each step, the sequent it derives.

_POSITIVE, _NEGATIVE, _SHIFTED = frozenset((PP, PS)), frozenset((NP, NS)), frozenset((PS, NS))

REDUCTIONS = {
    ".*": (_POSITIVE, (                                       # P .* Q |- D;  X |- P  and  Y |- Q
        ("dp(.*,.\\)'", "dp(.*,.\\r)'"),                      # Q |- P .\ D
        1,                                                    # Y |- P .\ D
        ("dp(.*,.\\)", "dp(.*,.\\r)"),                        # P .* Y |- D
        ("dp(.*,./)", "dp(.*,./l)"),                          # P |- D ./ Y
        0,                                                    # X |- D ./ Y
        ("dp(.*,./)'", "dp(.*,./l)'"))),                      # X .* Y |- D
    ".(+)": (_NEGATIVE, (                                     # X |- N .(+) M;  N |- G  and  M |- D
        ("dp(.(/),.(+))'", "dp(.(/)l,.(+))'"),                # X .(/) M |- N
        0,                                                    # X .(/) M |- G
        ("dp(.(/),.(+))", "dp(.(/)l,.(+))"),                  # X |- G .(+) M
        ("dp(.(\\),.(+))", "dp(.(\\)r,.(+))"),                # G .(\) X |- M
        1,                                                    # G .(\) X |- D
        ("dp(.(\\),.(+))'", "dp(.(\\)r,.(+))'"))),            # X |- G .(+) D
    ".\\": (_NEGATIVE, (                                      # X |- P .\ N;  X' |- P  and  N |- D
        ("dp(.*,.\\)", "dp(.*r,.\\)"),                        # P .* X |- N
        1,                                                    # P .* X |- D
        ("dp(.*,./)", "dp(.*r,./r)"),                         # P |- D ./ X
        0,                                                    # X' |- D ./ X
        ("dp(.*,./)'", "dp(.*r,./r)'"),                       # X' .* X |- D
        ("dp(.*,.\\)'", "dp(.*r,.\\)'"))),                    # X |- X' .\ D
    "./": (_NEGATIVE, (                                       # X |- N ./ P;  N |- D  and  X' |- P
        ("dp(.*,./)'", "dp(.*l,./)'"),                        # X .* P |- N
        0,                                                    # X .* P |- D
        ("dp(.*,.\\)'", "dp(.*l,.\\l)'"),                     # P |- X .\ D
        1,                                                    # X' |- X .\ D
        ("dp(.*,.\\)", "dp(.*l,.\\l)"),                       # X .* X' |- D
        ("dp(.*,./)", "dp(.*l,./)"))),                        # X |- D ./ X'
    ".(/)": (_POSITIVE, (                                     # P .(/) N |- D';  X |- P  and  N |- D
        ("dp(.(/),.(+))", "dp(.(/),.(+)l)"),                  # P |- D' .(+) N
        0,                                                    # X |- D' .(+) N
        ("dp(.(\\),.(+))", "dp(.(\\)l,.(+)l)"),               # D' .(\) X |- N
        1,                                                    # D' .(\) X |- D
        ("dp(.(\\),.(+))'", "dp(.(\\)l,.(+)l)'"),             # X |- D' .(+) D
        ("dp(.(/),.(+))'", "dp(.(/),.(+)l)'"))),              # X .(/) D |- D'
    ".(\\)": (_POSITIVE, (                                    # N .(\) P |- D';  N |- D  and  X |- P
        ("dp(.(\\),.(+))'", "dp(.(\\),.(+)r)"),               # P |- N .(+) D'
        1,                                                    # X |- N .(+) D'
        ("dp(.(/),.(+))'", "dp(.(/)r,.(+)r)"),                # X .(/) D' |- N
        0,                                                    # X .(/) D' |- D
        ("dp(.(/),.(+))", "dp(.(/)r,.(+)r)'"),                # X |- D .(+) D'
        ("dp(.(\\),.(+))", "dp(.(\\),.(+)r)'"))),             # D .(\) X |- D'
    ".dn": ((), (                                             # X |- .dn N;  N |- D
        "s-down'",                                            # X |- N
        0,                                                    # X |- D
        "s-down")),                                           # X |- .dn D
    ".up": (_SHIFTED, (                                       # .up P |- D;  X |- P
        ("dp(.up,.dn)", "dp(.up,.dnr)"),                      # P |- .dn D
        0,                                                    # X |- .dn D
        ("dp(.up,.dn)'", "dp(.up,.dnr)'"))),                  # .up X |- D
}
# Cut elimination takes a principal up formula apart by the structural shift
# rule instead.
ELIMINATION = {**REDUCTIONS, ".up": ((), (
    "s-up'",                                                  # P |- D
    0,                                                        # X |- D
    "s-up"))}                                                 # .up X |- D


def reapply_by_building(hint, premises, expected):
    """The first of the hint and the candidate rules of `expected` that,
    applied forward to the premises' conclusions, gives `expected`; or None."""
    prem_seqs = [p.conclusion for p in premises]
    for rule in (REGISTRY[hint], *candidates(expected)):
        if rule.arity != len(premises):
            continue
        try:
            conc = apply_rule_forward(rule.name, prem_seqs)
        except KernelError:
            continue
        if conc == expected:
            return rule.name
    return None


def position_class(seq, pos) -> str:
    side, path = pos
    if not path:
        return side
    return display_side(struct_at(seq, (side, path[:-1])).conn, path[-1])


def subst_structure(st, path, repl):
    if not path:
        return repl
    i = path[0]
    if st.conn is None:
        raise MutationError("substitution path crosses into a formula")
    args = list(st.args)
    args[i] = subst_structure(st.args[i], path[1:], repl)
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


def subst_at(seq, pos, repl):
    side, path = pos
    try:
        if side == "pre":
            return Sequent(subst_structure(seq.pre, path, repl), seq.suc)
        return Sequent(seq.pre, subst_structure(seq.suc, path, repl))
    except SortError as e:
        raise MutationError(str(e)) from None


def mutate_sequent(seq, targets, replacements, mu):
    if len(targets) != len(replacements):
        raise CutElimError("one replacement per target")
    out = seq
    for pos, repl in zip(targets, replacements):
        pst = position_class(seq, pos)
        old_sort = struct_at(seq, pos).sort
        if not mu.contains(old_sort, pst, repl.sort):
            raise CutElimError(
                f"{mu.name} does not contain {old_sort} --{pst}--> {repl.sort}")
        out = subst_at(out, pos, repl)
    return out
