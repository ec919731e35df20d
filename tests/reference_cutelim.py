"""Cut elimination and the structural cut as they read before one table of
reduction programs served both: one hand-written case per connective in
each.

`test_cutelim_reference` requires `fdlg.cutelim.eliminate_cuts` and
`fdlg.cutelim.structural_cut` to return the same derivations, and cut
elimination the same trace.
"""

from __future__ import annotations

from fdlg.cutelim import CutElimError, mutation_for, rebuild_chain
from fdlg.kernel import Derivation, KernelError, derive, fold, make_cut, thread
from fdlg.rules import CUT_RULES, PRINCIPAL_LEFT, PRINCIPAL_RIGHT
from fdlg.standardize import ftoM, ftom
from fdlg.syntax import render


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
