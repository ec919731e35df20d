"""Mutations, uniform substitution, and cut elimination."""

import random

import pytest

from fdlg.syntax import (Atom, Formula, Sequent, Structure, formula_nodes, leaf, parse_sequent,
                         parse_structure, render_sequent)
from fdlg.kernel import (Derivation, apply_rule_forward, check_derivation,
                         iter_nodes, make_cut, KernelError)
from fdlg.cutelim import (MUTATIONS, MU_ID, MU_DOTTED, MU_NEUTRAL, MU_NEUTRAL_DOTTED,
                          mutation_for, mutate_sequent, eliminate_cuts, has_cut,
                          CutElimError, position_class)
from fdlg.syntax import PP, PS, NP, NS
from fdlg import cutelim, rules
from fdlg.focus import minimize_proof
from fdlg.corpus import cut_elim_example, cut_elim_parametric_result
from fdlg.rules import CUT_RULES

import reference_rules as ref
from gen import random_cut_proof


def test_mutation_lookup():
    assert mutation_for(PP, "pre", PP) is MU_ID
    assert mutation_for(PS, "pre", PP) is MU_DOTTED
    assert mutation_for(NP, "pre", NS) is MU_DOTTED
    assert mutation_for(NP, "pre", PS) is MU_NEUTRAL_DOTTED
    assert mutation_for(NS, "pre", PP) is MU_NEUTRAL_DOTTED
    assert mutation_for(NP, "pre", PP) is MU_NEUTRAL
    assert mutation_for(PP, "suc", NP) is MU_NEUTRAL
    with pytest.raises(CutElimError):
        mutation_for(PP, "pre", PS)     # source kind would not be derivable


def test_mutate_sequent_adjoint_becomes_shift():
    seq = parse_sequent("(.upl (dn n)) |- d", {"n", "d"})
    assert seq.kind == "b"
    repl = parse_structure("p .* (dn (p \\ n))", {"n"})
    out = mutate_sequent(seq, [("pre", (0,))], [repl], MU_DOTTED)
    assert render_sequent(out) == ".up (p .* dn (p \\ n)) |- d"
    assert out.kind == "b_"


def test_mutate_sequent_empty_targets():
    seq = parse_sequent("p |- n", {"n"})
    assert mutate_sequent(seq, [], [], MU_ID) == seq


def test_mutate_overloaded_connective_unchanged():
    seq = parse_sequent("dn n .* p |- n", {"n"})
    out = mutate_sequent(seq, [("pre", (0,))], [parse_structure("q")], MU_DOTTED)
    assert render_sequent(out) == "q .* p |- n"
    assert out.pre.conn == ".*"


def test_mutate_checks_pattern():
    seq = parse_sequent("p .* q |- n", {"n"})
    with pytest.raises(CutElimError):
        mutate_sequent(seq, [("pre", (0,))],
                       [parse_structure("dn n", {"n"})], MU_DOTTED)


def test_position_class_is_display_invariant():
    seq = parse_sequent("q |- p .\\ n", {"n"})
    # the p inside the succedent slash is precedent-positioned
    assert position_class(seq, ("suc", (0,))) == "pre"
    assert position_class(seq, ("suc", (1,))) == "suc"
    assert position_class(seq, ("pre", ())) == "pre"


def test_worked_example_parametric_and_principal():
    ce = cut_elim_example()
    trace = []
    out = eliminate_cuts(ce, trace)
    assert not has_cut(out)
    assert out.conclusion == ce.conclusion
    assert check_derivation(out).ok
    joined = " ".join(trace)
    assert "parametric dn n mu(r.,b_)" in joined
    assert "principal dn n" in joined
    assert "dp(.upl,.dn) -> dp(.up,.dn)' under mu(r.,b_)" in joined


def test_worked_example_matches_displayed_result():
    """Full elimination agrees, up to minimization, with finishing the
    elimination from the displayed one-parametric-move state."""
    ours = minimize_proof(eliminate_cuts(cut_elim_example()))
    displayed = minimize_proof(eliminate_cuts(cut_elim_parametric_result()))
    assert ours == displayed


def test_axiom_cut_collapses():
    pid = Derivation("p-Id", apply_rule_forward("p-Id", [], selector=Atom("p", True)))
    body = Derivation("up_R", apply_rule_forward("up_R", [pid.conclusion]), (pid,))
    body = Derivation("s-up'", apply_rule_forward("s-up'", [body.conclusion]), (body,))
    cut = make_cut(pid, body)
    out = eliminate_cuts(cut)
    assert out == body


def test_cut_free_input_unchanged(fig_forall_exists):
    assert eliminate_cuts(fig_forall_exists) == fig_forall_exists


def test_random_cut_proofs_eliminate():
    rng = random.Random(12)
    for i in range(40):
        d = random_cut_proof(rng, depth=rng.choice((1, 2, 2, 3)))
        assert check_derivation(d).ok
        out = eliminate_cuts(d)
        assert not has_cut(out), i
        assert out.conclusion == d.conclusion, i
        assert check_derivation(out).ok, i


def test_reapply_matches_all_rules_scan(monkeypatch):
    """The re-application after a mutation scans the candidate rules of the
    expected conclusion; at every chain node it picks what a scan of every
    rule picks."""
    indexed = cutelim._reapply
    picks = []

    def both(hint, premises, expected):
        out = indexed(hint, premises, expected)
        assert out.rule == ref.reapply(hint, premises, expected)
        picks.append((hint, out.rule))
        return out

    monkeypatch.setattr(cutelim, "_reapply", both)
    rng = random.Random(31)
    for depth in (2, 3, 4, 5):
        for _ in range(6):
            eliminate_cuts(random_cut_proof(rng, depth))
    eliminate_cuts(cut_elim_example())
    assert len(picks) > 100
    assert any(hint != rule for hint, rule in picks)     # a mutation renamed a rule


def test_reapply_tries_the_original_rule_first(monkeypatch):
    """Exactly one rule fits each re-applied node, so the original rule comes
    first only to spare the scan: a re-application that keeps its rule tests
    that rule alone, and one that renames it tests that rule before any
    candidate."""
    fits, reapply = rules.fits, cutelim._reapply
    tried, outcomes = [], []

    def recording_fits(rule, conclusion, premises):
        tried.append(rule.name)
        return fits(rule, conclusion, premises)

    def watched(hint, premises, expected):
        tried.clear()
        out = reapply(hint, premises, expected)
        assert tried[0] == hint and (out.rule != hint or tried == [hint])
        outcomes.append(out.rule == hint)
        return out

    monkeypatch.setattr(rules, "fits", recording_fits)
    monkeypatch.setattr(cutelim, "_reapply", watched)
    rng = random.Random(31)
    for depth in (2, 3, 4, 5):
        for _ in range(6):
            eliminate_cuts(random_cut_proof(rng, depth))
    eliminate_cuts(cut_elim_example())
    assert outcomes.count(True) > 100 and False in outcomes


def _renamed(x, old: str, new: str):
    """A formula or structure with atom `old` renamed to `new`."""
    if x.__class__ is Structure:
        if x.conn is None:
            return leaf(_renamed(x.leaf, old, new))
        return Structure(x.conn, None, tuple(_renamed(a, old, new) for a in x.args))
    if x.conn is None:
        return Formula(None, Atom(new, x.atom.positive)) if x.atom.name == old else x
    return Formula(x.conn, None, tuple(_renamed(a, old, new) for a in x.args))


def test_reapply_rejects_a_conclusion_the_premises_do_not_give():
    """Each node of cut-free proofs re-applies over its own premises to its
    own rule; with an atom of its precedent renamed, the expected conclusion
    no longer follows from the premises and re-application refuses it."""
    rng = random.Random(41)
    proofs = [eliminate_cuts(cut_elim_example())]
    proofs += [eliminate_cuts(random_cut_proof(rng, depth)) for depth in (2, 3, 4, 5) * 3]
    refused = 0
    for d in proofs:
        for _, node in iter_nodes(d):
            if not node.premises:
                continue
            assert cutelim._reapply(node.rule, node.premises, node.conclusion).rule == node.rule
            atom = next(x.atom for x in formula_nodes(node.conclusion.pre) if x.conn is None)
            expected = Sequent(_renamed(node.conclusion.pre, atom.name, atom.name + "_renamed"),
                               node.conclusion.suc)
            with pytest.raises(CutElimError, match="is not derivable"):
                cutelim._reapply(node.rule, node.premises, expected)
            refused += 1
    assert refused > 200


def test_every_cut_in_inventory():
    """Composable turnstile pairs all land on one of the four cuts."""
    pid = Derivation("p-Id", apply_rule_forward("p-Id", [], selector=Atom("p", True)))
    nid = Derivation("n-Id", apply_rule_forward("n-Id", [], selector=Atom("n", False)))
    seen = set()
    for d1, d2 in ((pid, pid), (nid, nid)):
        seen.add(make_cut(d1, d2).rule)
    # positive formula against a neutral continuation
    body = Derivation("up_R", apply_rule_forward("up_R", [pid.conclusion]), (pid,))
    body = Derivation("s-up'", apply_rule_forward("s-up'", [body.conclusion]), (body,))
    seen.add(make_cut(pid, body).rule)
    # neutral premise against a negative one
    dn_body = Derivation("down_L", apply_rule_forward("down_L", [nid.conclusion]), (nid,))
    dn_body = Derivation("s-down'", apply_rule_forward("s-down'", [dn_body.conclusion]),
                         (dn_body,))
    seen.add(make_cut(dn_body, nid).rule)
    assert seen == set(CUT_RULES)


def test_parametric_left_move():
    """A cut whose left premise ends on a variant postulate detour pushes
    into the left premise; the traced section rebuilds over the structural
    residue."""
    from fdlg.corpus import cut_elim_example
    pi = cut_elim_example().premises[0]        # p .* dn (p \\ n) |- dn n
    detour = Derivation("dp(.*,.\\r)'",
                        apply_rule_forward("dp(.*,.\\r)'", [pi.conclusion]), (pi,))
    left = Derivation("dp(.*,.\\r)",
                      apply_rule_forward("dp(.*,.\\r)", [detour.conclusion]), (detour,))
    assert check_derivation(left).ok and left.conclusion == pi.conclusion
    nid = Derivation("n-Id", apply_rule_forward("n-Id", [], selector=Atom("n", False)))
    right = Derivation("down_L", apply_rule_forward("down_L", [nid.conclusion]), (nid,))
    cut = make_cut(left, right)
    trace = []
    out = eliminate_cuts(cut, trace)
    assert not has_cut(out)
    assert out.conclusion == cut.conclusion
    assert check_derivation(out).ok
    assert any("parametric" in line for line in trace)
    # the variant detour survives, re-instantiated over the new succedent
    rules = [n.rule for _, n in iter_nodes(out)]
    assert "dp(.*,.\\r)" in rules
