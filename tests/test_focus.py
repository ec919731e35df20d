"""Signed trees, phases, strong focalization, minimization, rule topology."""

import random
from operator import attrgetter

import pytest

from fdlg import focus
from fdlg.syntax import (Atom, Sequent, Structure, parse_sequent, parse_structure, parse_formula,
                         leaf, fatom, f, s as snode, formula_nodes, signed_nodes,
                         STRUCT_SHIFTS, VARIANT_STRUCTS)
from fdlg.kernel import Derivation, apply_rule_forward, check_derivation, iter_nodes
from fdlg.focus import (signed_tree, classify_phase, check_strong_focalization,
                        entry_exit_points, minimize_proof, MinimizeError,
                        region, phase_edge_ok)
from fdlg.corpus import (reading_forall_exists, cut_elim_example, LEXICON,
                         SENTENCE, GOAL)
from fdlg.search import prove, SearchConfig, sentence_sequent
from fdlg.cutelim import eliminate_cuts
from fdlg.standardize import principal_subtree

from gen import forward_closure, interrupted_pia_proof, random_cut_proof


def _ax(name, atom, pos=True):
    return Derivation(name, apply_rule_forward(name, [], selector=Atom(atom, pos)))


def _ext(d, rule):
    return Derivation(rule, apply_rule_forward(rule, [d.conclusion]), (d,))


def test_atoms_are_pia():
    tree = signed_tree(parse_sequent("p |- p"))
    assert tree.nodes[("pre", ())].classification == "pia"
    assert tree.nodes[("suc", ())].classification == "pia"


def test_sign_flip_on_contravariant_argument():
    tree = signed_tree(parse_sequent("p |- p \\ n", {"n"}))
    assert tree.nodes[("suc", ())].sign is False          # the slash itself
    assert tree.nodes[("suc", (0,))].sign is True         # numerator flips


def test_end_sequent_tree_matches_the_worked_figure():
    seq = sentence_sequent(list(SENTENCE), LEXICON, GOAL)
    tree = signed_tree(seq)
    n = tree.nodes
    # skeleton: the structural products, everyone's product, the inner up,
    # and the succedent shift
    assert n[("pre", ())].classification == "skeleton"            # .*
    assert n[("pre", (0,))].classification == "skeleton"          # everyone's *
    assert n[("pre", (0, 0))].classification == "pia"             # dn
    assert n[("pre", (0, 0, 0))].classification == "pia"          # /
    assert n[("pre", (0, 0, 0, 0))].classification == "skeleton"  # up
    assert n[("suc", ())].classification == "skeleton"            # dn at -
    # PIA: the lexical shifts and slashes under them
    assert n[("pre", (1, 0))].classification == "pia"             # likes' dn
    assert n[("pre", (1, 0, 0))].classification == "pia"          # likes' /
    # transition nodes sit at the tops of the non-root components
    assert n[("pre", (0, 0))].is_transition
    assert not n[("pre", ())].is_transition


def test_classify_phase():
    assert classify_phase(parse_sequent("p |- p")) == "focused-positive"
    assert classify_phase(parse_sequent("n |- n", {"n"})) == "focused-negative"
    assert classify_phase(parse_sequent("dn n |- .dn n", {"n"})) == "non-focused"
    assert classify_phase(parse_sequent("p |- n", {"n"})) == "non-focused"


def test_focalization_golden(fig_forall_exists, fig_exists_forall):
    assert check_strong_focalization(fig_forall_exists).ok
    assert check_strong_focalization(fig_exists_forall).ok


def test_focalization_rejects_cuts():
    rep = check_strong_focalization(cut_elim_example())
    assert not rep.ok and "cut" in rep.reason


def test_focalization_detects_interrupted_pia_section():
    # a display detour wedged between two tonicity steps splits the PIA
    # construction of (p \ n) / p; the lower move of the detour is reported
    d = interrupted_pia_proof()
    assert check_derivation(d).ok
    rep = check_strong_focalization(d)
    assert not rep.ok and "interrupted" in rep.reason
    assert str(rep) == "premises[0]: PIA subtree of (p \\ n) / p interrupted by dp(.*r,.\\)'"


def test_entry_exit_examples():
    d = _ext(_ax("n-Id", "n", False), "down_L")
    pts = entry_exit_points(d)
    assert len(pts) == 1 and pts[0][1] == "pos-entry"
    assert pts[0][0] == parse_formula("dn n", {"n"})
    assert entry_exit_points(_ax("p-Id", "p")) == []


def test_entry_points_distinguish_the_readings(fig_forall_exists, fig_exists_forall):
    a = entry_exit_points(fig_forall_exists)
    b = entry_exit_points(fig_exists_forall)
    assert [t for _, t, _ in a] == [t for _, t, _ in b] == [
        "pos-exit", "pos-entry", "neg-exit", "pos-entry", "neg-exit", "pos-entry"]
    # the first quantifier entry is attacked in different contexts
    assert a[1][2] != b[1][2]
    assert a != b


def test_minimize_collapses_the_worked_detour():
    # the redundant adjoint-postulate round trip in the cut example's right
    # premise disappears
    right = cut_elim_example().premises[1]
    out = minimize_proof(right)
    rules = [n.rule for _, n in iter_nodes(out)]
    assert "dp(.upl,.dn)" not in rules and "dp(.upl,.dn)'" not in rules
    assert out.conclusion == right.conclusion
    assert check_strong_focalization(out).ok


def test_minimize_fixpoint(fig_forall_exists):
    assert minimize_proof(fig_forall_exists) == fig_forall_exists


def test_minimize_removes_inserted_inverse_pair(fig_forall_exists):
    d = fig_forall_exists
    inner = d.premises[0]                     # below down_R: ... |- .dn s
    padded = _ext(_ext(inner, "s-down'"), "s-down")
    rebuilt = Derivation(d.rule, d.conclusion, (padded,))
    assert check_derivation(rebuilt).ok
    assert minimize_proof(rebuilt) == d


def test_minimize_eliminates_cuts_first():
    out = minimize_proof(cut_elim_example())
    assert check_derivation(out).ok
    assert check_strong_focalization(out).ok


def test_topology_conformance(fig_forall_exists, fig_exists_forall):
    proofs = [fig_forall_exists, fig_exists_forall]
    closure = forward_closure(max_height=5, max_size=8, include_variants=False)
    for seq in closure:
        proofs += prove(seq, SearchConfig(max_depth=8, max_solutions=2))
    for d in proofs:
        for path, node in iter_nodes(d):
            prem_regions = [region(p.conclusion) for p in node.premises]
            assert phase_edge_ok(node.rule, prem_regions, region(node.conclusion)), \
                (node.rule, prem_regions, region(node.conclusion))


def test_connective_introduction_discipline():
    """Skeleton connectives of the end-sequent enter via translation rules,
    PIA connectives via tonicity rules, over searched proofs."""
    from fdlg.rules import TRANSLATION_RULES, TONICITY_RULES
    from fdlg.kernel import thread
    from fdlg.focus import _formula_positions, _formula_components
    closure = forward_closure(max_height=5, max_size=8, include_variants=False)
    targets = [s for s in closure if s.kind in ("r", "b", "n")][:40]
    for seq in targets:
        for d in prove(seq, SearchConfig(max_depth=8, max_solutions=2)):
            for (pos, fml, sign) in _formula_positions(d.conclusion):
                for kind, members in _formula_components(fml, sign):
                    for fpath in members:
                        side, base = pos
                        chain, top, _ = thread(d, (side, base + fpath))
                        node = d
                        for _, _, i in chain:
                            node = node.premises[i]
                        assert node is top
                        if kind == "pia":
                            assert node.rule in TONICITY_RULES
                        else:
                            assert node.rule in TRANSLATION_RULES


def test_shift_nodes_are_transitions_or_roots():
    from fdlg.syntax import Sequent, SortError
    from gen import random_structure
    rng = random.Random(9)
    checked = 0
    for _ in range(300):
        st = random_structure(rng, 4, include_variants=False)
        try:
            seq = (Sequent(st, parse_structure("n", {"n"})) if st.sort.positive
                   else Sequent(parse_structure("p"), st))
        except SortError:
            continue
        checked += 1
        tree = signed_tree(seq)
        for pos, node in tree.nodes.items():
            if node.label in ("up", "dn", ".up", ".dn"):
                assert node.is_transition or pos[1] == (), (seq, pos)
    assert checked > 100


def test_no_pia_component_of_shifts_alone():
    """Every PIA component of a variant-free formula holds an LG connective
    or an atom; none consists of shift nodes only."""
    rng = random.Random(11)
    from gen import random_formula
    from fdlg.focus import _formula_components
    from fdlg.syntax import signed_partition
    shift_labels = {"up", "dn"}
    for _ in range(400):
        fml = random_formula(rng, 5)
        for sign in (True, False):
            raw, _ = signed_partition((("f", fml, sign),))
            for kind, members in _formula_components(fml, sign):
                if kind != "pia" or not members:
                    continue
                labels = {raw[("f", m)][0] for m in members}
                assert (labels - shift_labels) or _absorbed_atom(raw, members), \
                    (fml, kind, members)


def _absorbed_atom(raw, members):
    for pos, (label, sign, is_atom) in raw.items():
        if is_atom and pos[1] and pos[1][:-1] in members:
            return True
    return False


def test_minimal_outputs_focalized_on_random_cut_proofs():
    rng = random.Random(3)
    for _ in range(25):
        d = random_cut_proof(rng, depth=2)
        out = minimize_proof(d)
        assert check_strong_focalization(out).ok


def test_signed_walks_on_deep_terms():
    """Every signed-tree walk takes a 2,000-deep formula and structure."""
    p, n = fatom("p"), fatom("n", False)
    fml, st = n, leaf(p)
    for _ in range(2000):
        fml = f("\\", p, fml)               # p \ (p \ ... n): negative
        st = snode(".*", leaf(p), st)       # p .* (p .* ... p): positive
    nodes = formula_nodes(fml)
    assert len(nodes) == 4001 and nodes[0] is fml and nodes[-1] is n
    assert len(formula_nodes(st)) == 2001
    # the last argument of each \ keeps the sign, the first flips it
    tree = signed_tree(Sequent(leaf(p), leaf(fml)))
    assert tree.nodes["suc", (1,) * 2000].sign is False
    assert tree.nodes["suc", (1,) * 1999 + (0,)].sign is True
    assert len(tree.nodes) == 4002
    tree = signed_tree(Sequent(st, leaf(p)))
    assert len(tree.nodes) == 4002 and tree.components[0][0] == "skeleton"
    assert classify_phase(Sequent(st, leaf(p))) == "focused-positive"
    assert principal_subtree(st, True).paths == {(1,) * k for k in range(2000)}
    assert principal_subtree(leaf(fml), False).paths == {(1,) * k for k in range(2000)}


def test_a_walk_below_structures_stops_at_leaves(closure6):
    """signed_nodes with `below` gives the structure nodes of the full walk,
    in its order, with their paths and signs; the scans built on it agree
    with the full walk."""
    below = attrgetter("conn")
    seen = set()
    for seq in closure6:
        for side, sign in ((seq.pre, True), (seq.suc, False)):
            full = list(signed_nodes(side, sign))
            assert list(signed_nodes(side, sign, below)) == [
                item for item in full if item[1].__class__ is Structure]
        for conns in (STRUCT_SHIFTS, VARIANT_STRUCTS):
            used = any(node.__class__ is Structure and node.conn in conns
                       for x in (seq.pre, seq.suc) for _, node, _ in signed_nodes(x))
            assert focus._uses(seq, conns) == used
            seen.add(used)
    assert seen == {True, False}
