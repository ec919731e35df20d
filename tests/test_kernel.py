"""Rule schemas, checking, forward/backward application, derivation builders."""

import json
import random

import pytest

from fdlg.syntax import (Atom, Sequent, parse_sequent, parse_structure,
                         render_sequent, leaf, bowtie, infty, signed_nodes,
                         iter_formulas, iter_structures)
from fdlg import kernel
from fdlg.kernel import (Derivation, CheckReport, check_derivation,
                         apply_rule_forward, KernelError,
                         identity_expansion, saturate_translations,
                         derivation_to_json, derivation_from_json, make_cut,
                         iter_nodes, neg_atoms_of, derive, rule_count,
                         transform_derivation)
from fdlg.cutelim import has_cut, structural_cut
from fdlg.focus import check_strong_focalization, minimize_proof
from fdlg.corpus import golden_sequents
from fdlg.search import SearchConfig, prove
from fdlg.standardize import StandardizeError, ftom, ftoM
from fdlg.rules import ORDERED_RULES, REGISTRY, CUT_RULES, backward

import reference_kernel as ref_kernel
import reference_rules as ref
import reference_translate as ref_translate
from gen import (document_nodes, forward_closure, quantified_sentence, random_cut_proof,
                 with_deep_stack)


def _ax(name, atom, pos=True):
    return Derivation(name, apply_rule_forward(name, [], selector=Atom(atom, pos)))


def test_check_axiom():
    d = Derivation("p-Id", parse_sequent("p |- p"))
    assert check_derivation(d).ok


def test_check_tonicity():
    d = Derivation("otimes_R", parse_sequent("p .* q |- p * q"),
                   (Derivation("p-Id", parse_sequent("p |- p")),
                    Derivation("p-Id", parse_sequent("q |- q"))))
    assert check_derivation(d).ok


def test_check_arity_mismatch():
    d = Derivation("otimes_R", parse_sequent("p .* q |- p * q"),
                   (Derivation("p-Id", parse_sequent("p |- p")),))
    rep = check_derivation(d)
    assert not rep.ok and "2 premise" in rep.reason


def test_check_unknown_rule():
    d = Derivation("frobnicate", parse_sequent("p |- p"))
    rep = check_derivation(d)
    assert not rep.ok and "unknown rule" in rep.reason


def test_check_reports_offending_path():
    bad = Derivation("p-Id", parse_sequent("p |- q"))
    d = Derivation("otimes_R", parse_sequent("p .* q |- p * q"),
                   (Derivation("p-Id", parse_sequent("p |- p")), bad))
    rep = check_derivation(d)
    assert not rep.ok and "premises[1]" in str(rep)


def _corrupt(rng: random.Random, d: Derivation, path, conclusions) -> Derivation:
    """`d` with the node at `path` renamed, given another conclusion, or with
    its premises dropped, duplicated or reordered."""
    if path:
        premises = list(d.premises)
        premises[path[0]] = _corrupt(rng, premises[path[0]], path[1:], conclusions)
        return Derivation(d.rule, d.conclusion, tuple(premises))
    kind = rng.choice(("rename", "unknown", "conclusion", "drop", "duplicate", "reorder"))
    if kind == "rename":
        return Derivation(rng.choice(sorted(REGISTRY)), d.conclusion, d.premises)
    if kind == "unknown":
        return Derivation("frobnicate", d.conclusion, d.premises)
    if kind == "conclusion":
        return Derivation(d.rule, rng.choice(conclusions), d.premises)
    premises = {"drop": d.premises[1:], "duplicate": d.premises + d.premises[:1],
                "reorder": d.premises[::-1]}[kind]
    return Derivation(d.rule, d.conclusion, premises)


def test_check_matches_reference_on_corrupted_derivations():
    """The path-free first walk gives the report of the path-sorted check,
    which names the uppermost failing node, on derivations with one to three
    corrupted nodes."""
    rng = random.Random(7006)
    rejected = 0
    for i in range(200):
        d = random_cut_proof(rng, 2 + i % 4)
        assert check_derivation(d) == ref_kernel.check_derivation(d) == CheckReport(True)
        paths = [path for path, _ in iter_nodes(d)]
        conclusions = [node.conclusion for _, node in iter_nodes(d)]
        for _ in range(1 + i % 3):
            d = _corrupt(rng, d, rng.choice(paths), conclusions)
            paths = [path for path, _ in iter_nodes(d)]
        rep = check_derivation(d)
        assert rep == ref_kernel.check_derivation(d), d
        rejected += not rep.ok
    assert rejected > 150


def test_apply_down_L():
    seq = apply_rule_forward("down_L", [parse_sequent("n |- n", {"n"})])
    assert render_sequent(seq) == "dn n |- .dn n" and seq.kind == "r:"


def test_apply_shift_structural_needs_matching_family():
    with pytest.raises(KernelError):
        apply_rule_forward("s-up", [parse_sequent("p |- .dn n", {"n"})])
    seq = apply_rule_forward("s-up", [parse_sequent("p |- n", {"n"})])
    assert render_sequent(seq) == ".up p |- n"


def test_apply_display_postulate():
    seq = apply_rule_forward("dp(.*,.\\)'", [parse_sequent("p .* q |- d", {"d"})])
    assert render_sequent(seq) == "q |- p .\\ d"


# The non-cut rules, and those of them with no l/r-variant or shift adjoint.
_NON_CUT = frozenset(r for r in ORDERED_RULES if r.klass != "cut")
_VARIANT_FREE = frozenset(r for r in _NON_CUT if not r.schema.uses_variants)


def _expansions(seq, admitted=_VARIANT_FREE):
    return [(rule.name, prems) for rule, prems in backward(seq, admitted)]


def test_backward_expansions_axiom():
    exps = _expansions(parse_sequent("p |- p"))
    assert ("p-Id", []) in exps


def test_premise_metavariables_occur_in_the_conclusion():
    """Backward expansion builds a rule's premises from the match of its
    conclusion alone: every premise metavariable of a non-cut rule occurs
    in its conclusion, and a cut adds only its cut formula A.  Conversely,
    forward application builds the conclusion from the premises' match: every
    conclusion metavariable of a non-axiom rule occurs in a premise, and the
    axioms' only one, a, comes from the atom selector."""
    extra = {name: set().union(*rule.prem_vars) - set(rule.conc_vars)
             for name, rule in REGISTRY.items()}
    assert len(extra) - len(CUT_RULES) == 60
    assert {name: e for name, e in extra.items() if e} == dict.fromkeys(CUT_RULES, {"A"})
    missing = {name: set(rule.conc_vars) - set().union(*rule.prem_vars)
               for name, rule in REGISTRY.items()}
    assert {name: m for name, m in missing.items() if m} == dict.fromkeys(("p-Id", "n-Id"), {"a"})


def test_backward_expansions_tonicity():
    exps = _expansions(parse_sequent("p .* q |- p * q"))
    tgt = ("otimes_R", [parse_sequent("p |- p"), parse_sequent("q |- q")])
    assert tgt in exps


def test_backward_expansions_neutral_atomics():
    exps = _expansions(parse_sequent("p |- n", {"n"}))
    assert sorted(name for name, _ in exps) == ["s-down'", "s-up'"]


def test_forward_backward_coherence():
    closure = forward_closure(max_height=4, max_size=8)
    for seq in closure:
        for name, prems in _expansions(seq, _NON_CUT):
            if not prems:
                atom = seq.pre.leaf.atom
                assert apply_rule_forward(name, [], selector=atom) == seq
            else:
                assert apply_rule_forward(name, prems) == seq


def test_identity_expansion_atom():
    d = identity_expansion(leaf(parse_structure("p").leaf))
    assert d.rule == "p-Id" and render_sequent(d.conclusion) == "p |- p"


def test_identity_expansion_shifted():
    d = identity_expansion(parse_structure(".dn d", {"d"}))
    assert check_derivation(d).ok
    assert render_sequent(d.conclusion) == "dn d |- .dn d"
    assert d.rule == "down_L"


def test_identity_expansion_embedded_shift_chain():
    psi = parse_structure("p .* (.dn n)", {"n"})
    d = identity_expansion(psi)
    assert check_derivation(d).ok
    assert d.conclusion == Sequent(ftom(psi), ftoM(psi))
    rules = {node.rule for _, node in iter_nodes(d)}
    assert {"s-down", "s-down'", "down_R", "down_L", "otimes_R"} <= rules


def test_identity_expansion_rejects_variants():
    with pytest.raises(Exception):
        identity_expansion(parse_structure(".upl (dn n)", {"n"}))


def _expansion_outcome(fn, psi):
    """The exchange JSON of an expansion, or the type and message of its error."""
    try:
        return derivation_to_json(fn(psi), {"n"})
    except Exception as e:  # noqa: BLE001 - any error must be the same one
        return type(e), str(e)


def test_identity_expansion_matches_reference():
    """Every depth-2 structure over p and n, variants included, and the
    leaves of the depth-3 formulas: the same derivation or the same error as
    the expansion that checks the transforms at every level."""
    atoms = (Atom("p", True), Atom("n", False))
    inputs = [*iter_structures(atoms, 2), *map(leaf, iter_formulas(atoms, 3))]
    outcomes = [_expansion_outcome(identity_expansion, psi) for psi in inputs]
    assert outcomes == [_expansion_outcome(ref_kernel.identity_expansion, psi)
                        for psi in inputs]
    assert len(inputs) == 630
    assert sum(isinstance(o, tuple) and o[0] is StandardizeError for o in outcomes) == 302


def test_structural_cut_atomic():
    phi = parse_structure("p")
    d = structural_cut(identity_expansion(phi), identity_expansion(phi), phi)
    assert d.rule in CUT_RULES and check_derivation(d).ok


def test_structural_cut_product_uses_variant_moves():
    # positive residue on the right forces the variant rearrangement
    phi = parse_structure("p .* (.dn n)", {"n"})
    d1 = identity_expansion(phi)
    d2 = identity_expansion(phi)
    out = structural_cut(d1, d2, phi)
    assert check_derivation(out).ok
    assert out.conclusion == Sequent(ftom(phi), ftoM(phi))
    rules = {node.rule for _, node in iter_nodes(out)}
    assert any(r.startswith(("dp(.*,.\\r)", "dp(.*,./l)")) for r in rules)


def test_structural_cut_shifted_root():
    phi = parse_structure(".up (p .* q)")
    out = structural_cut(identity_expansion(phi), identity_expansion(phi), phi)
    assert check_derivation(out).ok
    rules = {node.rule for _, node in iter_nodes(out)}
    assert any(r.startswith("dp(.up,.dnr)") for r in rules)


STRUCTURAL_CUT_CASES = ["(p \\ n) ./ p", "n .(+) m", ".dn (p .\\ n)", "p .(/) (.up q)",
                        "(.up p) .(\\) q", ".dn ((.up p) .(+) n)"]


def test_structural_cut_property():
    for txt in STRUCTURAL_CUT_CASES:
        phi = parse_structure(txt, {"n", "m"})
        out = structural_cut(identity_expansion(phi), identity_expansion(phi), phi)
        assert check_derivation(out).ok
        assert out.conclusion == Sequent(ftom(phi), ftoM(phi))
        for _, node in iter_nodes(out):
            assert node.rule in REGISTRY


def test_structural_cut_rebuilds_parametric_section():
    """Pad the premise whose end-sequent the structural cut traces with an
    invertible rule and its inverse.  The cut re-runs that two-node section
    over its result, relabelled by the mutation that a change of sort on the
    other premise's far side calls for (a refocused formula)."""
    cases = mutated = 0
    for txt in STRUCTURAL_CUT_CASES:
        phi = parse_structure(txt, {"n", "m"})
        base = identity_expansion(phi)
        if ftom(phi).conn is not None:          # d1 ends on the introduction
            pos, refocus = ("suc", ()), ("up_R", "s-up'")
        elif ftoM(phi).conn is not None:        # d2 does
            pos, refocus = ("pre", ()), ("down_L", "s-down'")
        else:
            continue
        others = [base]
        try:
            others.append(derive(refocus[1], derive(refocus[0], base)))
        except KernelError:
            pass
        for name, rule in REGISTRY.items():
            if rule.arity != 1 or not rule.schema.inverse:
                continue
            try:
                padded = derive(rule.schema.inverse, derive(name, base))
            except KernelError:
                continue
            if padded.conclusion != base.conclusion or len(kernel.thread(padded, pos)[0]) != 2:
                continue
            for other in others:
                pair = (padded, other) if pos[0] == "suc" else (other, padded)
                out = structural_cut(*pair, phi)
                assert check_derivation(out).ok, (txt, name)
                assert out.conclusion == Sequent(pair[0].conclusion.pre, pair[1].conclusion.suc)
                plain = (base, other) if pos[0] == "suc" else (other, base)
                assert rule_count(out) == rule_count(structural_cut(*plain, phi)) + 2
                cases += 1
                mutated += other is not base
    assert cases >= 14 and mutated >= 5


def test_identify_rule_matches_all_rules_scan(monkeypatch):
    """The rule identification of `transform_derivation` scans the candidate
    rules of the conclusion; on the symmetry images of the corpus proofs it
    picks what a scan of every rule picks, and the same premise order."""
    indexed = kernel.identify
    calls = []

    def both(conclusion, premise_orders, hint=None):
        found = indexed(conclusion, premise_orders, hint)
        got = None if found is None else (found[0].name, found[1])
        assert got == ref.identify_rule(conclusion, premise_orders[0])
        calls.append(got)
        return found

    monkeypatch.setattr(kernel, "identify", both)
    cfg = SearchConfig(max_depth=30, max_solutions=1)
    for seq in golden_sequents():
        for d in prove(seq, cfg):
            for mapping in (bowtie, infty):
                transform_derivation(d, mapping)
    assert len(calls) > 100 and None not in calls


def test_saturate_precedent():
    base = Derivation("otimes_R", parse_sequent("p .* q |- p * q"),
                      (_ax("p-Id", "p"), _ax("p-Id", "q")))
    step = Derivation("up_R", apply_rule_forward("up_R", [base.conclusion]), (base,))
    step = Derivation("s-up'", apply_rule_forward("s-up'", [step.conclusion]), (step,))
    out = saturate_translations(step, "pre")
    assert check_derivation(out).ok
    assert render_sequent(out.conclusion) == "p * q |- up (p * q)"


def test_saturate_identity_when_formula():
    d = _ax("p-Id", "p")
    assert saturate_translations(d, "pre") == d
    assert saturate_translations(d, "suc") == d


def test_saturate_variant_blocker():
    seq = apply_rule_forward("dp(.upl,.dn)",
                             [parse_sequent("dn n |- .dn n", {"n"})])
    d = Derivation("dp(.upl,.dn)",
                   seq, (Derivation("down_L", parse_sequent("dn n |- .dn n", {"n"}),
                                    (_ax("n-Id", "n", False),)),))
    with pytest.raises(KernelError):
        saturate_translations(d, "pre")


def test_json_roundtrip_bit_exact(fig_forall_exists):
    text = derivation_to_json(fig_forall_exists, {"s"})
    d2, neg = derivation_from_json(text)
    assert d2 == fig_forall_exists and neg == {"s"}
    assert derivation_to_json(d2, neg) == text


def test_neg_atoms_of(fig_forall_exists):
    assert neg_atoms_of(fig_forall_exists) == {"s"}


def test_make_cut_rejects_undisplayed():
    d1 = _ax("p-Id", "p")
    d2 = Derivation("otimes_R", parse_sequent("p .* q |- p * q"),
                    (_ax("p-Id", "p"), _ax("p-Id", "q")))
    with pytest.raises(KernelError):
        make_cut(d1, d2)


def _nodes_recursive(d, path=()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from _nodes_recursive(p, path + (i,))


def test_iter_nodes_preorder_and_paths():
    rng = random.Random(7)
    for depth in (2, 3, 4, 5):
        d = random_cut_proof(rng, depth)
        expected = list(_nodes_recursive(d))
        got = list(iter_nodes(d))
        assert [p for p, _ in got] == [p for p, _ in expected]
        assert all(x is y for (_, x), (_, y) in zip(got, expected))
        assert kernel.height(d) == 1 + max(len(p) for p, _ in expected)
        assert rule_count(d) == len(expected)
        assert has_cut(d)


def _shift_chain(base: Derivation, length: int) -> Derivation:
    """`length` alternating s-down'/s-down steps over down_L of `base`."""
    d = derive("down_L", base)
    for _ in range(length):
        d = derive("s-down" if d.rule == "s-down'" else "s-down'", d)
    return d


def test_derivation_walks_on_a_deep_chain():
    n = Atom("n", False)
    cut = make_cut(derive("n-Id", selector=n), derive("n-Id", selector=n))
    d = _shift_chain(cut, 2000)
    assert kernel.height(d) == 2003
    assert rule_count(d) == 2004
    nodes = list(iter_nodes(d))
    assert [p for p, _ in nodes] == [(0,) * k for k in range(2003)] + [(0,) * 2001 + (1,)]
    assert nodes[2001][1] is cut
    assert has_cut(d) and not has_cut(cut.premises[0])
    # equality and hashing between separately built copies
    twin = _shift_chain(make_cut(derive("n-Id", selector=n), derive("n-Id", selector=n)), 2000)
    assert twin is not d and twin == d and hash(twin) == hash(d)
    assert d != _shift_chain(cut, 1998) and d != _shift_chain(cut.premises[0], 2000)
    assert repr(d) == "[s-down: dn n |- .dn n]"
    # the identity map rebuilds an equal proof; minimization cancels every pair
    assert transform_derivation(d, lambda seq: seq) == d
    assert minimize_proof(d) == derive("down_L", derive("n-Id", selector=n))
    doc = with_deep_stack(json.loads, derivation_to_json(d, {"n"}))
    assert doc["negAtoms"] == ["n"] and document_nodes(doc) == [
        (x.rule, render_sequent(x.conclusion), len(x.premises)) for _, x in iter_nodes(d)]
    short = _shift_chain(cut, 300)      # json.dumps takes quadratic time in the depth
    assert (derivation_to_json(short, {"n"})
            == with_deep_stack(ref_translate.derivation_to_json, short, {"n"}))
    # a cut-free chain: every end-sequent occurrence is traced through it
    free = _shift_chain(derive("n-Id", selector=n), 2000)
    assert check_strong_focalization(free) == check_strong_focalization(
        _shift_chain(derive("n-Id", selector=n), 2))
    chain, top, top_pos = kernel.thread(free, ("pre", ()))
    assert [i for _, _, i in chain] == [0] * 2000
    assert top.rule == "down_L" and top_pos == ("pre", ())


def test_signed_node_paths_are_kernel_positions():
    """struct_at reads a position the way signed_nodes writes it: at a path
    shared by a leaf and its formula, the leaf comes first."""
    checked = 0
    for seq in forward_closure(include_variants=True):
        for side in ("pre", "suc"):
            first = {}
            for path, node, _ in signed_nodes(getattr(seq, side)):
                first.setdefault(path, node)
            for path, node in first.items():
                assert kernel.struct_at(seq, (side, path)) is node, (seq, side, path)
                checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# The exchange reader shares equal subterms within one document


@pytest.fixture(scope="module")
def reading_documents(fig_forall_exists, fig_exists_forall):
    """The corpus readings and 50 of the 120 readings of a five-quantifier
    sentence, picked with seed 17, as exchange documents."""
    readings = prove(quantified_sentence(5, 5), SearchConfig(max_depth=80))
    picked = random.Random(17).sample(readings, 50)
    return [derivation_to_json(d, neg_atoms_of(d))
            for d in (fig_forall_exists, fig_exists_forall, *picked)]


def test_shared_reader_equals_the_reference(reading_documents):
    assert len(reading_documents) == 52
    for text in reading_documents:
        got, neg = derivation_from_json(text)
        want, want_neg = ref_kernel.derivation_from_json(text)
        assert neg == want_neg
        got_nodes, want_nodes = list(iter_nodes(got)), list(iter_nodes(want))
        assert len(got_nodes) == len(want_nodes)
        for (gp, g), (wp, w) in zip(got_nodes, want_nodes):
            assert gp == wp and g.rule == w.rule and len(g.premises) == len(w.premises)
            assert g.conclusion == w.conclusion
            assert render_sequent(g.conclusion) == render_sequent(w.conclusion)
        assert got == want and derivation_to_json(got, neg) == text


def _unshared(d: Derivation) -> int:
    """Formula and structure nodes of d's conclusions that equal an earlier
    one without being it."""
    first, count = {}, 0
    for _, node in iter_nodes(d):
        for side in (node.conclusion.pre, node.conclusion.suc):
            for _, x, _ in signed_nodes(side):
                count += first.setdefault(x, x) is not x
    return count


def test_equal_subterms_of_a_document_are_one_object(reading_documents):
    for text in reading_documents:
        assert _unshared(derivation_from_json(text)[0]) == 0
        assert _unshared(ref_kernel.derivation_from_json(text)[0]) > 0


def _document(conclusions) -> str:
    """A document of one chain of nodes whose conclusions are the given
    texts, the root's first."""
    node = None
    for conclusion in reversed(conclusions):
        node = {"rule": "p-Id", "conclusion": conclusion, "premises": [node] if node else []}
    return json.dumps(node)


_DEEP = 257
_MALFORMED = [
    _document(["p |- p", "p .* q"]),                          # no turnstile
    _document(["p |- p", "p |- q |- p"]),
    _document(["p |- p", "p |- .* q"]),
    _document(["p |- p", "p |- (q"]),
    _document(["p |- p", "p |- q)"]),
    _document(["p |- p", "p .* q .* r |- p"]),
    _document(["p |- p", "p |- p # q"]),
    _document(["p |- p", "p |- dn"]),
    _document(["p |- p", "p |- q * .* r"]),
    _document(["p |- p", "p .* .up q |- p"]),                 # ill-sorted
    _document(["p |- p", "(" * _DEEP + "p" + ")" * _DEEP + " |- p"]),
    _document(["p |- p", "p |- " + "up " * _DEEP + "p"]),
    _document(["p |- p"] * (_DEEP + 2)),                      # premises too deep
    json.dumps({"rule": "p-Id", "conclusion": "p |- p", "premises": [["p |- p"]]}),
    json.dumps({"rule": "p-Id", "conclusion": 3}),
    json.dumps({"rule": "p-Id", "conclusion": "p |- p", "premises": {}}),
    json.dumps({"negAtoms": "n", "rule": "n-Id", "conclusion": "n |- n"}),
    json.dumps([]),
]


@pytest.mark.parametrize("text", _MALFORMED, ids=range(len(_MALFORMED)))
def test_malformed_documents_raise_the_reference_errors(text):
    """The shared reader rejects each malformed document with the error of
    the reader that parsed every conclusion from scratch."""
    with pytest.raises(ValueError) as want:
        ref_kernel.derivation_from_json(text)
    with pytest.raises(ValueError) as got:
        derivation_from_json(text)
    assert (got.type, str(got.value)) == (want.type, str(want.value))


def test_nesting_cut_offs_are_reached():
    messages = set()
    for text in _MALFORMED:
        try:
            derivation_from_json(text)
        except ValueError as e:
            messages.add(str(e))
    assert {"a sequent needs a |- turnstile",
            "term nested more than 256 levels deep",
            "premises nested more than 256 levels deep"} <= messages
