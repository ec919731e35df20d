"""The companion calculus and the two proof translations."""

import copy
import gc
import json
import pickle
import random
import re
import weakref

import pytest

from fdlg.syntax import Atom, ParseError, parse_formula, parse_sequent, render
from fdlg.kernel import (check_derivation, derivation_from_json, derivation_to_json,
                         iter_nodes, rule_count)
from fdlg.focus import minimize_proof
from fdlg.translate import (CFormula, FStruct, catom, cf, parse_cformula, formula_polarity,
                            polarize, depolarize,
                            polarize_sequent, flg_of_sequent, is_normal,
                            FlgSequent, FlgDerivation, fleaf, fs, apply_flg,
                            check_flg, translate_to_fdlg, translate_to_flg,
                            classify_processing_sections, TranslateError,
                            flg_to_json, flg_from_json, render_flg_sequent,
                            logical_rule_count, parse_flg_sequent)
from fdlg.corpus import reading_forall_exists, reading_exists_forall
from fdlg import translate

from gen import document_nodes, random_flg_derivation, with_deep_stack


def test_polarize_examples():
    assert render(polarize(catom("n", False), True)) == "dn n"
    assert render(polarize(catom("p"), False)) == "up p"
    ab = parse_cformula("a * b")
    assert render(polarize(ab, True)) == "a * b"
    assert render(polarize(ab, False)) == "up (a * b)"
    every = parse_cformula("np / n")
    assert render(polarize(every, True)) == "dn (up np / n)"


def test_purity_law():
    rng = random.Random(23)
    from gen import random_formula
    for _ in range(300):
        a = depolarize(random_formula(rng, 4))
        pos = polarize(a, True)
        neg = polarize(a, False)
        assert pos.sort.shifted != formula_polarity(a)
        assert neg.sort.shifted == formula_polarity(a)


def test_depolarize_roundtrip():
    rng = random.Random(29)
    from gen import random_formula
    for _ in range(300):
        a = depolarize(random_formula(rng, 4))
        for sign in (True, False):
            assert depolarize(polarize(a, sign)) == a


def test_depolarize_example():
    likes = parse_formula("dn ((np \\ s) / np)", {"s"})
    assert depolarize(likes) == parse_cformula("(np \\ s) / np", {"s"})


def test_depolarize_rejects_structural_shifts():
    from fdlg.syntax import parse_structure
    with pytest.raises(TranslateError):
        depolarize(parse_structure(".dn n", {"n"}))


def test_normal_sequents():
    assert is_normal(parse_sequent("p |- p"))
    assert is_normal(parse_sequent("p .* q |- p * q"))
    assert not is_normal(parse_sequent("dn n |- .dn n", {"n"}))      # structural shift
    assert is_normal(parse_sequent("p |- up (dn n * p)", {"n"}))
    assert not is_normal(parse_sequent("p |- (up p) .\\l (up q)"))  # variant
    assert is_normal(parse_sequent("p |- up p"))


def test_flg_axiom_and_focus_shapes():
    ax = apply_flg("Ax", [], selector=parse_formula("p").atom)
    assert ax.focus == "suc" and render_flg_sequent(ax) == "p |- [p]"
    nax = apply_flg("Ax", [], selector=parse_formula("n", {"n"}).atom)
    assert nax.focus == "pre" and render_flg_sequent(nax) == "[n] |- n"


def test_flg_mu_side_conditions():
    ax = FlgDerivation("Ax", apply_flg("Ax", [], selector=parse_formula("p").atom))
    defocused = apply_flg("mu*", [ax])
    assert defocused.focus is None
    refocused = apply_flg("mu~", [defocused])
    assert refocused.focus == "pre"
    with pytest.raises(TranslateError):
        apply_flg("mu*", [FlgSequent(fleaf(catom("p")), fleaf(catom("p")), None)])


def test_translate_axiom():
    ax = FlgDerivation("Ax", apply_flg("Ax", [], selector=parse_formula("p").atom))
    out = translate_to_fdlg(ax)
    assert out.rule == "p-Id"


def test_axiom_with_premises_does_not_check():
    ax = FlgDerivation("Ax", apply_flg("Ax", [], selector=parse_formula("p").atom))
    bad = FlgDerivation("Ax", ax.conclusion, (ax, ax))
    assert check_flg(bad) == (False, "at (): Ax expects 0 premise(s), got 2")
    with pytest.raises(TranslateError, match="Ax expects 0 premise"):
        translate_to_fdlg(bad)


def test_translate_mu_tilde_image():
    # focusing a positive formula on the left becomes the up-shift pair
    ax = FlgDerivation("Ax", apply_flg("Ax", [], selector=parse_formula("p").atom))
    d = FlgDerivation("mu*", apply_flg("mu*", [ax]), (ax,))
    d = FlgDerivation("mu~", apply_flg("mu~", [d]), (d,))
    out = translate_to_fdlg(d)
    rules = [n.rule for _, n in iter_nodes(out)]
    assert rules[:2] == ["up_L", "s-up"]
    assert check_derivation(out).ok


def test_roundtrip_identity_on_corpus(fig_forall_exists, fig_exists_forall):
    for fig in (fig_forall_exists, fig_exists_forall):
        flg = translate_to_flg(fig)
        ok, why = check_flg(flg)
        assert ok, why
        back = translate_to_fdlg(flg)
        assert back == fig
        assert logical_rule_count(flg) == logical_rule_count(fig)


def test_processing_section_patterns(fig_forall_exists):
    patterns = dict(classify_processing_sections(fig_forall_exists))
    assert set(patterns.values()) <= {"defocus-neg", "defocus-pos", "focus-neg",
                                      "focus-neg.", "focus-pos", "focus-pos.",
                                      "refocus-neg", "refocus-pos"}
    assert "focus-neg" in patterns.values()
    assert "defocus-neg" in patterns.values()
    assert "focus-pos" in patterns.values()


def test_refocus_patterns():
    from fdlg.kernel import Derivation, apply_rule_forward
    from fdlg.syntax import Atom
    nid = Derivation("n-Id", apply_rule_forward("n-Id", [], selector=Atom("n", False)))
    d = Derivation("down_L", apply_rule_forward("down_L", [nid.conclusion]), (nid,))
    d = Derivation("down_R", apply_rule_forward("down_R", [d.conclusion]), (d,))
    assert classify_processing_sections(d) == [((), "refocus-neg")]
    flg = translate_to_flg(d)
    assert [n.rule for _, n in _walk(flg)] == ["mu~", "mu*", "Ax"]


def _apply(rule, *premises, **kwargs):
    return FlgDerivation(rule, apply_flg(rule, list(premises), **kwargs), premises)


def test_dotted_focus_patterns():
    """mu~ on a negative succedent formula under a negative precedent
    formula, and on a positive precedent formula over a positive succedent
    formula, gives the dotted focusing sections: the other side is shifted."""
    p, q, n = Atom("p", True), Atom("q", True), Atom("n", False)
    neg = _apply("mu~", _apply("over_R", _apply("mu*", _apply(
        "over_L", _apply("Ax", selector=n), _apply("Ax", selector=p)))))
    pos = _apply("mu~", _apply("otimes_L", _apply("mu*", _apply(
        "otimes_R", _apply("Ax", selector=p), _apply("Ax", selector=q)))))
    for d, pattern, text in ((neg, "focus-neg.", "(n / p) |- [n / p]"),
                             (pos, "focus-pos.", "[p * q] |- (p * q)")):
        assert render_flg_sequent(d.conclusion) == text
        image = minimize_proof(translate_to_fdlg(d))
        assert classify_processing_sections(image)[0] == ((), pattern)
        assert translate_to_flg(image) == d


def test_translate_to_flg_rejects_a_non_normal_end_sequent():
    from fdlg.kernel import derive
    d = derive("down_L", derive("n-Id", selector=Atom("n", False)))
    assert render(d.conclusion) == "dn n |- .dn n"
    with pytest.raises(TranslateError, match="end-sequent is not normal"):
        translate_to_flg(d)


def _walk(d, path=()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from _walk(p, path + (i,))


def test_unmatched_section_reported():
    from fdlg.kernel import Derivation, apply_rule_forward
    from fdlg.syntax import Atom
    pid = Derivation("p-Id", apply_rule_forward("p-Id", [], selector=Atom("p", True)))
    lone = Derivation("up_R", apply_rule_forward("up_R", [pid.conclusion]), (pid,))
    with pytest.raises(TranslateError):
        classify_processing_sections(lone)


def test_random_roundtrips():
    rng = random.Random(31)
    done = 0
    for _ in range(100):
        d = random_flg_derivation(rng, 6)
        image = translate_to_fdlg(d)
        assert check_derivation(image).ok
        assert image.conclusion == polarize_sequent(d.conclusion)
        back = translate_to_flg(image)
        ok, why = check_flg(back)
        assert ok, why
        assert back.conclusion == d.conclusion
        assert logical_rule_count(back) == logical_rule_count(d)
        done += 1
    assert done == 100


def _flg_nodes_recursive(d, path=()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from _flg_nodes_recursive(p, path + (i,))


def _flg_rule_count_recursive(d) -> int:
    return 1 + sum(_flg_rule_count_recursive(p) for p in d.premises)


def test_companion_walks_match_recursive_references():
    rng = random.Random(41)
    branching = 0
    for _ in range(100):
        d = random_flg_derivation(rng, 6)
        expected = list(_flg_nodes_recursive(d))
        got = list(iter_nodes(d))
        assert [p for p, _ in got] == [p for p, _ in expected]
        assert all(x is y for (_, x), (_, y) in zip(got, expected))
        assert rule_count(d) == _flg_rule_count_recursive(d)
        branching += any(len(n.premises) > 1 for _, n in expected)
    assert branching > 10


def test_companion_walks_on_a_deep_chain():
    # otimes_R of two axioms, mu*, then 2,000 alternating display postulates
    ax = FlgDerivation("Ax", apply_flg("Ax", [], selector=Atom("p", True)))
    top = FlgDerivation("otimes_R", apply_flg("otimes_R", [ax, ax]), (ax, ax))
    top = FlgDerivation("mu*", apply_flg("mu*", [top]), (top,))
    d = top
    for _ in range(2000):
        rule = "dp(.*,./)'" if d.rule == "dp(.*,./)" else "dp(.*,./)"
        d = FlgDerivation(rule, apply_flg(rule, [d]), (d,))
    assert check_flg(d) == (True, "ok")
    doc = with_deep_stack(json.loads, flg_to_json(d, {"n"}))
    assert doc["calculus"] == "flg" and document_nodes(doc) == [
        (x.rule, render_flg_sequent(x.conclusion), len(x.premises)) for _, x in iter_nodes(d)]
    assert repr(d) == "[dp(.*,./)': p .* p |- (p * p)]"
    image = translate_to_fdlg(d)
    assert check_derivation(image).ok and rule_count(image) == 2000 + 5
    assert image.conclusion == polarize_sequent(d.conclusion)
    # minimization cancels the postulates in pairs; the rest maps back
    assert translate_to_flg(image) == top


def test_translation_injective_on_pool():
    rng = random.Random(37)
    pool = []
    seen = set()
    for _ in range(60):
        d = random_flg_derivation(rng, 5)
        if d not in seen:
            seen.add(d)
            pool.append(d)
    images = [translate_to_fdlg(d) for d in pool]
    assert len(set(images)) == len(pool)


def test_flg_json_roundtrip(fig_forall_exists):
    flg = translate_to_flg(fig_forall_exists)
    text = flg_to_json(flg, {"s"})
    again, neg = flg_from_json(text)
    assert again == flg and neg == {"s"}


@pytest.mark.parametrize("text", [
    "p * (up q) |- p", "up p |- p", "p |- dn (p * q)", ".dn p |- p", ".upl p |- p",
])
def test_companion_parser_rejects_display_only_connectives(text):
    with pytest.raises(ParseError, match="not a companion"):
        parse_flg_sequent(text)



@pytest.mark.parametrize("text", ["p .\\ q |- p", "p |- p .* q", "(p .\\ q) .* p |- p",
                                  "[p .* q] |- p"])
def test_companion_parser_rejects_misplaced_structures(text):
    with pytest.raises(ParseError):
        parse_flg_sequent(text)


@pytest.mark.parametrize("text", ["[p] |- [p]", "[n] |- [p * q]"])
def test_companion_parser_rejects_two_formulas_in_focus(text):
    with pytest.raises(ParseError, match="at most one formula in focus"):
        parse_flg_sequent(text, {"n"})


def test_misplaced_structure_built_in_code_is_a_translate_error():
    p = fleaf(catom("p"))
    with pytest.raises(TranslateError):
        FlgSequent(fs(".\\", p, p), p)
    with pytest.raises(TranslateError):
        FlgSequent(fs(".*", p, p), p, "pre")


def test_companion_terms_are_slotted_values():
    a = parse_cformula("(p * q) / n", {"n"})
    twin = parse_cformula("(p * q) / n", {"n"})
    x = fs(".*", fleaf(a.args[0]), fleaf(catom("q")))
    assert a is not twin and a == twin and hash(a) == hash(twin)
    assert hash(a) == hash((a.conn, a.args)) and hash(a.args[1]) == hash((a.args[1].atom, ()))
    assert hash(x) == hash((x.conn, x.args)) and hash(x.args[0]) == hash((x.args[0].leaf, ()))
    assert a != parse_cformula("(p * q) / n") and catom("p") != parse_formula("p")
    for y in (a, x):
        assert pickle.loads(pickle.dumps(y)) == y and copy.deepcopy(y) == y
        with pytest.raises(AttributeError):
            y.conn = "*"
    assert repr(a) == "<(p * q) / n>"
    assert repr(fleaf(catom("p"))) == "FStruct(conn=None, leaf=<p>, args=())"
    with pytest.raises(TranslateError):
        CFormula("dn", None, (a,))
    with pytest.raises(TranslateError):
        FStruct(".dn", None, (x,))


def test_one_memo_maps_each_term_once(fig_forall_exists, fig_exists_forall):
    """Within one call, the sides of every sequent are depolarized through
    one memo: equal sides get one image, which equals the image of a call of
    its own.  Each image holds a side it was read from as its polarization,
    so a call's round trip gives back the input's side objects, and an
    unseeded copy polarizes to an equal side, which it then holds."""
    memo, images, checked = {}, {}, 0
    for d in (fig_forall_exists, fig_exists_forall):
        for _, node in iter_nodes(d):
            seq = node.conclusion
            if not is_normal(seq):
                continue
            out = translate._flg_of_sequent(seq, memo)
            own = flg_of_sequent(seq)
            assert out == own
            back = polarize_sequent(own)
            assert back == seq and back.pre is seq.pre
            assert back.suc is (seq.pre if seq.suc == seq.pre else seq.suc)
            for x, y in ((seq.pre, out.pre), (seq.suc, out.suc)):
                assert images.setdefault(x, y) is y
            assert polarize_sequent(out) == seq
            fresh = copy.deepcopy(out)
            again = polarize_sequent(fresh)
            assert again == seq and again.pre is not seq.pre and again.suc is not seq.suc
            twice = polarize_sequent(fresh)
            assert twice.pre is again.pre and twice.suc is again.suc
            checked += 1
    assert checked > 40 and len(images) < checked


def _renamed(text: str) -> str:
    """The document with each atom np, n, s renamed with a suffix no other
    test uses."""
    return re.sub(r"(?<![\w'-])(np|n|s)(?![\w'-])", r"\1_freed", text)


def test_no_table_outlives_a_read_or_a_round_trip(fig_forall_exists):
    """The reader's tables and the translations' memos die with their calls:
    once the results are dropped, nothing holds a term of the document."""
    text = _renamed(derivation_to_json(fig_forall_exists, {"s"}))
    d, neg = derivation_from_json(text)
    assert neg == {"s_freed"}
    image = translate_to_flg(d)
    assert translate_to_fdlg(image) == d
    conclusion = weakref.ref(image.conclusion)
    del d, image
    gc.collect()
    assert conclusion() is None
    assert not [x for x in gc.get_objects()
                if x.__class__ is Atom and x.name.endswith("_freed")]
