"""The companion calculus and the two proof translations."""

import gc
import json
import random
import re

import pytest

from fdlg.syntax import Atom, ParseError, leaf, parse_formula, parse_sequent, render
from fdlg.kernel import (check_derivation, derivation_from_json, derivation_to_json,
                         iter_nodes, rule_count)
from fdlg.focus import minimize_proof
from fdlg.translate import (focus_of, is_normal, FlgDerivation, apply_flg,
                            check_flg, translate_to_fdlg, translate_to_flg,
                            classify_processing_sections, TranslateError,
                            flg_to_json, flg_from_json, render_flg_sequent,
                            logical_rule_count, parse_flg_sequent)
from fdlg.corpus import reading_forall_exists, reading_exists_forall
from fdlg import translate

from gen import document_nodes, random_flg_derivation, with_deep_stack


def test_polarization_examples():
    """The reader puts a shift at every polarity mismatch: the precedent is
    read positively and the succedent negatively."""
    assert render(parse_flg_sequent("n |- p", {"n"})) == "dn n |- up p"
    assert render(parse_flg_sequent("(a * b) |- (a * b)")) == "a * b |- up (a * b)"
    assert render(parse_flg_sequent("(np / n) |- s", {"s"})) == "dn (up np / n) |- s"


def _companion_text(a) -> str:
    """The companion text of a formula leaf of `a`: its shifts left out."""
    return translate._text(leaf(a))


def test_purity_law():
    """A formula is pure at its own polarity, the polarity of its head with
    any root shift taken off, and shifted at the other."""
    rng = random.Random(23)
    from gen import random_formula
    for _ in range(300):
        a = random_formula(rng, 4)
        own = (a.args[0] if a.conn in ("up", "dn") else a).sort.positive
        text = _companion_text(a)
        seq = parse_flg_sequent(f"{text} |- {text}", {"n"})
        assert seq.pre.sort.shifted != own
        assert seq.suc.sort.shifted == own


def test_reader_printer_roundtrip():
    """Printing a polarized formula and reading the text back gives its
    polarization at either polarity, the formula itself at its own sort's."""
    rng = random.Random(29)
    from gen import random_formula
    for _ in range(300):
        a = random_formula(rng, 4)
        text = f"{_companion_text(a)} |- {_companion_text(a)}"
        seq = parse_flg_sequent(text, {"n"})
        assert render_flg_sequent(seq) == text
        assert (seq.pre if a.sort.positive else seq.suc).leaf == a
        for side, focused in (("pre", f"[{translate._text(a)}] |- p"),
                              ("suc", f"p |- [{translate._text(a)}]")):
            seq = parse_flg_sequent(focused, {"n"})
            assert focus_of(seq) == side and render_flg_sequent(seq) == focused


def test_reader_example():
    likes = parse_formula("dn ((np \\ s) / np)", {"s"})
    seq = parse_flg_sequent("((np \\ s) / np) |- s", {"s"})
    assert seq.pre.leaf == likes and render_flg_sequent(seq) == "((np \\ s) / np) |- s"


def test_normality_rejects_structural_shifts():
    seq = parse_sequent("(.dn n) .* p |- up p", {"n"})
    assert not is_normal(seq)
    with pytest.raises(TranslateError, match=r"^\.dn has no companion counterpart$"):
        translate._normal(seq)


def test_normal_names_the_focus_first_then_the_precedent():
    """`_normal` reports a structure in focus before any connective, and a
    connective of the precedent before one of the succedent."""
    for text, message in (("(.dn n) .* p |- (up p) .\\l (up q)",
                           "a positive normal sequent focuses its succedent formula"),
                          ("p .* (.dn n) |- .up p", ".dn has no companion counterpart")):
        with pytest.raises(TranslateError, match=f"^{re.escape(message)}$"):
            translate._normal(parse_sequent(text, {"n"}))


def test_misplaced_structure_built_in_code_is_a_translate_error():
    """A sequent built in code rather than read is a companion premise only
    if it is normal: mu* and mu~ reject the others as `_normal` does, and a
    table rule's conclusion passes the same check."""
    for text, rule in (("n |- .up p", "mu*"), ("p |- .up p", "mu~")):
        with pytest.raises(TranslateError, match=r"^\.up has no companion counterpart$"):
            apply_flg(rule, [parse_sequent(text, {"n"})])
    with pytest.raises(TranslateError, match=r"^\.dn has no companion counterpart$"):
        apply_flg("dp(.*,./)", [parse_sequent("p .* (.dn n) |- up p", {"n"})])


def test_normal_sequents():
    assert is_normal(parse_sequent("p |- p"))
    assert is_normal(parse_sequent("p .* q |- p * q"))
    assert not is_normal(parse_sequent("dn n |- .dn n", {"n"}))      # structural shift
    assert is_normal(parse_sequent("p |- up (dn n * p)", {"n"}))
    assert not is_normal(parse_sequent("p |- (up p) .\\l (up q)"))  # variant
    assert is_normal(parse_sequent("p |- up p"))


def test_flg_axiom_and_focus_shapes():
    ax = apply_flg("Ax", [], selector=parse_formula("p").atom)
    assert focus_of(ax) == "suc" and render_flg_sequent(ax) == "p |- [p]"
    nax = apply_flg("Ax", [], selector=parse_formula("n", {"n"}).atom)
    assert focus_of(nax) == "pre" and render_flg_sequent(nax) == "[n] |- n"


def test_flg_mu_side_conditions():
    ax = FlgDerivation("Ax", apply_flg("Ax", [], selector=parse_formula("p").atom))
    defocused = apply_flg("mu*", [ax])
    assert focus_of(defocused) is None and render(defocused) == "p |- up p"
    refocused = apply_flg("mu~", [defocused])
    assert focus_of(refocused) == "pre" and render(refocused) == "up p |- up p"
    with pytest.raises(TranslateError):
        apply_flg("mu*", [parse_flg_sequent("p |- p")])


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
        assert image.conclusion == d.conclusion
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
    assert repr(d) == "[dp(.*,./)': p .* p |- up (p * p)]"
    image = translate_to_fdlg(d)
    assert check_derivation(image).ok and rule_count(image) == 2000 + 5
    assert image.conclusion == d.conclusion
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


def _renamed(text: str) -> str:
    """The document with each atom np, n, s renamed with a suffix no other
    test uses."""
    return re.sub(r"(?<![\w'-])(np|n|s)(?![\w'-])", r"\1_freed", text)


def test_no_table_outlives_a_read_or_a_round_trip(fig_forall_exists):
    """The reader's tables die with its call, and the translations keep
    nothing: once the results are dropped, nothing holds a term of the
    document."""
    text = _renamed(derivation_to_json(fig_forall_exists, {"s"}))
    d, neg = derivation_from_json(text)
    assert neg == {"s_freed"}
    image = translate_to_flg(d)
    assert translate_to_fdlg(image) == d
    del d, image
    gc.collect()
    assert not [x for x in gc.get_objects()
                if x.__class__ is Atom and x.name.endswith("_freed")]
