"""proof-transform: the command line's document path plus in-memory proofs.

Reading documents (made by `prepare`, in a process of their own, from
three- and four-quantifier sentences) are read from the exchange format,
checked, focalization-checked, translated to the companion calculus and
back, cut against `dn s |- dn s`, freed of that cut and written back out.
In-memory cut proofs whose cut formula has depth 2 to 5 are freed of their
cut and checked (criterion 4), and companion derivations make the round trip
(criterion 5).
"""

from __future__ import annotations

import random

from fdlg import cutelim, focus, kernel, search, translate
from fdlg.syntax import Atom, parse_formula

import gen
from common import CUT_RULES, expect, logical_count, nodes, rules_used

# Sentences the documents come from, as (slots, quantifiers, verb arity),
# and how many of each sentence's readings become documents.
DOC_SENTENCES = ((3, 3, 3, 6), (3, 3, 3, 6), (4, 4, 4, 10), (4, 4, 4, 10))
DOC_DEPTH = 80
# In-memory inputs.  Their shapes come from fixed generators, as in the
# acceptance suite, so that the move count repeats exactly on every seed;
# the seed renames their atoms.
CUT_DEPTHS = (2, 3, 4, 5)
CUTS_PER_DEPTH = 200
CUT_SHAPES_SEED = 404
COMPANIONS = 200
COMPANION_HEIGHT = 6
COMPANION_SHAPES_SEED = 505


def prepare(seed: int) -> list[dict]:
    """Reading documents of the seed's sentences: exchange text and name tag."""
    rng = random.Random(f"documents/{seed}")
    used: set = set()
    docs = []
    for slots, quantifiers, arity, count in DOC_SENTENCES:
        tag = gen.new_tag(rng, used)
        text, words, bracketing, s = gen.sentence(rng, tag, slots, quantifiers, arity)
        lexicon = search.Lexicon.from_text(text)
        readings = search.parse_sentence(words, lexicon, parse_formula(f"dn {s}", {s}),
                                         search.SearchConfig(max_depth=DOC_DEPTH), bracketing)
        for d in rng.sample(readings, count):
            docs.append({"text": kernel.derivation_to_json(d, lexicon.neg_atoms), "tag": tag})
    return docs


def _dn_identity(s: Atom) -> kernel.Derivation:
    """dn s |- dn s, the right premise every reading is cut against."""
    d = kernel.Derivation("n-Id", kernel.apply_rule_forward("n-Id", [], selector=s))
    return gen.extend(gen.extend(d, "down_L"), "down_R")


def setup(ctx, docs):
    documents = []
    for doc in docs:
        tag = ctx.tag()
        names = {a + doc["tag"]: a + tag for a in ("np", "n", "s")}
        right = _dn_identity(Atom("s" + tag, False))
        documents.append((gen.rename_words(doc["text"], names), right))
    shapes = random.Random(CUT_SHAPES_SEED)
    cuts = []
    for depth in CUT_DEPTHS:
        for _ in range(CUTS_PER_DEPTH):
            tag = ctx.tag()
            atoms = (Atom("p" + tag, True), Atom("n" + tag, False))
            cuts.append(gen.cut_proof(shapes, depth, atoms))
    shapes = random.Random(COMPANION_SHAPES_SEED)
    companions = []
    for _ in range(COMPANIONS):
        tag = ctx.tag()
        atoms = (Atom("p" + tag, True), Atom("n" + tag, False))
        companions.append(gen.companion_derivation(shapes, COMPANION_HEIGHT, atoms))
    return documents, cuts, companions


def _eliminate(tracer, d):
    moves: list = []
    with tracer.span("cutelim.eliminate"):
        out = cutelim.eliminate_cuts(d, moves)
    if tracer.enabled:
        tracer.add("cutelim.moves", sum(m.startswith(("parametric", "principal")) for m in moves))
        tracer.add("cutelim.nodes_in", nodes(d))
        tracer.add("cutelim.nodes_out", nodes(out))
    expect(not rules_used(out) & CUT_RULES, "a cut is left in the output")
    expect(out.conclusion == d.conclusion, "cut elimination changed the end-sequent")
    return out


def _check(tracer, d):
    with tracer.span("kernel.check"):
        rep = kernel.check_derivation(d)
    if tracer.enabled:
        tracer.add("kernel.check_nodes", nodes(d))
    expect(rep.ok, f"kernel check: {rep}")


def _document(tracer, text, right):
    with tracer.span("kernel.exchange_read"):
        d, neg = kernel.derivation_from_json(text)
    _check(tracer, d)
    with tracer.span("focus.focalization"):
        rep = focus.check_strong_focalization(d)
    expect(rep.ok, "a reading is not strongly focalized")
    with tracer.span("translate.to_flg"):
        image = translate.translate_to_flg(d)
    with tracer.span("translate.check_flg"):
        ok, why = translate.check_flg(image)
    expect(ok, f"companion image does not check: {why}")
    with tracer.span("translate.to_fdlg"):
        back = translate.translate_to_fdlg(image)
    expect(back == d, "the round trip is not the identity on a reading")
    out = _eliminate(tracer, kernel.make_cut(d, right))
    _check(tracer, out)
    with tracer.span("kernel.exchange_write"):
        text = kernel.derivation_to_json(out, neg)
    expect(text.count('"rule"') == nodes(out), "the written document lost a rule")


def _cut_proof(tracer, d):
    expect(rules_used(d) & CUT_RULES, "the input has no cut")
    _check(tracer, _eliminate(tracer, d))


def _companion(tracer, d):
    with tracer.span("translate.to_fdlg"):
        image = translate.translate_to_fdlg(d)
    with tracer.span("focus.minimize"):
        image = focus.minimize_proof(image)
    with tracer.span("translate.to_flg"):
        back = translate.translate_to_flg(image)
    with tracer.span("translate.check_flg"):
        ok, why = translate.check_flg(back)
    expect(ok, f"round trip does not check: {why}")
    expect(back.conclusion == d.conclusion, "the round trip changed the sequent")
    expect(logical_count(back) == logical_count(d), "the round trip changed the logical-rule count")


def run(inputs, p):
    documents, cuts, companions = inputs
    tr = p.tracer
    for i, (text, right) in enumerate(documents):
        p.item(f"document-{i}", _document, tr, text, right)
    for i, d in enumerate(cuts):
        p.item(f"cut-{i}", _cut_proof, tr, d)
    for i, d in enumerate(companions):
        p.item(f"companion-{i}", _companion, tr, d)
