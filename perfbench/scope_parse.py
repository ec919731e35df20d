"""scope-parse: parsing-as-deduction over the quantifier grammar.

Each pass parses the sixteen sentence shapes of `gen.SHAPES` and the corpus
sentence, and checks every reading with the kernel and the focalization
checker.  The oracle is the reading count: q! for q quantifiers, 0 for an
ungrammatical sentence.
"""

from __future__ import annotations

import random

from fdlg import corpus, focus, kernel, search
from fdlg.syntax import Sequent, leaf, parse_formula, s as snode

import gen
from common import expect, nodes

# A search bound at which every shape reaches its q! readings:
# at 40 the four-quantifier sentence returns none, at 50 eleven of its 24.
MAX_DEPTH = 80
# The corpus sentence runs at the command line's default bound.
CORPUS_DEPTH = 40
# Which noun-phrase slots are quantified comes from a fixed generator, so that
# a pass costs the same on every seed; the seed renames atoms and words.
SLOTS_SEED = 303


def _goal_sequent(words, lexicon, goal, bracketing) -> Sequent:
    def build(shape):
        if isinstance(shape, int):
            return leaf(lexicon.entries[words[shape]])
        return snode(".*", build(shape[0]), build(shape[1]))
    return Sequent(build(bracketing), leaf(goal))


def setup(ctx):
    shapes = random.Random(SLOTS_SEED)
    items = []
    for i, shape in enumerate(gen.SHAPES):
        text, words, bracketing, s = gen.sentence(shapes, ctx.tag(), *shape)
        lexicon = search.Lexicon.from_text(text)
        goal = parse_formula(f"dn {s}", {s})
        items.append((f"sentence-{i}", (words, lexicon, goal, bracketing, MAX_DEPTH,
                                         gen.expected_readings(*shape), ())))
    tag = ctx.tag()
    names = {a: a + tag for a in ("np", "n", "s")}
    words = {w: w + tag for w in corpus.SENTENCE}
    lexicon = search.Lexicon.from_text(gen.rename_words(corpus.LEXICON_TEXT, {**names, **words}))
    readings = (gen.rename_derivation(corpus.reading_forall_exists(), names),
                gen.rename_derivation(corpus.reading_exists_forall(), names))
    goal = parse_formula(f"dn {names['s']}", {names["s"]})
    items.append(("corpus", ([words[w] for w in corpus.SENTENCE], lexicon, goal, None,
                             CORPUS_DEPTH, None, readings)))
    return items


def _parse(tracer, words, lexicon, goal, bracketing, depth, expected, contains):
    cfg = search.SearchConfig(max_depth=depth)
    with tracer.span("search.prove") as attrs:
        readings = search.parse_sentence(words, lexicon, goal, cfg, bracketing)
        attrs["readings"] = len(readings)
    tracer.add("search.readings", len(readings))
    if expected is not None:
        expect(len(readings) == expected, f"{len(readings)} readings, expected {expected}")
    for r in contains:
        expect(r in readings, "a hand-built corpus reading is missing")
    expect(len(set(readings)) == len(readings), "a reading is repeated")
    if bracketing is None:
        bracketing = gen.right_branching(len(words))
    end = _goal_sequent(words, lexicon, goal, bracketing)
    for d in readings:
        expect(d.conclusion == end, "a reading proves another sequent")
        with tracer.span("kernel.check"):
            rep = kernel.check_derivation(d)
        expect(rep.ok, f"kernel check: {rep}")
        if tracer.enabled:
            tracer.add("kernel.check_nodes", nodes(d))
        with tracer.span("focus.focalization"):
            rep = focus.check_strong_focalization(d)
        expect(rep.ok, "a reading is not strongly focalized")


def run(items, p):
    for name, args in items:
        p.item(name, _parse, p.tracer, *args)
