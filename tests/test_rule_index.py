"""The root-connective rule index against the all-rules reference scans in
`reference_rules`, on the forward closure, on every sequent the search visits
while parsing the corpus sentence, and on random sequents: `rules.backward`
over the non-cut rules, with and without variants, and the search's steps.
The search's steps are variant-free, so they are compared only without
variants."""

import random

import pytest

import reference_rules as ref
from fdlg import search
from fdlg.corpus import GOAL, LEXICON, SENTENCE
from fdlg.rules import ORDERED_RULES, REGISTRY, backward, candidates
from fdlg.syntax import Sequent

from gen import forward_closure, random_structure


@pytest.fixture(scope="module")
def closure():
    return list(forward_closure(include_variants=True))


@pytest.fixture(scope="module")
def corpus_visits():
    """Goals `prove` visits and orbit members it expands, parsing the corpus sentence."""
    seen: dict = {}
    prove, steps = search._prove, search._steps

    def recording_prove(goal, *args):
        seen.setdefault(goal)
        return prove(goal, *args)

    def recording_steps(seq):
        seen.setdefault(seq)
        return steps(seq)

    mp = pytest.MonkeyPatch()
    mp.setattr(search, "_prove", recording_prove)
    mp.setattr(search, "_steps", recording_steps)
    try:
        readings = search.parse_sentence(SENTENCE, LEXICON, GOAL)
    finally:
        mp.undo()
    assert readings
    return list(seen)


# The non-cut rules admitted with and without variants.
_ADMITTED = {v: frozenset(r for r in ORDERED_RULES if r.klass != "cut"
                          and (v or not r.schema.uses_variants)) for v in (False, True)}


def _compare(seqs, allow_variants):
    for seq in seqs:
        assert ([(rule.name, prems) for rule, prems in backward(seq, _ADMITTED[allow_variants])]
                == ref.backward_expansions(seq, allow_variants)), seq
        if not allow_variants:
            display, expansions = search._steps(seq)
            assert display == ref.display_steps(seq, False), seq
            assert expansions == [(name, prems) for name, prems in ref.backward_expansions(seq)
                                  if REGISTRY[name].klass != "dp"], seq


@pytest.mark.parametrize("allow_variants", [False, True])
def test_index_matches_reference_on_closure(closure, allow_variants):
    assert len(closure) > 100
    _compare(closure, allow_variants)


@pytest.mark.parametrize("allow_variants", [False, True])
def test_index_matches_reference_on_corpus_search(corpus_visits, allow_variants):
    assert len(corpus_visits) == 134
    _compare(corpus_visits, allow_variants)


def test_index_matches_reference_on_random_sequents():
    rng = random.Random(7)
    seqs = [Sequent(random_structure(rng, 4, include_variants=True, positive=True),
                    random_structure(rng, 4, include_variants=True)) for _ in range(300)]
    for allow_variants in (False, True):
        _compare(seqs, allow_variants)


def test_index_prunes(closure):
    # the comparisons above also hold for an index that keeps every rule
    assert all(len(candidates(seq)) < len(ORDERED_RULES) // 2 for seq in closure)
