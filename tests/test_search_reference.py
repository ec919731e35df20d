"""`fdlg.search.prove`, which computes each orbit and each sequent's steps
once per call, against the search in `reference_search`, which recomputes
them wherever it meets a sequent."""

import random

import pytest

import reference_search as ref
from fdlg import rules, search
from fdlg.corpus import GOAL, LEXICON, SENTENCE
from fdlg.search import SearchConfig, prove, sentence_sequent
from fdlg.syntax import Sequent

from gen import forward_closure, quantified_sentence, random_structure


def _same(goals, depths) -> list[int]:
    """Proofs found at each depth, after requiring the reference's list."""
    found = []
    for depth in depths:
        cfg = SearchConfig(max_depth=depth)
        found.append(0)
        for goal in goals:
            got = prove(goal, cfg)
            assert got == ref.prove(goal, cfg), (goal, depth)
            found[-1] += len(got)
    return found


def test_same_readings_on_the_corpus_sentence(monkeypatch):
    calls = []
    inner = search._prove

    def recording_prove(goal, depth, *rest):
        calls.append((goal, depth))
        return inner(goal, depth, *rest)

    monkeypatch.setattr(search, "_prove", recording_prove)
    goal = sentence_sequent(SENTENCE, LEXICON, GOAL)
    assert _same([goal], (4, 8, 14, 20, 30, 40, 80)) == [0, 0, 0, 0, 3, 3, 3]
    # the bounds skip orbit members whose steps the memo already holds
    assert any(len(path) + 1 > depth for sub, depth in calls if depth > 0
               for _, path in rules.orbit(sub, search._Tables().display))


@pytest.mark.parametrize("q, arity, depths, readings", [
    (2, 2, (20, 40, 80), [0, 2, 2]),
    (3, 3, (40, 80), [6, 6]),
    (4, 4, (40, 80), [0, 24]),
    (2, 1, (40, 80), [0, 0]),
])
def test_same_readings_on_quantified_sentences(q, arity, depths, readings):
    assert _same([quantified_sentence(q, arity)], depths) == readings


@pytest.mark.parametrize("q, depths, first, last", [
    (2, range(1, 31), 0, 2),
    (3, range(30, 41), 0, 6),
    (4, range(44, 55), 0, 24),
])
def test_tabled_results_hold_at_every_bound(q, depths, first, last):
    """A subgoal result is tabled only when no bound cut its search, and
    reused only under bounds that cannot change it.  The bounds where a
    subgoal's proofs first appear are the ones that go wrong without either
    check: at 24 for two quantifiers, 33 for three and 51 for four."""
    found = _same([quantified_sentence(q, q)], depths)
    assert found[0] == first and found[-1] == last


def test_same_proofs_on_random_sequents():
    rng = random.Random(12)
    goals = [Sequent(random_structure(rng, 2 + i % 2, positive=True),
                     random_structure(rng, 2 + i % 2, positive=False))
             for i in range(200)]
    assert sum(_same(goals, (3, 6, 12, 40))) > 0


def test_same_proofs_on_forward_closure():
    assert _same(list(forward_closure()), (4, 8)) == [34, 82]


def test_no_state_outlives_a_call(monkeypatch):
    calls = []
    steps = search._steps

    def counting_steps(seq):
        calls.append(seq)
        return steps(seq)

    monkeypatch.setattr(search, "_steps", counting_steps)
    goal = quantified_sentence(2, 2)
    counts = []
    for _ in range(2):
        calls.clear()
        assert len(prove(goal, SearchConfig(max_depth=40))) == 2
        assert len(calls) == len(set(calls))      # each sequent once per call
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
