"""Focused proof search and parsing-as-deduction."""

import importlib.util
import random
from pathlib import Path

import pytest

from fdlg.syntax import parse_sequent, parse_formula, render_sequent
from fdlg.kernel import check_derivation, height
from fdlg.focus import check_strong_focalization, minimize_proof
from fdlg import rules, search
from fdlg.search import (prove, parse_sentence, sentence_sequent, SearchConfig,
                         Lexicon, LexiconError)
from fdlg.corpus import LEXICON, LEXICON_TEXT, SENTENCE, GOAL


def test_prove_axiom():
    sols = prove(parse_sequent("p |- p"))
    assert len(sols) == 1 and sols[0].rule == "p-Id"


def test_prove_non_standard_fails():
    assert prove(parse_sequent("p * q |- p * q"), SearchConfig(max_depth=12)) == []


def test_prove_standard_unique():
    sols = prove(parse_sequent("p .* q |- p * q"), SearchConfig(max_depth=12))
    assert len(sols) == 1
    assert sols[0].rule == "otimes_R"


def test_prove_outputs_are_sound_and_minimal():
    for txt in ("p .* dn (p \\ n) |- dn n", "dn n |- dn n", "p |- up p",
                "n .(+) m |- n (+) m"):
        for d in prove(parse_sequent(txt, {"n", "m"}), SearchConfig(max_depth=14)):
            assert check_derivation(d).ok
            assert check_strong_focalization(d).ok
            assert minimize_proof(d) == d


def test_prove_deterministic():
    cfg = SearchConfig(max_depth=14)
    seq = parse_sequent("p .* dn (p \\ n) |- dn n", {"n"})
    assert prove(seq, cfg) == prove(seq, cfg)


def test_prove_dedupes():
    sols = prove(parse_sequent("dn n |- dn n", {"n"}), SearchConfig(max_depth=10))
    assert len(sols) == len(set(sols))


def _bench_sentences() -> list:
    """The scope-parse benchmark's sixteen sentence shapes, slots from seed
    303, as perfbench/scope_parse.py makes them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    bench_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_gen)
    rng, goals = random.Random(303), []
    for shape in bench_gen.SHAPES:
        text, words, bracketing, s = bench_gen.sentence(rng, "", *shape)
        goals.append((sentence_sequent(words, Lexicon.from_text(text), parse_formula(f"dn {s}", {s}),
                                       bracketing), bench_gen.expected_readings(*shape)))
    return goals


def test_search_never_repeats_a_proof(closure6):
    """The search itself yields each proof once, with no dedup after it: the
    members of an orbit are distinct, and a rule matches a conclusion in one
    way only."""
    found = 0
    for goal, readings in _bench_sentences():
        proofs = search._prove(goal, 80, 0, search._Tables())[0]
        assert len(proofs) == readings and len(set(proofs)) == readings
        found += readings
    for goal in closure6:
        proofs = search._prove(goal, 20, 0, search._Tables())[0]
        assert len(set(proofs)) == len(proofs), goal
        found += len(proofs)
    assert found == 173 + 292


def test_orbits_are_classes(closure6):
    """Every member of every orbit the search builds has the same orbit, so
    the class bits stand for the orbits' member sets."""
    members = 0
    for goal, depth in [(g, 80) for g, _ in _bench_sentences()] + [(g, 20) for g in closure6]:
        tables = search._Tables()
        search._prove(goal, depth, 0, tables)
        for entries in tables.orbits.values():
            orbit = {m for m, _ in entries}
            for member, _ in entries:
                assert {m for m, _ in rules.orbit(member, tables.display)} == orbit, member
                assert tables.classes[member] == tables.classes[entries[0][0]]
            members += len(entries)
    assert members == 6_128 + 3_670


def test_tabled_answers_hold_their_own_class(closure6):
    """A tabled result's `reached` holds its goal's own class bit, so a
    parent result that used the goal's proofs is never reused on a path
    that holds the goal's class."""
    answers = 0
    for goal, depth in [(g, 80) for g, _ in _bench_sentences()] + [(g, 20) for g in closure6]:
        tables = search._Tables()
        search._prove(goal, depth, 0, tables)
        for sub, (_, reached, _) in tables.answers.items():
            assert reached & tables.classes[sub], sub
        answers += len(tables.answers)
    assert answers == 2_789


def test_orbit_postulates_come_in_inverse_pairs():
    """The reason the orbits are classes: each orbit display postulate's
    premise and conclusion are another one's conclusion and premise."""
    swapped = {(r.schema.premises[0], r.schema.conclusion) for r in search._ORBIT_DPS}
    for rule in search._ORBIT_DPS:
        assert (rule.schema.conclusion, rule.schema.premises[0]) in swapped, rule.name


def test_max_solutions_cap():
    sols = parse_sentence(list(SENTENCE), LEXICON, GOAL,
                          SearchConfig(max_depth=40, max_solutions=1))
    assert len(sols) == 1


@pytest.mark.parametrize("field", ["max_depth", "max_solutions"])
def test_negative_search_bounds_are_rejected(field):
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: -1})
    # zero is the smallest legal value; max_solutions=0 means no cap
    assert len(prove(parse_sequent("p .* q |- p * q"), SearchConfig(**{field: 0}))) \
        == (0 if field == "max_depth" else 1)


def test_golden_readings(fig_forall_exists, fig_exists_forall):
    sols = parse_sentence(list(SENTENCE), LEXICON, GOAL, SearchConfig(max_depth=40))
    assert fig_forall_exists in sols
    assert fig_exists_forall in sols
    assert all(check_strong_focalization(d).ok for d in sols)


def test_lexicon_roundtrip():
    lex = Lexicon.from_text(LEXICON_TEXT)
    assert lex.entries == LEXICON.entries
    assert lex.neg_atoms == {"s"}
    again = Lexicon.from_text(lex.to_text())
    assert again.entries == lex.entries


def test_single_word_sentence():
    lex = Lexicon.from_text("pword := p\n")
    sols = parse_sentence(["pword"], lex, parse_formula("p"))
    assert len(sols) == 1 and sols[0].rule == "p-Id"


def test_unknown_word():
    with pytest.raises(LexiconError):
        parse_sentence(["nope"], LEXICON, GOAL)


def test_bracketing_argument():
    # explicit right-branching equals the default
    seq_default = sentence_sequent(list(SENTENCE), LEXICON, GOAL)
    seq_explicit = sentence_sequent(list(SENTENCE), LEXICON, GOAL,
                                    bracketing=(0, (1, (2, 3))))
    assert seq_default == seq_explicit
    seq_left = sentence_sequent(list(SENTENCE), LEXICON, GOAL,
                                bracketing=(((0, 1), 2), 3))
    assert seq_left != seq_default


def test_sentence_sequent_matches_figures(fig_forall_exists):
    assert sentence_sequent(list(SENTENCE), LEXICON, GOAL) == \
        fig_forall_exists.conclusion


def test_search_height_within_bound(fig_forall_exists):
    sols = parse_sentence(list(SENTENCE), LEXICON, GOAL, SearchConfig(max_depth=40))
    assert all(height(d) <= 40 for d in sols)
