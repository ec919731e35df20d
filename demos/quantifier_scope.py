"""Parsing-as-deduction: one sentence, two scope readings.

"Everyone likes some teacher" is grammatical but ambiguous.  Proof search on
its goal sequent returns distinct minimal proofs, and the order in which the
quantifier entries are attacked tells the readings apart.
"""

from fdlg.corpus import LEXICON, SENTENCE, GOAL, reading_forall_exists, reading_exists_forall
from fdlg.search import parse_sentence, sentence_sequent, SearchConfig
from fdlg.focus import entry_exit_points, check_strong_focalization
from fdlg.kernel import iter_nodes
from fdlg.syntax import render_sequent, render

seq = sentence_sequent(list(SENTENCE), LEXICON, GOAL)
print("lexicon entries:")
for word, fml in LEXICON.entries.items():
    print(f"  {word:9s} := {render(fml)}")
print("\ngoal sequent:\n ", render_sequent(seq), f"   (kind {seq.kind})\n")

readings = parse_sentence(list(SENTENCE), LEXICON, GOAL, SearchConfig(max_depth=40))
print(f"search found {len(readings)} minimal proofs; all focalized:",
      all(check_strong_focalization(d).ok for d in readings))

names = {reading_forall_exists(): "wide universal (for every x there is a teacher)",
         reading_exists_forall(): "wide existential (one teacher liked by all)"}
for i, d in enumerate(readings, 1):
    label = names.get(d, "an alternative display route to a reading above")
    print(f"\n--- proof {i}: {label}")
    for fml, tag, concl in entry_exit_points(d):
        print(f"  {tag:10s} {render(fml):24s} in  {render_sequent(concl)}")

print("\nfull derivation of the wide-universal reading:")
for path, node in iter_nodes(reading_forall_exists()):
    print("  " * len(path) + f"{node.rule}: {render_sequent(node.conclusion)}")
