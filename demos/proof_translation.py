"""Round-tripping proofs between the display calculus and its companion.

The companion calculus keeps a single focus bracket and two focusing rules.
A companion sequent is kept as its polarization, which has shifts exactly
at the polarity mismatches; its companion text leaves them out.  On the
sentence corpus the round trip is the identity.
"""

from fdlg.corpus import reading_forall_exists
from fdlg.translate import (translate_to_flg, translate_to_fdlg, check_flg,
                            render_flg_sequent, classify_processing_sections,
                            logical_rule_count)
from fdlg.syntax import render_sequent
from fdlg.cli import latex_derivation

fig = reading_forall_exists()
print("display-calculus end-sequent:")
print("  ", render_sequent(fig.conclusion))

flg = translate_to_flg(fig)
print("\ncompanion end-sequent (shifts erased, focus bracketed):")
print("  ", render_flg_sequent(flg.conclusion))
print("companion proof checks:", check_flg(flg)[0])

print("\nprocessing sections consumed on the way:")
for path, pattern in classify_processing_sections(fig):
    print(f"  {pattern:12s} at premises-path {path}")

back = translate_to_fdlg(flg)
print("\nround trip is the identity:", back == fig)
print("logical-rule count preserved:",
      logical_rule_count(fig) == logical_rule_count(flg))

print("\nLaTeX (bussproofs) of the first axiom-to-root slice:")
print("\n".join(latex_derivation(fig).splitlines()[:8]))
