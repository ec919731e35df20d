"""Finite fully polarized models: soundness sweeps and a countermodel.

Every rule of the calculus is checked valid over the two-chain and diamond
instances (element-exhaustive, which covers every instantiation shape since
structures denote elements), and the non-theorem  p |- n  gets an automatic
countermodel.  A deliberately corrupted rule is caught.
"""

from fdlg.algebra import (builtin, random_instances, check_fplg_axioms,
                          check_rule_soundness, interpret, valuations, atoms_of,
                          render_algebra)
from fdlg.rules import REGISTRY, RuleSchema, Directed, SeqPat, SVar, FVar, SNode, FNode
from fdlg.syntax import parse_sequent

chain2 = builtin("chain2")
print("two-chain instance passes the axiom check:", check_fplg_axioms(chain2) == [])
print(render_algebra(chain2).splitlines()[1])

total = 0
for name in sorted(REGISTRY):
    rep = check_rule_soundness(name, chain2)
    total += rep.checked
    assert rep.ok
print(f"all {len(REGISTRY)} rules valid on the two-chain ({total} checks)")

bogus = Directed(RuleSchema(
    "inverse-of-a-tonicity-rule", "tonicity",
    (SeqPat(SNode(".*", (SVar("X", True), SVar("Y", True))),
            FNode("*", (FVar("P", True), FVar("Q", True)))),),
    SeqPat(SVar("X", True), FVar("P", True))))
rep = check_rule_soundness(bogus, chain2)
print(f"negative control: corrupted rule caught with {len(rep.violations)} violations")

seq = parse_sequent("p |- n", {"n"})
cm = next(v for v in valuations(chain2, atoms_of(seq)) if not interpret(seq, chain2, v))
print(f"countermodel for `p |- n`: {cm}")

insts = random_instances(10, seed=1)
print(f"{len(insts)} random instances generated, all validated:",
      all(check_fplg_axioms(i) == [] for i in insts))
print("carrier shapes (chains of 1 to 3 elements):",
      sorted({tuple(len(i.poset(t).elements) for t in ('P','Pd','N','Nd')) for i in insts}))
