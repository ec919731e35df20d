"""The column-wise evaluator of `fdlg.algebra` against the node-by-node
reference in `reference_algebra`, plus the reports on incomplete instances."""

from dataclasses import replace

import pytest

import reference_algebra as ref
from fdlg.algebra import (AlgebraError, builtin, check_fplg_axioms, check_rule_soundness,
                          check_rule_soundness_templates, dual_instance, interpret,
                          parse_algebra, random_instances, render_algebra)
from fdlg.rules import REGISTRY, RuleSchema, Directed, SeqPat, SVar, FVar, SNode, FNode
from fdlg.syntax import Atom

ATOMS = (Atom("p", True), Atom("n", False))


def _corrupted():
    return Directed(RuleSchema(
        "bogus", "tonicity",
        (SeqPat(SNode(".*", (SVar("X", True), SVar("Y", True))),
                FNode("*", (FVar("P", True), FVar("Q", True)))),),
        SeqPat(SVar("X", True), FVar("P", True))))


@pytest.fixture(scope="module")
def instances():
    """chain2, diamond, the dual of chain2, two partial copies of chain2 (one
    without the *l variant table, one whose upl map lacks an entry) and
    twelve random instances."""
    chain2 = builtin("chain2")
    no_variant = replace(chain2, name="no-*l",
                         variants={k: t for k, t in chain2.variants.items() if k != "*l"})
    partial_upl = replace(chain2, name="partial-upl", upl=dict(list(chain2.upl.items())[1:]))
    return ([chain2, builtin("diamond"), dual_instance(chain2), no_variant, partial_upl]
            + random_instances(12, seed=5))


@pytest.mark.parametrize("index", range(17))
def test_rule_sweep_matches_reference(instances, index):
    inst = instances[index]
    for rule in [*REGISTRY.values(), _corrupted()]:
        got = check_rule_soundness(rule, inst)
        want = ref.check_rule_soundness(rule, inst)
        assert (got.checked, got.violations) == (want.checked, want.violations), \
            (inst.name, rule.name)


def test_max_checks_matches_reference(chain2):
    for name in ("otimes_R", "dp(.*,.\\)"):
        got = check_rule_soundness(name, chain2, max_checks=5)
        want = ref.check_rule_soundness(name, chain2, max_checks=5)
        assert (got.checked, got.violations) == (want.checked, want.violations) == (5, [])


def _outcome(evaluate, seq, a, v):
    try:
        return evaluate(seq, a, v)
    except AlgebraError:
        return "uninterpretable"


def test_interpret_matches_reference_on_templates(chain2):
    seen = set()
    for _, prems, conc, v in ref.template_checks("otimes_R", chain2, ATOMS):
        for seq in (*prems, conc):
            want = _outcome(ref.interpret, seq, chain2, v)
            assert _outcome(interpret, seq, chain2, v) == want, seq
            seen.add(want)
    assert seen == {True, False, "uninterpretable"}


@pytest.mark.parametrize("name", ["otimes_R", "s-down"])
def test_template_sweep_matches_reference(chain2, name):
    got = check_rule_soundness_templates(name, chain2, ATOMS)
    want = ref.check_rule_soundness_templates(name, chain2, ATOMS)
    assert (got.checked, got.violations) == (want.checked, want.violations)


def test_axioms_report_missing_operation(chain2):
    ops = {k: t for k, t in chain2.ops.items() if k != "\\"}
    bad = check_fplg_axioms(replace(chain2, ops=ops))
    assert "missing operation \\" in bad


def test_parse_algebra_names_missing_section(chain2):
    with pytest.raises(AlgebraError, match="%carrier P"):
        parse_algebra("%name x\n")
    text = "".join(line + "\n" for line in render_algebra(chain2).splitlines()
                   if not line.startswith("%wr pure"))
    with pytest.raises(AlgebraError, match="%wr pure"):
        parse_algebra(text)
