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


def _corrupted(right=False):
    """X .* Y |- P * Q over X |- P, unsound; with `right`, over Y |- Q."""
    return Directed(RuleSchema(
        "bogus-right" if right else "bogus", "tonicity",
        (SeqPat(SNode(".*", (SVar("X", True), SVar("Y", True))),
                FNode("*", (FVar("P", True), FVar("Q", True)))),),
        SeqPat(SVar("Y", True), FVar("Q", True)) if right
        else SeqPat(SVar("X", True), FVar("P", True))))


def test_compiled_variable_maps_match_the_pattern_walks():
    """Each rule's var_sorts and formula_vars, compiled once, are what the
    reference walks read off its patterns, keys in the same order."""
    assert len(REGISTRY) == 64
    for rule in [*REGISTRY.values(), _corrupted(), _corrupted(right=True)]:
        varspec = ref._pattern_vars(rule)
        assert list(rule.var_sorts.items()) == list(varspec.items()), rule.name
        assert rule.formula_vars == {n for n in varspec if ref._is_formula_var(rule, n)}


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


def _template_outcome(sweep, rule, inst, cap):
    """(checked, violations) of a template sweep, or the type of its error."""
    try:
        rep = sweep(rule, inst, ATOMS, cap=cap)
    except Exception as e:  # noqa: BLE001 - any error must be the same one
        return type(e)
    return rep.checked, rep.violations


@pytest.fixture
def bogus(monkeypatch):
    """The corrupted rule; both corrupted rules are also known by name to the
    reference, which looks rules up in the registry."""
    rule, right = _corrupted(), _corrupted(right=True)
    monkeypatch.setattr(ref, "REGISTRY", {**REGISTRY, rule.name: rule, right.name: right})
    return rule


@pytest.mark.parametrize("name", ["otimes_R", "s-down", "bogus"])
def test_template_sweep_matches_reference(chain2, bogus, name):
    rule = bogus if name == "bogus" else name
    got = _template_outcome(check_rule_soundness_templates, rule, chain2, 12000)
    assert got == _template_outcome(ref.check_rule_soundness_templates, name, chain2, 12000)
    if rule is bogus:
        assert len(got[1]) == 76


@pytest.mark.parametrize("right, name, three_atoms, cap, count", [
    # violations from two sort signatures, interleaved in product order
    (False, "chain2", True, 3000, 234),
    # several violations to a combination, over atoms in an order that
    # neither the premise's variables nor their names give
    (True, "diamond", False, 2000, 35),
])
def test_template_sweep_orders_violations_as_reference(bogus, right, name, three_atoms,
                                                       cap, count):
    atoms = (ATOMS[0], Atom("q", True), ATOMS[1]) if three_atoms else ATOMS
    rule, inst = _corrupted(right), builtin(name)
    got = check_rule_soundness_templates(rule, inst, atoms, cap=cap)
    want = ref.check_rule_soundness_templates(rule.name, inst, atoms, cap=cap)
    assert (got.checked, got.violations) == (want.checked, want.violations)
    assert (got.rule, len(got.violations)) == (rule.name, count)


# Small enough to keep the reference's node-by-node sweeps quick, and a cap
# that combinations step over: diamond's sweep of otimes_R stops at 164.
SPLIT_CAP = 150


@pytest.mark.parametrize("index", range(17))
def test_template_sweep_matches_reference_on_every_rule(instances, bogus, index):
    inst = instances[index]
    for rule in [*REGISTRY.values(), bogus]:
        got = _template_outcome(check_rule_soundness_templates, rule, inst, SPLIT_CAP)
        want = _template_outcome(ref.check_rule_soundness_templates, rule.name, inst,
                                 SPLIT_CAP)
        assert got == want, (inst.name, rule.name)
    if inst.name == "diamond":
        assert check_rule_soundness_templates("otimes_R", inst, ATOMS,
                                              cap=SPLIT_CAP).checked == 164


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
