"""The column-wise evaluator of `fdlg.algebra` against the node-by-node
reference in `reference_algebra`, plus the reports on incomplete instances."""

import copy
import pickle
import random
import re
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import pytest

import reference_algebra as ref
from fdlg.algebra import (TAGS, AlgebraError, FinitePoset, builtin, check_fplg_axioms,
                          check_rule_soundness,
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


def _schema(name, premises, conclusion):
    return Directed(RuleSchema(name, "tonicity", tuple(premises), conclusion))


_X, _Y, _D = SVar("X", True), SVar("Y", True), SVar("D", False)
_P, _Q = FVar("P", True), FVar("Q", True)
# Rules built outside the registry: the corrupted rule; a repeated
# metavariable, once an instance of dp(.*,./) and once unsound; and
# connectives that no instance has a table for, inside the conclusion (a
# missing entry there makes the whole conclusion undecided) and as the
# premise of the corrupted rule (an undecided premise never holds).
OUTSIDE_RULES = [
    _corrupted(),
    _schema("repeated", [SeqPat(_X, SNode("./", (_D, _X)))], SeqPat(SNode(".*", (_X, _X)), _D)),
    _schema("repeated-unsound", [SeqPat(SNode(".*", (_X, _X)), _D)], SeqPat(_X, _D)),
    _schema("no-table-in-conclusion", [SeqPat(_X, _P)],
            SeqPat(SNode(".*", (SNode(".nope", (_X,)), _Y)), FNode("*", (_P, _Q)))),
    _schema("no-table-in-premise", [SeqPat(SNode(".*", (_X, _Y)), FNode("nope", (_P, _Q)))],
            SeqPat(_X, _P)),
]


def test_rules_outside_the_registry_match_reference(instances):
    """The compiled sweep of each rule above gives the reference's report on
    every instance, the incomplete ones included."""
    violated = set()
    for inst in instances:
        for rule in OUTSIDE_RULES:
            got = check_rule_soundness(rule, inst)
            want = ref.check_rule_soundness(rule, inst)
            assert (got.rule, got.checked, got.violations) == \
                (rule.name, want.checked, want.violations), (inst.name, rule.name)
            if got.violations:
                violated.add(rule.name)
    assert violated == {"bogus", "repeated-unsound"}


def test_a_rule_pickles_and_copies_after_its_sweep(diamond):
    """The compiled sweep stays out of a rule's pickled and copied state; a
    copy sweeps as the original does."""
    for rule in (REGISTRY["otimes_R"], _corrupted()):
        want = check_rule_soundness(rule, diamond)
        for twin in (pickle.loads(pickle.dumps(rule)), copy.deepcopy(rule)):
            assert twin is not rule and twin.schema == rule.schema
            assert rule.sweep is not None and twin.sweep is None
            got = check_rule_soundness(twin, diamond)
            assert (got.rule, got.checked, got.violations) == \
                (want.rule, want.checked, want.violations)
    assert not check_rule_soundness(_corrupted(), diamond).ok


@dataclass(frozen=True)
class _Odd:
    """A schema leaf of no pattern class, with a metavariable's fields."""
    name: str
    positive: bool
    shifted: bool | None = None


def test_a_pattern_of_an_unknown_class_is_rejected(chain2):
    rule = _schema("odd", [SeqPat(_X, _P)], SeqPat(SNode(".*", (_Odd("Z", True), _Y)), _P))
    with pytest.raises(ValueError, match="cannot evaluate the pattern"):
        check_rule_soundness(rule, chain2)


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


# --- the axiom check against the previous, hand-typed one

FROZEN = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "instances.txt"
# the messages of the previous check's residuation laws
LAW_MESSAGE = re.compile(r"(product|coproduct|variant) adjunction")


def test_generator_matches_frozen_instances(random50):
    """The instances the soundness benchmark sweeps were frozen from this
    call; the generator still makes them, text for text."""
    frozen = ["%name" + part for part in FROZEN.read_text().split("%name")[1:]]
    assert [render_algebra(a) for a in random50] == frozen[-50:]


def test_axioms_match_reference_on_valid_instances(random50):
    base = [builtin(name) for name in ("chain2", "chain3", "diamond")] + random50
    valid = base + [dual_instance(a) for a in base]
    assert len(valid) == 106
    for inst in valid:
        assert check_fplg_axioms(inst) == [] == ref.check_fplg_axioms(inst), inst.name


def _entry_edits(inst):
    """(field, table, cell, value) for each entry of an operation or variant
    table and each other element of the carrier its value lies in."""
    return [(field, name, cell, other)
            for field in ("ops", "variants")
            for name, table in getattr(inst, field).items()
            for cell, value in table.items()
            for other in inst.poset(value[1]).elements if other != value]


def _edited(inst, field, name, cell, value):
    tables = getattr(inst, field)
    return replace(inst, **{field: {**tables, name: {**tables[name], cell: value}}})


def test_axioms_reject_every_entry_mutant_of_chain2(chain2):
    edits = _entry_edits(chain2)
    assert len(edits) == 288
    for edit in edits:
        mutant = _edited(chain2, *edit)
        assert check_fplg_axioms(mutant) and ref.check_fplg_axioms(mutant), edit


def test_axioms_reject_sampled_entry_mutants_of_diamond(diamond):
    edits = _entry_edits(diamond)
    assert len(edits) == 3456
    for edit in random.Random(7).sample(edits, 150):
        mutant = _edited(diamond, *edit)
        assert check_fplg_axioms(mutant) and ref.check_fplg_axioms(mutant), edit


def _broken_before_the_laws(inst):
    """Copies of `inst` with one fault in what the check reads before the
    residuation laws: an order pair of a carrier toggled, a shift map entry
    dropped or moved, a pair of a weakening relation toggled, an operation
    or a variant missing, an operation entry dropped or sent into another
    carrier."""
    for t in TAGS:
        p = inst.poset(t)
        for pair in product(p.elements, repeat=2):
            if pair[0] != pair[1]:
                yield replace(inst, **{t: FinitePoset(p.elements, p.leq ^ {pair})})
    for sh in ("up", "upl", "dn", "dnr"):
        m = getattr(inst, sh)
        for x, y in m.items():
            yield replace(inst, **{sh: {k: v for k, v in m.items() if k != x}})
            for other in inst.poset(y[1]).elements:
                if other != y:
                    yield replace(inst, **{sh: {**m, x: other}})
    for field, src, tgt in (("wr_shifted_pos", "P", "Pd"), ("wr_pure", "P", "N"),
                            ("wr_shifted_neg", "Nd", "N")):
        rel = getattr(inst, field)
        for pair in product(inst.poset(src).elements, inst.poset(tgt).elements):
            yield replace(inst, **{field: rel ^ {pair}})
    for field in ("ops", "variants"):
        tables = getattr(inst, field)
        for name in tables:
            yield replace(inst, **{field: {k: t for k, t in tables.items() if k != name}})
    for name, table in inst.ops.items():
        cell, value = next(iter(table.items()))
        yield replace(inst, ops={**inst.ops, name: {k: v for k, v in table.items() if k != cell}})
        wrong = inst.poset("Pd" if value[1] == "P" else "Nd").elements[0]
        yield replace(inst, ops={**inst.ops, name: {**table, cell: wrong}})


def test_axioms_first_message_unchanged_before_the_laws(chain2, diamond):
    compared = 0
    for inst in (chain2, diamond):
        for broken in _broken_before_the_laws(inst):
            old, new = ref.check_fplg_axioms(broken), check_fplg_axioms(broken)
            assert new
            if old and not LAW_MESSAGE.match(old[0]):
                assert new[0] == old[0]
                compared += 1
    assert compared == 256
