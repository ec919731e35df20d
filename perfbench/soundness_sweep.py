"""soundness-sweep: rule soundness in finite fully polarized models.

Criterion 3 of the acceptance suite: every rule of the registry on chain2,
diamond and 50 random instances, five template sweeps on chain2, and a
corrupted rule as negative control.  The instances are read from the frozen
`data/instances.txt`; each pass renames their elements.
"""

from __future__ import annotations

import re
from pathlib import Path

from fdlg import algebra, rules
from fdlg.syntax import Atom

from common import expect

DATA = Path(__file__).resolve().parent / "data" / "instances.txt"
# data/instances.txt holds chain2, diamond and random_instances(COUNT, GENERATOR_SEED).
COUNT = 50
GENERATOR_SEED = 101
TEMPLATE_RULES = ("otimes_R", "under_L", "down_L", "s-down", "dp(.*,.\\)")
TEMPLATE_CAP = 12000
_ELEMENT = re.compile(r"\b(Pd|Nd|P|N):([A-Za-z0-9_.]+)")


def corrupted_rule() -> rules.Directed:
    """X .* Y |- P * Q  over  X |- P: unsound, the negative control."""
    return rules.Directed(rules.RuleSchema(
        "bogus", "tonicity",
        (rules.SeqPat(rules.SNode(".*", (rules.SVar("X", True), rules.SVar("Y", True))),
                      rules.FNode("*", (rules.FVar("P", True), rules.FVar("Q", True)))),),
        rules.SeqPat(rules.SVar("X", True), rules.FVar("P", True))))


def frozen_texts() -> list[str]:
    text = DATA.read_text()
    return ["%name" + part for part in text.split("%name")[1:]]


def setup(ctx):
    instances = []
    for text in frozen_texts():
        tag = ctx.tag()
        text = _ELEMENT.sub(lambda m: f"{m.group(1)}:{tag}{m.group(2)}", text)
        with ctx.tracer.span("algebra.load"):
            instances.append((algebra.parse_algebra(text), text))
    tag = ctx.tag()
    atoms = (Atom("p" + tag, True), Atom("n" + tag, False))
    return instances, atoms, corrupted_rule()


def _axioms(tracer, inst, text):
    with tracer.span("algebra.axioms"):
        bad = algebra.check_fplg_axioms(inst)
        rendered = algebra.render_algebra(inst)
    expect(bad == [], f"{inst.name} breaks the axioms: {bad[:1]}")
    expect(rendered == text, f"{inst.name} does not round-trip through its text")


def _sweep(tracer, name, inst):
    with tracer.span("algebra.sweep"):
        rep = algebra.check_rule_soundness(name, inst)
    tracer.add("algebra.checks", rep.checked)
    expect(rep.checked > 0, f"{name} on {inst.name}: nothing checked")
    expect(rep.ok, f"{name} on {inst.name}: {len(rep.violations)} violations")


def _template(tracer, name, inst, atoms):
    with tracer.span("algebra.template"):
        rep = algebra.check_rule_soundness_templates(name, inst, atoms, depth=2)
    tracer.add("algebra.checks", rep.checked)
    expect(0 < rep.checked <= TEMPLATE_CAP, f"template {name}: {rep.checked} checks")
    expect(rep.ok, f"template {name}: {len(rep.violations)} violations")


def _control(tracer, rule, inst):
    with tracer.span("algebra.sweep"):
        rep = algebra.check_rule_soundness(rule, inst)
    tracer.add("algebra.control_violations", len(rep.violations))
    expect(not rep.ok, "the corrupted rule passed the sweep")


def run(inputs, p):
    instances, atoms, bogus = inputs
    tr = p.tracer
    for inst, text in instances:
        p.item(f"{inst.name}/axioms", _axioms, tr, inst, text)
        for name in rules.REGISTRY:
            p.item(f"{inst.name}/{name}", _sweep, tr, name, inst)
    chain2 = instances[0][0]
    for name in TEMPLATE_RULES:
        p.item(f"template/{name}", _template, tr, name, chain2, atoms)
    p.item("control", _control, tr, bogus, chain2)
