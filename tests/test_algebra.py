"""Finite models: axioms, constructions, interpretation, rule soundness."""

import random
import re
from ast import literal_eval
from dataclasses import replace
from itertools import product

import pytest

from fdlg.syntax import Atom, parse_sequent, parse_formula
from fdlg.algebra import (FinitePoset, poset_from_pairs, collage,
                          is_weakening_relation, LGAlgebra, lg_from_lattice,
                          chain_poset, diamond_poset, FiniteFPLG,
                          check_fplg_axioms, from_lg, to_lg, lg_isomorphic,
                          interpret, valuations, atoms_of, check_rule_soundness,
                          check_rule_soundness_templates, builtin,
                          random_instances, dual_instance, render_algebra,
                          parse_algebra, AlgebraError)
from fdlg.rules import REGISTRY, RuleSchema, Directed, SeqPat, SVar, FVar, SNode, FNode
from fdlg.corpus import golden_sequents, reading_forall_exists
from fdlg.search import prove, SearchConfig


def test_poset_axioms_checked():
    bad = FinitePoset(("a", "b"), frozenset({("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}))
    assert any("antisymmetric" in m for m in bad.check())
    good = chain_poset(3)
    assert good.check() == []


def test_collage_examples():
    one = poset_from_pairs(("x",), ())
    other = poset_from_pairs(("y",), ())
    chain = collage(one, other, {("x", "y")})
    assert chain.le("x", "y") and not chain.le("y", "x")
    assert chain.check() == []
    disjoint = collage(one, other, set())
    assert not disjoint.le("x", "y") and disjoint.check() == []


def test_weakening_relation_compatibility():
    p = chain_poset(2, "p")
    q = chain_poset(2, "q")
    assert is_weakening_relation({("p0", "q0"), ("p0", "q1"), ("p1", "q1")}, p, q)
    assert not is_weakening_relation({("p1", "q0")}, p, q)


def test_from_lg_chain2(chain2):
    assert check_fplg_axioms(chain2) == []


def test_from_lg_trivial():
    triv = from_lg(lg_from_lattice(chain_poset(1)))
    assert check_fplg_axioms(triv) == []
    assert len(triv.P.elements) == 1


def test_from_lg_diamond(diamond):
    assert check_fplg_axioms(diamond) == []
    assert len(diamond.P.elements) == 4


def test_broken_instance_reported(chain2):
    broken = FiniteFPLG("broken", chain2.P, chain2.Pd, chain2.N, chain2.Nd,
                        chain2.up, chain2.upl, chain2.dn, chain2.dnr,
                        chain2.wr_shifted_pos, frozenset(), chain2.wr_shifted_neg,
                        chain2.ops, chain2.variants)
    bad = check_fplg_axioms(broken)
    assert any("shift intro/elim" in m for m in bad)


def test_to_lg_quotient_is_lg_algebra(chain2):
    q = to_lg(chain2)
    assert q.check() == []
    # the collage relation never puts a negative copy below a positive one,
    # so the quotient strictly refines the seed: four elements, not two
    assert len(q.poset.elements) == 4
    assert not lg_isomorphic(q, lg_from_lattice(chain_poset(2)))


def test_to_lg_trivial_seed():
    q = to_lg(from_lg(lg_from_lattice(chain_poset(1))))
    assert q.check() == []
    assert len(q.poset.elements) == 2


def test_to_lg_residuation_spot_check(chain2):
    g = to_lg(chain2)
    le = g.poset.le
    es = g.poset.elements
    for a in es:
        for b in es:
            for c in es:
                assert le(g.op("*", a, b), c) == le(b, g.op("\\", a, c))


def _residuation_failures(g: LGAlgebra) -> set:
    """(law, triple) for every triple at which the law's three conditions
    disagree: x*y <= z, y <= x\\z, x <= z/y for the product law at (x, y, z),
    and x <= m(+)n, x(/)n <= m, m(\\)x <= n for the coproduct law at
    (x, m, n)."""
    le, op = g.poset.le, g.op
    out = set()
    for x, y, z in product(g.poset.elements, repeat=3):
        if len({le(op("*", x, y), z), le(y, op("\\", x, z)), le(x, op("/", z, y))}) > 1:
            out.add(("product", (x, y, z)))
        if len({le(x, op("(+)", y, z)), le(op("(/)", x, z), y), le(op("(\\)", y, x), z)}) > 1:
            out.add(("coproduct", (x, y, z)))
    return out


@pytest.mark.parametrize("poset", [chain_poset(2), chain_poset(3), diamond_poset()],
                         ids=["chain2", "chain3", "diamond"])
def test_lg_check_names_each_failing_law_and_triple(poset):
    """Every single-cell corruption of a table, within the carrier, is
    reported exactly at the oracle's (law, triple) pairs, once each."""
    good = lg_from_lattice(poset)
    assert good.check() == [] == sorted(_residuation_failures(good))
    es, failing = poset.elements, 0
    for sym, table in good.ops.items():
        for cell, value in table.items():
            for other in es:
                if other == value:
                    continue
                bad = LGAlgebra(poset, {**good.ops, sym: {**table, cell: other}})
                got = [re.fullmatch(r"(\w+) residuation fails at (\(.*\))", m).groups()
                       for m in bad.check()]
                got = [(law, literal_eval(triple)) for law, triple in got]
                assert len(got) == len(set(got))
                assert set(got) == _residuation_failures(bad), (sym, cell, other)
                failing += bool(got)
    assert failing > 0


def test_interpret_reflexive(chain2):
    seq = parse_sequent("p |- p")
    for v in valuations(chain2, atoms_of(seq)):
        assert interpret(seq, chain2, v)


def test_interpret_underivable_but_valid(chain2):
    # reflexivity holds although the sequent is not derivable; completeness
    # targets standard sequents
    seq = parse_sequent("p * q |- p * q")
    for v in valuations(chain2, atoms_of(seq)):
        assert interpret(seq, chain2, v)
    assert prove(seq, SearchConfig(max_depth=10)) == []


def test_interpret_golden_end_sequent(chain2, fig_forall_exists):
    seq = fig_forall_exists.conclusion
    for v in valuations(chain2, atoms_of(seq)):
        assert interpret(seq, chain2, v)


def test_countermodel_for_neutral_atomic(chain2):
    seq = parse_sequent("p |- n", {"n"})
    assert any(not interpret(seq, chain2, v)
               for v in valuations(chain2, atoms_of(seq)))


def test_uninterpretable_kinds_raise(chain2):
    seq = parse_sequent("dn n |- p", {"n"})      # admissible but underivable
    with pytest.raises(AlgebraError):
        interpret(seq, chain2, {("n", False): ("0", "N"), ("p", True): ("0", "P")})


def test_all_rules_sound_on_chain2(chain2):
    for name in REGISTRY:
        rep = check_rule_soundness(name, chain2)
        assert rep.ok, (name, rep.violations[:1])


def test_all_rules_sound_on_diamond(diamond):
    for name in REGISTRY:
        rep = check_rule_soundness(name, diamond)
        assert rep.ok, (name, rep.violations[:1])


def test_template_sweep_matches(chain2):
    rep = check_rule_soundness_templates("otimes_R", chain2,
                                         (Atom("p", True), Atom("n", False)),
                                         depth=2)
    assert rep.ok and rep.checked > 1000


def test_corrupted_rule_caught(chain2):
    inverse_of_tonicity = Directed(RuleSchema(
        "bogus", "tonicity",
        (SeqPat(SNode(".*", (SVar("X", True), SVar("Y", True))),
                FNode("*", (FVar("P", True), FVar("Q", True)))),),
        SeqPat(SVar("X", True), FVar("P", True))))
    rep = check_rule_soundness(inverse_of_tonicity, chain2)
    assert not rep.ok


def test_negative_sweep_bounds_are_rejected(chain2):
    atoms = (Atom("p", True), Atom("n", False))
    with pytest.raises(ValueError, match="cap must not be negative, got -1"):
        check_rule_soundness_templates("otimes_R", chain2, atoms, cap=-1)


@pytest.mark.parametrize("depth", [0, -1])
def test_template_depth_below_one_is_rejected(chain2, depth):
    atoms = (Atom("p", True), Atom("n", False))
    with pytest.raises(ValueError, match=f"depth must be at least 1, got {depth}"):
        check_rule_soundness_templates("otimes_R", chain2, atoms, depth=depth)


def test_representedness(chain2):
    # the relations represented by the two adjunctions are weakening relations
    eqql = {(p, nd) for p in chain2.P.elements for nd in chain2.Nd.elements
            if chain2.eqql(p, nd)}
    assert is_weakening_relation(eqql, chain2.P, chain2.Nd)
    prq = {(pd, n) for pd in chain2.Pd.elements for n in chain2.N.elements
           if chain2.preceqq(pd, n)}
    assert is_weakening_relation(prq, chain2.Pd, chain2.N)


def test_random_instances_validate():
    insts = random_instances(12, seed=5)
    assert len(insts) == 12
    for inst in insts:
        assert check_fplg_axioms(inst) == [], inst.name
        assert all(len(inst.poset(t).elements) <= 3 for t in ("P", "Pd", "N", "Nd"))


def test_dual_instance_valid(chain2):
    assert check_fplg_axioms(dual_instance(chain2)) == []


def test_serialization_roundtrip(chain2):
    text = render_algebra(chain2)
    again = parse_algebra(text)
    assert check_fplg_axioms(again) == []
    assert again.ops["*"] == chain2.ops["*"]
    assert render_algebra(again) == text.replace("%name chain2", "%name chain2")


def test_completeness_at_desk_scale(chain2, diamond, corpus_sequents):
    derivable = [s for s in corpus_sequents
                 if prove(s, SearchConfig(max_depth=30, max_solutions=1))]
    assert derivable
    for seq in derivable:
        for alg in (chain2, diamond):
            for v in valuations(alg, atoms_of(seq)):
                assert interpret(seq, alg, v)


def test_instance_collages_are_posets(chain2):
    rp, rn = chain2.ring_pos(), chain2.ring_neg()
    assert rp.check() == [] and rn.check() == []
    assert set(rp.elements) == set(chain2.P.elements) | set(chain2.Pd.elements)
    assert set(rn.elements) == set(chain2.N.elements) | set(chain2.Nd.elements)


@pytest.mark.parametrize("section, entry, message", [
    ("%wr pure:", "P:zz<=N:0", "the P-N relation is not a weakening relation"),
    ("%op *:", "P:zz,P:0->P:0",
     "* is defined outside its domain at (('zz', 'P'), ('0', 'P'))"),
    ("%var (+)l:", "P:0,P:0->Pd:0",
     "(+)l is defined outside its domain at (('0', 'P'), ('0', 'P'))"),
    ("%map up:", "P:zz->Nd:0", "up is defined outside its domain at ('zz', 'P')"),
])
def test_entries_outside_the_carriers_rejected(chain2, section, entry, message):
    """A relation must lie inside its carriers, and a map's or a table's
    keys must be exactly its domain."""
    text = "".join((line + " " + entry if line.startswith(section) else line) + "\n"
                   for line in render_algebra(chain2).splitlines())
    assert check_fplg_axioms(parse_algebra(text)) == [message]


def test_variant_value_outside_its_carrier_rejected(chain2):
    cell = next(iter(chain2.variants["/r"]))
    variants = {**chain2.variants, "/r": {**chain2.variants["/r"], cell: ("0", "P")}}
    bad = check_fplg_axioms(replace(chain2, variants=variants))
    assert bad == [f"/r not total into Pd at {cell!r}"]


def test_residuation_laws_from_the_signature():
    """The product and coproduct shapes at each polarity assignment that the
    signature can type: the two base adjunctions and six with variants,
    which between them read every table."""
    from fdlg.algebra import _BINARY
    from fdlg.syntax import RESIDUATION_LAWS
    groups = [tuple(conn[1:].rstrip("lr") for conn, *_ in clauses)
              for _, clauses in RESIDUATION_LAWS]
    assert groups == [("*", "\\", "/")] * 4 + [("(+)", "(/)", "(\\)")] * 4
    assert {conn[1:] for _, clauses in RESIDUATION_LAWS for conn, *_ in clauses} == set(_BINARY)


def test_carrier_listing_an_element_twice_rejected(chain2):
    text = render_algebra(chain2).replace("%carrier P: P:0 P:1", "%carrier P: P:0 P:1 P:1")
    with pytest.raises(AlgebraError, match="^line 2: %carrier P lists an element twice$"):
        parse_algebra(text)


@pytest.mark.parametrize("line, message", [
    ("%op bar: P:0,P:0->P:0", "unknown %op symbol 'bar'"),
    ("%var foo: P:0,P:0->P:0", "unknown %var symbol 'foo'"),
    ("%op *l: P:0,P:0->P:0", "unknown %op symbol '*l'"),
    ("%map zz: P:0->Nd:0", "unknown %map symbol 'zz'"),
    ("%carrier Q: Q:0", "unknown %carrier symbol 'Q'"),
    ("%le Q: Q:0<=Q:0", "unknown %le symbol 'Q'"),
    ("%wr mixed: P:0<=N:0", "unknown %wr symbol 'mixed'"),
])
def test_lines_of_unknown_symbols_rejected(chain2, line, message):
    text = render_algebra(chain2) + line + "\n"
    last = text.count("\n")
    with pytest.raises(AlgebraError, match=f"^line {last}: {re.escape(message)}$"):
        parse_algebra(text)


@pytest.mark.parametrize("old, new, message", [
    ("%map up: P:0->Nd:0", "%map up: P:0->Nd:1 P:0->Nd:0",
     "line 10: %map up has a second entry for P:0"),
    ("%op *: P:0,P:0->P:0", "%op *: P:0,P:0->P:1 P:0,P:0->P:0",
     "line 17: %op * has a second entry for P:0,P:0"),
    ("%var *l: N:0,P:0->Nd:0", "%var *l: N:0,P:0->Nd:0 N:0,P:0->Nd:0",
     "line 23: %var *l has a second entry for N:0,P:0"),
], ids=["map", "op", "var"])
def test_a_second_entry_for_a_key_rejected(chain2, old, new, message):
    """A table line that gives one argument two entries, even equal ones,
    would keep only the last."""
    text = render_algebra(chain2)
    assert old in text
    with pytest.raises(AlgebraError, match=f"^{re.escape(message)}$"):
        parse_algebra(text.replace(old, new))


@pytest.mark.parametrize("line", ["%op *: P:0,P:0->P:1", "%carrier N: N:0", "%wr pure:"])
def test_a_second_line_for_a_symbol_rejected(chain2, line):
    """A line for a symbol that already has one would replace it."""
    kind, symbol = line.split(":")[0].split()
    lines = [line, *render_algebra(chain2).splitlines()]
    second = 1 + next(i for i, x in enumerate(lines) if i and x.startswith(f"{kind} {symbol}:"))
    with pytest.raises(AlgebraError, match=f"^line {second}: a second {re.escape(kind)} "
                                           f"{re.escape(symbol)} line$"):
        parse_algebra("\n".join(lines))
