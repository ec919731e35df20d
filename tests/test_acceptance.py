"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and timings.
"""

import random
import time

import pytest

from fdlg.syntax import parse_sequent, render_sequent, bowtie, infty, Atom
from fdlg.kernel import (check_derivation, transform_derivation, height,
                         derivation_to_json, derivation_from_json)
from fdlg.focus import check_strong_focalization, entry_exit_points, minimize_proof
from fdlg.search import prove, parse_sentence, SearchConfig
from fdlg.cutelim import eliminate_cuts, has_cut
from fdlg.translate import (translate_to_fdlg, translate_to_flg, check_flg,
                            logical_rule_count)
from fdlg.algebra import (builtin, check_rule_soundness,
                          check_rule_soundness_templates, check_fplg_axioms)
from fdlg.rules import REGISTRY, RuleSchema, Directed, SeqPat, SVar, FVar, SNode, FNode
from fdlg.corpus import (LEXICON, SENTENCE, GOAL, reading_forall_exists,
                         reading_exists_forall, cut_elim_example,
                         cut_elim_parametric_result, golden_sequents)

from gen import random_cut_proof, random_flg_derivation

UNDERIVABLE = ("r_", "b.", "n:")


def _report(name, detail):
    print(f"\n[acceptance] {name}: PASS ({detail})")


def test_criterion_1_golden_readings():
    t0 = time.time()
    sols = parse_sentence(list(SENTENCE), LEXICON, GOAL, SearchConfig(max_depth=40))
    elapsed = time.time() - t0
    fig_fa, fig_ef = reading_forall_exists(), reading_exists_forall()
    assert fig_fa in sols and fig_ef in sols
    for d in sols:
        assert check_derivation(d).ok
        assert check_strong_focalization(d).ok
    pts_fa = entry_exit_points(fig_fa)
    pts_ef = entry_exit_points(fig_ef)
    assert pts_fa != pts_ef
    # in the wide-universal reading the first quantifier entry is attacked in
    # a sequent still carrying the undecomposed object cluster, and dually
    assert pts_fa[1][2] != pts_ef[1][2]
    assert elapsed < 10.0
    extras = len(sols) - 2
    _report("criterion 1",
            f"both readings found structurally, {extras} extra minimal proof(s) "
            f"reported, {elapsed:.2f}s at depth<=40")


def test_criterion_2_standard_pair():
    none = prove(parse_sequent("p * q |- p * q"), SearchConfig(max_depth=12))
    one = prove(parse_sequent("p .* q |- p * q"), SearchConfig(max_depth=12))
    assert none == []
    assert len(one) == 1
    assert minimize_proof(one[0]) == one[0]
    _report("criterion 2", "0 proofs of the operational pair, "
                           "exactly 1 minimal proof of the standard pair")


def test_criterion_3_soundness_sweep(random50):
    t0 = time.time()
    checked = 0
    for alg in (builtin("chain2"), builtin("diamond")):
        for name in REGISTRY:
            rep = check_rule_soundness(name, alg)
            assert rep.ok, (alg.name, name, rep.violations[:1])
            checked += rep.checked
    # template-level sweep on the two-chain instance
    for name in ("otimes_R", "under_L", "down_L", "s-down", "dp(.*,.\\)"):
        rep = check_rule_soundness_templates(name, builtin("chain2"),
                                             (Atom("p", True), Atom("n", False)),
                                             depth=2)
        assert rep.ok and rep.checked <= 12000
        checked += rep.checked
    insts = random50
    assert len(insts) == 50
    for inst in insts:
        assert check_fplg_axioms(inst) == []
        for name in REGISTRY:
            rep = check_rule_soundness(name, inst)
            assert rep.ok, (inst.name, name)
            checked += rep.checked
    corrupted = Directed(RuleSchema(
        "bogus", "tonicity",
        (SeqPat(SNode(".*", (SVar("X", True), SVar("Y", True))),
                FNode("*", (FVar("P", True), FVar("Q", True)))),),
        SeqPat(SVar("X", True), FVar("P", True))))
    rep = check_rule_soundness(corrupted, builtin("chain2"))
    assert not rep.ok
    _report("criterion 3", f"zero violations over {checked} checks on chain2, "
                           f"diamond and 50 random instances; negative control "
                           f"caught with {len(rep.violations)} violations, "
                           f"{time.time()-t0:.1f}s")


def test_criterion_4_cut_elimination():
    t0 = time.time()
    ours = minimize_proof(eliminate_cuts(cut_elim_example()))
    displayed = minimize_proof(eliminate_cuts(cut_elim_parametric_result()))
    assert ours == displayed
    assert ours.conclusion == cut_elim_example().conclusion
    rng = random.Random(404)
    for i in range(200):
        d = random_cut_proof(rng, depth=rng.choice((1, 2, 2)))
        while height(d) > 8:
            d = random_cut_proof(rng, depth=1)
        assert has_cut(d), i
        out = eliminate_cuts(d)
        assert not has_cut(out), i
        assert out.conclusion == d.conclusion, i
        assert check_derivation(out).ok, i
    _report("criterion 4", f"worked example matches the displayed result up to "
                           f"minimization; 200 random cut proofs eliminated, "
                           f"{time.time()-t0:.1f}s")


def test_criterion_5_translation_round_trip():
    t0 = time.time()
    for fig in (reading_forall_exists(), reading_exists_forall()):
        flg = translate_to_flg(fig)
        assert check_flg(flg)[0]
        back = translate_to_fdlg(flg)
        assert minimize_proof(back) == fig
        assert back == fig                       # identity on the corpus
        assert logical_rule_count(flg) == logical_rule_count(fig)
    rng = random.Random(505)
    for i in range(100):
        d = random_flg_derivation(rng, 6)
        image = minimize_proof(translate_to_fdlg(d))
        back = translate_to_flg(image)
        ok, why = check_flg(back)
        assert ok, (i, why)
        assert back.conclusion == d.conclusion, i
        assert logical_rule_count(back) == logical_rule_count(d), i
    _report("criterion 5", f"corpus round trip is the identity; 100 random "
                           f"companion proofs round-trip with equal sequents "
                           f"and logical-rule counts, {time.time()-t0:.1f}s")


def test_criterion_6_non_derivability(closure6):
    t0 = time.time()
    closure = closure6
    assert len(closure) > 500
    offenders = [s for s in closure if s.kind in UNDERIVABLE]
    assert offenders == []
    _report("criterion 6", f"{len(closure)} derivable sequents enumerated "
                           f"(height<=6, size-bounded closure over a 2-atom "
                           f"signature); none of the three forbidden kinds, "
                           f"{time.time()-t0:.1f}s")


def test_criterion_7_symmetries():
    t0 = time.time()
    cfg = SearchConfig(max_depth=30, max_solutions=1)
    tested = 0
    for seq in golden_sequents():
        sols = prove(seq, cfg)
        if not sols:
            continue
        tested += 1
        for image, mapping in ((bowtie(seq), bowtie), (infty(seq), infty)):
            assert prove(image, cfg), render_sequent(image)
        for mapping in (bowtie, infty):
            mapped = transform_derivation(sols[0], mapping)
            assert check_derivation(mapped).ok
            assert mapped.conclusion == mapping(seq)
    assert tested >= 8
    _report("criterion 7", f"{tested} corpus sequents: both symmetry images "
                           f"proved and mapped proofs re-check, {time.time()-t0:.1f}s")


def test_criterion_8_focalization_at_scale(closure6):
    from fdlg.syntax import VARIANT_STRUCTS, SHIFT_ADJOINTS

    def variant_free(seq):
        def go(x):
            if x.conn is None:
                return True
            if x.conn in VARIANT_STRUCTS or x.conn in SHIFT_ADJOINTS:
                return False
            return all(go(a) for a in x.args)
        return go(seq.pre) and go(seq.suc)

    t0 = time.time()
    closure = closure6
    targets = [s for s in closure
               if s.kind not in UNDERIVABLE and variant_free(s)]
    proofs = 0
    for seq in targets:
        sols = prove(seq, SearchConfig(max_depth=10, max_solutions=3))
        assert sols, render_sequent(seq)       # every member regains a proof
        for d in sols:
            rep = check_strong_focalization(d)
            assert rep.ok, (render_sequent(seq), str(rep))
            proofs += 1
    assert proofs >= len(targets) > 250
    _report("criterion 8", f"{proofs} searched proofs over the {len(targets)} "
                           f"variant-free members of the criterion-6 "
                           f"enumeration, all strongly focalized, "
                           f"{time.time()-t0:.1f}s")
