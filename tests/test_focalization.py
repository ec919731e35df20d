"""The local focalization verdict against the anchored report path and the
tracing reference, and the sign facts the verdict rests on."""

import random

import pytest

import reference_rules as ref
from fdlg import focus
from fdlg.cutelim import eliminate_cuts
from fdlg.focus import check_strong_focalization
from fdlg.kernel import check_derivation, derive, iter_nodes, thread
from fdlg.rules import REGISTRY, TONICITY_RULES, TRANSLATION_RULES, FNode, FVar, SNode
from fdlg.search import SearchConfig, prove
from fdlg.syntax import FAMILY, _ANTITONE, render, signed_nodes

from gen import (interrupted_join_proof, interrupted_pia_proof, quantified_sentence,
                 random_cut_proof, random_derivations)


@pytest.fixture(scope="module")
def built():
    """Forward-built derivations over every non-cut rule, variants and
    shift postulates included."""
    return random_derivations(random.Random(1), 1000)


@pytest.fixture(scope="module")
def others(closure6):
    """The readings of q quantifiers around a verb of arity q, q = 2..5,
    the searched proofs of the height-6 closure, the interrupted example and
    eliminated random cut proofs."""
    out = [d for q in (2, 3, 4, 5)
           for d in prove(quantified_sentence(q, q), SearchConfig(max_depth=80))]
    assert len(out) == 2 + 6 + 24 + 120
    out += [d for seq in closure6 for d in prove(seq, SearchConfig(max_depth=20))]
    out.append(interrupted_pia_proof())
    rng = random.Random(11)
    out += [eliminate_cuts(random_cut_proof(rng, depth))
            for depth in (2, 3, 4, 5) for _ in range(10)]
    return out


def _agree(d) -> bool:
    """Check the local verdict on `d` against the anchored path and the
    tracing reference, and the report against the reference that picks the
    same interruption; return the verdict."""
    assert check_derivation(d).ok
    anchored = focus._anchored(d)
    assert focus._focalized(d) == anchored.ok == ref.check_strong_focalization(d).ok
    assert check_strong_focalization(d) == anchored
    if not anchored.ok:
        assert anchored == ref.lowest_first(d)
    return anchored.ok


def test_local_verdict_on_built_derivations(built):
    rules = {node.rule for d in built for _, node in iter_nodes(d)}
    assert rules == {name for name, r in REGISTRY.items() if r.klass != "cut"}
    failing = [d for d in built if not _agree(d)]
    assert len(failing) >= 500
    # The lowest interruption is always a display postulate.  The premise
    # that displays a PIA child holds it as a whole side; on that side the
    # conclusion of any other non-cut rule is a connective or a context of
    # the other polarity, so only the child's introducer or a display
    # postulate can stand above it.
    culprits = {str(check_strong_focalization(d)).rsplit(" ", 1)[1] for d in failing}
    assert {REGISTRY[name].klass for name in culprits} == {"dp"}


def test_local_verdict_on_proofs(others):
    failing = [d for d in others if not _agree(d)]
    assert failing == [interrupted_pia_proof()]
    assert str(check_strong_focalization(failing[0])) == \
        "premises[0]: PIA subtree of (p \\ n) / p interrupted by dp(.*r,.\\)'"


@pytest.fixture(scope="module")
def joins():
    """oplus_L joins of d1, which proves N |- G and fails in a formula of G
    only, with each of 20 derivations of M |- D whose G-rooted M threads
    through a non-tonicity node, and the interrupted join of `gen`.  In a
    join, M's root is a member of the PIA subtree rooted at N (+) M."""
    pool = random_derivations(random.Random(3), 2000, max_size=16)
    negative = [d for d in pool if d.conclusion.pre.conn is None
                and not d.conclusion.pre.leaf.sort.positive]
    # The report visits the precedent first, so one that does not name N
    # means that N holds no interruption.
    d1 = next(d for d in negative if not (rep := check_strong_focalization(d)).ok
              and not rep.reason.startswith(f"PIA subtree of {render(d.conclusion.pre.leaf)} "))
    d2s = [d for d in negative if FAMILY.get(d.conclusion.pre.leaf.conn) == "G"
           and any(n.rule not in TONICITY_RULES for n, _, _ in thread(d, ("pre", ()))[0])]
    return [derive("oplus_L", d1, d2) for d2 in d2s[:20]] + [interrupted_join_proof()]


def test_report_follows_the_end_sequent_not_pre_order(joins):
    """Each join is reported under premises[1], where the anchored order
    finds its first interruption, though an interruption of d1 inside G lies
    under premises[0], first in pre-order."""
    assert len(joins) == 21
    for d in joins:
        assert not _agree(d)
        assert not check_strong_focalization(d.premises[0]).ok
        assert check_strong_focalization(d).where.startswith("premises[1]")
    assert str(check_strong_focalization(joins[0])) == \
        "premises[1]: PIA subtree of (up p / dn (q \\ m)) (+) (q \\ m) interrupted by dp(.*r,.\\)'"
    assert str(check_strong_focalization(joins[-1])) == \
        "premises[1]: PIA subtree of up p (+) (q \\ m) interrupted by dp(.*r,.\\)'"


def test_thread_walk_follows_the_threads(built):
    """At every position of the conclusions of a sample of the built
    derivations' nodes, the chain that `kernel.thread` follows takes the
    premises that the tracing reference takes, and some chains are
    interrupted above a tonicity node or by translations alone."""
    seen, deep, translated = set(), 0, 0
    for d in built[::5]:
        for _, node in iter_nodes(d):
            if node in seen:
                continue
            seen.add(node)
            for side in ("pre", "suc"):
                for path, _, _ in signed_nodes(getattr(node.conclusion, side)):
                    chain = thread(node, (side, path))[0]
                    assert tuple(i for _, _, i in chain) == \
                        ref.trace_to_intro(node, (side, path)), (node, side, path)
                    rules = [n.rule for n, _, _ in chain]
                    breaks = [rule for rule in rules if rule not in TONICITY_RULES]
                    # an interruption above a tonicity node, or by translations alone
                    deep += bool(breaks) and rules[0] in TONICITY_RULES
                    translated += bool(breaks) and set(breaks) <= TRANSLATION_RULES
    assert deep and translated


def _signs(pat, sign: bool, path=()):
    """{path: sign} over a pattern signed `sign`; an antitone argument flips."""
    out = {path: sign}
    if isinstance(pat, (SNode, FNode)):
        for i, arg in enumerate(pat.args):
            out.update(_signs(arg, sign ^ _ANTITONE[pat.conn][i], path + (i,)))
    return out


def _side_signs(sp) -> dict:
    return {(side, path): sign for side, side_sign in (("pre", True), ("suc", False))
            for path, sign in _signs(getattr(sp, side), side_sign).items()}


def test_threads_keep_each_metavariable_sign():
    """Belnap's C2-C4, sign half: a metavariable has the same sign in the
    conclusion and in the premise it threads to, on every rule."""
    entries = 0
    for rule in REGISTRY.values():
        conc = _side_signs(rule.schema.conclusion)
        prems = [_side_signs(p) for p in rule.schema.premises]
        for side in ("pre", "suc"):
            for path, target in rule.threads[side]:
                if target is None:
                    continue
                i, pside, ppath = target
                assert conc[side, path] == prems[i][pside, ppath], (rule.name, side, path)
                entries += 1
    assert entries >= 150


def test_pia_table_lists_the_pia_connectives():
    """Each rule's table names the operational connectives of its conclusion
    that are PIA under their static sign, in pre-order, each with the
    static sign and premise target of its metavariable arguments."""
    listed = 0
    for rule in REGISTRY.values():
        conc = rule.schema.conclusion
        signs = _side_signs(conc)
        want = []
        for (side, path), sign in signs.items():
            node = getattr(conc, side)
            for i in path:
                node = node.args[i]
            if isinstance(node, FNode) and (FAMILY[node.conn] == "F") != sign:
                targets = dict(rule.threads[side])
                want.append((side, tuple(
                    (path + (i,), signs[side, path + (i,)], targets[path + (i,)])
                    for i, arg in enumerate(node.args) if isinstance(arg, FVar))))
        assert rule.pia == tuple(want), rule.name
        listed += len(want)
    assert listed == 8
    # the rules that introduce a PIA connective are the tonicity rules
    assert {name for name, rule in REGISTRY.items() if rule.pia} == TONICITY_RULES
