"""The compiled occurrence maps and the focalization check, against the
scanning references in `reference_rules`."""

import random

import pytest

import reference_rules as ref
from fdlg.cutelim import eliminate_cuts
from fdlg.focus import check_strong_focalization
from fdlg.kernel import Derivation, KernelError, check_derivation, derive, iter_nodes
from fdlg.rules import REGISTRY, TONICITY_RULES
from fdlg.search import SearchConfig, prove
from fdlg.syntax import signed_nodes

from gen import forward_closure, interrupted_pia_proof, random_cut_proof

_DETOURS = [(name, rule.schema.inverse) for name, rule in REGISTRY.items()
            if rule.arity == 1 and rule.schema.inverse]


@pytest.fixture(scope="module")
def proofs(fig_forall_exists, fig_exists_forall):
    """Searched proofs of the forward closure, eliminated random cut proofs
    of cut-formula depth 2-5, the corpus readings and the interrupted
    example."""
    out = [fig_forall_exists, fig_exists_forall, interrupted_pia_proof()]
    for seq in forward_closure(include_variants=True):
        out += prove(seq, SearchConfig(max_depth=8, max_solutions=2))
    rng = random.Random(3)
    out += [eliminate_cuts(random_cut_proof(rng, depth))
            for depth in (2, 3, 4, 5) for _ in range(10)]
    return out


def _replace(d: Derivation, path, sub: Derivation) -> Derivation:
    if not path:
        return sub
    prems = list(d.premises)
    prems[path[0]] = _replace(prems[path[0]], path[1:], sub)
    return Derivation(d.rule, d.conclusion, tuple(prems))


def _padded(d: Derivation):
    """`d` with one invertible rule and its inverse wedged above a premise
    of a tonicity node, in every way that leaves the premise's sequent as
    it was."""
    for path, node in iter_nodes(d):
        if node.rule not in TONICITY_RULES:
            continue
        for i, sub in enumerate(node.premises):
            for name, inverse in _DETOURS:
                try:
                    detour = derive(inverse, derive(name, sub))
                except KernelError:
                    continue
                if detour.conclusion == sub.conclusion:
                    yield _replace(d, path + (i,), detour)


@pytest.fixture(scope="module")
def padded(proofs):
    return [p for d in proofs for p in _padded(d)]


def test_thread_up_matches_the_scan(proofs, padded):
    """At every position of every node, skeleton and formula positions
    alike, the compiled map threads where the scan does."""
    checked, rules = 0, set()
    for d in proofs + padded:
        for _, node in iter_nodes(d):
            rule = REGISTRY[node.rule]
            rules.add(rule.name)
            for side in ("pre", "suc"):
                for path, _, _ in signed_nodes(getattr(node.conclusion, side)):
                    pos = (side, path)
                    assert rule.thread_up(pos) == ref.thread_up(rule, pos), (rule.name, pos)
                    checked += 1
    assert checked > 150_000 and len(rules) >= 46


def test_focalization_matches_the_reference(proofs, padded):
    """Equal reports on the proofs and on their padded copies, whose
    detours interrupt PIA sections.  A detour is two interrupting nodes; of
    those the compiled check reports the lower, the reference whichever its
    set of paths yields first, so there only the component must agree."""
    failing = differing = 0
    for d in proofs + padded:
        assert check_derivation(d).ok
        new, old = check_strong_focalization(d), ref.check_strong_focalization(d)
        assert new == ref.lowest_first(d)
        assert new.ok == old.ok
        failing += not new.ok
        if new != old:
            differing += 1
            component = old.reason.split(" interrupted by ")[0]
            assert new.reason.startswith(component + " interrupted by ")
    assert failing >= 180 and differing < failing
