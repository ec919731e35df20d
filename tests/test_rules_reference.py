"""The matcher and instantiation of `fdlg.rules`, one walk each over formulas
and structures, against the per-class pair kept in `reference_rules`."""

import random

import reference_rules as ref
from fdlg.rules import ORDERED_RULES, MatchFail, instantiate_sequent, match_sequent
from fdlg.syntax import Formula, Sequent, SortError, leaf

from gen import forward_closure, random_structure


def _outcome(fn, *args):
    """What a call gives: its value, or the type and message of its error."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - any error must be the same one
        return type(e), str(e)


def _match_both(pat, seq, env: dict) -> dict | None:
    """The bindings both matchers add to `env` matching `seq`, or None if
    both fail."""
    want = dict(env)
    got = _outcome(match_sequent, pat, seq, env)
    assert got == _outcome(ref.match_sequent, pat, seq, want), (pat, seq)
    assert env == want, (pat, seq)
    if got is not None:
        assert got[0] is MatchFail
        return None
    return env


def _instantiate_both(patterns, env: dict) -> int:
    """Instantiate every pattern under `env`, and under `env` with each
    formula bound as a leaf, as the cut rules bind their cut formula; the
    number of instances built."""
    built = 0
    leaves = {name: leaf(x) if x.__class__ is Formula else x for name, x in env.items()}
    for bindings in (env, leaves):
        for pat in patterns:
            inst = _outcome(instantiate_sequent, pat, bindings)
            assert inst == _outcome(ref.instantiate_sequent, pat, bindings), (pat, bindings)
            if isinstance(inst, Sequent):
                built += 1
            else:
                assert inst[0] in (KeyError, SortError), (pat, bindings, inst)
    return built


def _compare(seqs) -> tuple[int, int]:
    """Match every sequent pattern of every rule against each of `seqs`, and
    a rule's second premise against each under the first's bindings, as a
    forward step does; instantiate every sequent pattern of the rule under
    each binding.  The number of bindings and of instances built."""
    bound = built = 0
    for rule in ORDERED_RULES:
        patterns = (*rule.schema.premises, rule.schema.conclusion)
        for pat in patterns:
            for seq in seqs:
                env = _match_both(pat, seq, {})
                if env is not None:
                    bound += 1
                    built += _instantiate_both(patterns, env)
        if len(rule.schema.premises) != 2:
            continue
        first, second = rule.schema.premises
        for s1 in seqs:
            env1 = _match_both(first, s1, {})
            for s2 in seqs if env1 is not None else ():
                env = _match_both(second, s2, dict(env1))
                if env is not None:
                    bound += 1
                    built += _instantiate_both(patterns, env)
    return bound, built


def test_matcher_matches_reference_on_closure():
    bound, built = _compare(list(forward_closure(include_variants=True)))
    assert bound > 1_500 and built > 6_000


def test_matcher_matches_reference_on_random_sequents():
    rng = random.Random(8101)
    seqs = []
    while len(seqs) < 150:
        try:
            seqs.append(Sequent(random_structure(rng, 1 + len(seqs) % 4, include_variants=True),
                                random_structure(rng, 1 + len(seqs) % 3, include_variants=True)))
        except SortError:
            continue
    bound, built = _compare(seqs)
    assert bound > 6_000 and built > 30_000
