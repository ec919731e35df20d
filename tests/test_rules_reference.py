"""The matcher and builder that `fdlg.rules` compiles for each sequent
pattern, against the per-class walks kept in `reference_rules`."""

import copy
import pickle
import random
from dataclasses import dataclass

import reference_rules as ref
from fdlg.rules import (ORDERED_RULES, REGISTRY, AVar, FNode, FVar, MatchFail, RuleSchema,
                        SeqPat, SNode, SVar, instantiate_sequent, match_sequent)
from fdlg.syntax import Formula, Sequent, SortError, fatom, leaf, parse_sequent, parse_structure

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


@dataclass(frozen=True)
class Odd:
    """A pattern node of no class the rules know."""
    name: str


_X, _Y, _P, _Q = SVar("X", True), SVar("Y", True), FVar("P", True), FVar("Q", True)
_TENSOR = SeqPat(SNode(".*", (_X, _Y)), FNode("*", (_P, _Q)))


def test_errors_equal_the_reference():
    """A conflicting binding, a missing metavariable, an ill-sorted instance
    and a pattern node of an unknown class give the reference's error, with
    the same partial bindings."""
    seq = parse_sequent("p .* q |- p * q")
    q, r, n = leaf(fatom("q")), leaf(fatom("r")), leaf(fatom("n", False))
    axiom = REGISTRY["p-Id"].schema.conclusion
    for pat, seq, env in [(_TENSOR, seq, {"Y": r}), (_TENSOR, seq, {"Q": r.leaf}),
                          (_TENSOR, seq, {"X": q}), (axiom, parse_sequent("p |- q"), {}),
                          (axiom, parse_sequent("p |- p"), {"a": q.leaf})]:
        assert _match_both(pat, seq, env) is None and env, (pat, seq)
    errors = {}
    for pat, env in [(_TENSOR, {"X": q, "P": q.leaf, "Q": r.leaf}),       # no Y
                     (_TENSOR, {"Y": q, "Q": r.leaf}),                    # no X, no P
                     (_TENSOR, {"X": q, "Y": q}),                         # no P, no Q
                     (_TENSOR, {"X": n, "Y": q, "P": q.leaf, "Q": r.leaf}),
                     (_TENSOR, {"X": q, "Y": q, "P": n.leaf, "Q": r.leaf}),
                     (SeqPat(_X, Odd("Z")), {"X": q}),
                     (SeqPat(_X, Odd("Z")), {}),                          # no X first
                     (SeqPat(_X, FNode("*", (Odd("Z"), _Q))), {"X": q, "Q": r.leaf})]:
        got = _outcome(instantiate_sequent, pat, env)
        assert got == _outcome(ref.instantiate_sequent, pat, env), (pat, env)
        errors[got[0]] = errors.get(got[0], set()) | {got[1]}
    assert errors == {
        KeyError: {"'Y'", "'X'", "'P'"},
        SortError: {"argument 1 of .* must be positive, got pure negative",
                    "argument 1 of * must be positive, got pure negative"},
        ValueError: {f"cannot instantiate {Odd('Z')!r}",
                     f"cannot instantiate {Odd('Z')!r} as a formula"}}
    for pat in (SeqPat(_X, Odd("Z")), SeqPat(_X, FNode("*", (Odd("Z"), _Q))),
                SeqPat(SNode(".*", (_X, _P)), _Q), SeqPat(_X, SNode(".*", (_X, _X)))):
        for seq in (parse_sequent("p |- p * q"), parse_sequent("p .* q |- p * q")):
            _match_both(pat, seq, {})


def test_a_schema_built_outside_the_inventory_is_compiled():
    """A rule schema made as the corrupted-rule control makes it compiles
    its patterns on first use and matches and builds like the reference."""
    bogus = RuleSchema("bogus", "tonicity", (SeqPat(SNode(".*", (_X, _Y)), FNode("*", (_P, _Q))),),
                       SeqPat(_X, _P))
    patterns = (*bogus.premises, bogus.conclusion)
    assert not any("match" in vars(pat) or "build" in vars(pat) for pat in patterns)
    bound = 0
    for seq in forward_closure(include_variants=True):
        for pat in patterns:
            env = _match_both(pat, seq, {})
            if env is not None:
                bound += 1
                _instantiate_both(patterns, env)
    assert bound > 10
    assert all("match" in vars(pat) and "build" in vars(pat) for pat in patterns)


def test_schemas_pickle_and_copy_after_use():
    """Every schema, its patterns compiled by use, pickles and deep-copies to
    an equal schema, and the copy matches and builds as the original does."""
    seqs = list(forward_closure(include_variants=True, max_height=4))
    for name, rule in REGISTRY.items():
        schema = rule.schema
        patterns = (*schema.premises, schema.conclusion)
        envs = []
        for pat in patterns:
            for seq in seqs:
                env = {}
                try:
                    match_sequent(pat, seq, env)
                except MatchFail:
                    env = None
                envs.append(env)
        for other in (pickle.loads(pickle.dumps(schema)), copy.deepcopy(schema)):
            assert other == schema and other is not schema, name
            twins = (*other.premises, other.conclusion)
            assert not any("match" in vars(pat) for pat in twins), name
            got = iter(envs)
            for pat, twin in zip(patterns, twins):
                for seq in seqs:
                    want, env = next(got), {}
                    try:
                        match_sequent(twin, seq, env)
                    except MatchFail:
                        env = None
                    assert env == want, (name, seq)
                    if env is not None:
                        for p, t in zip(patterns, twins):
                            assert (_outcome(instantiate_sequent, p, env)
                                    == _outcome(instantiate_sequent, t, env)), name
