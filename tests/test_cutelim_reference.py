"""`fdlg.cutelim.eliminate_cuts` and `fdlg.cutelim.structural_cut`, which read
their reductions from one table, against the hand-written cases kept in
`reference_cutelim`: the same derivations, written out byte for byte, and
the same trace lines; and the re-application of a rule after a mutation,
which matches the rule, against building its conclusion and comparing."""

import importlib.util
import random
from collections import Counter
from pathlib import Path

import reference_cutelim as ref
from fdlg import cutelim
from fdlg.corpus import cut_elim_example, cut_elim_parametric_result
from fdlg.kernel import (KernelError, derivation_to_json, derive, identity_expansion,
                         neg_atoms_of, thread)
from fdlg.rules import REGISTRY
from fdlg.standardize import ftoM, ftom
from fdlg.syntax import Atom, parse_formula, parse_structure, signed_nodes

from gen import forward_closure, random_cut_proof
from test_kernel import STRUCTURAL_CUT_CASES


def _outcome(f, *args):
    """The written derivation, or the error, of f(*args)."""
    try:
        out = f(*args)
    except (KernelError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    return derivation_to_json(out, neg_atoms_of(out))


def _elimination(f, d):
    trace = []
    return _outcome(f, d, trace), trace


def test_eliminate_cuts_matches_reference():
    rng = random.Random(12)
    proofs = [cut_elim_example(), cut_elim_parametric_result()]
    proofs += [random_cut_proof(rng, depth=rng.choice((1, 2, 3, 4, 5))) for _ in range(150)]
    principal = set()
    for i, d in enumerate(proofs):
        ours = _elimination(cutelim.eliminate_cuts, d)
        assert ours == _elimination(ref.eliminate_cuts, d), i
        principal.update(parse_formula(line[len("principal "):], {"n"}).conn
                         for line in ours[1] if line.startswith("principal "))
    assert principal == {                   # every connective's row ran
        "*", "(+)", "\\", "/", "(/)", "(\\)", "dn", "up"}


def _padded(base, pos):
    """`base` below an invertible rule and its inverse, where the traced
    section of `pos` then has two nodes; as in the kernel's structural cut
    test."""
    for name, rule in REGISTRY.items():
        if rule.arity != 1 or not rule.schema.inverse:
            continue
        try:
            padded = derive(rule.schema.inverse, derive(name, base))
        except KernelError:
            continue
        if padded.conclusion == base.conclusion and len(thread(padded, pos)[0]) == 2:
            yield padded


def test_structural_cut_matches_reference():
    cases = 0
    for txt in ["p", "p .* (.dn n)", ".up (p .* q)", *STRUCTURAL_CUT_CASES]:
        phi = parse_structure(txt, {"n", "m"})
        base = identity_expansion(phi)
        pairs = [(base, base)]
        if ftom(phi).conn is not None:
            pos, refocus = ("suc", ()), ("up_R", "s-up'")
        elif ftoM(phi).conn is not None:
            pos, refocus = ("pre", ()), ("down_L", "s-down'")
        else:
            pos = None
        if pos is not None:
            others = [base]
            try:
                others.append(derive(refocus[1], derive(refocus[0], base)))
            except KernelError:
                pass
            for padded in _padded(base, pos):
                pairs += [(padded, other) if pos[0] == "suc" else (other, padded)
                          for other in others]
        for pair in pairs:
            ours = _outcome(cutelim.structural_cut, *pair, phi)
            assert not ours.startswith(("KernelError", "CutElimError")), txt
            assert ours == _outcome(ref.structural_cut, *pair, phi), txt
            cases += 1
    assert cases >= 25
    # a mismatched pair is refused alike
    p, q = identity_expansion(parse_structure("p")), identity_expansion(parse_structure("q"))
    phi = parse_structure("p")
    assert _outcome(cutelim.structural_cut, p, q, phi) == _outcome(ref.structural_cut, p, q, phi)


def _bench_cut_proofs() -> list:
    """The proof-transform benchmark's 800 cut proofs: 200 for each cut
    formula depth 2 to 5, shapes from seed 404, as perfbench/proof_transform.py
    makes them, over the atoms p and n."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    bench_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_gen)
    shapes, atoms = random.Random(404), (Atom("p", True), Atom("n", False))
    return [bench_gen.cut_proof(shapes, depth, atoms) for depth in (2, 3, 4, 5)
            for _ in range(200)]


def test_reapply_picks_the_rule_building_picked(monkeypatch):
    """On the benchmark's cut proofs, every re-application after a mutation
    picks the rule that building each candidate's conclusion picked."""
    matched = cutelim._reapply
    picks = []

    def both(hint, premises, expected):
        out = matched(hint, premises, expected)
        assert out.rule == ref.reapply_by_building(hint, premises, expected)
        assert out.conclusion == expected
        picks.append((hint, out.rule))
        return out

    monkeypatch.setattr(cutelim, "_reapply", both)
    proofs = _bench_cut_proofs()
    for d in proofs:
        cutelim.eliminate_cuts(d)
    assert len(proofs) == 800 and len(picks) > 10_000


def _mutation_outcome(f, seq, targets, repls, mu):
    try:
        return f(seq, targets, repls, mu)
    except (KernelError, ValueError, KeyError, IndexError) as e:
        return f"{type(e).__name__}: {e}"


def test_mutate_sequent_matches_reference():
    """One descent per target gives the sequent, or the error, of the three
    walks: every node position of the forward-closure sequents, paths into
    a leaf's formula included, under every mutation, with replacements of
    each sort, one target and two at a time."""
    seqs = forward_closure(include_variants=True)
    repls = [parse_structure(text, {"n"}) for text in
             ("p", "n", ".dn n", ".up p", "p .* p", "n .(+) n", "p .\\ n", "q")]
    counts = Counter()
    for seq in seqs:
        positions = [(side, path) for side in ("pre", "suc")
                     for path, _, _ in signed_nodes(getattr(seq, side))]
        for mu in cutelim.MUTATIONS:
            for pos in dict.fromkeys(positions):
                for repl in repls:
                    got = _mutation_outcome(cutelim.mutate_sequent, seq, [pos], [repl], mu)
                    assert got == _mutation_outcome(ref.mutate_sequent, seq, [pos], [repl], mu)
                    kind = "sequent" if not isinstance(got, str) else got.split(":")[0]
                    counts[kind] += 1
            if seq.pre.conn is not None and seq.suc.conn is not None:
                targets = [("pre", (0,)), ("suc", (0,))]
                for a, b in zip(repls, repls[1:]):
                    assert (_mutation_outcome(cutelim.mutate_sequent, seq, targets, [a, b], mu)
                            == _mutation_outcome(ref.mutate_sequent, seq, targets, [a, b], mu))
    assert min(counts[k] for k in ("sequent", "CutElimError", "MutationError")) > 100, counts
