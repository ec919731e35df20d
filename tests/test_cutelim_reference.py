"""`fdlg.cutelim.eliminate_cuts` and `fdlg.cutelim.structural_cut`, which read
their reductions from one table, against the hand-written cases kept in
`reference_cutelim`: the same derivations, written out byte for byte, and
the same trace lines."""

import random

import reference_cutelim as ref
from fdlg import cutelim
from fdlg.corpus import cut_elim_example, cut_elim_parametric_result
from fdlg.kernel import (KernelError, derivation_to_json, derive, identity_expansion,
                         neg_atoms_of, thread)
from fdlg.rules import REGISTRY
from fdlg.standardize import ftoM, ftom
from fdlg.syntax import parse_formula, parse_structure

from gen import random_cut_proof
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
