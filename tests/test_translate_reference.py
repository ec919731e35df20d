"""The table-driven companion rules, translation saturation, exchange
writer, printer and polarization against their hand-written and per-class
forms in `reference_translate`."""

import copy
import random

from fdlg import kernel, translate
from fdlg.kernel import Derivation, derivation_to_json, identity_expansion, saturate_translations
from fdlg.syntax import Atom, Sequent, SortError, iter_structures
from fdlg.translate import (FlgSequent, apply_flg, check_flg, depolarize, flg_to_json,
                            is_normal, polarize, polarize_sequent, render_companion,
                            render_flg_sequent)

import reference_translate as ref
from gen import random_cut_proof, random_flg_derivation, random_formula, random_structure


def _outcome(fn, *args, **kwargs):
    """What a call gives: its value, or the type and message of its error."""
    try:
        return fn(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - any error must be the same one
        return type(e), str(e)


# Every companion rule but the axiom, and names that are no rule.
COMPANION_RULES = sorted([*ref.TABLE_RULES, "mu*", "mu~"])
UNKNOWN_RULES = ["dp(.*,.*)", "dp(.*,.\\)''", "otimes", "Ax'", "", "P-Cut", "s-down"]


def _arity(rule: str) -> int:
    return 0 if rule == "Ax" else 2 if rule in kernel.TONICITY_PREMISES else 1


def _companion_sequents(rng: random.Random, size: int) -> list[FlgSequent]:
    """`size` distinct companion sequents, focused and unfocused, grown
    forward from the axioms by random rule applications."""
    pool = {ref.apply_flg("Ax", [], selector=a): None
            for a in (Atom("p", True), Atom("n", False))}
    while len(pool) < size:
        rule = rng.choice(COMPANION_RULES)
        seqs = list(pool)
        premises = [rng.choice(seqs) for _ in range(_arity(rule))]
        try:
            pool.setdefault(ref.apply_flg(rule, premises), None)
        except translate.TranslateError:
            continue
    return list(pool)


def test_apply_flg_matches_reference():
    rng = random.Random(7001)
    pool = _companion_sequents(rng, 1_500)
    atoms = [Atom("p", True), Atom("n", False), None]
    applied, errors = set(), 0
    for _ in range(60_000):
        rule = rng.choice(COMPANION_RULES + ["Ax"] if rng.random() < 0.95 else UNKNOWN_RULES)
        n = _arity(rule) if rng.random() < 0.85 else rng.randrange(4)
        premises = [rng.choice(pool) for _ in range(n)]
        if rng.random() < 0.2:      # derivations as premises, as the generators pass them
            premises = [Derivation("Ax", p) for p in premises]
        kwargs = {"selector": rng.choice(atoms), "side": rng.choice((None, "pre", "suc"))}
        got = _outcome(apply_flg, rule, premises, **kwargs)
        assert got == _outcome(ref.apply_flg, rule, premises, **kwargs), (rule, premises)
        if isinstance(got, FlgSequent):
            applied.add(rule)
        else:
            assert got[0] is translate.TranslateError, (rule, premises, got)
            errors += 1
    # Every rule applies somewhere, and errors are common enough to mean something.
    assert applied == {*COMPANION_RULES, "Ax"} and errors > 10_000


def _corrupt(rng: random.Random, d: Derivation, path, kind: str, conclusions) -> Derivation:
    """`d` with the node at `path` renamed to another companion rule, given
    another conclusion, or with its premises dropped, duplicated or
    reordered."""
    if path:
        premises = list(d.premises)
        premises[path[0]] = _corrupt(rng, premises[path[0]], path[1:], kind, conclusions)
        return Derivation(d.rule, d.conclusion, tuple(premises))
    if kind == "rename":
        rule = rng.choice([r for r in (*COMPANION_RULES, "Ax") if r != d.rule])
        return Derivation(rule, d.conclusion, d.premises)
    if kind == "conclusion":
        return Derivation(d.rule, rng.choice(conclusions), d.premises)
    premises = {"drop": d.premises[1:], "duplicate": d.premises + d.premises[:1],
                "reorder": d.premises[::-1]}[kind]
    return Derivation(d.rule, d.conclusion, premises)


def test_check_flg_matches_reference_on_corrupted_derivations():
    """check_flg, which matches the fD.LG rule through polarization, gives
    the verdict and message of the apply-and-compare check on seeded
    companion derivations with one corrupted node each.  Each derivation
    applies a rule below its axioms: a one-node `Ax` is drawn again."""
    rng = random.Random(7005)
    derivations = []
    for i in range(300):
        d = random_flg_derivation(rng, 2 + i % 5)
        while not d.premises:
            d = random_flg_derivation(rng, 2 + i % 5)
        derivations.append(d)
    assert len(derivations) == 300 and all(d.premises for d in derivations)
    conclusions = [n.conclusion for d in derivations for _, n in kernel.iter_nodes(d)]
    kinds = ("rename", "conclusion", "drop", "duplicate", "reorder")
    rejected = dict.fromkeys(kinds, 0)
    for d in derivations:
        assert check_flg(d) == ref.check_flg(d) == (True, "ok")
        inner = [path for path, node in kernel.iter_nodes(d) if node.premises]
        for kind in kinds:
            bad = _corrupt(rng, d, rng.choice(inner), kind, conclusions)
            got = check_flg(bad)
            assert got == ref.check_flg(bad), (kind, bad)
            rejected[kind] += not got[0]
    assert all(n > 100 for n in rejected.values()), rejected


def _odd_atoms(tag: str):
    """Atoms whose names need JSON escapes."""
    return (Atom(f'p"{tag}\\', True), Atom(f"né{tag}\n", False))


def test_exchange_writer_matches_json_dumps():
    rng = random.Random(7002)
    for i in range(150):
        d = random_cut_proof(rng, 2 + i % 4)
        for neg in ((), {"n"}, {"n", 'q"\\', "é\t"}):
            assert derivation_to_json(d, neg) == ref.derivation_to_json(d, neg)
    for i in range(150):
        d = random_flg_derivation(rng, 2 + i % 6)
        for neg in ((), {"n"}, {'q"\\', "é\t"}):
            assert flg_to_json(d, neg) == ref.flg_to_json(d, neg)
    # conclusions whose atom names need escapes, in both calculi
    for tag in ("a", "b"):
        p, n = _odd_atoms(tag)
        d = kernel.derive("otimes_R", kernel.derive("p-Id", selector=p),
                          kernel.derive("p-Id", selector=p))
        assert derivation_to_json(d, {n.name}) == ref.derivation_to_json(d, {n.name})
        c = Derivation("Ax", apply_flg("Ax", [], selector=n))
        c = Derivation("mu*", apply_flg("mu*", [c]), (c,))
        assert flg_to_json(c, {n.name}) == ref.flg_to_json(c, {n.name})


def test_identity_expansion_and_saturation_match_reference():
    rng = random.Random(7003)
    built = folded = 0
    for i in range(4_000):
        psi = random_structure(rng, 1 + i % 5, include_variants=i % 7 == 0)
        got = _outcome(identity_expansion, psi)
        assert got == _outcome(ref.identity_expansion, psi), psi
        # an unchecked leaf over a random sequent reaches every fold error too
        other = random_structure(rng, 1 + i % 4)
        bases = [Derivation("p-Id", Sequent(psi, other)) if psi.sort.positive
                 or not other.sort.positive else None]
        if isinstance(got, Derivation):
            built += 1
            bases.append(got)
        for base in filter(None, bases):
            for side in ("pre", "suc"):
                out = _outcome(saturate_translations, base, side)
                assert out == _outcome(ref.saturate_translations, base, side), (base, side)
                folded += isinstance(out, Derivation)
    assert built > 1_000 and folded > 2_000


def test_printer_and_polarization_match_reference():
    """One printer, polarization and depolarization over companion formulas
    and structures against the per-class pairs, on companion sequents, their
    polarized images, and random display-calculus terms, shifts and variants
    included, where depolarization fails."""
    rng = random.Random(7004)
    for q in _companion_sequents(rng, 400):
        assert render_flg_sequent(q) == ref.render_flg_sequent(q)
        for x in (q.pre, q.suc):
            assert render_companion(x) == ref.render_fstruct(x)
            if x.conn is None:
                assert render_companion(x.leaf) == ref.render_cformula(x.leaf)
            for sign in (True, False):
                assert (_outcome(polarize, x, sign)
                        == _outcome(ref.polarize_structure, x, sign)), (x, sign)
                if x.conn is None:
                    assert polarize(x.leaf, sign) == ref.polarize_formula(x.leaf, sign)
        image = polarize_sequent(q)
        assert image == ref.polarize_sequent(q)
        for y in (image.pre, image.suc):
            assert depolarize(y) == ref.fleaf_or(ref.depolarize(y))
    failed = 0
    for i in range(3_000):
        st = random_structure(rng, 1 + i % 5, include_variants=i % 2 == 0)
        got = _outcome(depolarize, st)
        assert got == _outcome(lambda x: ref.fleaf_or(ref.depolarize(x)), st), st
        failed += isinstance(got, tuple)
        fml = random_formula(rng, 1 + i % 5)
        assert depolarize(fml) == ref.unpolarize_formula(fml)
    assert 500 < failed < 2_500


def _reference_normal(seq: Sequent, images: dict) -> bool:
    """The earlier normality check: the sides' reference depolarizations
    (`images`, keyed by the side object), under the focus read off the
    sequent's kind, polarize back to the sequent."""
    focus = {"r": "suc", "b": "pre"}.get(seq.kind[0])
    pre, suc = images[id(seq.pre)], images[id(seq.suc)]
    if pre is None or suc is None or focus and getattr(seq, focus).conn is not None:
        return False
    try:
        return ref.polarize_sequent(FlgSequent(pre, suc, focus)) == seq
    except (translate.TranslateError, SortError):
        return False


def test_normality_and_polarization_seeds_on_all_small_sequents():
    """On every sequent of two depth-2 structures over (p, n), variants
    included, is_normal, which depolarizes without polarizing back, agrees
    with the reference check that polarizes back and compares.  Every side
    that depolarizes is its image's seeded polarization at its own polarity,
    which equals the polarization of an unseeded copy; at the other polarity,
    polarizing through the seeded subterms gives the unseeded outcome."""
    structures = list(iter_structures((Atom("p", True), Atom("n", False)), 2))
    images = {}
    for x in structures:
        out = _outcome(lambda: ref.fleaf_or(ref.depolarize(x)))
        images[id(x)] = out if isinstance(out, translate.FStruct) else None
    total = normal = 0
    for pre in structures:
        for suc in structures:
            if not pre.sort.positive and suc.sort.positive:
                continue
            seq = Sequent(pre, suc)
            got = is_normal(seq)
            assert got == _reference_normal(seq, images), seq
            total += 1
            normal += got
    assert (total, normal) == (165_675, 7_200)
    seeded = 0
    for x in structures:
        if images[id(x)] is None:
            assert _outcome(depolarize, x)[0] is translate.TranslateError
            continue
        c, own = depolarize(x), x.sort.positive
        assert polarize(c, own) is x and polarize(copy.deepcopy(c), own) == x
        assert _outcome(polarize, c, not own) == _outcome(polarize, copy.deepcopy(c), not own)
        seeded += 1
    assert seeded == 160
