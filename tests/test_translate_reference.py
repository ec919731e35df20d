"""The table-driven companion rules, translation saturation, exchange
writer, printer, reader and normality check against their hand-written,
per-class and bottom-up forms over the single-sorted companion terms of
`reference_translate`, compared through polarization."""

import random
from collections import Counter

from fdlg import kernel, translate
from fdlg.kernel import Derivation, derivation_to_json, identity_expansion, saturate_translations
from fdlg.syntax import STRUCT_SIG, Atom, Sequent, iter_structures
from fdlg.translate import (apply_flg, check_flg, flg_to_json, focus_of, is_normal,
                            parse_flg_sequent, render_flg_sequent)

import reference_translate as ref
from gen import random_cut_proof, random_flg_derivation, random_structure


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


def _companion_sequents(rng: random.Random, size: int) -> list[ref.FlgSequent]:
    """`size` distinct reference companion sequents, focused and unfocused,
    grown forward from the axioms by random rule applications."""
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
    """apply_flg on the polarized premises gives the polarization of the
    reference's conclusion, or its error."""
    rng = random.Random(7001)
    pool = _companion_sequents(rng, 1_500)
    memo: dict = {}     # the conclusions share the pool's terms
    polarized = [ref.polarize_sequent(q, memo) for q in pool]
    atoms = [Atom("p", True), Atom("n", False), None]
    applied, errors = set(), 0
    for _ in range(60_000):
        rule = rng.choice(COMPANION_RULES + ["Ax"] if rng.random() < 0.95 else UNKNOWN_RULES)
        n = _arity(rule) if rng.random() < 0.85 else rng.randrange(4)
        picks = [rng.randrange(len(pool)) for _ in range(n)]
        premises, images = [pool[i] for i in picks], [polarized[i] for i in picks]
        if rng.random() < 0.2:      # derivations as premises, as the generators pass them
            premises = [Derivation("Ax", p) for p in premises]
            images = [Derivation("Ax", p) for p in images]
        kwargs = {"selector": rng.choice(atoms), "side": rng.choice((None, "pre", "suc"))}
        got = _outcome(apply_flg, rule, images, **kwargs)
        want = _outcome(ref.apply_flg, rule, premises, **kwargs)
        if isinstance(want, ref.FlgSequent):
            want = ref.polarize_sequent(want, memo)
        assert got == want, (rule, premises)
        if isinstance(got, Sequent):
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
    """check_flg, which matches the fD.LG rule, gives the verdict and
    message of the reference's apply-and-compare check over companion terms
    on seeded companion derivations with one corrupted node each.  Each derivation
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
        assert check_flg(d) == ref.check_flg(ref.flg_derivation(d)) == (True, "ok")
        inner = [path for path, node in kernel.iter_nodes(d) if node.premises]
        for kind in kinds:
            bad = _corrupt(rng, d, rng.choice(inner), kind, conclusions)
            got = check_flg(bad)
            assert got == ref.check_flg(ref.flg_derivation(bad)), (kind, bad)
            rejected[kind] += not got[0]
    assert all(n > 100 for n in rejected.values()), rejected
    # an Ax node concluding the unfocused `n |- n`, polarized `dn n |- n`:
    # the check looks through the shift to the atom, and the instance differs
    ax = Derivation("Ax", parse_flg_sequent("n |- n", {"n"}))
    assert check_flg(ax) == ref.check_flg(ref.flg_derivation(ax)) == \
        (False, "at (): conclusion is not the Ax instance")


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
            assert flg_to_json(d, neg) == ref.flg_to_json(ref.flg_derivation(d), neg)
    # conclusions whose atom names need escapes, in both calculi
    for tag in ("a", "b"):
        p, n = _odd_atoms(tag)
        d = kernel.derive("otimes_R", kernel.derive("p-Id", selector=p),
                          kernel.derive("p-Id", selector=p))
        assert derivation_to_json(d, {n.name}) == ref.derivation_to_json(d, {n.name})
        c = Derivation("Ax", apply_flg("Ax", [], selector=n))
        c = Derivation("mu*", apply_flg("mu*", [c]), (c,))
        assert flg_to_json(c, {n.name}) == ref.flg_to_json(ref.flg_derivation(c), {n.name})


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


def test_printer_and_reader_match_reference():
    """The printer and the reader against the reference's on companion
    sequents, through polarization; then the normality check, the printer
    and the reader on random display-calculus sequents, structural shifts
    and variants included, against the reference's inverse of polarization,
    which fails on most of them."""
    rng = random.Random(7004)
    for q in _companion_sequents(rng, 400):
        image = ref.polarize_sequent(q)
        text = ref.render_flg_sequent(q)
        assert render_flg_sequent(image) == text
        assert parse_flg_sequent(text, {"n"}) == image
        assert focus_of(image) == q.focus and ref.flg_of(image) == q
    failed = 0
    for i in range(3_000):
        kind = i % 3        # neutral, positive, negative
        seq = Sequent(random_structure(rng, 1 + i % 5, i % 2 == 0, positive=kind != 2),
                      random_structure(rng, 1 + i % 4, i % 2 == 0, positive=kind == 1))
        got = _outcome(translate._normal, seq)
        want = _outcome(ref.flg_of, seq)
        if isinstance(want, ref.FlgSequent):
            assert got is seq and is_normal(seq) and ref.polarize_sequent(want) == seq
            text = ref.render_flg_sequent(want)
            assert render_flg_sequent(seq) == text and parse_flg_sequent(text, {"n"}) == seq
        else:
            assert got == want and not is_normal(seq), seq
            failed += 1
    assert 1_000 < failed < 2_800


def _reference_normal(seq: Sequent, images: dict):
    """The outcome of the reference's inverse of polarization on `seq`, with
    its sides' depolarizations, or their errors, in `images` by side object."""
    focus = {"r": "suc", "b": "pre"}.get(seq.kind[0])
    if focus and getattr(seq, focus).conn is not None:
        return _outcome(ref.flg_of, seq)
    pre, suc = images[id(seq.pre)], images[id(seq.suc)]
    for side in (pre, suc):
        if isinstance(side, tuple):
            return side
    return ref.FlgSequent(pre, suc, focus)


def test_normality_and_polarization_seeds_on_all_small_sequents():
    """On every sequent of two depth-2 structures over (p, n), variants
    included, `_normal` accepts the sequent exactly when the reference
    inverts its polarization, and else raises the reference's error.  Each
    sequent it accepts is the polarization of the reference's companion
    sequent."""
    structures = list(iter_structures((Atom("p", True), Atom("n", False)), 2))
    images = {id(x): _outcome(lambda: ref.fleaf_or(ref.depolarize(x))) for x in structures}
    total = normal = 0
    for pre in structures:
        for suc in structures:
            if not pre.sort.positive and suc.sort.positive:
                continue
            seq = Sequent(pre, suc)
            got = _outcome(translate._normal, seq)
            want = _reference_normal(seq, images)
            if isinstance(want, ref.FlgSequent):
                assert got is seq and ref.polarize_sequent(want) == seq, seq
                normal += 1
            else:
                assert got == want, seq
            total += 1
    assert (total, normal) == (165_675, 7_200)


# Binary connectives of the raw trees: the companion formula and structural
# ones, each drawn twice as often as one of the variants.
_COMPANION_CONNS = (*ref._CONNS, *ref._ARG_SIDES)
_VARIANTS = tuple(c for c, (_, specs) in STRUCT_SIG.items()
                  if len(specs) == 2 and c not in ref._ARG_SIDES)
_UNARY = ("up", "dn", ".up", ".dn", ".upl", ".dnr")
_READER_ERRORS = ("is not a companion formula connective", "is not a companion-calculus connective",
                  "argument of", "structure on the wrong side of the turnstile",
                  "only a formula can be in focus", "at most one formula in focus")


def _raw_text(rng: random.Random, depth: int) -> str:
    """A random fully parenthesized term over p, q and n."""
    x = rng.random()
    if depth <= 1 or x < 0.25:
        return rng.choice(("p", "q", "n"))
    if x < 0.35:
        return f"{rng.choice(_UNARY)} {_raw_text(rng, depth - 1)}"
    conn = rng.choice(_COMPANION_CONNS * 4 + _VARIANTS)
    return f"({_raw_text(rng, depth - 1)} {conn} {_raw_text(rng, depth - 1)})"


def test_reader_matches_the_bottom_up_reader():
    """parse_flg_sequent, which reads straight into polarized terms, gives
    the polarization of what the reference's bottom-up reader reads, or its
    ParseError, on random texts with zero, one or two focus brackets."""
    rng = random.Random(7006)
    outcomes = Counter()
    for _ in range(20_000):
        sides = [_raw_text(rng, rng.randint(1, 4)) for _ in range(2)]
        brackets = rng.choice((0, 0, 1, 2, 3))      # a bit per side
        text = " |- ".join(f"[{x}]" if brackets >> i & 1 else x for i, x in enumerate(sides))
        got = _outcome(parse_flg_sequent, text, {"n"})
        want = _outcome(lambda: ref.polarize_sequent(ref.parse_flg_sequent(text, {"n"})))
        assert got == want, text
        if isinstance(got, Sequent):
            outcomes["sequent"] += 1
        else:
            (kind,) = [k for k in _READER_ERRORS if k in got[1]]
            outcomes[kind] += 1
    assert outcomes["sequent"] > 1_000 and set(outcomes) == {"sequent", *_READER_ERRORS}, outcomes
