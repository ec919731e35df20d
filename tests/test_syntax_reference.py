"""The symmetries, enumerators, sort check and tokenizer of `fdlg.syntax`
against the straightforward versions kept in `reference_syntax`."""

import copy
import hashlib
import pickle
import random
import sys
import threading
from itertools import product

import pytest

from fdlg.syntax import (MAX_NESTING, NP, NS, OP_SIG, PP, PS, STRUCT_SIG, Atom,
                         Formula, Sequent, SortError, Structure, _OP_SORTS,
                         _STRUCT_SORTS, _check_args, _tokenize, bowtie, f, fatom,
                         infty, iter_formulas, iter_structures, leaf, parse_formula,
                         parse_structure, render, s, signed_nodes)

import reference_syntax as ref
from gen import forward_closure

ATOMS = (Atom("p", True), Atom("n", False))
FORMULAS = list(ref.iter_formulas(ATOMS, 3))
STRUCTURES = list(ref.iter_structures(ATOMS, 2))
SYMMETRIES = [(bowtie, ref.bowtie), (infty, ref.infty)]
SLOTS = {bowtie: "_bowtie", infty: "_infty"}
P, N, Q = Atom("p", True), Atom("n", False), Atom("q", True)


def test_iter_formulas_matches_reference():
    assert list(iter_formulas(ATOMS, 3)) == FORMULAS


@pytest.mark.parametrize("atoms, depth", [((P, N, Q), 3), ((P, P, N), 3), ((N,), 4), ((), 3),
                                          (ATOMS, 1)])
def test_iter_formulas_matches_reference_on_more_atoms(atoms, depth):
    """Repeated atoms are yielded as given at the first level, and paired once."""
    assert list(iter_formulas(atoms, depth)) == list(ref.iter_formulas(atoms, depth))


@pytest.mark.parametrize("include_variants", [True, False])
def test_iter_structures_matches_reference(include_variants):
    got = list(iter_structures(ATOMS, 2, include_variants))
    assert got == list(ref.iter_structures(ATOMS, 2, include_variants))


# Structures stay at depth 2: at depth 3 over two atoms, the leaves alone are
# the 160 depth-3 formulas, and each level above pairs the one below.
@pytest.mark.parametrize("include_variants", [True, False])
@pytest.mark.parametrize("atoms", [(P, P, N), (P, N, Q)])
def test_iter_structures_matches_reference_on_more_atoms(atoms, include_variants):
    got = list(iter_structures(atoms, 2, include_variants))
    assert got == list(ref.iter_structures(atoms, 2, include_variants))


def test_depth_4_formulas_are_pinned():
    """The 38,554 formulas of depth 4 over p and n, in order, by digest."""
    out = list(iter_formulas(ATOMS, 4))
    assert len(out) == len(set(out)) == 38_554
    digest = hashlib.sha256("\n".join(map(render, out)).encode()).hexdigest()
    assert digest == "d311566b95bd4249926b829cf9043cc470e8cfa8ca87110efc18eefee4d044e5"


def _constructions(monkeypatch, cls, run) -> int:
    """How many objects of `cls` `run()` builds."""
    count = 0
    init = cls.__init__

    def counted(self, *args):
        nonlocal count
        count += 1
        init(self, *args)

    monkeypatch.setattr(cls, "__init__", counted)
    run()
    monkeypatch.undo()
    return count


def test_each_term_is_built_once(monkeypatch):
    assert _constructions(monkeypatch, Formula, lambda: list(iter_formulas(ATOMS, 4))) == 38_554
    assert _constructions(monkeypatch, Structure, lambda: list(iter_structures(ATOMS, 2))) == 470


def _same_image(new, old, x):
    y, z = new(x), old(x)
    if isinstance(x, Sequent):
        return y == z and (y.pre.sort, y.suc.sort) == (z.pre.sort, z.suc.sort)
    return y == z and y.sort == z.sort


@pytest.mark.parametrize("new, old", SYMMETRIES)
def test_images_match_reference(new, old):
    closure = list(forward_closure())
    for x in FORMULAS + STRUCTURES + closure:
        assert _same_image(new, old, x), x


def _fresh(x):
    """An equal term that shares no node with x or any earlier term."""
    return (parse_formula if isinstance(x, Formula) else parse_structure)(render(x), {"n"})


@pytest.mark.parametrize("new, old", SYMMETRIES)
def test_images_of_short_lived_terms_match_reference(new, old):
    # Each input is freed before the next is parsed, so ids are reused
    # across calls: an image remembered by id rather than on the node
    # itself would show.
    for x in FORMULAS + STRUCTURES:
        assert _same_image(new, old, _fresh(x)), x


@pytest.mark.parametrize("new, old", SYMMETRIES)
def test_image_of_an_image_is_the_source(new, old):
    for x in FORMULAS + STRUCTURES:
        assert new(new(x)) is x and old(old(x)) == x, x
        x = _fresh(x)
        assert new(new(x)) is x, x


@pytest.mark.parametrize("first, second", [(bowtie, infty), (infty, bowtie)])
def test_one_symmetry_never_answers_for_the_other(first, second):
    ref_of = dict(SYMMETRIES)

    def both(x):
        return second(first(x))

    def ref_both(x):
        return ref_of[second](ref_of[first](x))

    for x in FORMULAS + STRUCTURES + list(forward_closure()):
        assert _same_image(both, ref_both, x), x
        assert _same_image(both, ref_both, x), x     # now from the slots


@pytest.mark.parametrize("new, old", SYMMETRIES)
def test_only_proper_subterms_keep_their_image(new, old):
    slot, other = SLOTS[new], SLOTS[bowtie if new is infty else infty]
    for x in FORMULAS + STRUCTURES:
        x = _fresh(x)
        y = new(x)
        assert getattr(x, slot) is None, x
        for _, node, _ in signed_nodes(x):
            if node is not x:
                assert getattr(node, slot) == old(node), (x, node)
            assert getattr(node, other) is None, (x, node)
        if y is not x:
            assert getattr(y, slot) is x


@pytest.mark.parametrize("new", [bowtie, infty])
def test_copies_of_an_image_carry_no_slots(new):
    for x in FORMULAS + STRUCTURES:
        y = new(_fresh(x))
        for c in (pickle.loads(pickle.dumps(y)), copy.deepcopy(y)):
            assert c == y and c.sort == y.sort
            assert all(n._bowtie is None and n._infty is None
                       for _, n, _ in signed_nodes(c)), x


def test_threads_mapping_shared_terms_agree():
    """Threads that fill the slots of the same terms at once may build
    equal images twice, but every slot ends up holding a right image."""
    terms = [_fresh(x) for x in FORMULAS + STRUCTURES]
    errors: list = []

    def work(k):
        try:
            for x in terms[k::2] + terms:
                for new, old in SYMMETRIES:
                    if not _same_image(new, old, x) or new(new(x)) != x:
                        errors.append(x)
        except Exception as e:  # noqa: BLE001 - reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and not errors, errors[:3]
    for x in terms:
        for _, node, _ in signed_nodes(x):
            for new, old in SYMMETRIES:
                y = getattr(node, SLOTS[new])
                assert y is None or (y == old(node) and y.sort == old(node).sort), node


def test_mirror_invariant_terms_are_their_own_bowtie_image():
    p, n = fatom("p"), fatom("n", False)
    lp = leaf(p)
    for x in (p, f("dn", n), f("*", p, p), lp, leaf(f("dn", n)), s(".*", lp, lp),
              Sequent(lp, lp)):
        assert bowtie(x) is x
    x = f("*", p, fatom("q"))
    assert bowtie(x) is not x and bowtie(x).args == (x.args[1], x.args[0])
    assert bowtie(x).args[0] is x.args[1]


@pytest.mark.parametrize("new, old", SYMMETRIES)
def test_repeated_subterm_maps_to_one_object(new, old):
    sub = f("\\", fatom("p"), fatom("n", False))
    ls = leaf(sub)
    for x in (f("(+)", sub, sub), s(".(+)", ls, ls)):
        y = new(x)
        assert y == old(x) and y.args[0] is y.args[1]
    y = new(s(".(+)", leaf(sub), leaf(sub)))
    assert y.args[0] is not y.args[1] and y.args[0].leaf is y.args[1].leaf
    y = new(Sequent(leaf(f("dn", sub)), leaf(sub)))
    shifted, bare = (y.pre, y.suc) if new is bowtie else (y.suc, y.pre)
    assert shifted.leaf.args[0] is bare.leaf


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("new, old", SYMMETRIES)
def test_deep_term_maps_within_two_frames_a_level(new, old):
    fml, st = fatom("p"), leaf(fatom("p"))
    for i in range(MAX_NESTING):
        fml = f("*", fatom(f"q{i}"), fml)
        st = s(".(/)", st, leaf(fatom("n", False)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 2 * MAX_NESTING + 20)
    try:
        images = [new(fml), new(st), new(Sequent(st, leaf(fml)))]
    finally:
        sys.setrecursionlimit(limit)
    assert images == [old(fml), old(st), old(Sequent(st, leaf(fml)))]


# One formula of each sort, in the order PP, PS, NP, NS, and their leaves.
SORTED_FORMULAS = (fatom("p"), f("dn", fatom("n", False)), fatom("n", False),
                   f("up", fatom("p")))
SORTED_STRUCTURES = tuple(leaf(x) for x in SORTED_FORMULAS)
SIGNATURES = [(Formula, OP_SIG, _OP_SORTS), (Structure, STRUCT_SIG, _STRUCT_SORTS)]


def _outcome(fn, *args):
    """What a call gives: its value, or the type and message of its error."""
    try:
        return fn(*args)
    except Exception as e:  # noqa: BLE001 - any error must be the same one
        return type(e), str(e)


def _new_sort(cls, conn, args):
    return cls(conn, None, args).sort


@pytest.mark.parametrize("cls, sig, table", SIGNATURES)
def test_sort_table_holds_exactly_the_well_sorted_tuples(cls, sig, table):
    want = {}
    sorted_terms = SORTED_FORMULAS if cls is Formula else SORTED_STRUCTURES
    for conn, spec in sig.items():
        for terms in product(sorted_terms, repeat=len(spec[1])):
            try:
                target = _check_args(conn, spec, terms, cls)
            except SortError:
                continue
            want[(conn,) + tuple(id(x.sort) for x in terms)] = target
    assert table == want
    assert all(table[k] is v for k, v in want.items())


@pytest.mark.parametrize("cls, sig, table", SIGNATURES)
def test_constructors_match_the_full_check(cls, sig, table):
    other = STRUCT_SIG if cls is Formula else OP_SIG
    conns = list(sig) + list(other) + ["", "?", "up ", "*l"]
    # Both term classes as arguments: an argument of the other class, of any
    # sort, must miss the table and fail the full check.
    terms = SORTED_FORMULAS + SORTED_STRUCTURES
    for conn in conns:
        for n in range(4):
            for args in product(terms, repeat=n):
                got = _outcome(_new_sort, cls, conn, args)
                assert got == _outcome(ref.node_sort, cls, conn, args), (conn, args)
                if isinstance(got, tuple):
                    assert got[0] is SortError, (conn, args, got)
                else:
                    assert all(type(x) is cls for x in args), (conn, args)
                    assert got in (PP, PS, NP, NS) and got is table[
                        (conn,) + tuple(id(x.sort) for x in args)]


def test_constructors_reject_arguments_of_the_other_class():
    p = fatom("p")
    cases = [(lambda: Formula("*", None, (leaf(p), leaf(p))),
              "argument 1 of * must be a Formula, got Structure"),
             (lambda: Formula("*", None, (p, leaf(p))),
              "argument 2 of * must be a Formula, got Structure"),
             (lambda: Formula("dn", None, (Atom("p", True),)),
              "argument 1 of dn must be a Formula, got Atom"),
             (lambda: Structure(".*", None, (p, p)),
              "argument 1 of .* must be a Structure, got Formula"),
             (lambda: Structure(".up", None, (p,)),
              "argument 1 of .up must be a Structure, got Formula"),
             (lambda: Structure(None, leaf(p)),
              "leaf structure must carry a formula and no arguments"),
             (lambda: Formula(None, "p"),
              "atom formula must carry an Atom and no arguments"),
             (lambda: Sequent(p, p),
              "precedent of a sequent must be a Structure, got Formula"),
             (lambda: Sequent(leaf(p), p),
              "succedent of a sequent must be a Structure, got Formula"),
             (lambda: Sequent(None, leaf(p)),
              "precedent of a sequent must be a Structure, got NoneType")]
    for build, message in cases:
        with pytest.raises(SortError) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize("cls, sig, table", SIGNATURES)
def test_constructors_reject_non_terms_like_the_full_check(cls, sig, table):
    good = SORTED_FORMULAS[0] if cls is Formula else SORTED_STRUCTURES[0]
    odd = (None, 1, "p", Atom("p", True), good)
    for conn in [next(iter(sig)), "dn" if cls is Formula else ".dn", "?"]:
        for n in range(1, 4):
            for args in product(odd, repeat=n):
                assert (_outcome(_new_sort, cls, conn, args)
                        == _outcome(ref.node_sort, cls, conn, args)), (conn, args)
        for args in (None, 5, [good, good], [good], "pp"):
            assert (_outcome(_new_sort, cls, conn, args)
                    == _outcome(ref.node_sort, cls, conn, args)), (conn, args)
    for conn in ([], {}):
        assert (_outcome(_new_sort, cls, conn, (good, good))
                == _outcome(ref.node_sort, cls, conn, (good, good)))


# Text pieces over the grammar's alphabet.  Run together without spaces they
# make the boundary cases: '.up' before 'l' or a digit, a connective glued to
# an identifier, a lone '.', '|' or '-', and characters of no token at all.
_PIECES = (sorted(OP_SIG) + sorted(STRUCT_SIG)
           + ["|-", "(", ")", ".upl", ".up", ".*l", "'", "p", "q1", "x'", "_a",
              "l", "r", "up", "dn", "0", "7", "|", "-", ".", "+", "#", "[", " ",
              "  ", "\t", "\n"])


def _random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_PIECES) if rng.random() < 0.9 else chr(rng.randrange(32, 127))
                   for _ in range(rng.randrange(10)))


def test_tokenizer_matches_reference():
    rng = random.Random(6061)
    errors = 0
    for _ in range(100_000):
        text = _random_text(rng)
        got = _outcome(_tokenize, text)
        assert got == _outcome(ref.tokenize, text), text
        errors += isinstance(got, tuple)
    # Both outcomes occur often enough to mean something.
    assert 10_000 < errors < 90_000
