"""The symmetries, enumerators, sort check and tokenizer of `fdlg.syntax`
against the straightforward versions kept in `reference_syntax`."""

import random
import sys
from itertools import product

import pytest

from fdlg.syntax import (MAX_NESTING, NP, NS, OP_SIG, PP, PS, STRUCT_SIG, Atom,
                         Formula, Sequent, SortError, Structure, _OP_SORTS,
                         _STRUCT_SORTS, _check_args, _tokenize, bowtie, f, fatom,
                         infty, iter_formulas, iter_structures, leaf, parse_formula,
                         parse_structure, render, s)

import reference_syntax as ref
from gen import forward_closure

ATOMS = (Atom("p", True), Atom("n", False))
FORMULAS = list(ref.iter_formulas(ATOMS, 3))
STRUCTURES = list(ref.iter_structures(ATOMS, 2))
SYMMETRIES = [(bowtie, ref.bowtie), (infty, ref.infty)]


def test_iter_formulas_matches_reference():
    assert list(iter_formulas(ATOMS, 3)) == FORMULAS


@pytest.mark.parametrize("include_variants", [True, False])
def test_iter_structures_matches_reference(include_variants):
    got = list(iter_structures(ATOMS, 2, include_variants))
    assert got == list(ref.iter_structures(ATOMS, 2, include_variants))


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


@pytest.mark.parametrize("new, old", SYMMETRIES)
def test_images_of_short_lived_terms_match_reference(new, old):
    # Each input is freed before the next is parsed, so ids are reused
    # across calls: an image remembered from an earlier call would show.
    for x in FORMULAS:
        assert _same_image(new, old, parse_formula(render(x), {"n"})), x
    for x in STRUCTURES:
        assert _same_image(new, old, parse_structure(render(x), {"n"})), x


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
