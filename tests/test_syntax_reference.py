"""The symmetries and enumerators of `fdlg.syntax` against the rebuild-
everything versions kept in `reference_syntax`."""

import sys

import pytest

from fdlg.syntax import (MAX_NESTING, Atom, Sequent, bowtie, f, fatom, infty,
                         iter_formulas, iter_structures, leaf, parse_formula,
                         parse_structure, render_formula, render_structure, s)

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
        assert _same_image(new, old, parse_formula(render_formula(x), {"n"})), x
    for x in STRUCTURES:
        assert _same_image(new, old, parse_structure(render_structure(x), {"n"})), x


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
