"""Grammar, sorts, printing, and the two term symmetries."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import fdlg
from fdlg.syntax import (Atom, Formula, Sequent, Sort, SortError, ParseError, Structure,
                         PP, PS, NP, NS, parse_formula, parse_structure,
                         parse_sequent, render, render_sequent, bowtie,
                         infty, iter_formulas, iter_structures, UNDERIVABLE_KINDS,
                         leaf, s, f, fatom, formula_nodes, parse_raw, MAX_NESTING)

from gen import random_formula, random_structure
import random


def test_atom_parse():
    p = parse_formula("p")
    assert p.sort == PP and p.atom.name == "p"


def test_lexical_entry_is_pure_negative():
    e = parse_formula("(up np) / n", {"s"})
    assert e.sort == NP


def test_composed_shifts_rejected():
    with pytest.raises(SortError):
        parse_formula("dn (dn n)", {"n"})
    with pytest.raises(SortError):
        parse_formula("up (up p)")


def test_a_compound_term_carries_no_atom_or_leaf():
    """A stray atom or leaf on a compound node would print like the node but
    make it unequal to the same node built without it, so it is refused."""
    p = fatom("p")
    with pytest.raises(SortError, match="carries no atom"):
        Formula("*", Atom("q", True), (p, p))
    with pytest.raises(SortError, match="carries no formula leaf"):
        Structure(".*", p, (leaf(p), leaf(p)))
    assert Formula("*", None, (p, p)) == f("*", p, p)


def test_sequent_kinds():
    assert parse_sequent("p |- p").kind == "r"
    assert parse_sequent("n |- n", {"n"}).kind == "b"
    assert parse_sequent("dn n .* p |- up (dn n * p)", {"n"}).kind == "n."
    assert parse_sequent("dn n |- .dn n", {"n"}).kind == "r:"
    assert parse_sequent("p |- dn n", {"n"}).kind == "r."


def test_negative_precedent_positive_succedent_rejected():
    with pytest.raises(SortError):
        parse_sequent("n |- p", {"n"})
    with pytest.raises(SortError):
        parse_sequent("up p |- dn n", {"n"})


def test_twelve_kinds_exist():
    texts = {
        "r": "p |- p", "r_": "dn n |- p", "r.": "p |- dn n", "r:": "dn n |- dn n",
        "b": "n |- n", "b_": "up p |- n", "b.": "n |- up p", "b:": "up p |- up p",
        "n": "p |- n", "n_": "dn n |- n", "n.": "p |- up p", "n:": "dn n |- up p",
    }
    for kind, txt in texts.items():
        assert parse_sequent(txt, {"n"}).kind == kind
    assert UNDERIVABLE_KINDS == {"r_", "b.", "n:"}


def test_turnstile_uniqueness():
    # equal sort pairs always produce the same kind
    pool = list(iter_structures((Atom("p", True), Atom("n", False)), 2,
                                include_variants=False))
    seen = {}
    for st_ in pool:
        for su in pool:
            try:
                q = Sequent(st_, su)
            except SortError:
                continue
            key = (st_.sort, su.sort)
            assert seen.setdefault(key, q.kind) == q.kind


def test_sort_of_examples():
    assert parse_formula("p").sort == PP
    assert parse_formula("dn n", {"n"}).sort == PS
    assert parse_structure(".up p").sort == NS
    assert parse_structure("p .\\r q").sort == PS


def test_sorts_are_slotted_values():
    import copy
    import pickle
    assert Sort(True, False) == PP and Sort(positive=False, shifted=True) == NS
    assert [hash(x) for x in (PP, PS, NP, NS)] == [hash((x.positive, x.shifted))
                                                   for x in (PP, PS, NP, NS)]
    assert PP != PS and PP != (True, False) and PP != "pure positive"
    assert [repr(x) for x in (PP, PS, NP, NS)] == [
        "pure positive", "shifted positive", "pure negative", "shifted negative"]
    for x in (PP, PS, NP, NS):
        assert pickle.loads(pickle.dumps(x)) == x
        assert copy.copy(x) == x and copy.deepcopy(x) == x
    assert {(NP, "suc"): 1}[(Sort(False, False), "suc")] == 1
    with pytest.raises(AttributeError):
        PP.positive = False


def test_nonassociative_requires_parens():
    with pytest.raises(ParseError):
        parse_formula("p * q * r")
    parse_formula("(p * q) * r")


@pytest.mark.parametrize("text, message", [
    ("p .* q", "structural connective '.*' inside a formula"), ("(p q)", "expected '\\)'"),
])
def test_malformed_formula_is_a_parse_error(text, message):
    with pytest.raises(ParseError, match=message):
        parse_formula(text)


def test_render_examples():
    assert render(parse_formula("p * q")) == "p * q"
    assert render(parse_structure("p .* q")) == "p .* q"
    assert "\\vdash" in render(parse_sequent("p |- p"), "latex")
    with pytest.raises(ValueError, match="unknown style 'html'"):
        render(parse_formula("p * q"), "html")


def test_every_connective_has_a_latex_spelling():
    """Each connective is spelled, and no two alike, so latex output names
    the connective exactly; every small term prints in both styles."""
    from fdlg.syntax import OP_SIG, STRUCT_SIG, _LATEX
    assert set(_LATEX) == set(OP_SIG) | set(STRUCT_SIG)
    assert len(set(_LATEX.values())) == len(_LATEX)
    roots = set()
    for x in iter_structures((Atom("p", True), Atom("n", False)), 2):
        root = x.conn or x.leaf.conn
        if root is not None:
            roots.add(root)
            assert _LATEX[root] in render(x, "latex") and root in render(x)
    assert roots == set(_LATEX)


def test_roundtrip_exhaustive_small():
    atoms = (Atom("p", True), Atom("n", False))
    for fml in iter_formulas(atoms, 3):
        assert parse_formula(render(fml), {"n"}) == fml
    for st_ in iter_structures(atoms, 2):
        assert parse_structure(render(st_), {"n"}) == st_


@pytest.mark.parametrize("depth", [0, -1])
def test_enumeration_depth_below_one_is_rejected(depth):
    """At the call, before a term is asked for."""
    atoms = (Atom("p", True), Atom("n", False))
    for enumerate_ in (iter_formulas, iter_structures):
        with pytest.raises(ValueError, match=f"depth must be at least 1, got {depth}"):
            enumerate_(atoms, depth)


@given(st.integers(0, 10**9), st.integers(2, 5))
@settings(max_examples=120, deadline=None)
def test_roundtrip_random(seed, depth):
    rng = random.Random(seed)
    fml = random_formula(rng, depth)
    assert parse_formula(render(fml), {"n"}) == fml


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_structure_roundtrip_random(seed):
    rng = random.Random(seed)
    st_ = random_structure(rng, 3, include_variants=True)
    assert parse_structure(render(st_), {"n"}) == st_


def test_bowtie_examples():
    ac = parse_formula("p \\ n", {"n"})
    assert render(bowtie(ac)) == "n / p"
    assert bowtie(parse_formula("p")) == parse_formula("p")
    osl = parse_formula("p (/) n", {"n"})
    assert render(bowtie(osl)) == "n (\\) p"


def test_bowtie_involution_exhaustive():
    atoms = (Atom("p", True), Atom("n", False))
    for fml in iter_formulas(atoms, 4):
        b = bowtie(fml)
        assert b.sort == fml.sort
        assert bowtie(b) == fml
    for st_ in iter_structures(atoms, 2):
        assert bowtie(bowtie(st_)) == st_
    rng = random.Random(1)
    for _ in range(300):
        st_ = random_structure(rng, 4, include_variants=True)
        assert bowtie(bowtie(st_)) == st_


def test_infty_examples():
    ab = parse_formula("p * q")
    assert render(infty(ab)) == "q (+) p"
    sq = parse_sequent("p |- p")
    assert infty(sq).kind == "b"
    assert render_sequent(infty(sq)) == "p |- p"   # atom names stay, polarity flips
    assert not infty(sq).pre.leaf.atom.positive


def test_infty_involution_exhaustive():
    atoms = (Atom("p", True), Atom("n", False))
    for fml in iter_formulas(atoms, 4):
        i = infty(fml)
        assert i.sort.positive != fml.sort.positive
        assert i.sort.shifted == fml.sort.shifted
        assert infty(i) == fml
    rng = random.Random(2)
    for _ in range(300):
        st_ = random_structure(rng, 4, include_variants=True)
        assert infty(infty(st_)) == st_


def test_infty_on_sequent_swaps_and_dualizes():
    sq = parse_sequent("dn n .* p |- up (dn n * p)", {"n"})
    dual = infty(sq)
    assert dual.kind == "n_"
    assert infty(dual) == sq


def test_atom_polarity_fixed_by_declaration():
    a = parse_formula("a")
    b = parse_formula("a", {"a"})
    assert a != b and a.sort == PP and b.sort == NP


def test_roundtrip_on_corpus(corpus_sequents):
    from fdlg.algebra import atoms_of
    for seq in corpus_sequents:
        neg = {a.name for a in atoms_of(seq) if not a.positive}
        assert parse_sequent(render_sequent(seq), neg) == seq


# ---------------------------------------------------------------------------
# The term contract: immutable values whose hash is the hash of their field
# tuple less the field that is None, so that set and dict iteration order
# under a fixed PYTHONHASHSEED (and with it the order of search results) does
# not depend on the term representation, nor on the process: before Python
# 3.12, hash(None) depends on the address of None.

_FIELDS = {Atom: ("name", "positive"), Formula: ("conn", "atom", "args"),
           Structure: ("conn", "leaf", "args"), Sequent: ("pre", "suc")}


def _nodes(x):
    """x and every Atom, Formula and Structure inside it."""
    yield x
    for name in _FIELDS[type(x)]:
        v = getattr(x, name)
        for child in (v if isinstance(v, tuple) else (v,)):
            if type(child) in _FIELDS:
                yield from _nodes(child)


def _random_sequent(rng):
    # a positive precedent makes every succedent admissible
    return Sequent(random_structure(rng, 4, include_variants=True, positive=True),
                   random_structure(rng, 4, include_variants=True))


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_hash_is_field_tuple_hash(seed):
    seq = _random_sequent(random.Random(seed))
    kinds = set()
    for x in _nodes(seq):
        kinds.add(type(x))
        fields = tuple(getattr(x, n) for n in _FIELDS[type(x)])
        assert hash(x) == hash(tuple(v for v in fields if v is not None))
    assert {Atom, Formula, Structure, Sequent} <= kinds


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_independently_built_terms_are_equal(seed):
    import copy
    import pickle
    seq = _random_sequent(random.Random(seed))
    twin = parse_sequent(render_sequent(seq), {"n"})
    assert twin is not seq and twin.pre is not seq.pre
    assert twin == seq and not (twin != seq)       # compared before either is hashed
    assert hash(twin) == hash(seq)
    for x, y in zip(_nodes(seq), _nodes(twin)):
        assert x == y and hash(x) == hash(y)
    for copied in (copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
        assert copied == seq and hash(copied) == hash(seq)


_PRINT_HASHES = """
from fdlg.syntax import parse_formula, parse_sequent
from fdlg.translate import parse_flg_sequent
seq = parse_sequent("p .* (dn n) |- (n / p) ./ p", {"n"})
c = parse_flg_sequent("[(p * q) / n] |- n ./ p", {"n"})
for x in (parse_formula("p"), seq.pre.args[1].leaf, seq.pre, seq.suc.args[0], seq,
          c, c.pre, c.pre.leaf.args[0], c.suc.args[1]):
    print(type(x).__name__, hash(x))
"""


def test_hashes_agree_across_processes():
    """Two processes under one PYTHONHASHSEED hash every kind of term alike,
    atom leaves included, in both calculi."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fdlg.__file__)))
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": src}
    outs = [subprocess.run([sys.executable, "-c", _PRINT_HASHES], env=env,
                           capture_output=True, check=True).stdout for _ in range(2)]
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 9


def test_formula_never_equals_structure():
    for fml in iter_formulas((Atom("p", True), Atom("n", False)), 3):
        lf = leaf(fml)
        assert fml != lf and lf != fml
        assert len({fml, lf}) == 2
    p = fatom("p")
    assert p != p.atom and Sequent(leaf(p), leaf(p)) != (leaf(p), leaf(p))


def test_terms_are_immutable():
    seq = parse_sequent("p .* (dn n) |- p * (dn n)", {"n"})
    before = hash(seq)
    for x in _nodes(seq):
        for name in _FIELDS[type(x)] + ("sort", "_hash", "extra"):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
    assert hash(seq) == before and render_sequent(seq) == "p .* dn n |- p * dn n"


def test_formula_nodes_preorder():
    seq = parse_sequent("p .* (q * p) |- dn (p \\ n)", {"n"})
    assert [render(x) for x in formula_nodes(seq)] == [
        "p", "q * p", "q", "p", "dn (p \\ n)", "p \\ n", "p", "n"]
    assert formula_nodes(seq.pre) == formula_nodes(seq)[:4]
    assert formula_nodes(seq.suc.leaf) == formula_nodes(seq)[4:]
    from fdlg.algebra import atoms_of
    assert atoms_of(seq) == [Atom("p", True), Atom("q", True), Atom("n", False)]


def test_nesting_limit():
    text = "p"
    for _ in range(MAX_NESTING - 1):
        text = f"(q * {text})"
    deep = parse_formula(f"({text})")                  # parentheses nest MAX_NESTING deep
    assert parse_formula(render(deep)) == deep
    assert hash(deep) == hash(parse_formula(text))
    with pytest.raises(ParseError, match="nested"):
        parse_formula(f"(({text}))")
    assert parse_raw("dn " * MAX_NESTING + "p")         # prefix shifts count too
    with pytest.raises(ParseError, match="nested"):
        parse_raw("dn " * (MAX_NESTING + 1) + "p")
