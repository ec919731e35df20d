"""Standard-sequent transforms against the other definitions in `reference_standardize`."""

import random
import re

import pytest

from fdlg.syntax import parse_structure, parse_sequent, render, render_sequent
from fdlg.standardize import (ftom, ftoM, standard_sequent, str_of, form_of,
                              StandardizeError)
from fdlg.search import prove, SearchConfig

from reference_standardize import ftom_direct, ftoM_direct, hi, lo

from gen import forward_closure, random_structure


def test_ftom_examples():
    assert render(ftom(parse_structure("p * q"))) == "p .* q"
    assert render(ftom(parse_structure("p"))) == "p"
    assert render(ftom(parse_structure(".up (p .* q)"))) == ".up (p .* q)"


def test_ftoM_examples():
    assert render(ftoM(parse_structure("n (+) m", {"n", "m"}))) == "n .(+) m"
    assert render(ftoM(parse_structure("n", {"n"}))) == "n"
    assert render(ftoM(parse_structure(".dn (p \\ n)", {"n"}))) == ".dn (p .\\ n)"


def test_standard_sequent():
    got = standard_sequent(parse_sequent("p * q |- p * q"))
    assert render_sequent(got) == "p .* q |- p * q"
    fixed = parse_sequent("p |- p")
    assert standard_sequent(fixed) == fixed


def test_standard_sequent_idempotent():
    rng = random.Random(17)
    for _ in range(300):
        st = random_structure(rng, 4)
        try:
            seq = parse_sequent(f"({render(st)}) |- n", {"n"}) \
                if st.sort.positive else \
                parse_sequent(f"p |- ({render(st)})", {"n"})
        except Exception:
            continue
        try:
            ss = standard_sequent(seq)
        except StandardizeError:
            continue
        assert standard_sequent(ss) == ss


def test_partiality_on_variants():
    with pytest.raises(StandardizeError):
        ftom(parse_structure("p .\\r q"))
    with pytest.raises(StandardizeError):
        ftoM(parse_structure(".upl (dn n)", {"n"}))


def test_str_form_helpers():
    a = parse_structure("p * q").leaf
    assert render(str_of(a)) == "p .* q"
    assert form_of(str_of(a)) == a
    with pytest.raises(StandardizeError):
        form_of(parse_structure("p .\\r q"))


def test_direct_and_recursive_definitions_agree():
    rng = random.Random(7)
    agree = 0
    for _ in range(800):
        st = random_structure(rng, 5, include_variants=True)
        for rec, direct in ((ftom, ftom_direct), (ftoM, ftoM_direct)):
            try:
                got_rec = rec(st)
            except StandardizeError:
                with pytest.raises(StandardizeError):
                    direct(st)
                continue
            assert direct(st) == got_rec, render(st)
            agree += 1
    assert agree > 400


def test_one_signed_walk_matches_the_two_recursions():
    """ftom/ftoM against the earlier pair of recursions `lo`/`hi`: equal
    results, or the same error, on random structures with variants and on
    both sides of every forward-closure sequent."""
    rng = random.Random(11)
    structures = [random_structure(rng, 1 + i % 6, include_variants=i % 3 == 0)
                  for i in range(2_000)]
    structures += [x for seq in forward_closure(include_variants=True)
                   for x in (seq.pre, seq.suc)]
    defined = 0
    for st in structures:
        for new, old in ((ftom, lo), (ftoM, hi)):
            try:
                want = old(st)
            except StandardizeError as e:
                with pytest.raises(StandardizeError, match=f"^{re.escape(str(e))}$"):
                    new(st)
                continue
            assert new(st) == want, render(st)
            defined += 1
    assert defined > 4_000


def test_completeness_bridge(corpus_sequents):
    """Whatever the corpus proves, its standard sequent is provable too."""
    cfg = SearchConfig(max_depth=14, max_solutions=1)
    for seq in corpus_sequents:
        if len(render_sequent(seq)) > 40:      # keep the bridge check quick
            continue
        if not prove(seq, cfg):
            continue
        ss = standard_sequent(seq)
        assert prove(ss, SearchConfig(max_depth=16, max_solutions=1)), render_sequent(ss)
