"""Seeded input generators owned by the benchmark.

They are modelled on the generators of the test suite but kept separate, so
that editing a test never changes what the benchmark measures.  Every
generator takes a `random.Random` for the shapes and the atom names, or a
name tag drawn by the caller with `new_tag`, so no two items share a term.
"""

from __future__ import annotations

import math
import random
import re

from fdlg.syntax import Atom, Formula, Structure, Sequent, leaf
from fdlg.kernel import (Derivation, apply_rule_forward, identity_expansion,
                         make_cut, saturate_translations)
from fdlg.translate import FlgDerivation, apply_flg, TranslateError


def new_tag(rng: random.Random, used: set) -> str:
    """A fresh name suffix, unique among `used`."""
    while True:
        tag = f"{rng.randrange(16 ** 6):06x}"
        if tag not in used:
            used.add(tag)
            return tag


# ---------------------------------------------------------------------------
# Renaming atoms inside terms and derivations


def rename_formula(x: Formula, names: dict) -> Formula:
    if x.conn is None:
        return Formula(None, Atom(names.get(x.atom.name, x.atom.name), x.atom.positive))
    return Formula(x.conn, None, tuple(rename_formula(a, names) for a in x.args))


def rename_structure(x: Structure, names: dict) -> Structure:
    if x.conn is None:
        return leaf(rename_formula(x.leaf, names))
    return Structure(x.conn, None, tuple(rename_structure(a, names) for a in x.args))


def rename_derivation(d: Derivation, names: dict) -> Derivation:
    seq = Sequent(rename_structure(d.conclusion.pre, names),
                  rename_structure(d.conclusion.suc, names))
    return Derivation(d.rule, seq, tuple(rename_derivation(p, names) for p in d.premises))


def rename_words(text: str, names: dict) -> str:
    """Rename whole identifiers in a text (lexicon, exchange document)."""
    pattern = re.compile(r"(?<![A-Za-z0-9_'])(" + "|".join(
        re.escape(k) for k in sorted(names, key=len, reverse=True)) + r")(?![A-Za-z0-9_'])")
    return pattern.sub(lambda m: names[m.group(1)], text)


# ---------------------------------------------------------------------------
# Sentences of the quantifier grammar.
#
# A sentence is a subject, a verb of arity k and k - 1 objects, bracketed as
# (subject, (((verb, obj1), obj2) ...)).  A noun-phrase slot is either a
# quantified determiner `dn ((up np) / n)` plus a noun, or a name `np`.  A
# verb whose arity differs from the number of noun-phrase slots makes the
# sentence ungrammatical.

# (noun-phrase slots, quantified slots, verb arity); the last three are the
# ungrammatical shapes, whose verb arity is off by one.
SHAPES = (
    (1, 0, 1), (1, 1, 1), (2, 0, 2), (2, 1, 2), (2, 2, 2), (3, 1, 3),
    (3, 2, 3), (3, 3, 3), (4, 2, 4), (4, 3, 4), (4, 4, 4), (5, 3, 5),
    (5, 5, 5),
    (2, 2, 1), (3, 3, 4), (4, 4, 3),
)


def verb_type(arity: int, np: str, s: str) -> str:
    t = f"{np} \\ {s}"
    for _ in range(arity - 1):
        t = f"({t}) / {np}"
    return f"dn ({t})"


def expected_readings(slots: int, quantifiers: int, arity: int) -> int:
    """Minimal focused proofs are the scope readings: one per quantifier order."""
    return math.factorial(quantifiers) if slots == arity else 0


def sentence(rng: random.Random, tag: str, slots: int, quantifiers: int, arity: int):
    """(lexicon text, words, bracketing, goal atom) for one sentence shape."""
    quantified = set(rng.sample(range(slots), quantifiers))
    words: list[str] = []
    lexicon = [f"%neg s{tag}"]

    def word(name: str, ty: str) -> int:
        words.append(f"{name}{tag}")
        lexicon.append(f"{name}{tag} := {ty}")
        return len(words) - 1

    def noun_phrase(i: int):
        if i in quantified:
            return (word(f"det{i}_", f"dn ((up np{tag}) / n{tag})"), word(f"noun{i}_", f"n{tag}"))
        return word(f"name{i}_", f"np{tag}")

    subject = noun_phrase(0)
    vp = word("verb_", verb_type(arity, f"np{tag}", f"s{tag}"))
    for i in range(1, slots):
        vp = (vp, noun_phrase(i))
    return "\n".join(lexicon) + "\n", words, (subject, vp), f"s{tag}"


# ---------------------------------------------------------------------------
# Random formulas and cut-bearing proofs


def random_formula(rng: random.Random, depth: int, atoms, positive=None,
                   shifted=None) -> Formula:
    """A random well-sorted formula over one positive and one negative atom;
    `shifted=False` keeps the shifts away from its root."""
    pos_atom, neg_atom = atoms
    if depth <= 1 or rng.random() < 0.3:
        if positive is None:
            positive = rng.random() < 0.5
        return Formula(None, pos_atom if positive else neg_atom)
    pols = {"*": (True, True), "(/)": (True, False), "(\\)": (False, True),
            "(+)": (False, False), "\\": (True, False), "/": (False, True)}
    conns_pos, conns_neg = ["*", "(/)", "(\\)"], ["(+)", "\\", "/"]
    if shifted is None:
        conns_pos, conns_neg = conns_pos + ["dn"], conns_neg + ["up"]
    conn = rng.choice(conns_pos if positive else conns_neg if positive is False
                      else conns_pos + conns_neg)
    if conn == "dn":
        return Formula("dn", None, (random_formula(rng, depth - 1, atoms, False, False),))
    if conn == "up":
        return Formula("up", None, (random_formula(rng, depth - 1, atoms, True, False),))
    l, r = pols[conn]
    return Formula(conn, None, (random_formula(rng, depth - 1, atoms, l),
                                random_formula(rng, depth - 1, atoms, r)))


def formula_depth(x: Formula) -> int:
    return 1 + max((formula_depth(a) for a in x.args), default=0)


def extend(d: Derivation, rule: str) -> Derivation:
    return Derivation(rule, apply_rule_forward(rule, [d.conclusion]), (d,))


def cut_proof(rng: random.Random, depth: int, atoms) -> Derivation:
    """A proof ending in one cut on a random formula of exactly this depth.

    The cut formula is proved by identity expansion with one side folded into
    a formula; the other premise refocuses the same formula through the shift
    rules.
    """
    a = random_formula(rng, depth, atoms)
    while formula_depth(a) != depth:
        a = random_formula(rng, depth, atoms)
    base = identity_expansion(leaf(a))
    if a.sort.positive:
        d1 = saturate_translations(base, "suc")          # lo(a) |- a
        if not a.sort.shifted:
            d2 = extend(extend(d1, "up_R"), "s-up'")
            d2 = saturate_translations(d2, "pre")        # a |- up a
        else:
            inner = identity_expansion(leaf(a.args[0]))  # N |- hi(N)
            d2 = extend(extend(inner, "down_L"), "s-down'")
            d2 = saturate_translations(d2, "suc")        # a |- N
        out = make_cut(d1, d2)
    elif not a.sort.shifted:
        d2 = saturate_translations(base, "pre")          # a |- hi(a)
        d1 = extend(extend(d2, "down_L"), "s-down'")
        d1 = saturate_translations(d1, "suc")            # dn a |- a
        out = make_cut(d1, d2)
    else:
        out = make_cut(base, saturate_translations(base, "pre"))
    if rng.random() < 0.4 and out.conclusion.kind == "n":
        out = extend(out, "s-down")                      # invertible padding
        if rng.random() < 0.5:
            out = extend(out, "s-down'")
    return out


# ---------------------------------------------------------------------------
# Random companion-calculus derivations, built forward

_TONICITY = ("otimes_R", "oslash_R", "obslash_R", "oplus_L", "under_L", "over_L")
_UNARY = ("mu*", "mu~", "otimes_L", "oslash_L", "obslash_L", "oplus_R", "under_R",
          "over_R", "dp(.*,.\\)", "dp(.*,./)", "dp(.(/),.(+))", "dp(.(\\),.(+))",
          "dp(.*,.\\)'", "dp(.*,./)'", "dp(.(/),.(+))'", "dp(.(\\),.(+))'")


def flg_height(d: FlgDerivation) -> int:
    return 1 + max((flg_height(p) for p in d.premises), default=0)


def companion_derivation(rng: random.Random, max_depth: int, atoms) -> FlgDerivation:
    """The tallest derivation of height <= max_depth grown from a random pool."""
    def axiom():
        at = rng.choice(atoms)
        return FlgDerivation("Ax", apply_flg("Ax", [], selector=at))

    pool = [axiom() for _ in range(3)]
    for _ in range(max_depth * 3):
        kind = rng.random()
        try:
            if kind < 0.4:
                rule = rng.choice(_TONICITY)
                l, r = rng.choice(pool), rng.choice(pool)
                conclusion = apply_flg(rule, [l.conclusion, r.conclusion])
                pool.append(FlgDerivation(rule, conclusion, (l, r)))
            elif kind < 0.6:
                d = rng.choice(pool)
                rule = rng.choice(_UNARY)
                pool.append(FlgDerivation(rule, apply_flg(rule, [d.conclusion]), (d,)))
            else:
                pool.append(axiom())
        except TranslateError:
            continue
    fit = sorted((d for d in pool if flg_height(d) <= max_depth), key=flg_height)
    return fit[-1]


def right_branching(n: int):
    """The bracketing `parse_sentence` uses when given none."""
    shape = n - 1
    for i in reversed(range(n - 1)):
        shape = (i, shape)
    return shape
