"""The companion calculus in its earlier single-sorted terms, with its rules,
translation saturation and the exchange writers in their earlier
hand-written form, kept as the reference.

`fdlg.translate` keeps a companion sequent as its polarization, a normal
fD.LG `Sequent`, reads its connective rules and display postulates off the
fD.LG rules, and reads and prints the companion text straight from and into
polarized terms.  This module keeps the companion calculus's own terms:
plain frozen dataclasses `CFormula`, `FStruct` and `FlgSequent`, built by
`cf`, `fleaf` and `fs`, whose constructors check the sides of structures.
Over them it keeps the bottom-up text reader, the printers and the
polarization in their per-class pairs, `render_cformula`/`render_fstruct`,
`polarize_formula`/`polarize_structure`, and `unpolarize_formula`/
`depolarize` with `fleaf_or`, and the inverse of polarization on sequents
(`flg_of`) and on derivations (`flg_derivation`).  It also keeps the
hand-typed companion signature and one branch per rule, the two
mirror-image folds `_fold_suc`/`_fold_pre` (with the identity expansion and
saturation built on them), and the writers that hand nested dicts to
`json.dumps(..., indent=1)`.  The differential tests require both to give
equal results, through polarization, and the same errors, and
byte-identical text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from fdlg.syntax import (Atom, Formula, ParseError, Sequent, Structure, f as fnode, leaf,
                         parse_raw, render_sequent)
from fdlg.kernel import Derivation, KernelError, derive, fold, iter_nodes
from fdlg.standardize import StandardizeError, form_of, ftoM, ftom, str_of
from fdlg.translate import TranslateError


# The companion signature, typed by hand.
_CONNS = ("*", "(+)", "\\", "/", "(/)", "(\\)")
_INPUT_CONNS = {".*": ("in", "in"), ".(/)": ("in", "out"), ".(\\)": ("out", "in")}
_OUTPUT_CONNS = {".(+)": ("out", "out"), ".\\": ("in", "out"), "./": ("out", "in")}
# Structural connective -> whether each argument is an input (positive) one.
_ARG_SIDES = {conn: tuple(side == "in" for side in sides)
              for conn, sides in (*_INPUT_CONNS.items(), *_OUTPUT_CONNS.items())}
# Formula connective -> (polarity of each argument, its own polarity), read
# off its structural counterpart.
_POLARITY = {conn[1:]: (sides, conn in _INPUT_CONNS) for conn, sides in _ARG_SIDES.items()}


# ---------------------------------------------------------------------------
# Companion terms and sequents


@dataclass(frozen=True)
class CFormula:
    """An atom (`conn` None), or a companion connective over two formulas."""
    conn: str | None
    atom: Atom | None = None
    args: tuple = ()


@dataclass(frozen=True)
class FStruct:
    """A formula leaf (`conn` None), or a structural connective over two
    structures."""
    conn: str | None
    leaf: CFormula | None = None
    args: tuple = ()

    @property
    def side(self) -> str | None:
        """'in', 'out', or None for a bare formula leaf."""
        if self.conn is None:
            return None
        return "in" if self.conn in _INPUT_CONNS else "out"


@dataclass(frozen=True)
class FlgSequent:
    pre: FStruct
    suc: FStruct
    focus: str | None = None          # None | 'pre' | 'suc'

    def __post_init__(self):
        if self.pre.side == "out" or self.suc.side == "in":
            raise TranslateError("structure on the wrong side of the turnstile")
        if self.focus == "pre" and self.pre.conn is not None:
            raise TranslateError("only a formula can be in focus")
        if self.focus == "suc" and self.suc.conn is not None:
            raise TranslateError("only a formula can be in focus")


def cf(conn: str, l: CFormula, r: CFormula) -> CFormula:
    return CFormula(conn, None, (l, r))


def fleaf(a: CFormula) -> FStruct:
    return FStruct(None, a)


def fs(conn: str, l: FStruct, r: FStruct) -> FStruct:
    for arg, positive in zip((l, r), _ARG_SIDES[conn]):
        if arg.side is not None and (arg.side == "in") != positive:
            raise TranslateError(f"argument of {conn} on the wrong side")
    return FStruct(conn, None, (l, r))


def _read(r, neg: frozenset[str], structural: bool):
    """The companion term of parse_raw's tuples, built bottom-up: a structure
    if `structural`, else a formula.  In a structure, an atom or a formula
    connective begins a formula leaf."""
    if isinstance(r, str):
        a = CFormula(None, Atom(r, r not in neg))
    elif r[0] in _CONNS:
        a = cf(r[0], _read(r[1], neg, False), _read(r[2], neg, False))
    elif not structural:
        raise ParseError(f"{r[0]!r} is not a companion formula connective")
    elif r[0] not in _ARG_SIDES:
        raise ParseError(f"{r[0]!r} is not a companion-calculus connective")
    else:
        return fs(r[0], _read(r[1], neg, True), _read(r[2], neg, True))
    return fleaf(a) if structural else a


def parse_flg_sequent(text: str, neg_atoms=()) -> FlgSequent:
    neg = frozenset(neg_atoms)
    focus, sides = None, []
    try:
        for side, part in zip(("pre", "suc"), text.partition("|-")[::2]):
            part = part.strip()
            if part.startswith("[") and part.endswith("]"):
                if focus is not None:
                    raise ParseError("a companion sequent has at most one formula in focus")
                focus, part = side, part[1:-1]
            sides.append(_read(parse_raw(part), neg, True))
        return FlgSequent(*sides, focus)
    except TranslateError as e:     # a structure on the wrong side, or in focus
        raise ParseError(str(e)) from None


def formula_polarity(a: CFormula) -> bool:
    """Positive iff the head is a product-family connective or a positive atom."""
    if a.conn is None:
        return a.atom.positive
    return _POLARITY[a.conn][1]


# The companion's connective rules and display postulates, by name.
TABLE_RULES = ["otimes_R", "oslash_R", "obslash_R", "oplus_L", "under_L", "over_L",
               "otimes_L", "oslash_L", "obslash_L", "oplus_R", "under_R", "over_R",
               "dp(.*,.\\)", "dp(.*,.\\)'", "dp(.*,./)", "dp(.*,./)'",
               "dp(.(/),.(+))", "dp(.(/),.(+))'", "dp(.(\\),.(+))", "dp(.(\\),.(+))'"]


def _formula(x: FStruct) -> CFormula:
    if x.conn is not None:
        raise TranslateError("expected a formula leaf")
    return x.leaf


def render_cformula(a: CFormula) -> str:
    if a.conn is None:
        return a.atom.name
    l, r = a.args
    lt = f"({render_cformula(l)})" if l.conn is not None else render_cformula(l)
    rt = f"({render_cformula(r)})" if r.conn is not None else render_cformula(r)
    return f"{lt} {a.conn} {rt}"


def render_fstruct(x: FStruct) -> str:
    if x.conn is None:
        a = render_cformula(x.leaf)
        return f"({a})" if x.leaf.conn is not None else a
    l, r = (render_fstruct(a) for a in x.args)
    lw = f"({l})" if x.args[0].conn is not None else l
    rw = f"({r})" if x.args[1].conn is not None else r
    return f"{lw} {x.conn} {rw}"


def render_flg_sequent(s: FlgSequent) -> str:
    pre, suc = render_fstruct(s.pre), render_fstruct(s.suc)
    if s.focus == "pre":
        pre = f"[{render_cformula(s.pre.leaf)}]"
    if s.focus == "suc":
        suc = f"[{render_cformula(s.suc.leaf)}]"
    return f"{pre} |- {suc}"


def polarize_formula(a: CFormula, positive: bool, memo: dict | None = None) -> Formula:
    """Positive or negative polarization; pure iff the polarity matches.
    A `memo` keeps each term's image, with the term, by the term's id and
    the polarity."""
    if memo is not None and (id(a), positive) in memo:
        return memo[id(a), positive][1]
    if a.conn is None:
        body, own = Formula(None, a.atom), a.atom.positive
    elif a.conn in _POLARITY:
        sides, own = _POLARITY[a.conn]
        body = fnode(a.conn, *(polarize_formula(x, s, memo) for x, s in zip(a.args, sides)))
    else:
        raise TranslateError(f"not a companion-calculus formula: {a!r}")
    if own != positive:
        body = fnode("dn", body) if positive else fnode("up", body)
    if memo is not None:
        memo[id(a), positive] = (a, body)
    return body


def unpolarize_formula(x: Formula) -> CFormula:
    """Erase the shifts of a display-calculus formula."""
    if x.conn in ("up", "dn"):
        return unpolarize_formula(x.args[0])
    if x.conn is None:
        return CFormula(None, x.atom)
    return CFormula(x.conn, None, tuple(unpolarize_formula(a) for a in x.args))


def polarize_structure(x: FStruct, positive: bool, memo: dict | None = None) -> Structure:
    if memo is not None and (id(x), positive) in memo:
        return memo[id(x), positive][1]
    if x.conn is None:
        y = leaf(polarize_formula(x.leaf, positive, memo))
    elif x.side != ("in" if positive else "out"):
        raise TranslateError(f"{x.conn} cannot occur on this side")
    else:
        sides = _ARG_SIDES[x.conn]
        y = Structure(x.conn, None,
                      tuple(polarize_structure(a, s, memo) for a, s in zip(x.args, sides)))
    if memo is not None:
        memo[id(x), positive] = (x, y)
    return y


def polarize_sequent(s: FlgSequent, memo: dict | None = None) -> Sequent:
    return Sequent(polarize_structure(s.pre, s.focus != "pre", memo),
                   polarize_structure(s.suc, s.focus == "suc", memo))


def depolarize(x: Formula | Structure):
    """Erase the shifts; fails on structural shifts and variants."""
    if isinstance(x, Structure):
        if x.conn is None:
            return unpolarize_formula(x.leaf)
        if x.conn not in _ARG_SIDES:
            raise TranslateError(f"{x.conn} has no companion counterpart")
        return fs(x.conn, *(fleaf_or(depolarize(a)) for a in x.args))
    return unpolarize_formula(x)


def fleaf_or(v) -> FStruct:
    return v if isinstance(v, FStruct) else fleaf(v)


def flg_of(seq: Sequent) -> FlgSequent:
    """The companion sequent whose polarization is `seq`; raises unless
    `seq` is normal.  The focus is read off the sequent's kind."""
    focus = {"r": "suc", "b": "pre"}.get(seq.kind[0])
    if focus == "suc" and seq.suc.conn is not None:
        raise TranslateError("a positive normal sequent focuses its succedent formula")
    if focus == "pre" and seq.pre.conn is not None:
        raise TranslateError("a negative normal sequent focuses its precedent formula")
    return FlgSequent(fleaf_or(depolarize(seq.pre)), fleaf_or(depolarize(seq.suc)), focus)


def flg_derivation(d: Derivation) -> Derivation:
    """The companion derivation over companion sequents whose polarization
    is `d`."""
    return fold(d, lambda node, premises: Derivation(node.rule, flg_of(node.conclusion),
                                                     premises))


def apply_flg(rule: str, premises, selector: Atom | None = None,
              side: str | None = None) -> FlgSequent:
    """Forward application in the companion calculus; unique conclusion.

    `side` disambiguates mu~ when both a positive precedent formula and a
    negative succedent formula could take the focus.
    """
    ps = [p.conclusion if isinstance(p, Derivation) else p for p in premises]

    def arity(n):
        if len(ps) != n:
            raise TranslateError(f"{rule} takes {n} premise(s)")

    if rule == "Ax":
        arity(0)
        if selector is None:
            raise TranslateError("Ax needs an atom selector")
        a = fleaf(CFormula(None, selector))
        return (FlgSequent(a, a, "suc") if selector.positive
                else FlgSequent(a, a, "pre"))
    if rule == "mu*":
        arity(1)
        (s,) = ps
        if s.focus == "suc":
            if not formula_polarity(_formula(s.suc)):
                raise TranslateError("mu* defocuses a positive succedent formula")
            return FlgSequent(s.pre, s.suc, None)
        if s.focus == "pre":
            if formula_polarity(_formula(s.pre)):
                raise TranslateError("mu* defocuses a negative precedent formula")
            return FlgSequent(s.pre, s.suc, None)
        raise TranslateError("mu* needs a focused premise")
    if rule == "mu~":
        arity(1)
        (s,) = ps
        if s.focus is not None:
            raise TranslateError("mu~ needs an unfocused premise")
        pre_ok = s.pre.conn is None and formula_polarity(s.pre.leaf)
        suc_ok = s.suc.conn is None and not formula_polarity(s.suc.leaf)
        if side == "pre" or (side is None and pre_ok):
            if not pre_ok:
                raise TranslateError("precedent is not a positive formula")
            return FlgSequent(s.pre, s.suc, "pre")
        if suc_ok:
            return FlgSequent(s.pre, s.suc, "suc")
        raise TranslateError("mu~ focuses a positive precedent or negative succedent formula")

    if rule == "otimes_R":
        arity(2)
        l, r = ps
        if l.focus != "suc" or r.focus != "suc":
            raise TranslateError("otimes_R needs two right-focused premises")
        a, b = _formula(l.suc), _formula(r.suc)
        return FlgSequent(fs(".*", l.pre, r.pre), fleaf(cf("*", a, b)), "suc")
    if rule == "oslash_R":
        arity(2)
        l, r = ps
        if l.focus != "suc" or r.focus != "pre":
            raise TranslateError("oslash_R needs right- and left-focused premises")
        a, b = _formula(l.suc), _formula(r.pre)
        return FlgSequent(fs(".(/)", l.pre, r.suc), fleaf(cf("(/)", a, b)), "suc")
    if rule == "obslash_R":
        arity(2)
        l, r = ps
        if l.focus != "pre" or r.focus != "suc":
            raise TranslateError("obslash_R needs left- and right-focused premises")
        a, b = _formula(l.pre), _formula(r.suc)
        return FlgSequent(fs(".(\\)", l.suc, r.pre), fleaf(cf("(\\)", a, b)), "suc")
    if rule == "oplus_L":
        arity(2)
        l, r = ps
        if l.focus != "pre" or r.focus != "pre":
            raise TranslateError("oplus_L needs two left-focused premises")
        a, b = _formula(l.pre), _formula(r.pre)
        return FlgSequent(fleaf(cf("(+)", a, b)), fs(".(+)", l.suc, r.suc), "pre")
    if rule == "under_L":
        arity(2)
        l, r = ps
        if l.focus != "suc" or r.focus != "pre":
            raise TranslateError("under_L needs right- and left-focused premises")
        a, b = _formula(l.suc), _formula(r.pre)
        return FlgSequent(fleaf(cf("\\", a, b)), fs(".\\", l.pre, r.suc), "pre")
    if rule == "over_L":
        arity(2)
        l, r = ps
        if l.focus != "pre" or r.focus != "suc":
            raise TranslateError("over_L needs left- and right-focused premises")
        a, b = _formula(l.pre), _formula(r.suc)
        return FlgSequent(fleaf(cf("/", a, b)), fs("./", l.suc, r.pre), "pre")

    if rule in ("otimes_L", "oslash_L", "obslash_L"):
        arity(1)
        (s,) = ps
        conn = {"otimes_L": ".*", "oslash_L": ".(/)", "obslash_L": ".(\\)"}[rule]
        if s.focus is not None or s.pre.conn != conn:
            raise TranslateError(f"{rule} wants an unfocused {conn}-rooted precedent")
        a, b = (_formula(x) for x in s.pre.args)
        return FlgSequent(fleaf(cf(conn[1:], a, b)), s.suc, None)
    if rule in ("oplus_R", "under_R", "over_R"):
        arity(1)
        (s,) = ps
        conn = {"oplus_R": ".(+)", "under_R": ".\\", "over_R": "./"}[rule]
        if s.focus is not None or s.suc.conn != conn:
            raise TranslateError(f"{rule} wants an unfocused {conn}-rooted succedent")
        a, b = (_formula(x) for x in s.suc.args)
        return FlgSequent(s.pre, fleaf(cf(conn[1:], a, b)), None)

    if rule.startswith("dp("):
        arity(1)
        (s,) = ps
        if s.focus is not None:
            raise TranslateError("display postulates apply in neutral phases only")
        base, inv = (rule[:-1], True) if rule.endswith("'") else (rule, False)
        # (premise root side+conn, builder)
        moves = {
            ("dp(.*,.\\)", False): ("suc", ".\\",
                lambda q: FlgSequent(fs(".*", q.suc.args[0], q.pre), q.suc.args[1])),
            ("dp(.*,.\\)", True): ("pre", ".*",
                lambda q: FlgSequent(q.pre.args[1], fs(".\\", q.pre.args[0], q.suc))),
            ("dp(.*,./)", False): ("pre", ".*",
                lambda q: FlgSequent(q.pre.args[0], fs("./", q.suc, q.pre.args[1]))),
            ("dp(.*,./)", True): ("suc", "./",
                lambda q: FlgSequent(fs(".*", q.pre, q.suc.args[1]), q.suc.args[0])),
            ("dp(.(/),.(+))", False): ("pre", ".(/)",
                lambda q: FlgSequent(q.pre.args[0], fs(".(+)", q.suc, q.pre.args[1]))),
            ("dp(.(/),.(+))", True): ("suc", ".(+)",
                lambda q: FlgSequent(fs(".(/)", q.pre, q.suc.args[1]), q.suc.args[0])),
            ("dp(.(\\),.(+))", False): ("suc", ".(+)",
                lambda q: FlgSequent(fs(".(\\)", q.suc.args[0], q.pre), q.suc.args[1])),
            ("dp(.(\\),.(+))", True): ("pre", ".(\\)",
                lambda q: FlgSequent(q.pre.args[1], fs(".(+)", q.pre.args[0], q.suc))),
        }
        key = (base, inv)
        if key not in moves:
            raise TranslateError(f"unknown rule {rule!r}")
        where, conn, fn = moves[key]
        root = s.pre if where == "pre" else s.suc
        if root.conn != conn:
            raise TranslateError(f"{rule} wants a {conn}-rooted {where} side")
        try:
            return fn(s)
        except TranslateError:
            raise TranslateError(f"{rule} does not apply") from None
    raise TranslateError(f"unknown rule {rule!r}")


def check_flg(d: Derivation) -> tuple[bool, str]:
    """Bottom-up schema check of a companion-calculus derivation: each node's
    conclusion is the one apply_flg gives its premises."""
    for path, node in iter_nodes(d):
        try:
            if node.rule == "Ax":
                if node.premises:
                    return False, (f"at {path}: Ax expects 0 premise(s), "
                                   f"got {len(node.premises)}")
                atom = node.conclusion.pre.leaf.atom if node.conclusion.pre.conn is None else None
                conc = apply_flg("Ax", [], selector=atom)
            elif node.rule == "mu~":
                conc = apply_flg("mu~", [p.conclusion for p in node.premises],
                                 side=node.conclusion.focus)
            else:
                conc = apply_flg(node.rule, [p.conclusion for p in node.premises])
        except (TranslateError, AttributeError) as e:
            return False, f"at {path}: {e}"
        if conc != node.conclusion:
            return False, f"at {path}: conclusion is not the {node.rule} instance"
    return True, "ok"


def saturate_translations(d: Derivation, side: str) -> Derivation:
    """Extend `d` until the chosen side of its end-sequent is a formula."""
    if side not in ("pre", "suc"):
        raise KernelError("side must be 'pre' or 'suc'")
    target = d.conclusion.pre if side == "pre" else d.conclusion.suc
    try:
        form_of(target)
    except StandardizeError:
        raise KernelError("side contains a connective with no operational "
                          "counterpart") from None
    return _fold_pre(d) if side == "pre" else _fold_suc(d)


def _fold_suc(d: Derivation) -> Derivation:
    suc = d.conclusion.suc
    if suc.conn is None:
        return d
    c = suc.conn
    if c == ".dn":
        d = derive("s-down'", d)
        d = _fold_suc(d)
        d = derive("s-down", d)
        return derive("down_R", d)
    if c == ".(+)":
        if suc.args[0].conn is not None:
            d = derive("dp(.(/),.(+))'", d)    # left summand becomes the succedent
            d = _fold_suc(d)
            d = derive("dp(.(/),.(+))", d)
        if d.conclusion.suc.args[1].conn is not None:
            d = derive("dp(.(\\),.(+))", d)    # right summand becomes the succedent
            d = _fold_suc(d)
            d = derive("dp(.(\\),.(+))'", d)
        return derive("oplus_R", d)
    if c == ".\\":
        if suc.args[0].conn is not None:
            d = derive("dp(.*,.\\)", d)        # numerator to the precedent, then out
            d = derive("dp(.*,./)", d)
            d = _fold_pre(d)
            d = derive("dp(.*,./)'", d)
            d = derive("dp(.*,.\\)'", d)
        if d.conclusion.suc.args[1].conn is not None:
            d = derive("dp(.*,.\\)", d)
            d = _fold_suc(d)
            d = derive("dp(.*,.\\)'", d)
        return derive("under_R", d)
    if c == "./":
        if suc.args[1].conn is not None:
            d = derive("dp(.*,./)'", d)
            d = derive("dp(.*,.\\)'", d)
            d = _fold_pre(d)
            d = derive("dp(.*,.\\)", d)
            d = derive("dp(.*,./)", d)
        if d.conclusion.suc.args[0].conn is not None:
            d = derive("dp(.*,./)'", d)
            d = _fold_suc(d)
            d = derive("dp(.*,./)", d)
        return derive("over_R", d)
    raise KernelError(f"cannot fold succedent connective {c!r} in this position")


def _fold_pre(d: Derivation) -> Derivation:
    pre = d.conclusion.pre
    if pre.conn is None:
        return d
    c = pre.conn
    if c == ".up":
        d = derive("s-up'", d)
        d = _fold_pre(d)
        d = derive("s-up", d)
        return derive("up_L", d)
    if c == ".*":
        if pre.args[0].conn is not None:
            d = derive("dp(.*,./)", d)
            d = _fold_pre(d)
            d = derive("dp(.*,./)'", d)
        if d.conclusion.pre.args[1].conn is not None:
            d = derive("dp(.*,.\\)'", d)
            d = _fold_pre(d)
            d = derive("dp(.*,.\\)", d)
        return derive("otimes_L", d)
    if c == ".(/)":
        if pre.args[0].conn is not None:
            d = derive("dp(.(/),.(+))", d)
            d = _fold_pre(d)
            d = derive("dp(.(/),.(+))'", d)
        if d.conclusion.pre.args[1].conn is not None:
            d = derive("dp(.(/),.(+))", d)     # co-denominator to the succedent
            d = derive("dp(.(\\),.(+))", d)
            d = _fold_suc(d)
            d = derive("dp(.(\\),.(+))'", d)
            d = derive("dp(.(/),.(+))'", d)
        return derive("oslash_L", d)
    if c == ".(\\)":
        if pre.args[1].conn is not None:
            d = derive("dp(.(\\),.(+))'", d)
            d = _fold_pre(d)
            d = derive("dp(.(\\),.(+))", d)
        if d.conclusion.pre.args[0].conn is not None:
            d = derive("dp(.(\\),.(+))'", d)
            d = derive("dp(.(/),.(+))'", d)
            d = _fold_suc(d)
            d = derive("dp(.(/),.(+))", d)
            d = derive("dp(.(\\),.(+))", d)
        return derive("obslash_L", d)
    raise KernelError(f"cannot fold precedent connective {c!r} in this position")


_EXPANSION = {
    ".*": ("otimes_R", _fold_suc, _fold_suc),
    ".(/)": ("oslash_R", _fold_suc, _fold_pre),
    ".(\\)": ("obslash_R", _fold_pre, _fold_suc),
    ".(+)": ("oplus_L", _fold_pre, _fold_pre),
    ".\\": ("under_L", _fold_suc, _fold_pre),
    "./": ("over_L", _fold_pre, _fold_suc),
}


def identity_expansion(psi: Structure) -> Derivation:
    ftom(psi), ftoM(psi)                  # raise StandardizeError if undefined
    if psi.conn is None:
        a = psi.leaf
        if a.conn is None:
            return derive("p-Id" if a.atom.positive else "n-Id", selector=a.atom)
        return identity_expansion(str_of(a))
    c = psi.conn
    if c == ".dn":
        sub = identity_expansion(psi.args[0])   # Form(D) |- hi(D), precedent is a formula
        return derive("down_L", sub)
    if c == ".up":
        sub = identity_expansion(psi.args[0])   # lo(X) |- Form(X)
        return derive("up_R", sub)
    if c not in _EXPANSION:
        raise KernelError(f"identity expansion undefined at {c!r}")
    rule, fold_l, fold_r = _EXPANSION[c]
    return derive(rule, fold_l(identity_expansion(psi.args[0])),
                  fold_r(identity_expansion(psi.args[1])))


def derivation_to_json(d: Derivation, neg_atoms) -> str:
    def node(x: Derivation):
        return {"rule": x.rule,
                "conclusion": render_sequent(x.conclusion),
                "premises": [node(p) for p in x.premises]}
    doc = {"negAtoms": sorted(neg_atoms)}
    doc.update(node(d))
    return json.dumps(doc, indent=1)


def flg_to_json(d: Derivation, neg_atoms) -> str:
    def node(x: Derivation):
        return {"rule": x.rule,
                "conclusion": render_flg_sequent(x.conclusion),
                "premises": [node(p) for p in x.premises]}
    doc = {"calculus": "flg", "negAtoms": sorted(neg_atoms)}
    doc.update(node(d))
    return json.dumps(doc, indent=1)
