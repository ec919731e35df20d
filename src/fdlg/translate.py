"""The companion focused calculus and the round-trip proof translations.

Polarization maps the companion sequents one-to-one onto the normal fD.LG
sequents, so a companion sequent is kept as its polarization: a `Sequent`
whose structural connectives are the six binary companion ones, with a
formula leaf in focus where its kind puts one (`focus_of`): a positive ('r')
sequent focuses its succedent, a negative ('b') one its precedent, and a
neutral one neither.  Polarization puts a shift at every polarity mismatch,
and the focus puts a formula at the other polarity from the one of its side.
Only the text is the companion's own: the reader `parse_flg_sequent` puts
the shifts in and the printer `render_flg_sequent` leaves them out, and a
formula in focus is bracketed.

The mini-kernel implements exactly the rules the translations exercise: atomic
axioms, which conclude what p-Id and n-Id do; the focusing pair mu~ / mu*,
each one flip of the root shift of a formula leaf at its own polarity; and
the table rules: the six logical connective pairs and the residuation
postulates on unfocused sequents, each the fD.LG rule of its name, after the
companion's own checks, read off the schema.

Companion derivations are `fdlg.kernel.Derivation`s over these sequents
(`FlgDerivation` is another name for that class), so both translations are
`kernel.fold`s and the exchange format is the kernel's `write_document`.
"""

from __future__ import annotations

from .syntax import (OP_SIG, STRUCT_OF_OP, STRUCT_SIG, Formula, Structure, Sequent, Atom, leaf,
                     f as fnode, ParseError, parse_raw)
from .rules import ORBIT_DPS, REGISTRY, SNode, fits
from .kernel import (Derivation, KernelError, TONICITY_PREMISES, apply_rule_forward,
                     fold, iter_nodes, nodes, read_document, read_nodes, write_document)
from .focus import minimize_proof


class TranslateError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Companion sequents as their polarizations

# The signature is fD.LG's binary one: a structural connective's arguments are
# inputs (positive) or outputs (negative), and it stands on its sort's side.
# A formula connective's arguments have the polarities of its counterpart's.
_CONNS = tuple(op for op, (_, specs) in OP_SIG.items() if len(specs) == 2)
_ARG_SIDES = {STRUCT_OF_OP[op]: tuple(pol for pol, _ in STRUCT_SIG[STRUCT_OF_OP[op]][1])
              for op in _CONNS}
_SHIFTS = ("up", "dn")
_FOCUS = {"r": "suc", "b": "pre"}

# Companion derivations are kernel derivations over companion sequents.
FlgDerivation = Derivation


def focus_of(seq: Sequent) -> str | None:
    """The side in focus of a companion sequent, read off its kind: 'suc'
    if it is positive, 'pre' if negative, None if neutral."""
    return _FOCUS.get(seq.kind[0])


def _normal(seq: Sequent) -> Sequent:
    """`seq`, if it is the polarization of a companion sequent: its side in
    focus is a formula leaf, and its structural connectives are companion
    ones.  Else a TranslateError names the side in focus, or the first other
    connective in pre-order, precedent first."""
    focus = focus_of(seq)
    if focus == "suc" and seq.suc.conn is not None:
        raise TranslateError("a positive normal sequent focuses its succedent formula")
    if focus == "pre" and seq.pre.conn is not None:
        raise TranslateError("a negative normal sequent focuses its precedent formula")
    stack = [seq.suc, seq.pre]
    while stack:
        x = stack.pop()
        if x.conn is not None:
            if x.conn not in _ARG_SIDES:
                raise TranslateError(f"{x.conn} has no companion counterpart")
            stack += reversed(x.args)
    return seq


def is_normal(seq: Sequent) -> bool:
    """Whether `seq` is the polarization of a companion sequent."""
    try:
        _normal(seq)
        return True
    except TranslateError:
        return False


def _flip(a: Formula) -> Formula:
    """`a` at the other polarity: its root shift taken off, or put on."""
    if a.conn in _SHIFTS:
        return a.args[0]
    return fnode("up" if a.sort.positive else "dn", a)


def _text(x: Formula | Structure, nested: bool = False) -> str:
    """A formula or structure in the companion syntax, shifts left out.  A
    compound argument is parenthesized (`nested`), and so is a compound
    formula leaf: the printer looks through a leaf to its formula, which it
    nests."""
    if x.__class__ is Structure and x.conn is None:
        x, nested = x.leaf, True
    if x.conn in _SHIFTS:
        x = x.args[0]
    if x.conn is None:
        return x.atom.name
    l, r = x.args
    out = f"{_text(l, True)} {x.conn} {_text(r, True)}"
    return f"({out})" if nested else out


def render_flg_sequent(seq: Sequent) -> str:
    """A companion sequent; the formula in focus is bracketed."""
    focus = focus_of(seq)
    return " |- ".join(f"[{_text(x.leaf)}]" if focus == side else _text(x)
                       for side, x in (("pre", seq.pre), ("suc", seq.suc)))


def _read(r, neg: frozenset[str], positive: bool, structural: bool):
    """The polarized term of parse_raw's tuples: a structure if
    `structural`, else a formula at polarity `positive`.  In a structure, an
    atom or a formula connective begins a formula leaf at `positive`; a
    structural connective fixes its own polarity, and its arguments are read
    before their sides are checked."""
    if isinstance(r, str):
        a = Formula(None, Atom(r, r not in neg))
    elif r[0] in _CONNS:
        sides = _ARG_SIDES[STRUCT_OF_OP[r[0]]]
        a = fnode(r[0], _read(r[1], neg, sides[0], False), _read(r[2], neg, sides[1], False))
    elif not structural:
        raise ParseError(f"{r[0]!r} is not a companion formula connective")
    elif r[0] not in _ARG_SIDES:
        raise ParseError(f"{r[0]!r} is not a companion-calculus connective")
    else:
        sides = _ARG_SIDES[r[0]]
        args = (_read(r[1], neg, sides[0], True), _read(r[2], neg, sides[1], True))
        for arg, side in zip(args, sides):
            if arg.sort.positive != side:
                raise ParseError(f"argument of {r[0]} on the wrong side")
        return Structure(r[0], None, args)
    if a.sort.positive != positive:
        a = _flip(a)
    return leaf(a) if structural else a


def parse_flg_sequent(text: str, neg_atoms=()) -> Sequent:
    """The polarization of a companion sequent's text.  Each side is read at
    its polarity out of focus, and the formula in focus is then flipped."""
    neg = frozenset(neg_atoms)
    focus, sides = None, []
    for side, part in zip(("pre", "suc"), text.partition("|-")[::2]):
        part = part.strip()
        if part.startswith("[") and part.endswith("]"):
            if focus is not None:
                raise ParseError("a companion sequent has at most one formula in focus")
            focus, part = side, part[1:-1]
        sides.append(_read(parse_raw(part), neg, side == "pre", True))
    if not sides[0].sort.positive or sides[1].sort.positive:
        raise ParseError("structure on the wrong side of the turnstile")
    if focus is not None:
        i = focus == "suc"
        if sides[i].conn is not None:
            raise ParseError("only a formula can be in focus")
        sides[i] = leaf(_flip(sides[i].leaf))
    return Sequent(*sides)


# ---------------------------------------------------------------------------
# Companion-calculus rules


def _premise_root(rule) -> tuple[str, str]:
    """(side, connective) at the structural root of a rule's premise pattern."""
    p = rule.schema.premises[0]
    return ("pre", p.pre.conn) if isinstance(p.pre, SNode) else ("suc", p.suc.conn)


# The table rules are the fD.LG binary logical rules and the display
# postulates of `rules.ORBIT_DPS`, binary and without variants.  A one-premise
# one acts on the root of one side of its premise, which `_ROOTS` names.
_LOGICAL_RULES = frozenset(r.name for r in REGISTRY.values()
                           if r.klass in ("translation", "tonicity"))
_ROOTS = {r.name: _premise_root(r) for r in REGISTRY.values()
          if r.klass == "translation" or r in ORBIT_DPS}
_SIDE_WORDS = {"suc": "right", "pre": "left"}
_DEFOCUS_ERRORS = {"suc": "mu* defocuses a positive succedent formula",
                   "pre": "mu* defocuses a negative precedent formula"}


def _arity(rule: str, ps, n: int) -> None:
    if len(ps) != n:
        raise TranslateError(f"{rule} takes {n} premise(s)")


def _at_own_polarity(x: Structure) -> bool:
    """Whether `x` is a formula leaf at its formula's own polarity: unshifted."""
    return x.conn is None and x.leaf.conn not in _SHIFTS


def _refocus(s: Sequent, side: str) -> Sequent:
    """`s` with the formula leaf on `side` flipped: the focus moves on or off it."""
    if side == "pre":
        return Sequent(leaf(_flip(s.pre.leaf)), s.suc)
    return Sequent(s.pre, leaf(_flip(s.suc.leaf)))


def apply_flg(rule: str, premises, selector: Atom | None = None,
              side: str | None = None) -> Sequent:
    """Forward application in the companion calculus; unique conclusion.

    Ax, mu* and mu~ are the companion's own rules; a mu premise that is not
    a companion sequent is a TranslateError of `_normal`.  Any other rule first
    passes the companion's checks on its premises (`_check_premises`), and
    is then the fD.LG rule of the same name.  `side` disambiguates mu~ when
    both a positive precedent formula and a negative succedent formula could
    take the focus.
    """
    ps = [p.conclusion if isinstance(p, Derivation) else p for p in premises]
    if rule == "Ax":
        _arity(rule, ps, 0)
        if selector is None:
            raise TranslateError("Ax needs an atom selector")
        return apply_rule_forward("p-Id" if selector.positive else "n-Id", [], selector)
    if rule == "mu*":
        _arity(rule, ps, 1)
        s = _normal(ps[0])
        focus = focus_of(s)
        if focus is None:
            raise TranslateError("mu* needs a focused premise")
        if not _at_own_polarity(getattr(s, focus)):
            raise TranslateError(_DEFOCUS_ERRORS[focus])
        return _refocus(s, focus)
    if rule == "mu~":
        _arity(rule, ps, 1)
        s = _normal(ps[0])
        if focus_of(s) is not None:
            raise TranslateError("mu~ needs an unfocused premise")
        pre_ok = _at_own_polarity(s.pre)
        if side == "pre" or (side is None and pre_ok):
            if not pre_ok:
                raise TranslateError("precedent is not a positive formula")
            return _refocus(s, "pre")
        if _at_own_polarity(s.suc):
            return _refocus(s, "suc")
        raise TranslateError("mu~ focuses a positive precedent or negative succedent formula")
    _check_premises(rule, ps)
    try:
        seq = apply_rule_forward(rule, ps)
    except KernelError:
        # past the checks, only a translation rule's root can have a non-formula argument
        raise TranslateError("expected a formula leaf") from None
    return _normal(seq)


def _check_premises(rule: str, ps) -> None:
    """The companion's checks of a table rule's premises, read off the fD.LG
    rule: their number, then a tonicity rule's focused sides, or the root of
    an unfocused premise.  Any "dp(" name is checked up to focus first."""
    if rule in TONICITY_PREMISES:
        _arity(rule, ps, 2)
        x, y = TONICITY_PREMISES[rule][1]
        if (focus_of(ps[0]), focus_of(ps[1])) != (x, y):
            wx, wy = _SIDE_WORDS[x], _SIDE_WORDS[y]
            raise TranslateError(f"{rule} needs two {wx}-focused premises" if x == y
                                 else f"{rule} needs {wx}- and {wy}-focused premises")
        return
    display = rule.startswith("dp(")
    if display or rule in _ROOTS:
        _arity(rule, ps, 1)
    if display and focus_of(ps[0]) is not None:
        raise TranslateError("display postulates apply in neutral phases only")
    if rule not in _ROOTS:
        raise TranslateError(f"unknown rule {rule!r}")
    where, conn = _ROOTS[rule]
    if focus_of(ps[0]) is not None or getattr(ps[0], where).conn != conn:
        raise TranslateError(f"{rule} wants a {conn}-rooted {where} side" if display else
                             f"{rule} wants an unfocused {conn}-rooted "
                             f"{'precedent' if where == 'pre' else 'succedent'}")


def check_flg(d: FlgDerivation) -> tuple[bool, str]:
    """Bottom-up schema check of a companion-calculus derivation; a table
    rule's node is matched by `rules.fits`, after the companion's checks."""
    for path, node in iter_nodes(d):
        rule, ps = node.rule, [p.conclusion for p in node.premises]
        try:
            if rule == "Ax":
                if ps:
                    return False, f"at {path}: Ax expects 0 premise(s), got {len(ps)}"
                a = node.conclusion.pre.leaf
                if a is not None and a.conn in _SHIFTS:
                    a = a.args[0]
                conc = apply_flg("Ax", [], selector=None if a is None else a.atom)
            elif rule in ("mu*", "mu~"):
                conc = apply_flg(rule, ps, side=focus_of(node.conclusion))
            else:
                _check_premises(rule, ps)
                if fits(REGISTRY[rule], node.conclusion, node.premises):
                    continue
                conc = apply_flg(rule, ps)      # its error, or the instance
        except (TranslateError, AttributeError) as e:
            return False, f"at {path}: {e}"
        if conc != node.conclusion:
            return False, f"at {path}: conclusion is not the {rule} instance"
    return True, "ok"


def logical_rule_count(d) -> int:
    """Applications of the six connective rules (either calculus)."""
    return sum(1 for n in nodes(d) if n.rule in _LOGICAL_RULES)


# ---------------------------------------------------------------------------
# From the companion calculus into the display calculus

# A processing section's (lower rule, upper rule) -> its pattern.
_PATTERNS = {
    ("s-down'", "down_L"): "defocus-neg",
    ("s-up'", "up_R"): "defocus-pos",
    ("down_R", "s-down"): "focus-neg",
    ("up_L", "s-up"): "focus-pos",
    ("down_R", "down_L"): "refocus-neg",
    ("up_L", "up_R"): "refocus-pos",
}
# A focusing rule and the side in focus -> the section that is its image; the
# refocusing sections are the images of mu* followed by mu~.
_SECTIONS = {("mu*", "pre"): ("s-down'", "down_L"), ("mu*", "suc"): ("s-up'", "up_R"),
             ("mu~", "suc"): ("down_R", "s-down"), ("mu~", "pre"): ("up_L", "s-up")}
_FOCUSING = {section: rule for (rule, _), section in _SECTIONS.items()}


def _pattern(d: Derivation) -> str | None:
    """The pattern of the processing section ending at `d`, if any."""
    return _PATTERNS.get((d.rule, d.premises[0].rule)) if d.premises else None


def _fd(rule: str, premises, expected: Sequent | None) -> Derivation:
    """`rule` applied to the premises; its conclusion must equal `expected`,
    which then stands in for it."""
    conc = apply_rule_forward(rule, [p.conclusion for p in premises])
    if expected is None:
        expected = conc
    elif conc != expected:
        raise TranslateError(f"{rule} image mismatch")
    return Derivation(rule, expected, tuple(premises))


def translate_to_fdlg(d: FlgDerivation) -> Derivation:
    """Image of a checked companion derivation; ends in the same sequent."""
    ok, why = check_flg(d)
    if not ok:
        raise TranslateError(f"input does not check: {why}")
    return fold(d, _to_fdlg)


def _to_fdlg(d: FlgDerivation, prems) -> Derivation:
    """Image of node `d`, given the images of its premises."""
    r = d.rule
    if r == "Ax":
        return Derivation("p-Id" if d.conclusion.pre.leaf.atom.positive else "n-Id",
                          d.conclusion)
    if r in _LOGICAL_RULES or r.startswith("dp("):
        return Derivation(r, d.conclusion, prems)   # the check matched the fD.LG rule here
    if r in ("mu*", "mu~"):
        focused = d.premises[0] if r == "mu*" else d
        lower, upper = _SECTIONS[r, focus_of(focused.conclusion)]
        return _fd(lower, [_fd(upper, prems, None)], d.conclusion)
    raise TranslateError(f"no image for rule {r!r}")


# ---------------------------------------------------------------------------
# From the display calculus back into the companion calculus


def classify_processing_sections(d: Derivation):
    """(node path, pattern) for each processing section of a minimal proof.

    A processing section is a two-rule block whose leaves and root are normal
    sequents; the dotted variants share a pattern name with their plain form,
    suffixed with '.' when the displayed side is shifted.
    """
    out = []
    consumed = set()
    for path, node in iter_nodes(d):
        if path in consumed:
            continue
        patt = _pattern(node)
        if patt is None:
            if REGISTRY[node.rule].klass in ("shift", "struct"):
                raise TranslateError(
                    f"unmatched shift section at {path}: the proof is not minimal")
            continue
        consumed.add(path + (0,))
        if patt == "focus-neg" and node.conclusion.pre.sort.shifted:
            patt = "focus-neg."
        if patt == "focus-pos" and node.conclusion.suc.sort.shifted:
            patt = "focus-pos."
        out.append((path, patt))
    return out


def translate_to_flg(d: Derivation) -> FlgDerivation:
    """Companion image of a display-calculus proof of a normal sequent; `d`
    must pass `check_derivation`.

    Minimizes the input first; normal rules map to themselves and processing
    sections to one or two focusing moves.
    """
    d = minimize_proof(d)
    if not is_normal(d.conclusion):
        raise TranslateError("end-sequent is not normal")
    return fold(d, _to_flg, _flg_children)


def _flg(rule: str, premises, expected: Sequent, selector=None) -> FlgDerivation:
    """`rule` applied to the premises; its conclusion must equal `expected`,
    which then stands in for it."""
    conc = apply_flg(rule, premises, selector=selector)
    if conc != expected:
        raise TranslateError(f"{rule} back-translation mismatch "
                             f"({render_flg_sequent(conc)} vs {render_flg_sequent(expected)})")
    return FlgDerivation(rule, expected, tuple(premises))


def _flg_children(d: Derivation):
    """A processing section's image hangs on the section's upper premise."""
    return d.premises if _pattern(d) is None else d.premises[0].premises


def _to_flg(d: Derivation, prems) -> FlgDerivation:
    """Companion image of node `d`, given the images of its children."""
    target = _normal(d.conclusion)
    r = d.rule
    if r in ("p-Id", "n-Id"):
        return _flg("Ax", [], target, selector=target.pre.leaf.atom)
    if _pattern(d) is not None:
        section = (r, d.premises[0].rule)
        if section in _FOCUSING:
            return _flg(_FOCUSING[section], prems, target)
        (inner,) = prems
        step = FlgDerivation("mu*", apply_flg("mu*", [inner]), (inner,))
        return _flg("mu~", [step], target)
    if r in _LOGICAL_RULES or r.startswith("dp("):
        # minimize_proof checked this node, so past the companion's checks
        # it is its own image
        _check_premises(r, [p.conclusion for p in prems])
        return FlgDerivation(r, target, prems)
    raise TranslateError(f"rule {r!r} has no companion image "
                         f"(unmatched section: input not minimal?)")


# ---------------------------------------------------------------------------
# Exchange format


def flg_to_json(d: FlgDerivation, neg_atoms) -> str:
    return write_document(d, {"calculus": "flg", "negAtoms": sorted(neg_atoms)},
                          render_flg_sequent)


def flg_from_json(text: str) -> tuple[FlgDerivation, frozenset[str]]:
    doc, neg = read_document(text)
    if doc.get("calculus") != "flg":
        raise ParseError('expected a "calculus": "flg" document')
    return read_nodes(doc, lambda rule, conclusion, premises: FlgDerivation(
        rule, parse_flg_sequent(conclusion, neg), premises)), neg
