"""The companion focused calculus and the round-trip proof translations.

The mini-kernel implements exactly the rules the translations exercise: atomic
axioms, the focusing pair mu~ / mu* (each with a positive and a negative
instance, fixed by the polarity of the formula whose focus changes), and the
table rules: the six logical connective pairs and the residuation postulates
on unfocused sequents.  Polarization maps companion sequents one-to-one onto
the normal fD.LG sequents, and a table rule is the fD.LG rule of its name
read through it, after the companion's own checks, read off the schema.

Companion derivations are `fdlg.kernel.Derivation`s over `FlgSequent`s
(`FlgDerivation` is another name for that class), so both translations are
`kernel.fold`s and the exchange format is the kernel's `write_document`.

Polarization sends its formulas into the four-sorted language, shifts marking
every polarity mismatch; depolarization erases the shifts.  The printer
`render_companion`, the reader, `polarize` and `depolarize` are each one walk
over formulas and structures alike, looking through a leaf to its formula.

CFormula and FStruct are immutable slotted values, like Formula and
Structure, with the same cached hash and identity shortcut on ==.  Two slots,
which are no fields, keep a term's positive and negative polarization, filled
by `polarize` on first use and seeded by `depolarize` with the term it read:
a well-sorted term has each argument at its own sort's polarity, and
`flg_of_sequent`'s focus puts each side at its own sort's polarity, so
polarize(depolarize(x), x.sort.positive) == x.  A call of `depolarize`,
`flg_of_sequent` or `translate_to_flg` keeps one memo of depolarized images.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (OP_SIG, STRUCT_OF_OP, STRUCT_SIG, Formula, Structure, Sequent, Atom, leaf,
                     f as fnode, ParseError, parse_raw, _Term, _setters)
from .rules import ORBIT_DPS, REGISTRY, SNode, fits
from .kernel import (Derivation, KernelError, TONICITY_PREMISES, apply_rule_forward, derive,
                     fold, iter_nodes, read_document, read_nodes, write_document)
from .focus import minimize_proof


class TranslateError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Companion-calculus syntax.  Its formulas are single-sorted (no purity
# discipline, no shifts), so they get their own node type.

# The signature is fD.LG's binary one: a structural connective's arguments are
# inputs (positive) or outputs (negative), and it stands on its sort's side.
_CONNS = tuple(op for op, (_, specs) in OP_SIG.items() if len(specs) == 2)
_ARG_SIDES = {STRUCT_OF_OP[op]: tuple(pol for pol, _ in STRUCT_SIG[STRUCT_OF_OP[op]][1])
              for op in _CONNS}
_INPUT_CONNS = frozenset(conn for conn in _ARG_SIDES if STRUCT_SIG[conn][0].positive)
# Formula connective -> (polarity of each argument, its own polarity), read
# off its structural counterpart.
_POLARITY = {conn[1:]: (sides, conn in _INPUT_CONNS) for conn, sides in _ARG_SIDES.items()}


class _Companion(_Term):
    """A companion formula or structure; its slots hold its polarizations."""

    __slots__ = ("_neg", "_pos")


_CP_NEG, _CP_POS = _setters(_Companion)


class CFormula(_Companion):
    """A companion formula: an atom, or a connective of _CONNS over two
    companion formulas.  Immutable and slotted like Formula, with the same
    hash, cached on first use, and the same identity shortcut on ==."""

    __slots__ = ("conn", "atom", "args", "_hash")
    _fields = ("conn", "atom", "args")

    def __init__(self, conn: str | None, atom: Atom | None = None,
                 args: tuple["CFormula", ...] = ()):
        if conn is None:
            if atom is None or args:
                raise TranslateError("atomic formula carries an atom and nothing else")
        elif conn not in _CONNS or len(args) != 2:
            raise TranslateError(f"bad companion formula head {conn!r}")
        _C_CONN(self, conn)
        _C_ATOM(self, atom)
        _C_ARGS(self, args)
        _C_HASH(self, None)
        _CP_NEG(self, None)
        _CP_POS(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.atom if self.conn is None else self.conn, self.args))
            _C_HASH(self, h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not CFormula:
            return NotImplemented
        return (self.conn == other.conn and self.atom == other.atom
                and self.args == other.args)

    def __repr__(self) -> str:
        return f"<{render_companion(self)}>"


_C_CONN, _C_ATOM, _C_ARGS, _C_HASH = _setters(CFormula)


def catom(name: str, positive: bool = True) -> CFormula:
    return CFormula(None, Atom(name, positive))


def cf(conn: str, l: CFormula, r: CFormula) -> CFormula:
    return CFormula(conn, None, (l, r))


def parse_cformula(text: str, neg_atoms=()) -> CFormula:
    return _read(parse_raw(text), frozenset(neg_atoms), False)


def _read(r, neg: frozenset[str], structural: bool):
    """The companion term of parse_raw's tuples: a structure if
    `structural`, else a formula.  In a structure, an atom or a formula
    connective begins a formula leaf."""
    if isinstance(r, str):
        a = catom(r, r not in neg)
    elif r[0] in _CONNS:
        a = cf(r[0], _read(r[1], neg, False), _read(r[2], neg, False))
    elif not structural:
        raise ParseError(f"{r[0]!r} is not a companion formula connective")
    elif r[0] not in _ARG_SIDES:
        raise ParseError(f"{r[0]!r} is not a companion-calculus connective")
    else:
        return fs(r[0], _read(r[1], neg, True), _read(r[2], neg, True))
    return fleaf(a) if structural else a


def formula_polarity(a: CFormula) -> bool:
    """Positive iff the head is a product-family connective or a positive atom."""
    if a.conn is None:
        return a.atom.positive
    return _POLARITY[a.conn][1]


class FStruct(_Companion):
    """A companion structure: a formula leaf, or a structural connective
    over companion structures.  Immutable and slotted like Structure, with
    the same hash, cached on first use, and the same identity shortcut on
    ==."""

    __slots__ = ("conn", "leaf", "args", "_hash")
    _fields = ("conn", "leaf", "args")

    def __init__(self, conn: str | None, leaf: CFormula | None = None,
                 args: tuple["FStruct", ...] = ()):
        if conn is None:
            if leaf is None:
                raise TranslateError("leaf must carry a formula")
        elif conn not in _ARG_SIDES:
            raise TranslateError(f"unknown companion connective {conn!r}")
        _FS_CONN(self, conn)
        _FS_LEAF(self, leaf)
        _FS_ARGS(self, args)
        _FS_HASH(self, None)
        _CP_NEG(self, None)
        _CP_POS(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.leaf if self.conn is None else self.conn, self.args))
            _FS_HASH(self, h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not FStruct:
            return NotImplemented
        return (self.conn == other.conn and self.leaf == other.leaf
                and self.args == other.args)

    def __repr__(self) -> str:
        return f"FStruct(conn={self.conn!r}, leaf={self.leaf!r}, args={self.args!r})"

    @property
    def side(self) -> str | None:
        """'in', 'out', or None for a bare formula leaf."""
        if self.conn is None:
            return None
        return "in" if self.conn in _INPUT_CONNS else "out"


_FS_CONN, _FS_LEAF, _FS_ARGS, _FS_HASH = _setters(FStruct)


def fleaf(a: CFormula) -> FStruct:
    return FStruct(None, a)


def fs(conn: str, l: FStruct, r: FStruct) -> FStruct:
    for arg, positive in zip((l, r), _ARG_SIDES[conn]):
        if arg.side is not None and (arg.side == "in") != positive:
            raise TranslateError(f"argument of {conn} on the wrong side")
    return FStruct(conn, None, (l, r))


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
        if self.focus not in (None, "pre", "suc"):
            raise TranslateError("focus must be None, 'pre' or 'suc'")

    def __str__(self) -> str:
        return render_flg_sequent(self)


# Companion derivations are kernel derivations over companion sequents.
FlgDerivation = Derivation


def render_companion(x: CFormula | FStruct, nested: bool = False) -> str:
    """A companion formula or structure in the concrete syntax.  A compound
    argument is parenthesized (`nested`), and so is a compound formula
    leaf: the printer looks through a leaf to its formula, which it nests."""
    if x.__class__ is FStruct and x.conn is None:
        x, nested = x.leaf, True
    if x.conn is None:
        return x.atom.name
    l, r = x.args
    out = f"{render_companion(l, True)} {x.conn} {render_companion(r, True)}"
    return f"({out})" if nested else out


def render_flg_sequent(s: FlgSequent) -> str:
    """A companion sequent; the formula in focus is bracketed."""
    return " |- ".join(f"[{render_companion(x.leaf)}]" if s.focus == side else render_companion(x)
                       for side, x in (("pre", s.pre), ("suc", s.suc)))


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


def _arity(rule: str, ps, n: int) -> None:
    if len(ps) != n:
        raise TranslateError(f"{rule} takes {n} premise(s)")


def apply_flg(rule: str, premises, selector: Atom | None = None,
              side: str | None = None) -> FlgSequent:
    """Forward application in the companion calculus; unique conclusion.

    Ax, mu* and mu~ are the companion's own rules.  Any other rule first
    passes the companion's checks on its premises (`_check_premises`), and
    is then the fD.LG rule of the same name applied to their polarizations.
    `side` disambiguates mu~ when both a positive precedent formula and a
    negative succedent formula could take the focus.
    """
    ps = [p.conclusion if isinstance(p, Derivation) else p for p in premises]
    if rule == "Ax":
        _arity(rule, ps, 0)
        if selector is None:
            raise TranslateError("Ax needs an atom selector")
        a = fleaf(CFormula(None, selector))
        return (FlgSequent(a, a, "suc") if selector.positive
                else FlgSequent(a, a, "pre"))
    if rule == "mu*":
        _arity(rule, ps, 1)
        (s,) = ps
        if s.focus == "suc":
            if not formula_polarity(s.suc.leaf):
                raise TranslateError("mu* defocuses a positive succedent formula")
            return FlgSequent(s.pre, s.suc, None)
        if s.focus == "pre":
            if formula_polarity(s.pre.leaf):
                raise TranslateError("mu* defocuses a negative precedent formula")
            return FlgSequent(s.pre, s.suc, None)
        raise TranslateError("mu* needs a focused premise")
    if rule == "mu~":
        _arity(rule, ps, 1)
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
    _check_premises(rule, ps)
    try:
        seq = apply_rule_forward(rule, [polarize_sequent(s) for s in ps])
    except KernelError:
        # past the checks, only a translation rule's root can have a non-formula argument
        raise TranslateError("expected a formula leaf") from None
    return flg_of_sequent(seq)


def _check_premises(rule: str, ps) -> None:
    """The companion's checks of a table rule's premises, read off the fD.LG
    rule: their number, then a tonicity rule's focused sides, or the root of
    an unfocused premise.  Any "dp(" name is checked up to focus first."""
    if rule in TONICITY_PREMISES:
        _arity(rule, ps, 2)
        x, y = TONICITY_PREMISES[rule][1]
        if (ps[0].focus, ps[1].focus) != (x, y):
            wx, wy = _SIDE_WORDS[x], _SIDE_WORDS[y]
            raise TranslateError(f"{rule} needs two {wx}-focused premises" if x == y
                                 else f"{rule} needs {wx}- and {wy}-focused premises")
        return
    display = rule.startswith("dp(")
    if display or rule in _ROOTS:
        _arity(rule, ps, 1)
    if display and ps[0].focus is not None:
        raise TranslateError("display postulates apply in neutral phases only")
    if rule not in _ROOTS:
        raise TranslateError(f"unknown rule {rule!r}")
    where, conn = _ROOTS[rule]
    if ps[0].focus is not None or getattr(ps[0], where).conn != conn:
        raise TranslateError(f"{rule} wants a {conn}-rooted {where} side" if display else
                             f"{rule} wants an unfocused {conn}-rooted "
                             f"{'precedent' if where == 'pre' else 'succedent'}")


def check_flg(d: FlgDerivation) -> tuple[bool, str]:
    """Bottom-up schema check of a companion-calculus derivation; a table
    rule's node is matched through polarization by `rules.fits`, after the
    companion's checks."""
    for path, node in iter_nodes(d):
        rule, ps = node.rule, [p.conclusion for p in node.premises]
        try:
            if rule == "Ax":
                if ps:
                    return False, f"at {path}: Ax expects 0 premise(s), got {len(ps)}"
                atom = node.conclusion.pre.leaf.atom if node.conclusion.pre.conn is None else None
                conc = apply_flg("Ax", [], selector=atom)
            elif rule in ("mu*", "mu~"):
                conc = apply_flg(rule, ps, side=node.conclusion.focus)
            else:
                _check_premises(rule, ps)
                leaves = [Derivation(p.rule, polarize_sequent(p.conclusion)) for p in node.premises]
                if fits(REGISTRY[rule], polarize_sequent(node.conclusion), leaves):
                    continue
                conc = apply_flg(rule, ps)      # its error, or the instance
        except (TranslateError, AttributeError) as e:
            return False, f"at {path}: {e}"
        if conc != node.conclusion:
            return False, f"at {path}: conclusion is not the {rule} instance"
    return True, "ok"


def logical_rule_count(d) -> int:
    """Applications of the six connective rules (either calculus)."""
    return sum(1 for _, n in iter_nodes(d) if n.rule in _LOGICAL_RULES)


# ---------------------------------------------------------------------------
# Polarization


def polarize(x: CFormula | FStruct, positive: bool) -> Formula | Structure:
    """Positive or negative polarization of a companion formula or
    structure.  A formula is pure iff the polarity matches, and shifted
    otherwise; a structure's arguments take the polarity of their side, and
    a leaf polarizes its formula.  The image is kept in x's slot of that
    polarity, unless depolarize already put its input there."""
    y = x._pos if positive else x._neg
    if y is not None:
        return y
    conn = x.conn
    if x.__class__ is FStruct:
        if conn is None:
            y = leaf(polarize(x.leaf, positive))
        elif x.side != ("in" if positive else "out"):
            raise TranslateError(f"{conn} cannot occur on this side")
        else:
            y = Structure(conn, None, tuple([polarize(a, s)
                                             for a, s in zip(x.args, _ARG_SIDES[conn])]))
    else:
        if conn is None:
            y, own = Formula(None, x.atom), x.atom.positive
        else:
            sides, own = _POLARITY[conn]
            y = fnode(conn, *[polarize(a, s) for a, s in zip(x.args, sides)])
        if own != positive:
            y = fnode("dn", y) if positive else fnode("up", y)
    (_CP_POS if positive else _CP_NEG)(x, y)
    return y


def polarize_sequent(s: FlgSequent) -> Sequent:
    """The precedent polarizes positively and the succedent negatively, but a
    formula in focus takes the other polarity."""
    return Sequent(polarize(s.pre, s.focus != "pre"), polarize(s.suc, s.focus == "suc"))


def depolarize(x: Formula | Structure) -> CFormula | FStruct:
    """Erase the shifts: a formula gives a companion formula, a structure a
    companion structure, and a leaf a companion leaf of its formula's image.
    Fails on structural shifts and variants.  Each image it builds holds the
    term it was read from as its polarization at that term's polarity, so
    polarize(depolarize(x), x.sort.positive) is x."""
    return _depolarize(x, {})


def _depolarize(x, memo: dict):
    """depolarize, with the images of one call in `memo`, keyed by the term."""
    y = memo.get(x)
    if y is not None:
        return y
    conn = x.conn
    if x.__class__ is Structure:
        if conn is None:
            y = fleaf(_depolarize(x.leaf, memo))
        elif conn not in _ARG_SIDES:
            raise TranslateError(f"{conn} has no companion counterpart")
        else:
            y = fs(conn, *[_depolarize(a, memo) for a in x.args])
    elif conn in ("up", "dn"):
        y = _depolarize(x.args[0], memo)
    elif conn is None:
        y = CFormula(None, x.atom)
    else:
        y = CFormula(conn, None, tuple([_depolarize(a, memo) for a in x.args]))
    (_CP_POS if x.sort.positive else _CP_NEG)(y, x)
    memo[x] = y
    return y


def flg_of_sequent(seq: Sequent) -> FlgSequent:
    """Inverse of polarize_sequent; raises unless `seq` is normal.  The
    focus, read off the sequent's kind, puts each side at its own sort's
    polarity, so polarize_sequent of the result has `seq`'s sides."""
    return _flg_of_sequent(seq, {})


def _flg_of_sequent(seq: Sequent, memo: dict) -> FlgSequent:
    """flg_of_sequent, with the depolarized images of one call in `memo`."""
    focus = {"r": "suc", "b": "pre"}.get(seq.kind[0])
    if focus == "suc" and seq.suc.conn is not None:
        raise TranslateError("a positive normal sequent focuses its succedent formula")
    if focus == "pre" and seq.pre.conn is not None:
        raise TranslateError("a negative normal sequent focuses its precedent formula")
    return FlgSequent(_depolarize(seq.pre, memo), _depolarize(seq.suc, memo), focus)


def is_normal(seq: Sequent) -> bool:
    """Whether `seq` is the polarization of a companion sequent: whether
    flg_of_sequent accepts it."""
    try:
        flg_of_sequent(seq)
        return True
    except TranslateError:
        return False


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
    """Image of a checked companion derivation; ends in the polarized sequent.
    The image reuses the polarizations the check kept on the terms."""
    ok, why = check_flg(d)
    if not ok:
        raise TranslateError(f"input does not check: {why}")
    return fold(d, _to_fdlg)


def _to_fdlg(d: FlgDerivation, prems) -> Derivation:
    """Image of node `d`, given the images of its premises."""
    target = polarize_sequent(d.conclusion)
    r = d.rule
    if r == "Ax":
        atom = d.conclusion.pre.leaf.atom
        return derive("p-Id" if atom.positive else "n-Id", selector=atom)
    if r in _LOGICAL_RULES or r.startswith("dp("):
        return Derivation(r, target, prems)     # the check matched the fD.LG rule here
    if r in ("mu*", "mu~"):
        focused = d.premises[0] if r == "mu*" else d
        lower, upper = _SECTIONS[r, focused.conclusion.focus]
        return _fd(lower, [_fd(upper, prems, None)], target)
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
    memo: dict = {}
    return fold(d, lambda node, prems: _to_flg(node, prems, memo), _flg_children)


def _flg(rule: str, premises, expected: FlgSequent, selector=None) -> FlgDerivation:
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


def _to_flg(d: Derivation, prems, memo: dict) -> FlgDerivation:
    """Companion image of node `d`, given the images of its children."""
    target = _flg_of_sequent(d.conclusion, memo)
    r = d.rule
    if r in ("p-Id", "n-Id"):
        atom = d.conclusion.pre.leaf.atom
        return _flg("Ax", [], target, selector=atom)
    if _pattern(d) is not None:
        section = (r, d.premises[0].rule)
        if section in _FOCUSING:
            return _flg(_FOCUSING[section], prems, target)
        (inner,) = prems
        step = FlgDerivation("mu*", apply_flg("mu*", [inner]), (inner,))
        return _flg("mu~", [step], target)
    if r in _LOGICAL_RULES or r.startswith("dp("):
        # minimize_proof checked this node, so past the companion's checks
        # its image is the node read through polarization
        _check_premises(r, [p.conclusion for p in prems])
        return FlgDerivation(r, target, prems)
    raise TranslateError(f"rule {r!r} has no companion image "
                         f"(unmatched section: input not minimal?)")


# ---------------------------------------------------------------------------
# Exchange format


def flg_to_json(d: FlgDerivation, neg_atoms) -> str:
    return write_document(d, {"calculus": "flg", "negAtoms": sorted(neg_atoms)},
                          render_flg_sequent)


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


def flg_from_json(text: str) -> tuple[FlgDerivation, frozenset[str]]:
    doc, neg = read_document(text)
    if doc.get("calculus") != "flg":
        raise ParseError('expected a "calculus": "flg" document')
    return read_nodes(doc, lambda rule, conclusion, premises: FlgDerivation(
        rule, parse_flg_sequent(conclusion, neg), premises)), neg
