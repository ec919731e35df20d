"""Sorted syntax: formulas, structures, sequents, concrete grammar, symmetries.

Terms come in four sorts (positive/negative x pure/shifted).  Connectives are
registered with fixed sort signatures and every Formula/Structure/Sequent is
validated at construction time, so values are well-sorted by construction and
safe to share.  "General" (either-purity) sorts exist only as argument specs,
never as a stored sort.  At import the signatures are compiled into one table
from a connective and the sorts of its arguments to the target sort, so a
well-sorted node costs one lookup; a miss falls through to the full check,
which raises the error that names the connective, the arity or the argument.

Only the eight operational connectives, with their family and order type,
their structural counterparts and the two shift adjoints are written out.
The twelve l/r-variants' signatures, the variant groups, FAMILY, ORDER_TYPE,
STRUCT_OF_OP and both symmetries' tables are derived from them at import,
and a sequent's turnstile kind is a function of its two sorts
(sequent_kind).

Sort, Atom, Formula, Structure and Sequent are immutable slotted values that
cache their hash (Formula, Structure and Sequent on first use).  The hash is
part of the determinism contract: it equals the hash of the field tuple less
the field that is None, e.g. hash((conn, args)) for a Formula with a
connective and hash((atom, ())) for an atom, so under a fixed PYTHONHASHSEED
set and dict iteration, and with it the order of search results, does not
depend on how terms are stored, nor on the process (before Python 3.12,
hash(None) is the address of None).

bowtie and infty share with their input every subterm that they map to
itself, so bowtie(x) is x can hold.  A formula or structure that a call maps
as a proper subterm keeps its image in a slot, `_bowtie` or `_infty`, and a
node that a call builds holds its source there, its image as both maps are
involutions.  So a subterm shared within or across calls is mapped once, and
bowtie(bowtie(x)) is x.  The root of a call keeps no image, so a caller who
drops the image frees it.  A SequentReader, which reads the sequents of one
text, likewise makes equal terms of all of them one object, through tables
that live as long as it does.  Identity of terms means nothing beyond speed:
compare terms with ==, which ignores the slots, as do hash, pickle and copy.

Atom names are ASCII identifiers, [A-Za-z_][A-Za-z0-9_']*.  Any other
character outside a connective, a parenthesis or the turnstile is a
ParseError that gives its offset.
"""

from __future__ import annotations

import re
from itertools import product
from operator import attrgetter
from typing import Iterator


class SortError(ValueError):
    """Ill-sorted term, or inadmissible precedent/succedent sort pair."""


class ParseError(ValueError):
    """Lexical or grammatical error in the concrete syntax."""


# ---------------------------------------------------------------------------
# Immutable values: sorts, terms, sequents


class _Term:
    """Immutable slotted value: fields are set once, in the constructor,
    through the slot descriptors bound below each class."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, tuple(getattr(self, n) for n in self._fields))


def _setters(cls) -> tuple:
    """The `__set__` of each slot of cls, in `__slots__` order: a direct slot
    store that bypasses the class's raising `__setattr__`."""
    return tuple(cls.__dict__[n].__set__ for n in cls.__slots__)


# ---------------------------------------------------------------------------
# Sorts


class Sort(_Term):
    """A polarity and a purity.  Its hash is cached: hash((positive,
    shifted)), the hash of the field tuple."""

    __slots__ = ("positive", "shifted", "_hash")
    _fields = ("positive", "shifted")

    def __init__(self, positive: bool, shifted: bool):
        _SORT_POSITIVE(self, positive)
        _SORT_SHIFTED(self, shifted)
        _SORT_HASH(self, hash((positive, shifted)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Sort:
            return NotImplemented
        return self.positive == other.positive and self.shifted == other.shifted

    def __repr__(self) -> str:
        pol = "positive" if self.positive else "negative"
        return ("shifted " if self.shifted else "pure ") + pol


_SORT_POSITIVE, _SORT_SHIFTED, _SORT_HASH = _setters(Sort)

PP = Sort(True, False)    # pure positive
PS = Sort(True, True)     # shifted positive
NP = Sort(False, False)   # pure negative
NS = Sort(False, True)    # shifted negative

# An argument spec is (polarity, shifted-or-None); None accepts both purities.
_ANY_P = (True, None)
_ANY_N = (False, None)


# ---------------------------------------------------------------------------
# Connective registry
#
# Operational tokens:  *  (+)  \  /  (/)  (\)  up  dn
# Structural tokens carry a leading dot; the twelve l/r-variants and the two
# shift adjoints (.upl, .dnr) exist only at the structural layer.

OP_SIG: dict[str, tuple[Sort, tuple[tuple[bool, bool | None], ...]]] = {
    "*": (PP, (_ANY_P, _ANY_P)),
    "(/)": (PP, (_ANY_P, _ANY_N)),
    "(\\)": (PP, (_ANY_N, _ANY_P)),
    "(+)": (NP, (_ANY_N, _ANY_N)),
    "\\": (NP, (_ANY_P, _ANY_N)),
    "/": (NP, (_ANY_N, _ANY_P)),
    "dn": (PS, ((False, False),)),
    "up": (NS, ((True, False),)),
}

# Family F holds the left adjoints/residuals, G the right ones; in an order
# type, 1 is a covariant and 'd' a contravariant coordinate.
_OP_TYPES = {"*": ("F", (1, 1)), "(/)": ("F", (1, "d")), "(\\)": ("F", ("d", 1)),
             "(+)": ("G", (1, 1)), "\\": ("G", ("d", 1)), "/": ("G", (1, "d")),
             "dn": ("G", (1,)), "up": ("F", (1,))}

STRUCT_SIG: dict[str, tuple[Sort, tuple[tuple[bool, bool | None], ...]]] = {
    ".*": (PP, (_ANY_P, _ANY_P)),
    ".(/)": (PP, (_ANY_P, _ANY_N)),
    ".(\\)": (PP, (_ANY_N, _ANY_P)),
    ".(+)": (NP, (_ANY_N, _ANY_N)),
    ".\\": (NP, (_ANY_P, _ANY_N)),
    "./": (NP, (_ANY_N, _ANY_P)),
    ".dn": (PS, ((False, False),)),
    ".dnr": (PP, ((False, True),)),
    ".up": (NS, ((True, False),)),
    ".upl": (NP, ((True, True),)),
}
# The l (r) variant of a binary connective takes its argument 0 (1) at the
# opposite polarity and targets the shifted sort of the opposite polarity;
# the G-connectives' variants come first.
for _c in sorted((c for c, (_, specs) in OP_SIG.items() if len(specs) == 2),
                 key=lambda c: _OP_TYPES[c][0] == "F"):
    _target, _specs = OP_SIG[_c]
    for _i, _side in enumerate("lr"):
        STRUCT_SIG[f".{_c}{_side}"] = (NS if _target.positive else PS, tuple(
            (pol != (j == _i), sh) for j, (pol, sh) in enumerate(_specs)))

STRUCT_OF_OP = {c: "." + c for c in OP_SIG}
OP_OF_STRUCT = {v: k for k, v in STRUCT_OF_OP.items()}

VARIANT_STRUCTS = frozenset(t for t in STRUCT_SIG
                            if t not in OP_OF_STRUCT and t not in (".upl", ".dnr"))
SHIFT_ADJOINTS = frozenset((".upl", ".dnr"))
STRUCT_SHIFTS = frozenset((".up", ".upl", ".dn", ".dnr"))

# Variant group for each structural connective: its base, then the base's
# variants or shift adjoint, named by a suffix.  Used when a substituted
# argument changes purity or polarity and the node has to be relabelled.
_GROUPS: dict[str, tuple[str, ...]] = {}
for _t in STRUCT_SIG:
    _b = _t if _t in OP_OF_STRUCT else _t[:-1]
    _GROUPS[_b] = _GROUPS.get(_b, ()) + (_t,)
GROUP_OF = {t: g for g in _GROUPS.values() for t in g}

# A connective of either layer has the family and order type of its base.
FAMILY: dict[str, str] = {t: fam for c, (fam, _) in _OP_TYPES.items()
                          for t in (c, *_GROUPS["." + c])}
ORDER_TYPE: dict[str, tuple] = {t: order for c, (_, order) in _OP_TYPES.items()
                                for t in (c, *_GROUPS["." + c])}
_ANTITONE = {c: tuple(t != 1 for t in o) for c, o in ORDER_TYPE.items()}  # sign flips


def skeleton(conn: str, sign: bool) -> bool:
    """Whether a node of connective `conn` signed `sign` (True = +) is
    skeleton in a signed generation tree: an F-connective signed +, or a
    G-connective signed -.  Every other node, atoms included, is PIA."""
    return (FAMILY[conn] == "F") == sign


def display_side(conn: str, i: int) -> str:
    """The side of a sequent on which argument i of `conn` is displayed: the
    precedent for a covariant argument of an F-connective or an antitone one
    of a G-connective, else the succedent."""
    return "pre" if (FAMILY[conn] == "F") == (ORDER_TYPE[conn][i] == 1) else "suc"


# The two residuation law shapes over variables 0, 1, 2.  A clause
# (group, i, j, k, left) is the sequent with the group's connective over
# (v_i, v_j) on the left of v_k if `left`, else on its right; in a model, the
# connective's value at (v_i, v_j) lies below v_k, or above it.  A law says
# that its three clauses are interderivable, or hold together.
#   product:    x*y <= z    iff  y <= x\z     iff  x <= z/y
#   coproduct:  x <= m(+)n  iff  x(/)n <= m   iff  m(\)x <= n
_RESIDUATION_SHAPES = (
    ((".*", 0, 1, 2, True), (".\\", 0, 2, 1, False), ("./", 2, 1, 0, False)),
    ((".(+)", 1, 2, 0, False), (".(/)", 0, 2, 1, True), (".(\\)", 1, 0, 2, True)),
)


def _residuation_laws() -> tuple:
    """Each shape at each polarity assignment of its variables for which all
    three groups have a member taking arguments of those polarities: the two
    base laws and six mixing in the variants.  A law is the variables'
    polarities and its clauses, each group resolved to that member."""
    member = {(GROUP_OF[c][0], tuple(pol for pol, _ in specs)): c
              for c, (_, specs) in STRUCT_SIG.items() if len(specs) == 2}
    laws = []
    for shape, pols in product(_RESIDUATION_SHAPES, product((True, False), repeat=3)):
        clauses = tuple((member.get((group, (pols[i], pols[j]))), i, j, k, left)
                        for group, i, j, k, left in shape)
        if all(conn is not None for conn, *_ in clauses):
            laws.append((pols, clauses))
    return tuple(laws)


RESIDUATION_LAWS = _residuation_laws()


# ---------------------------------------------------------------------------
# Terms


class Atom(_Term):
    __slots__ = ("name", "positive", "_hash")
    _fields = ("name", "positive")

    def __init__(self, name: str, positive: bool):
        _A_NAME(self, name)
        _A_POSITIVE(self, positive)
        _A_HASH(self, hash((name, positive)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Atom:
            return NotImplemented
        return self.name == other.name and self.positive == other.positive

    def __repr__(self) -> str:
        return f"{self.name}{'' if self.positive else '-'}"


_A_NAME, _A_POSITIVE, _A_HASH = _setters(Atom)


def _fits(s: Sort, spec) -> bool:
    """Whether sort s meets an argument spec (polarity, purity)."""
    pol, sh = spec
    return s.positive == pol and (sh is None or s.shifted == sh)


def _check_args(conn: str, sig, args, cls) -> Sort:
    target, specs = sig
    if len(args) != len(specs):
        raise SortError(f"{conn} takes {len(specs)} argument(s), got {len(args)}")
    for i, spec in enumerate(specs):
        if type(args[i]) is not cls:
            raise SortError(f"argument {i + 1} of {conn} must be a {cls.__name__}, "
                            f"got {type(args[i]).__name__}")
        if not _fits(args[i].sort, spec):
            pol, sh = spec
            want = Sort(pol, sh) if sh is not None else ("positive" if pol else "negative")
            raise SortError(f"argument {i + 1} of {conn} must be {want}, got {args[i].sort}")
    return target


def _sort_table(sig) -> dict:
    """(connective, id of each argument's sort) -> target sort, for every
    tuple of the four sorts that a connective of `sig` accepts.  The keys use
    the identity of the four module sorts, whose hash is C-level.

    A constructor looks its node up here first, if its arguments are of its
    own class.  Any miss (unknown connective, wrong arity, an argument of the
    wrong class or sort, a Sort object other than the four) falls through to
    the full check, which raises the same error, in the same order, as when
    there was no table."""
    table = {}
    for conn, (target, specs) in sig.items():
        for sorts in product((PP, PS, NP, NS), repeat=len(specs)):
            if all(_fits(s, spec) for s, spec in zip(sorts, specs)):
                table[(conn,) + tuple(map(id, sorts))] = target
    return table


_OP_SORTS = _sort_table(OP_SIG)
_STRUCT_SORTS = _sort_table(STRUCT_SIG)


class _Node(_Term):
    """A formula or structure; its slots are no fields (see _map)."""

    __slots__ = ("_bowtie", "_infty")

    def __repr__(self) -> str:
        return f"<{render(self)}>"


_N_BOWTIE, _N_INFTY = _setters(_Node)


class Formula(_Node):
    __slots__ = ("conn", "atom", "args", "sort", "_hash")
    _fields = ("conn", "atom", "args")

    def __init__(self, conn: str | None, atom: Atom | None = None,
                 args: tuple["Formula", ...] = ()):
        # conn is None for an atom
        if conn is None:
            if type(atom) is not Atom or args:
                raise SortError("atom formula must carry an Atom and no arguments")
            sort = PP if atom.positive else NP
        else:
            if atom is not None:
                raise SortError(f"a {conn} formula carries no atom")
            sort = None  # one lookup; a miss takes the full check below
            try:
                if len(args) == 2 and type(args[0]) is Formula is type(args[1]):
                    sort = _OP_SORTS.get((conn, id(args[0].sort), id(args[1].sort)))
                elif len(args) == 1 and type(args[0]) is Formula:
                    sort = _OP_SORTS.get((conn, id(args[0].sort)))
            except TypeError:
                pass  # an unsized argument tuple: the full check names it
            if sort is None:
                if conn not in OP_SIG:
                    raise SortError(f"unknown operational connective {conn!r}")
                sort = _check_args(conn, OP_SIG[conn], args, Formula)
        _F_CONN(self, conn)
        _F_ATOM(self, atom)
        _F_ARGS(self, args)
        _F_SORT(self, sort)
        _F_HASH(self, None)
        _N_BOWTIE(self, None)
        _N_INFTY(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.atom if self.conn is None else self.conn, self.args))
            _F_HASH(self, h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Formula:
            return NotImplemented
        return (self.conn == other.conn and self.atom == other.atom
                and self.args == other.args)


_F_CONN, _F_ATOM, _F_ARGS, _F_SORT, _F_HASH = _setters(Formula)


class Structure(_Node):
    __slots__ = ("conn", "leaf", "args", "sort", "_hash")
    _fields = ("conn", "leaf", "args")

    def __init__(self, conn: str | None, leaf: Formula | None = None,
                 args: tuple["Structure", ...] = ()):
        # conn is None for a formula leaf
        if conn is None:
            if type(leaf) is not Formula or args:
                raise SortError("leaf structure must carry a formula and no arguments")
            sort = leaf.sort
        else:
            if leaf is not None:
                raise SortError(f"a {conn} structure carries no formula leaf")
            sort = None  # one lookup; a miss takes the full check below
            try:
                if len(args) == 2 and type(args[0]) is Structure is type(args[1]):
                    sort = _STRUCT_SORTS.get((conn, id(args[0].sort), id(args[1].sort)))
                elif len(args) == 1 and type(args[0]) is Structure:
                    sort = _STRUCT_SORTS.get((conn, id(args[0].sort)))
            except TypeError:
                pass  # an unsized argument tuple: the full check names it
            if sort is None:
                if conn not in STRUCT_SIG:
                    raise SortError(f"unknown structural connective {conn!r}")
                sort = _check_args(conn, STRUCT_SIG[conn], args, Structure)
        _S_CONN(self, conn)
        _S_LEAF(self, leaf)
        _S_ARGS(self, args)
        _S_SORT(self, sort)
        _S_HASH(self, None)
        _N_BOWTIE(self, None)
        _N_INFTY(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.leaf if self.conn is None else self.conn, self.args))
            _S_HASH(self, h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Structure:
            return NotImplemented
        return (self.conn == other.conn and self.leaf == other.leaf
                and self.args == other.args)


_S_CONN, _S_LEAF, _S_ARGS, _S_SORT, _S_HASH = _setters(Structure)


def fatom(name: str, positive: bool = True) -> Formula:
    return Formula(None, Atom(name, positive))


def f(conn: str, *args: Formula) -> Formula:
    return Formula(conn, None, tuple(args))


def leaf(formula: Formula) -> Structure:
    return Structure(None, formula)


def s(conn: str, *args: Structure) -> Structure:
    return Structure(conn, None, tuple(args))


# The three admissible-but-underivable sort pairs keep their kind codes so
# reports can name them; everything negative|-positive is rejected outright.
UNDERIVABLE_KINDS = frozenset(("r_", "b.", "n:"))


def sequent_kind(pre: Sort, suc: Sort) -> str:
    """The turnstile kind of a sequent whose sides have sorts pre and suc.

    Codes: family 'r' (positive), 'b' (negative), 'n' (neutral), plus a
    purity marker: '' both pure, '_' shifted|-pure, '.' pure|-shifted,
    ':' both shifted.
    """
    fam = "n" if pre.positive != suc.positive else "r" if pre.positive else "b"
    return fam + ("", ".", "_", ":")[2 * pre.shifted + suc.shifted]


class Sequent(_Term):
    __slots__ = ("pre", "suc", "_hash")
    _fields = ("pre", "suc")

    def __init__(self, pre: Structure, suc: Structure):
        if type(pre) is not Structure or type(suc) is not Structure:
            side, x = ("precedent", pre) if type(pre) is not Structure else ("succedent", suc)
            raise SortError(f"{side} of a sequent must be a Structure, got {type(x).__name__}")
        if not pre.sort.positive and suc.sort.positive:
            raise SortError("negative precedent with positive succedent is not a sequent")
        _Q_PRE(self, pre)
        _Q_SUC(self, suc)
        _Q_HASH(self, None)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.pre, self.suc))
            _Q_HASH(self, h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Sequent:
            return NotImplemented
        return self.pre == other.pre and self.suc == other.suc

    @property
    def kind(self) -> str:
        """Turnstile kind, a pure function of the sort pair (sequent_kind)."""
        return sequent_kind(self.pre.sort, self.suc.sort)

    def __repr__(self) -> str:
        return f"<{render_sequent(self)}>"

    def __str__(self) -> str:
        return render_sequent(self)


_Q_PRE, _Q_SUC, _Q_HASH = _setters(Sequent)


def signed_nodes(x: Structure | Formula, sign: bool = True, below=None) -> Iterator[tuple]:
    """(path, node, sign) for every node of a structure or formula, in
    pre-order from left to right, by an explicit stack.  With `below`, the
    walk goes below a node only where below(node) is true:
    `attrgetter("conn")`, for one, stops it at leaf structures.  A rule
    pattern, whose connective nodes also have `conn` and `args`, is walked
    with a `below` that stops at its metavariables.

    The path of a node is the tuple of argument indices from `x` down to it.
    A leaf structure and its formula share a path, the leaf coming first,
    and the formula's arguments continue that path: these are the positions
    of kernel.struct_at.  `x` has sign `sign` (True = +); an argument at an
    antitone position (ORDER_TYPE[conn][i] != 1) has the opposite sign of its
    parent, any other argument the same."""
    stack = [((), x, sign)]
    while stack:
        item = stack.pop()
        yield item
        path, node, sg = item
        if below is not None and not below(node):
            continue
        conn = node.conn
        if conn is None:
            if node.__class__ is Structure:
                stack.append((path, node.leaf, sg))
            continue
        args = node.args                # one or two: push the right one first
        flips = _ANTITONE[conn]
        if len(args) == 2:
            stack.append((path + (1,), args[1], sg ^ flips[1]))
        stack.append((path + (0,), args[0], sg ^ flips[0]))


def signed_partition(roots) -> tuple[dict, list]:
    """The signed generation trees of `roots`, (key, term, sign) triples, and
    their partition into maximal skeleton and PIA components.

    The label map takes the position (key, path) of every connective and
    atom, in pre-order, to (label, sign, is_atom); a leaf structure gives way
    to its formula, which shares its path.  An atom is PIA but joins its
    parent's component.  The components are (kind, set of positions),
    ordered by root: by key, then breadth-first."""
    labels: dict = {}
    for key, x, sign in roots:
        for path, node, sg in signed_nodes(x, sign):
            if node.conn is not None:
                labels[key, path] = (node.conn, sg, False)
            elif node.__class__ is Formula:
                labels[key, path] = (node.atom.name, sg, True)
    comp_of: dict = {}
    comps: list[tuple[str, set]] = []
    for pos in sorted(labels, key=lambda p: (p[0], len(p[1]), p[1])):
        label, sign, is_atom = labels[pos]
        kind = "pia" if is_atom or not skeleton(label, sign) else "skeleton"
        key, path = pos
        cid = comp_of.get((key, path[:-1])) if path else None
        if cid is not None and (is_atom or comps[cid][0] == kind):
            comps[cid][1].add(pos)
        else:
            cid = len(comps)
            comps.append((kind, {pos}))
        comp_of[pos] = cid
    return labels, comps


def formula_nodes(x: Sequent | Structure | Formula) -> list[Formula]:
    """Every formula node of a sequent, structure or formula, repeats
    included, in pre-order from left to right."""
    parts = (x.pre, x.suc) if x.__class__ is Sequent else (x,)
    return [node for part in parts for _, node, _ in signed_nodes(part)
            if node.__class__ is Formula]


# ---------------------------------------------------------------------------
# Concrete syntax

# The deepest nesting the readers accept: parentheses plus prefix shifts in
# term text, and premises below the root of a derivation document.  Deeper
# input is rejected with a ParseError.  Derivation walks and signed_nodes use
# explicit stacks, and a rule pattern's compiled matcher and builder have its
# fixed depth.  The term walks that still recurse are one walk per job over
# formulas and structures alike, looking through a leaf to its formula.  They
# take one frame a level (the printers _text and translate._text, the
# companion reader translate._read, _map, standardize._standard) or two,
# where the recursive call sits in a comprehension or generator expression
# (the reader _read, algebra._values, str_of, form_of) or, for a
# parenthesis, in the parser's unary and term.  This keeps every command on
# input that reads below Python's default limit of 1000 frames.
MAX_NESTING = 256

# One regex for every token: an ASCII identifier, or an operator or
# punctuation token, longest first, where a token that ends in a letter must
# not run on into an identifier character ('.up' never swallows the 'l' of
# '.upl', and '.upx' is no token).  Whitespace between tokens is skipped; any
# other character matches the last group and is an error.
_IDENT_CHAR = "[A-Za-z0-9_']"
_OPERATORS = "|".join(
    re.escape(t) + (f"(?!{_IDENT_CHAR})" if t[-1].isalpha() else "")
    for t in sorted(list(OP_SIG) + list(STRUCT_SIG) + ["|-", "(", ")"],
                    key=len, reverse=True)
    if not t[0].isalpha())
_TOKEN_RE = re.compile(rf"([A-Za-z_]{_IDENT_CHAR}*|{_OPERATORS})|(\S)")


def _tokenize(text: str) -> list[str]:
    out = []
    for m in _TOKEN_RE.finditer(text):
        tok = m.group(1)
        if tok is None:
            raise ParseError(f"unexpected character {m.group(2)!r} at offset {m.start()}")
        out.append(tok)
    return out


class _Parser:
    """Recursive-descent parser over the mixed operational/structural grammar.

    Binary connectives are non-associative: nesting requires parentheses.
    Prefix shifts bind tighter than any binary connective.
    """

    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def term(self):
        t = self.unary()
        nxt = self.peek()
        if nxt is not None and (nxt in OP_SIG or nxt in STRUCT_SIG) and len(ORDER_TYPE[nxt]) == 2:
            self.take()
            rhs = self.unary()
            after = self.peek()
            if after is not None and (after in OP_SIG or after in STRUCT_SIG) and len(ORDER_TYPE.get(after, ())) == 2:
                raise ParseError(f"binary connectives do not associate; parenthesize before {after!r}")
            return (nxt, t, rhs)
        return t

    def unary(self):
        tok = self.peek()
        if tok in ("(", "up", "dn", ".up", ".upl", ".dn", ".dnr"):
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"term nested more than {MAX_NESTING} levels deep")
            if tok == "(":
                inner = self.term()
                if self.take() != ")":
                    raise ParseError("expected ')'")
            else:
                inner = (tok, self.unary())
            self.depth -= 1
            return inner
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok in OP_SIG or tok in STRUCT_SIG or tok in ("|-", ")"):
            raise ParseError(f"unexpected token {tok!r}")
        self.take()
        return tok  # identifier

    def done(self) -> bool:
        return self.pos == len(self.toks)


def _read(raw, neg: frozenset[str], structural: bool, table: dict):
    """The term of parse_raw's tuples: a structure if `structural`, else a
    formula.  In a structure, an atom or an operational connective begins a
    formula leaf.  `table` holds the terms read into it: an atom formula
    under its name, a compound term under its connective and the ids of its
    arguments, which are read into the same table first, and a leaf under the
    id of its formula.  So equal terms read into one table are one object,
    and a term equal to one read before is not built again."""
    if isinstance(raw, str):
        x = table.get(raw)
        if x is None:
            x = table[raw] = fatom(raw, raw not in neg)
    else:
        conn = raw[0]
        struct = conn in STRUCT_SIG
        if struct and not structural:
            raise ParseError(f"structural connective {conn!r} inside a formula")
        args = tuple([_read(a, neg, struct, table) for a in raw[1:]])
        key = (conn, *map(id, args))
        x = table.get(key)
        if x is None:
            x = table[key] = (Structure if struct else Formula)(conn, None, args)
        if struct:
            return x
    if not structural:
        return x
    y = table.get(id(x))
    if y is None:
        y = table[id(x)] = Structure(None, x)
    return y


def parse_raw(text: str):
    """One term of the mixed grammar as nested tuples (connective, *args),
    with atoms as strings."""
    p = _Parser(_tokenize(text))
    raw = p.term()
    if not p.done():
        raise ParseError(f"trailing input at token {p.peek()!r}")
    return raw


def parse_formula(text: str, neg_atoms=()) -> Formula:
    return _read(parse_raw(text), frozenset(neg_atoms), False, {})


def parse_structure(text: str, neg_atoms=()) -> Structure:
    return _read(parse_raw(text), frozenset(neg_atoms), True, {})


class SequentReader:
    """Reads the sequents of one text, such as an exchange document, over
    one set of negative atoms.  It keeps two tables for as long as it lives:
    each side's text, with the structure read from it, and every term read,
    so that a side text repeated is read once and equal terms of all the
    sequents read are one object."""

    def __init__(self, neg_atoms=()):
        self._neg = frozenset(neg_atoms)
        self._terms: dict = {}
        self._sides: dict[str, Structure] = {}

    def structure(self, text: str) -> Structure:
        x = self._sides.get(text)
        if x is None:
            x = self._sides[text] = _read(parse_raw(text), self._neg, True, self._terms)
        return x

    def sequent(self, text: str) -> Sequent:
        if "|-" not in text:
            raise ParseError("a sequent needs a |- turnstile")
        left, _, right = text.partition("|-")
        return Sequent(self.structure(left), self.structure(right))


def parse_sequent(text: str, neg_atoms=()) -> Sequent:
    return SequentReader(neg_atoms).sequent(text)


# ---------------------------------------------------------------------------
# Printing


def _text(x: Structure | Formula, names: dict, atom, nested: bool = False) -> str:
    """A formula or structure in the concrete syntax, each connective spelled
    by `names` and each atom name by `atom`.  Binary connectives do not
    associate, so a binary argument is parenthesized (`nested`); the rule
    looks through a leaf structure to its formula."""
    conn = x.conn
    if conn is None:
        if x.__class__ is Structure:
            x = x.leaf
            conn = x.conn
        if conn is None:
            return atom(x.atom.name)
    args = x.args
    if len(args) == 1:
        return f"{names[conn]} {_text(args[0], names, atom, True)}"
    out = f"{_text(args[0], names, atom, True)} {names[conn]} {_text(args[1], names, atom, True)}"
    return f"({out})" if nested else out


_TOKENS = {c: c for c in (*OP_SIG, *STRUCT_SIG)}

_LATEX = {
    "*": r"\otimes", "(+)": r"\oplus", "\\": r"\backslash", "/": r"/",
    "(/)": r"\varoslash", "(\\)": r"\varobslash",
    "up": r"\uparrow", "dn": r"\downarrow",
    ".up": r"\hat{\uparrow}", ".upl": r"\hat{\upharpoonleft}",
    ".dn": r"\check{\downarrow}", ".dnr": r"\check{\downharpoonright}",
}
for _b, _l in ((".*", r"\hat{\otimes}"), (".(+)", r"\check{\oplus}"),
               (".\\", r"\check{\backslash}"), ("./", r"\check{/}"),
               (".(/)", r"\hat{\varoslash}"), (".(\\)", r"\hat{\varobslash}")):
    _LATEX[_b] = _l
    _LATEX[_b + "l"] = _l + r"_{\ell}"
    _LATEX[_b + "r"] = _l + r"_{r}"
_LATEX_ATOM = r"\mathit{{{}}}".format

_LATEX_TURNSTILE = {
    "": r"\vdash", "_": r"\text{\d{$\Vdash$}}", ".": r"\dot{\Vdash}", ":": r"\Vvdash",
}
_LATEX_COLOR = {"r": "red", "b": "blue", "n": "black"}


def render_sequent(x: Sequent) -> str:
    return f"{_text(x.pre, _TOKENS, str)} |- {_text(x.suc, _TOKENS, str)}"


def render(x, style: str = "ascii", color: bool = False) -> str:
    """A formula, structure or sequent in ascii or latex; with `color`, a
    latex turnstile takes the color of its family."""
    if style == "ascii":
        return render_sequent(x) if x.__class__ is Sequent else _text(x, _TOKENS, str)
    if style != "latex":
        raise ValueError(f"unknown style {style!r}")
    if x.__class__ is not Sequent:
        return _text(x, _LATEX, _LATEX_ATOM)
    kind = x.kind
    stile = _LATEX_TURNSTILE[kind[1:]]
    if color:
        stile = rf"\textcolor{{{_LATEX_COLOR[kind[0]]}}}{{{stile}}}"
    return f"{_text(x.pre, _LATEX, _LATEX_ATOM)} {stile} {_text(x.suc, _LATEX, _LATEX_ATOM)}"


# ---------------------------------------------------------------------------
# The two Lambek-Grishin symmetries
#
# bowtie is the order-preserving left/right symmetry; infty the order-reversing
# dual.  Both are involutions; bowtie preserves sorts, infty flips polarity and
# keeps purity.  On sequents, infty also swaps the two sides (the turnstile
# kind follows from the sorts).


def _involution(*pairs) -> dict:
    """Connective -> (image, whether the arguments trade places: for both
    symmetries, iff binary), from the pairs of operational connectives that
    map to each other.  Their groups map member to member, base to base and
    l to r where the arguments trade places.  Built so, the table is an
    involution, which the back-links of _map rely on."""
    table = {}
    for c, d in pairs:
        swap = len(ORDER_TYPE[c]) == 2
        image = _GROUPS["." + d]
        if swap:
            image = (image[0], image[2], image[1])
        for x, y in zip((c, *_GROUPS["." + c]), (d, *image)):
            table[x] = (y, swap)
            table[y] = (x, swap)
    return table


_BOWTIE = _involution(("*", "*"), ("(+)", "(+)"), ("\\", "/"), ("(/)", "(\\)"),
                      ("up", "up"), ("dn", "dn"))
_INFTY = _involution(("*", "(+)"), ("\\", "(/)"), ("/", "(\\)"), ("up", "dn"))


def _map(x, sym):
    """Image of a formula or structure under a symmetry, one frame a level.
    `sym` is the table, whether atoms flip, and the read and write of the
    slot.  An image in the slot of x is returned as is.  Else the arguments'
    images, each kept in its argument's slot, make the image, and a node
    built keeps x in its own slot: as both maps are involutions, x is its
    image.  x keeps none, so the image lives only as long as the caller holds
    it.  A node whose image keeps its connective and argument objects is
    returned itself, as is an atom formula when atoms keep their sign."""
    table, flip_atoms, get, put = sym
    y = get(x)
    if y is not None:
        return y
    conn = x.conn
    if conn is None and x.__class__ is Formula:
        if not flip_atoms:
            return x
        y = Formula(None, Atom(x.atom.name, not x.atom.positive))
    else:
        args = x.args or (x.leaf,)
        new = []
        for a in args:
            m = get(a)
            if m is None:
                m = _map(a, sym)
                put(a, m)
            new.append(m)
        conn2, swap = table[conn] if conn else (None, False)
        if swap:
            new.reverse()
        if conn2 == conn and new[0] is args[0] and new[-1] is args[-1]:
            return x
        y = x.__class__(conn2, None, tuple(new)) if conn else Structure(None, new[0])
    put(y, x)
    return y


_BOWTIE_SYM = (_BOWTIE, False, attrgetter("_bowtie"), _N_BOWTIE)
_INFTY_SYM = (_INFTY, True, attrgetter("_infty"), _N_INFTY)


def bowtie(x):
    """Left/right symmetry; sort-preserving involution."""
    if x.__class__ is not Sequent:
        return _map(x, _BOWTIE_SYM)
    pre, suc = _map(x.pre, _BOWTIE_SYM), _map(x.suc, _BOWTIE_SYM)
    return x if pre is x.pre and suc is x.suc else Sequent(pre, suc)


def infty(x):
    """Order-reversing dual; flips atom polarity and swaps sequent sides."""
    if x.__class__ is not Sequent:
        return _map(x, _INFTY_SYM)
    return Sequent(_map(x.suc, _INFTY_SYM), _map(x.pre, _INFTY_SYM))


# ---------------------------------------------------------------------------
# Bounded enumeration (used by property tests and the model-checking sweeps)


def _levels(leaves: list, depth: int, sig: dict, make) -> Iterator:
    """Terms of at most `depth` levels over `leaves`: each level applies the
    connectives of `sig`, in order, to the argument tuples that fit their specs
    and take an argument from the level below.

    Each term is built once.  The leaves are yielded as given, but paired
    without their repeats, so every level's terms are distinct, and so are
    the levels.  A binary connective pairs the i-th term of the level below
    with the older terms and with that level's terms from the i-th on, in
    both orders: a pair of that level's i-th and j-th terms with j < i was
    already made, in the same order, at the j-th."""
    yield from leaves
    older: list = []
    frontier = list(dict.fromkeys(leaves))
    for _ in range(2, depth + 1):
        level: list = []
        for conn, (_, specs) in sig.items():
            if len(specs) == 1:
                level.extend(make(conn, None, (a,)) for a in frontier if _fits(a.sort, specs[0]))
                continue
            sl, sr = specs
            fits = [(b, _fits(b.sort, sl), _fits(b.sort, sr)) for b in older + frontier]
            old, new = fits[:len(older)], fits[len(older):]
            for i, (a, al, ar) in enumerate(new):
                if not (al or ar):
                    continue
                for b, bl, br in old + new[i:]:
                    if al and br:
                        level.append(make(conn, None, (a, b)))
                    if ar and bl and b is not a:
                        level.append(make(conn, None, (b, a)))
        older = older + frontier
        frontier = level
        yield from level


def iter_formulas(atoms: tuple[Atom, ...], depth: int) -> Iterator[Formula]:
    """The formulas of at most `depth` levels over `atoms`, level by level;
    `depth` is at least 1, checked at the call."""
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    return _levels([Formula(None, a) for a in atoms], depth, OP_SIG, Formula)


def iter_structures(atoms: tuple[Atom, ...], depth: int,
                    include_variants: bool = True) -> Iterator[Structure]:
    """Exhaustive up to the bound; the space grows fast, keep depth small.
    The leaves are the formulas of `iter_formulas(atoms, depth)`, which checks
    the depth at the call."""
    sig = {c: t for c, t in STRUCT_SIG.items()
           if include_variants or (c not in VARIANT_STRUCTS and c not in SHIFT_ADJOINTS)}
    return _levels([leaf(x) for x in iter_formulas(atoms, depth)], depth, sig, Structure)
