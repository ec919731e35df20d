"""Term symmetries, bounded enumeration, the sort check and the tokenizer
in their straightforward form, kept as the reference.

`fdlg.syntax` maps each node of a symmetry image once, shares the nodes that
map to themselves, and checks argument sorts before it builds a candidate
term.  This module keeps the straightforward version: every node is rebuilt,
one map per term class, and candidates are built and dropped when the
constructor raises `SortError`.  `fdlg.syntax` looks a node's sort up in a
table compiled from the signatures; `node_sort` here runs the full check on
every node.  `fdlg.syntax` tokenizes with one regex; `tokenize` here tries
each token in turn at every character.  The differential tests require both
to give equal terms, in the same order, the same sorts and tokens, and the
same errors.
"""

from __future__ import annotations

from typing import Iterator

from fdlg.syntax import (OP_SIG, SHIFT_ADJOINTS, STRUCT_SIG, VARIANT_STRUCTS,
                         _BOWTIE, _INFTY, Atom, Formula, ParseError, Sequent,
                         SortError, Structure, _check_args, f, fatom, leaf, s)


def node_sort(cls, conn, args):
    """Sort of a new non-leaf node of class cls by the full check alone: the
    connective, then the arity, then each argument in turn, its class (that
    of the node) before its sort."""
    if cls is Formula:
        sig, what = OP_SIG, "operational"
    else:
        sig, what = STRUCT_SIG, "structural"
    if conn not in sig:
        raise SortError(f"unknown {what} connective {conn!r}")
    return _check_args(conn, sig[conn], args, cls)


_TOKENS = sorted(
    list(OP_SIG) + list(STRUCT_SIG) + ["|-", "(", ")"],
    key=len, reverse=True)
_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_'")


def tokenize(text: str) -> list[str]:
    """The scanning tokenizer; it loops on a non-ASCII letter, so feed it
    ASCII only."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            out.append(text[i:j])
            i = j
            continue
        for tok in _TOKENS:
            if tok[0].isalpha():
                continue
            if text.startswith(tok, i):
                j = i + len(tok)
                if tok[-1].isalpha() and j < n and text[j] in _IDENT_CHARS:
                    continue
                out.append(tok)
                i = j
                break
        else:
            raise ParseError(f"unexpected character {text[i]!r} at offset {i}")
    return out


def _map_formula(x: Formula, table, flip_atoms: bool) -> Formula:
    if x.conn is None:
        a = x.atom
        return fatom(a.name, not a.positive if flip_atoms else a.positive)
    conn2, swap = table[x.conn]
    args = tuple(_map_formula(a, table, flip_atoms) for a in x.args)
    if swap and len(args) == 2:
        args = (args[1], args[0])
    return Formula(conn2, None, args)


def _map_structure(x: Structure, table, flip_atoms: bool) -> Structure:
    if x.conn is None:
        return leaf(_map_formula(x.leaf, table, flip_atoms))
    conn2, swap = table[x.conn]
    args = tuple(_map_structure(a, table, flip_atoms) for a in x.args)
    if swap and len(args) == 2:
        args = (args[1], args[0])
    return Structure(conn2, None, args)


def bowtie(x):
    if isinstance(x, Formula):
        return _map_formula(x, _BOWTIE, False)
    if isinstance(x, Structure):
        return _map_structure(x, _BOWTIE, False)
    return Sequent(_map_structure(x.pre, _BOWTIE, False),
                   _map_structure(x.suc, _BOWTIE, False))


def infty(x):
    if isinstance(x, Formula):
        return _map_formula(x, _INFTY, True)
    if isinstance(x, Structure):
        return _map_structure(x, _INFTY, True)
    return Sequent(_map_structure(x.suc, _INFTY, True),
                   _map_structure(x.pre, _INFTY, True))


def iter_formulas(atoms: tuple[Atom, ...], depth: int) -> Iterator[Formula]:
    older: list[Formula] = []
    frontier: list[Formula] = [Formula(None, a) for a in atoms]
    yield from frontier
    for _ in range(2, depth + 1):
        level: list[Formula] = []
        both = older + frontier
        for conn, (_, specs) in OP_SIG.items():
            if len(specs) == 1:
                for a in frontier:
                    try:
                        level.append(f(conn, a))
                    except SortError:
                        pass
            else:
                for a in frontier:
                    for b in both:
                        for l, r in ((a, b),) if a is b else ((a, b), (b, a)):
                            try:
                                level.append(f(conn, l, r))
                            except SortError:
                                pass
        seen = set()
        level = [x for x in level if not (x in seen or seen.add(x))]
        older = both
        frontier = level
        yield from level


def iter_structures(atoms: tuple[Atom, ...], depth: int,
                    include_variants: bool = True) -> Iterator[Structure]:
    conns = [c for c in STRUCT_SIG
             if include_variants or (c not in VARIANT_STRUCTS and c not in SHIFT_ADJOINTS)]
    older: list[Structure] = []
    frontier: list[Structure] = [leaf(fml) for fml in iter_formulas(atoms, depth)]
    yield from frontier
    for _ in range(2, depth + 1):
        level: list[Structure] = []
        both = older + frontier
        for conn in conns:
            arity = len(STRUCT_SIG[conn][1])
            if arity == 1:
                for a in frontier:
                    try:
                        level.append(s(conn, a))
                    except SortError:
                        pass
            else:
                for a in frontier:
                    for b in both:
                        for l, r in ((a, b),) if a is b else ((a, b), (b, a)):
                            try:
                                level.append(s(conn, l, r))
                            except SortError:
                                pass
        seen = set()
        level = [x for x in level if not (x in seen or seen.add(x))]
        older = both
        frontier = level
        yield from level
