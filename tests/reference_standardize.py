"""Two other definitions of `fdlg.standardize.ftom`/`ftoM`.

`ftom_direct`/`ftoM_direct` read the transforms directly off the principal
subtree.  `lo`/`hi` are the transforms as they read before one walk with a
sign argument replaced them: one recursion per sign, each handing an
antitone argument to the other, with the skeleton test written out in each
and a skeleton formula leaf first read all-structurally by `str_of`.
`test_standardize` requires every definition to agree.
"""

from __future__ import annotations

from fdlg.standardize import StandardizeError, form_of, principal_subtree, str_of
from fdlg.syntax import (FAMILY, ORDER_TYPE, Formula, Structure, leaf, OP_OF_STRUCT,
                         STRUCT_OF_OP)


def lo(x: Structure) -> Structure:
    # positively signed occurrence
    if x.conn is None:
        a = x.leaf
        if a.conn is None:
            return x
        if FAMILY[a.conn] == "F":
            return lo(str_of(a))
        return x                           # +G formula: PIA, stays operational
    if FAMILY[x.conn] == "F":
        args = []
        for i, arg in enumerate(x.args):
            t = lo if ORDER_TYPE[x.conn][i] == 1 else hi
            args.append(t(arg))
        return Structure(x.conn, None, tuple(args))
    return leaf(form_of(x))                # +G structure: operationalize throughout


def hi(x: Structure) -> Structure:
    # negatively signed occurrence
    if x.conn is None:
        a = x.leaf
        if a.conn is None:
            return x
        if FAMILY[a.conn] == "G":
            return hi(str_of(a))
        return x                           # -F formula: PIA, stays operational
    if FAMILY[x.conn] == "G":
        args = []
        for i, arg in enumerate(x.args):
            t = hi if ORDER_TYPE[x.conn][i] == 1 else lo
            args.append(t(arg))
        return Structure(x.conn, None, tuple(args))
    return leaf(form_of(x))                # -F structure: operationalize throughout


def _rebuild(psi: Structure, keep: frozenset, structural: bool, path=()):
    """Direct reading of the transform: principal-subtree nodes become
    structural (if the subtree is skeleton) or operational; all other
    connectives become operational."""
    if psi.conn is None:
        fml = psi.leaf
        return _rebuild_formula(fml, keep, structural, path)
    in_tree = path in keep
    args = tuple(_rebuild(a, keep, structural, path + (i,))
                 for i, a in enumerate(psi.args))
    if in_tree and structural:
        return Structure(psi.conn, None, args)
    op = OP_OF_STRUCT.get(psi.conn)
    if op is None:
        raise StandardizeError(f"{psi.conn!r} has no operational counterpart")
    if any(a.conn is not None for a in args):
        raise StandardizeError("operational node over structural arguments")
    return leaf(Formula(op, None, tuple(a.leaf for a in args)))


def _rebuild_formula(fml: Formula, keep: frozenset, structural: bool, path):
    if fml.conn is None:
        return leaf(fml)
    in_tree = path in keep
    args = tuple(_rebuild_formula(a, keep, structural, path + (i,))
                 for i, a in enumerate(fml.args))
    if in_tree and structural:
        return Structure(STRUCT_OF_OP[fml.conn], None, args)
    if any(a.conn is not None for a in args):
        raise StandardizeError("operational node over structural arguments")
    return leaf(Formula(fml.conn, None, tuple(a.leaf for a in args)))


def ftom_direct(psi: Structure) -> Structure:
    tree = principal_subtree(psi, True)
    return _rebuild(psi, tree.paths, tree.kind == "skeleton")


def ftoM_direct(psi: Structure) -> Structure:
    tree = principal_subtree(psi, False)
    return _rebuild(psi, tree.paths, tree.kind == "skeleton")
