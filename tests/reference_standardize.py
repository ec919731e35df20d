"""The standard transforms read directly off the principal subtree, an
independent definition of `fdlg.standardize.ftom`/`ftoM`.
`test_standardize` requires both definitions to agree.
"""

from __future__ import annotations

from fdlg.standardize import StandardizeError, principal_subtree
from fdlg.syntax import Formula, Structure, leaf, OP_OF_STRUCT, STRUCT_OF_OP


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
