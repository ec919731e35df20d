"""Standard-sequent transforms.

ftom (written lo below) turns the principal skeleton of a positively signed
structure structural and everything else operational; ftoM is its negatively
signed dual.  Both are partial: l/r-variants and shift adjoints have no
operational counterpart, so a blocking occurrence leaves the transform
undefined.  The recursion is sign-driven: a contravariant argument swaps
transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (Formula, Structure, Sequent, leaf, signed_nodes,
                     FAMILY, ORDER_TYPE, STRUCT_OF_OP, OP_OF_STRUCT)


class StandardizeError(ValueError):
    """The transform is undefined on this structure."""


def str_of(a: Formula) -> Structure:
    """All-structural reading of a formula."""
    if a.conn is None:
        return leaf(a)
    return Structure(STRUCT_OF_OP[a.conn], None, tuple(str_of(x) for x in a.args))


def form_of(x: Structure) -> Formula:
    """All-operational reading of a structure; partial."""
    if x.conn is None:
        return x.leaf
    op = OP_OF_STRUCT.get(x.conn)
    if op is None:
        raise StandardizeError(f"{x.conn!r} has no operational counterpart")
    return Formula(op, None, tuple(form_of(a) for a in x.args))


def _lo(x: Structure) -> Structure:
    # positively signed occurrence
    if x.conn is None:
        a = x.leaf
        if a.conn is None:
            return x
        if FAMILY[a.conn] == "F":
            return _lo(str_of(a))
        return x                           # +G formula: PIA, stays operational
    if FAMILY[x.conn] == "F":
        args = []
        for i, arg in enumerate(x.args):
            t = _lo if ORDER_TYPE[x.conn][i] == 1 else _hi
            args.append(t(arg))
        return Structure(x.conn, None, tuple(args))
    return leaf(form_of(x))                # +G structure: operationalize throughout


def _hi(x: Structure) -> Structure:
    # negatively signed occurrence
    if x.conn is None:
        a = x.leaf
        if a.conn is None:
            return x
        if FAMILY[a.conn] == "G":
            return _hi(str_of(a))
        return x                           # -F formula: PIA, stays operational
    if FAMILY[x.conn] == "G":
        args = []
        for i, arg in enumerate(x.args):
            t = _hi if ORDER_TYPE[x.conn][i] == 1 else _lo
            args.append(t(arg))
        return Structure(x.conn, None, tuple(args))
    return leaf(form_of(x))                # -F structure: operationalize throughout


def ftom(psi: Structure) -> Structure:
    """Lower standard transform; defined unless a variant/adjoint blocks it."""
    return _lo(psi)


def ftoM(psi: Structure) -> Structure:
    """Upper standard transform, the dual of ftom."""
    return _hi(psi)


def standard_sequent(seq: Sequent) -> Sequent:
    """ftom on the precedent, ftoM on the succedent; idempotent."""
    return Sequent(ftom(seq.pre), ftoM(seq.suc))


# ---------------------------------------------------------------------------
# The principal subtree, on which the direct definition of the transforms
# rests.


@dataclass(frozen=True)
class PrincipalSubtree:
    kind: str                  # 'skeleton' | 'pia'
    paths: frozenset           # structure-tree paths of its connective nodes


def _classify(conn: str, sign: bool) -> str:
    fam = FAMILY[conn]
    return "skeleton" if (sign and fam == "F") or (not sign and fam == "G") else "pia"


def principal_subtree(psi: Structure, sign: bool = True) -> PrincipalSubtree:
    """Largest same-kind subtree of the signed generation tree at the root."""
    nodes = {path: (node.conn, sg) for path, node, sg in signed_nodes(psi, sign)
             if node.conn is not None}
    if () not in nodes:
        return PrincipalSubtree("pia", frozenset())      # bare atom
    root_kind = _classify(*nodes[()])
    member = {(): True}
    paths = {()}
    for path in sorted(nodes, key=len):
        if path == ():
            continue
        parent = path[:-1]
        if member.get(parent) and _classify(*nodes[path]) == root_kind:
            member[path] = True
            paths.add(path)
        else:
            member[path] = False
    return PrincipalSubtree(root_kind, frozenset(paths))
