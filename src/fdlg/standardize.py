"""Standard-sequent transforms.

ftom turns the principal skeleton of a positively signed structure
structural and everything else operational; ftoM is its negatively signed
dual.  Both are partial: l/r-variants and shift adjoints have no operational
counterpart, so a blocking occurrence leaves the transform undefined.  Both
are one walk over the mixed tree of structures and their formula leaves,
`_standard`, which takes the sign of the occurrence and flips it at an
antitone argument, where ftom and ftoM swap.  Skeleton and PIA are read from
`syntax.skeleton`, as in `focus`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (Formula, Structure, Sequent, leaf, signed_partition, skeleton, _ANTITONE,
                     STRUCT_OF_OP, OP_OF_STRUCT)


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


def _standard(x, sign: bool) -> Structure:
    """ftom of a structure or formula signed `sign` (True = +), or ftoM if
    negative; a leaf is looked through to its formula.  A skeleton node
    turns structural, each argument transformed at its own sign, flipped at
    an antitone coordinate; an atom stays, and a PIA node turns operational
    throughout."""
    conn = x.conn
    if conn is None and x.__class__ is Structure:
        if x.leaf.conn is None or not skeleton(x.leaf.conn, sign):
            return x
        x = x.leaf
        conn = x.conn
    if conn is None or not skeleton(conn, sign):
        return leaf(form_of(x) if x.__class__ is Structure else x)
    args = []
    for a, flip in zip(x.args, _ANTITONE[conn]):
        args.append(_standard(a, sign ^ flip))
    return Structure(conn if x.__class__ is Structure else STRUCT_OF_OP[conn], None, tuple(args))


def ftom(psi: Structure) -> Structure:
    """Lower standard transform; defined unless a variant/adjoint blocks it."""
    return _standard(psi, True)


def ftoM(psi: Structure) -> Structure:
    """Upper standard transform, the dual of ftom."""
    return _standard(psi, False)


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


def principal_subtree(psi: Structure, sign: bool = True) -> PrincipalSubtree:
    """Largest same-kind subtree of the signed generation tree at the root:
    the root's component in `syntax.signed_partition`, without its atoms, so
    a bare atom's is PIA and empty."""
    labels, components = signed_partition((("psi", psi, sign),))
    kind, members = components[0]
    return PrincipalSubtree(kind, frozenset(pos[1] for pos in members if not labels[pos][2]))
