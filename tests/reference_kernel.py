"""The exchange reader and identity expansion in their earlier forms, kept
as the reference.

`fdlg.kernel.derivation_from_json` reads all the conclusions of a document
through one `syntax.SequentReader`, which reads a repeated side text once and
makes equal terms one object.  This module keeps the reader that parsed every
conclusion from scratch, building a fresh term for each node of each side.
The differential tests require both to give equal derivations, node for
node, and the same ParseError messages.

`fdlg.kernel.identity_expansion` checks that both standard transforms are
defined once, at the root.  This module keeps the expansion that checked
them again on every structure it recursed into, so quadratically in the
depth; the differential test requires the same derivation or error.

`fdlg.kernel.check_derivation` first checks every node in one walk without
paths.  This module keeps the check that sorted every node's path by length
before checking any, matching each node with `reference_rules.match_rule`; the
differential test requires the same report on derivations with corrupted
nodes.
"""

from __future__ import annotations

from fdlg.kernel import (_EXPANSION, CheckReport, Derivation, KernelError, _fold, derive,
                         iter_nodes, read_document, read_nodes)
from fdlg.rules import REGISTRY
from fdlg.standardize import ftoM, ftom, str_of
from fdlg.syntax import (STRUCT_SIG, Formula, ParseError, Sequent, Structure, f, fatom,
                         leaf, parse_raw, render_sequent, s)

from reference_rules import match_rule


def _read(raw, neg: frozenset[str], structural: bool):
    if isinstance(raw, str):
        x = fatom(raw, raw not in neg)
        return leaf(x) if structural else x
    conn = raw[0]
    if conn in STRUCT_SIG:
        if not structural:
            raise ParseError(f"structural connective {conn!r} inside a formula")
        return s(conn, *[_read(a, neg, True) for a in raw[1:]])
    x = f(conn, *[_read(a, neg, False) for a in raw[1:]])
    return leaf(x) if structural else x


def parse_formula(text: str, neg_atoms=()) -> Formula:
    return _read(parse_raw(text), frozenset(neg_atoms), False)


def parse_structure(text: str, neg_atoms=()) -> Structure:
    return _read(parse_raw(text), frozenset(neg_atoms), True)


def parse_sequent(text: str, neg_atoms=()) -> Sequent:
    if "|-" not in text:
        raise ParseError("a sequent needs a |- turnstile")
    left, _, right = text.partition("|-")
    return Sequent(parse_structure(left, neg_atoms), parse_structure(right, neg_atoms))


def derivation_from_json(text: str) -> tuple[Derivation, frozenset[str]]:
    doc, neg = read_document(text)
    return read_nodes(doc, lambda rule, conclusion, premises: Derivation(
        rule, parse_sequent(conclusion, neg), premises)), neg


def identity_expansion(psi: Structure) -> Derivation:
    ftom(psi), ftoM(psi)                  # raise StandardizeError if undefined
    if psi.conn is None:
        a = psi.leaf
        if a.conn is None:
            return derive("p-Id" if a.atom.positive else "n-Id", selector=a.atom)
        return identity_expansion(str_of(a))
    c = psi.conn
    if c in (".dn", ".up"):     # over  Form(D) |- hi(D)  and  lo(X) |- Form(X)
        return derive("down_L" if c == ".dn" else "up_R", identity_expansion(psi.args[0]))
    if c not in _EXPANSION:
        raise KernelError(f"identity expansion undefined at {c!r}")
    rule, (side_l, side_r) = _EXPANSION[c]
    return derive(rule, _fold(identity_expansion(psi.args[0]), side_l),
                  _fold(identity_expansion(psi.args[1]), side_r))


def check_derivation(d: Derivation) -> CheckReport:
    """Bottom-up schema check; reports the uppermost failing node."""
    nodes = sorted(iter_nodes(d), key=lambda pn: len(pn[0]), reverse=True)
    for path, node in nodes:
        rule = REGISTRY.get(node.rule)
        if rule is None:
            return CheckReport(False, path, f"unknown rule {node.rule!r}")
        if rule.arity != len(node.premises):
            return CheckReport(False, path,
                               f"{node.rule} expects {rule.arity} premise(s), got {len(node.premises)}")
        env = match_rule(node.rule, node.conclusion, [p.conclusion for p in node.premises])
        if env is None:
            return CheckReport(False, path,
                               f"{render_sequent(node.conclusion)} is not an instance of {node.rule}")
    return CheckReport(True)
