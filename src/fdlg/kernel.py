"""Derivation trees, schema checking by `rules.fits`, forward rule application.

One tree type, `Derivation`, serves both calculi: its conclusion is an fD.LG
`Sequent`, and a companion sequent is kept as its polarization, a normal
`Sequent` (`fdlg.translate`), so the same walks run over either.
`iter_nodes` lists the nodes in pre-order and `fold` computes bottom-up;
both keep an explicit stack, as do equality and hashing, so a derivation of
any height goes through them.  `write_document` writes the JSON exchange
format of either calculus.  `derivation_from_json` reads an fD.LG document
through one `syntax.SequentReader`, so that equal subterms of its
conclusions are one object; the reader's tables die with the call.

Also houses two derivation builders used by the completeness argument:
identity expansion on structures, and translation saturation of one side of
a sequent, whose display moves come from `rules.display_chain`.  The third, the
structural cut, lives in `fdlg.cutelim` beside the cut reductions it shares
with cut elimination.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .syntax import (Formula, Structure, Sequent, Atom, formula_nodes,
                     render, render_sequent, SequentReader, GROUP_OF,
                     ParseError, SortError, MAX_NESTING, _Term, _setters, display_side)
from .rules import (ORDERED_RULES, PRINCIPAL_LEFT, REGISTRY, TONICITY_RULES,
                    TRANSLATION_OF, FVar, MatchFail, _structural, display_chain, fits,
                    identify)
from .standardize import StandardizeError, form_of, ftoM, ftom, str_of


class KernelError(ValueError):
    pass


class Derivation(_Term):
    """A rule application over premise derivations, in either calculus."""

    __slots__ = ("rule", "conclusion", "premises", "_hash")
    _fields = ("rule", "conclusion", "premises")

    def __init__(self, rule: str, conclusion, premises: tuple["Derivation", ...] = ()):
        _D_RULE(self, rule)
        _D_CONCLUSION(self, conclusion)
        _D_PREMISES(self, premises)
        _D_HASH(self, None)

    def __hash__(self) -> int:
        if self._hash is None:
            # hash the unhashed nodes, premises first, so that each tuple
            # hash below reads cached premise hashes
            todo, stack = [], [self]
            while stack:
                node = stack.pop()
                if node._hash is None:
                    todo.append(node)
                    stack.extend(node.premises)
            for node in reversed(todo):
                _D_HASH(node, hash((node.rule, node.conclusion, node.premises)))
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not Derivation:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if x is y:
                continue
            if (x.rule != y.rule or x.conclusion != y.conclusion
                    or len(x.premises) != len(y.premises)):
                return False
            stack.extend(zip(x.premises, y.premises))
        return True

    def __repr__(self) -> str:
        return f"[{self.rule}: {self.conclusion}]"


_D_RULE, _D_CONCLUSION, _D_PREMISES, _D_HASH = _setters(Derivation)


def rule_count(d: Derivation) -> int:
    """Rule applications in a derivation; any depth."""
    return sum(1 for _ in iter_nodes(d))


def height(d: Derivation) -> int:
    return 1 + max(len(path) for path, _ in iter_nodes(d))


def iter_nodes(d: Derivation):
    """(path, node) for every node, in pre-order; iterative, so any depth."""
    stack = [((), d)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((path + (i,), node.premises[i]))


def fold(d: Derivation, step, children=None):
    """step(node, results of its children) at the root, computed in
    post-order, children left to right, with an explicit stack.  A node's
    children are its premises unless `children(node)` picks others."""
    results: list = []
    stack: list = [d]
    while stack:
        x = stack.pop()
        if x.__class__ is tuple:        # (node, children), their results on top
            node, kids = x
            start = len(results) - len(kids)
            args = tuple(results[start:])
            del results[start:]
            results.append(step(node, args))
        else:
            kids = x.premises if children is None else children(x)
            stack.append((x, kids))
            stack.extend(reversed(kids))
    return results[0]


def path_str(path: tuple[int, ...]) -> str:
    return ".".join(f"premises[{i}]" for i in path) or "(root)"


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    path: tuple[int, ...] | None = None
    reason: str | None = None

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return f"{path_str(self.path)}: {self.reason}"


def check_derivation(d: Derivation) -> CheckReport:
    """Bottom-up schema check; reports the uppermost failing node.

    A first walk checks every node without tracking paths; only when a node
    fails are the nodes sorted by depth, to report the uppermost failure."""
    stack = [d]
    while stack:
        node = stack.pop()
        rule = REGISTRY.get(node.rule)
        if rule is None or not fits(rule, node.conclusion, node.premises):
            break
        stack.extend(node.premises)
    else:
        return CheckReport(True)
    for path, node in sorted(iter_nodes(d), key=lambda pn: len(pn[0]), reverse=True):
        rule = REGISTRY.get(node.rule)
        if rule is None:
            return CheckReport(False, path, f"unknown rule {node.rule!r}")
        if rule.arity != len(node.premises):
            return CheckReport(False, path,
                               f"{node.rule} expects {rule.arity} premise(s), got {len(node.premises)}")
        if not fits(rule, node.conclusion, node.premises):
            return CheckReport(False, path,
                               f"{render_sequent(node.conclusion)} is not an instance of {node.rule}")


def apply_rule_forward(name: str, premises, selector: Atom | None = None) -> Sequent:
    """The unique conclusion of `name` applied to premise sequents.

    Axioms have no premises; `selector` supplies their atom.
    """
    rule = REGISTRY.get(name)
    if rule is None:
        raise KernelError(f"unknown rule {name!r}")
    if rule.arity != len(premises):
        raise KernelError(f"{name} expects {rule.arity} premise(s)")
    env: dict = {}
    if rule.klass == "axiom":
        if selector is None:
            raise KernelError(f"{name} needs an atom selector")
        env["a"] = Formula(None, selector)
    try:
        for pat, prem in zip(rule.schema.premises, premises):
            pat.match(prem, env)
        return rule.schema.conclusion.build(env)
    except MatchFail:
        raise KernelError(f"premises do not match the {name} schema") from None


def derive(name: str, *premises: Derivation, selector: Atom | None = None) -> Derivation:
    """Rule `name` applied forward to the premise derivations; axioms take
    their atom from `selector`."""
    return Derivation(name, apply_rule_forward(
        name, [p.conclusion for p in premises], selector), premises)


def make_cut(d1: Derivation, d2: Derivation) -> Derivation:
    """The cut of the four-rule inventory joining two derivations."""
    left, right = d1.conclusion, d2.conclusion
    a = left.suc
    if a.conn is not None or right.pre != a:
        raise KernelError("cut premises must share a displayed cut formula")
    if a.sort.positive:
        name = "P-Cut" if right.suc.sort.positive else "Pn-Cut"
    else:
        name = "N-Cut" if not left.pre.sort.positive else "nN-Cut"
    return derive(name, d1, d2)       # raises if they do not fit it


# ---------------------------------------------------------------------------
# Occurrence threading.  Positions are ('pre'|'suc', path); the path walks
# structure arguments first and continues into formula arguments once it
# crosses a leaf.  Threading a conclusion position upward either lands inside
# a premise or hits the rule template itself (the occurrence is principal).


def thread(d: Derivation, pos):
    """Follow an occurrence from `d`'s conclusion up to the node that
    introduces it: (chain, top, its position at top).  chain lists (node,
    conclusion position, premise index) from `d` up, excluding top, where the
    occurrence is principal (or an axiom atom)."""
    chain = []
    while True:
        res = REGISTRY[d.rule].thread_up(pos)
        if res[0] == "principal":
            return chain, d, pos
        i, up = res
        chain.append((d, pos, i))
        d, pos = d.premises[i], up


def struct_at(seq: Sequent, pos) -> Structure | Formula:
    side, path = pos
    cur = seq.pre if side == "pre" else seq.suc
    for i in path:
        if cur.conn is None and cur.__class__ is Structure:
            cur = cur.leaf              # the path goes on into the leaf's formula
        cur = cur.args[i]
    return cur


class MutationError(KernelError):
    pass


def subst_path(seq: Sequent, side: str, nodes, path, repl: Structure) -> Sequent:
    """`seq` with `repl` at `path` on `side`, where `nodes` are the structures
    on the path above it, from the side down.  Each connective on the way up
    whose argument sorts no longer fit is relabelled to the first member of
    its group that fits (the connective-level content of a mutation)."""
    for node, i in zip(reversed(nodes), reversed(path)):
        args = list(node.args)
        args[i] = repl
        try:
            repl = Structure(node.conn, None, tuple(args))
        except SortError:
            repl = _relabel(node.conn, tuple(args))
    try:
        return Sequent(repl, seq.suc) if side == "pre" else Sequent(seq.pre, repl)
    except SortError as e:
        raise MutationError(str(e)) from None


def _relabel(conn: str, args: tuple) -> Structure:
    for alt in GROUP_OF.get(conn, ()):
        if alt != conn:
            try:
                return Structure(alt, None, args)
            except SortError:
                pass
    raise MutationError(f"star propagation reaches {conn!r}, which has "
                        f"no mutation for the new argument sorts")


def transform_derivation(d: Derivation, seq_map) -> Derivation:
    """Map every sequent through `seq_map` and re-identify each rule, with
    both premise orders of a binary node (`rules.identify`).

    Fails if some node's image instantiates no rule; used for pushing proofs
    through the term symmetries.
    """
    def step(node: Derivation, prems) -> Derivation:
        conc = seq_map(node.conclusion)
        found = identify(conc, [prems, prems[::-1]] if len(prems) == 2 else [prems])
        if found is None:
            raise KernelError(f"image of {node.rule} instantiates no rule")
        return Derivation(found[0].name, conc, found[1])
    return fold(d, step)


# ---------------------------------------------------------------------------
# Exchange format.  A document's sequents differ from their neighbours' by a
# rule each, so the reader reads each distinct side text once and makes equal
# subterms one object, so the kernel check's matcher finds a metavariable's
# bindings equal by identity.  The tables belong to one read, and no term
# outlives its document through them.


def write_document(d: Derivation, header: dict, render) -> str:
    """The exchange text of `d`: exactly `json.dumps(doc, indent=1)` of the
    header's fields followed by the root node's, where a node is
    {"rule", "conclusion": render(its conclusion), "premises": [nodes]}.
    Written with an explicit stack, as the indenting encoder recurses."""
    out = ["{"]
    for key, value in header.items():
        text = json.dumps(value, indent=1).replace("\n", "\n ")
        out.append(f"\n {json.dumps(key)}: {text},")
    todo: list = [(d, "\n ")]     # (node, newline and indent of its keys) or text
    while todo:
        x = todo.pop()
        if x.__class__ is str:
            out.append(x)
            continue
        node, pad = x
        out.append(f'{pad}"rule": {json.dumps(node.rule)},'
                   f'{pad}"conclusion": {json.dumps(render(node.conclusion))},'
                   f'{pad}"premises": [')
        todo.append(pad + "]" if node.premises else "]")
        for i, p in enumerate(reversed(node.premises)):     # the last has no comma
            todo += (pad + (" }," if i else " }"), (p, pad + "  "), pad + " {")
    out.append("\n}")
    return "".join(out)


def derivation_to_json(d: Derivation, neg_atoms) -> str:
    """The exchange text of an fD.LG derivation; each distinct side object is
    printed once, into a memo by id for the call (`d` keeps every side)."""
    sides: dict = {}

    def side(x: Structure) -> str:
        return sides.get(id(x)) or sides.setdefault(id(x), render(x))
    return write_document(d, {"negAtoms": sorted(neg_atoms)},
                          lambda seq: f"{side(seq.pre)} |- {side(seq.suc)}")


def read_document(text: str) -> tuple[dict, frozenset[str]]:
    """The top-level object and the negative atoms of an exchange document;
    a malformed document raises ParseError."""
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ParseError("document nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("a derivation document must be a JSON object")
    neg = doc.get("negAtoms", [])
    if not (isinstance(neg, list) and all(isinstance(a, str) for a in neg)):
        raise ParseError("negAtoms must be a list of atom names")
    return doc, frozenset(neg)


def read_nodes(x, make):
    """make(rule, conclusion text, premises) over a document's node tree,
    premises first; a malformed node, or premises nested more than
    MAX_NESTING deep, raises ParseError."""
    def node(x, depth: int):
        if depth > MAX_NESTING:
            raise ParseError(f"premises nested more than {MAX_NESTING} levels deep")
        if not isinstance(x, dict):
            raise ParseError("a derivation node must be a JSON object")
        for key in ("rule", "conclusion"):
            if not isinstance(x.get(key), str):
                raise ParseError(f"a derivation node needs a string {key!r}")
        premises = x.get("premises", [])
        if not isinstance(premises, list):
            raise ParseError("premises must be a list")
        return make(x["rule"], x["conclusion"],
                    tuple(node(p, depth + 1) for p in premises))
    return node(x, 0)


def derivation_from_json(text: str) -> tuple[Derivation, frozenset[str]]:
    """A derivation document's tree and negative atoms.  One SequentReader
    reads all its conclusions, so a side text repeated is read once and equal
    terms are one object; its tables go when the read returns."""
    doc, neg = read_document(text)
    if "calculus" in doc:
        raise ParseError('a fD.LG derivation document has no "calculus" field')
    sequent = SequentReader(neg).sequent
    return read_nodes(doc, lambda rule, conclusion, premises: Derivation(
        rule, sequent(conclusion), premises)), neg


def neg_atoms_of(d: Derivation) -> frozenset[str]:
    return frozenset(x.atom.name for _, nd in iter_nodes(d)
                     for x in formula_nodes(nd.conclusion)
                     if x.conn is None and not x.atom.positive)


# ---------------------------------------------------------------------------
# Translation saturation: fold one side of the end-sequent into a formula by
# display moves plus translation rules.  Works on neutral sequents (and on the
# grey positive/negative forms whose only blocker is a structural shift at the
# root, which the invertible structural rules remove).


def saturate_translations(d: Derivation, side: str) -> Derivation:
    """Extend `d` until the chosen side of its end-sequent is a formula."""
    if side not in ("pre", "suc"):
        raise KernelError("side must be 'pre' or 'suc'")
    try:
        form_of(getattr(d.conclusion, side))
    except StandardizeError:
        raise KernelError("side contains a connective with no operational "
                          "counterpart") from None
    return _fold(d, side)


_SIDE_NAMES = {"pre": "precedent", "suc": "succedent"}


def _folds(conn: str, side: str) -> tuple:
    """Per argument of a `side` of root connective `conn` to fold first: its
    index, the display moves that make it a whole side, and that side.  A
    structural shift is taken off by the inverse of its structural rule, even
    around a formula, and its index is None.  A binary connective's moves are
    its display chains on a neutral sequent; the arguments displayed in the
    precedent are folded first, then the rest in index order."""
    if conn in (".dn", ".up"):
        return ((None, ("s-down'" if conn == ".dn" else "s-up'",), side),)
    folds = [(i, display_chain(conn, side == "suc", None, (i,))[0], display_side(conn, i))
             for i in (0, 1)]
    return tuple(sorted(folds, key=lambda fold: fold[2] != "pre"))


# (side, root connective) -> (the translation rule that introduces its
# formula, and the folds of its arguments).  Each fold is undone by the
# inverse moves in reverse order.
_SATURATION = {(side, conn): (rule, _folds(conn, side))
               for conn, rule in TRANSLATION_OF.items()
               for side in ["pre" if rule in PRINCIPAL_LEFT else "suc"]}


def _fold(d: Derivation, side: str) -> Derivation:
    """Extend `d` until its `side` is a formula; a binary connective's
    argument that is already a formula is left alone."""
    root = getattr(d.conclusion, side)
    if root.conn is None:
        return d
    row = _SATURATION.get((side, root.conn))
    if row is None:
        raise KernelError(f"cannot fold {_SIDE_NAMES[side]} connective "
                          f"{root.conn!r} in this position")
    rule, folds = row
    for i, moves, inner in folds:
        if i is not None and getattr(d.conclusion, side).args[i].conn is None:
            continue
        for move in moves:
            d = derive(move, d)
        d = _fold(d, inner)
        for move in reversed(moves):
            d = derive(REGISTRY[move].schema.inverse, d)
    return derive(rule, d)


# ---------------------------------------------------------------------------
# Identity expansion on structures: derives  lo(psi) |- hi(psi)  whenever both
# standard transforms are defined (see fdlg.standardize).


# The eight tonicity rules: the side of each premise where its argument of
# the new formula stands, read off the rules.  The cut reductions read from
# them on which side of a smaller cut each premise stands (fdlg.cutelim).
TONICITY_SIDES = {
    r.name: tuple("suc" if isinstance(p.suc, FVar) else "pre" for p in r.schema.premises)
    for r in ORDERED_RULES if r.name in TONICITY_RULES}
# The six two-premise ones, with the structural connective they join the
# premises' other sides with.  The companion calculus's rules of the same
# names have the same rows (fdlg.translate).
TONICITY_PREMISES = {
    r.name: (_structural(r.schema.conclusion), TONICITY_SIDES[r.name])
    for r in ORDERED_RULES if r.name in TONICITY_RULES and r.arity == 2}
# Binary structural connective -> (rule, the side each argument's expansion
# folds).  Folding the succedent turns  lo(X) |- hi(X)  into  lo(X) |- Form(X),
# folding the precedent into  Form(X) |- hi(X).
_EXPANSION = {conn: (rule, sides) for rule, (conn, sides) in TONICITY_PREMISES.items()}


def identity_expansion(psi: Structure) -> Derivation:
    """lo(psi) |- hi(psi).  Raises StandardizeError if a transform of psi is
    undefined, checked once here: both are then defined on every structure
    the expansion reaches.  A structural connective is skeleton at one sign,
    where the transform goes on into its arguments, and PIA at the other,
    where it reads the whole subtree operationally, which needs the subtree
    free of l/r-variants and shift adjoints; a leaf never blocks, and neither
    does the structural reading of a formula, which has neither."""
    ftom(psi), ftoM(psi)
    return _expand(psi)


def _expand(psi: Structure) -> Derivation:
    if psi.conn is None:
        a = psi.leaf
        if a.conn is None:
            return derive("p-Id" if a.atom.positive else "n-Id", selector=a.atom)
        return _expand(str_of(a))
    c = psi.conn
    if c in (".dn", ".up"):     # over  Form(D) |- hi(D)  and  lo(X) |- Form(X)
        return derive("down_L" if c == ".dn" else "up_R", _expand(psi.args[0]))
    if c not in _EXPANSION:
        raise KernelError(f"identity expansion undefined at {c!r}")
    rule, (side_l, side_r) = _EXPANSION[c]
    return derive(rule, _fold(_expand(psi.args[0]), side_l),
                  _fold(_expand(psi.args[1]), side_r))
