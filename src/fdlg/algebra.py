"""Finite fully polarized models and brute-force soundness checking.

A finite instance is four posets with four heterogeneous shift maps, three
primitive weakening relations, six binary operations on the two collage
posets and their twelve l/r-variants.  Everything the definition demands is
checked exhaustively; the relations that the definition says are represented
by an adjunction are derived, not stored.

The signature is read from the syntax: each binary table's argument collages
and target carrier come from its structural connective in `STRUCT_SIG`, and
each shift map's carriers from its shift.  The residuation laws are those of
the syntax (`RESIDUATION_LAWS`), which also gives the calculus its display
postulates, and the order-reversing dual of an instance renames its tables by
`infty` (`_INFTY`).

Carriers are tagged pairs (value, tag) with tags P, Pd, N, Nd so the four
sorts stay disjoint.

The element sweep of a rule runs one function compiled from the rule on its
first use, which computes each sequent's truth as one nested `dict.get`
expression over an assignment of the metavariables.  The
template sweep and `interpret` evaluate terms and patterns column-wise,
resolving each node's table once per batch of assignments.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import accumulate, product
from typing import NamedTuple

from .syntax import (GROUP_OF, NP, NS, PP, PS, RESIDUATION_LAWS, STRUCT_SIG, UNDERIVABLE_KINDS,
                     Sort, Structure, Sequent, _INFTY, _RESIDUATION_SHAPES, formula_nodes,
                     iter_structures, sequent_kind)
from .rules import (REGISTRY, AVar, Directed, FNode, FVar, SeqPat, SNode, SVar,
                    instantiate_sequent)


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Posets and weakening relations


@dataclass(frozen=True)
class FinitePoset:
    elements: tuple
    leq: frozenset            # set of (a, b) pairs

    def le(self, a, b) -> bool:
        return (a, b) in self.leq

    def check(self) -> list[str]:
        bad = []
        es = self.elements
        for a in es:
            if not self.le(a, a):
                bad.append(f"not reflexive at {a!r}")
        for a, b in self.leq:
            if a not in es or b not in es:
                bad.append(f"relation escapes the carrier: {(a, b)!r}")
            if a != b and self.le(b, a):
                bad.append(f"not antisymmetric at {a!r},{b!r}")
        for a, b in self.leq:
            for c in es:
                if self.le(b, c) and not self.le(a, c):
                    bad.append(f"not transitive at {a!r},{b!r},{c!r}")
        return bad


def poset_from_pairs(elements, pairs) -> FinitePoset:
    """Reflexive-transitive closure of the given covering pairs."""
    elements = tuple(elements)
    rel = {(a, a) for a in elements} | set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for c, d in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return FinitePoset(elements, frozenset(rel))


def is_weakening_relation(rel, src: FinitePoset, tgt: FinitePoset) -> bool:
    """rel lies inside src x tgt, and  a' <= a, a R b, b <= b'  implies
    a' R b'."""
    if not all(a in src.elements and b in tgt.elements for a, b in rel):
        return False
    for (a, b) in rel:
        for a2 in src.elements:
            if not src.le(a2, a):
                continue
            for b2 in tgt.elements:
                if tgt.le(b, b2) and (a2, b2) not in rel:
                    return False
    return True


def collage(p: FinitePoset, q: FinitePoset, w) -> FinitePoset:
    """Disjoint-union poset glued along a weakening relation p -> q."""
    if set(p.elements) & set(q.elements):
        raise AlgebraError("collage needs disjoint carriers")
    return FinitePoset(p.elements + q.elements,
                       p.leq | q.leq | frozenset(w))


# ---------------------------------------------------------------------------
# Plain Lambek-Grishin algebras (used as seeds and as the quotient target)

LG_OPS = ("*", "(+)", "\\", "/", "(/)", "(\\)")


@dataclass(frozen=True)
class LGAlgebra:
    poset: FinitePoset
    ops: dict = field(hash=False)

    def op(self, sym, a, b):
        return self.ops[sym][(a, b)]

    def check(self) -> list[str]:
        bad = self.poset.check()
        es = self.poset.elements
        le = self.poset.le
        for sym in LG_OPS:
            table = self.ops.get(sym)
            if table is None:
                bad.append(f"missing operation {sym}")
                continue
            for a, b in product(es, es):
                if (a, b) not in table or table[(a, b)] not in es:
                    bad.append(f"{sym} not total at {(a, b)!r}")
        if bad:
            return bad
        # each law shape's three clauses at the variables v, read as plain
        # operations by dropping the structural dot
        for v in product(es, repeat=3):
            for law, shape in zip(("product", "coproduct"), _RESIDUATION_SHAPES):
                if len({le(self.op(conn[1:], v[i], v[j]), v[k]) if left
                        else le(v[k], self.op(conn[1:], v[i], v[j]))
                        for conn, i, j, k, left in shape}) > 1:
                    bad.append(f"{law} residuation fails at {v!r}")
        return bad


def lg_from_lattice(poset: FinitePoset) -> LGAlgebra:
    """Meet/join with their residuals and co-residuals, when they all exist."""
    es = poset.elements
    le = poset.le

    def first_bound(cands, greatest: bool, missing: str):
        """The first of `cands` above (or below) all of them."""
        for c in cands:
            if all(le(d, c) if greatest else le(c, d) for d in cands):
                return c
        raise AlgebraError(missing)

    ops = {sym: {} for sym in LG_OPS}
    for a, b in product(es, es):
        ops["*"][(a, b)] = first_bound([c for c in es if le(c, a) and le(c, b)], True,
                                       f"no meet of {a!r},{b!r}")
        ops["(+)"][(a, b)] = first_bound([c for c in es if le(a, c) and le(b, c)], False,
                                         f"no join of {a!r},{b!r}")
    for a, c in product(es, es):
        ops["\\"][(a, c)] = first_bound([b for b in es if le(ops["*"][(a, b)], c)], True,
                                        "no residual; the lattice is not residuated")
    for c, b in product(es, es):
        ops["/"][(c, b)] = ops["\\"][(b, c)]
    for c, b in product(es, es):
        ops["(/)"][(c, b)] = first_bound([a for a in es if le(c, ops["(+)"][(a, b)])], False,
                                         "no co-residual")
    for a, c in product(es, es):
        ops["(\\)"][(a, c)] = first_bound([b for b in es if le(c, ops["(+)"][(a, b)])], False,
                                          "no co-residual")
    alg = LGAlgebra(poset, ops)
    bad = alg.check()
    if bad:
        raise AlgebraError("; ".join(bad[:3]))
    return alg


def chain_poset(n: int, prefix: str = "") -> FinitePoset:
    es = tuple(f"{prefix}{i}" for i in range(n))
    return poset_from_pairs(es, {(es[i], es[i + 1]) for i in range(n - 1)})


def diamond_poset() -> FinitePoset:
    return poset_from_pairs(("0", "a", "b", "1"),
                            {("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")})


# ---------------------------------------------------------------------------
# Finite fully polarized instances

TAGS = ("P", "Pd", "N", "Nd")


def _carrier(sort: Sort) -> str:
    """The tag of the carrier that holds the values of a sort."""
    return ("P" if sort.positive else "N") + ("d" if sort.shifted else "")


# The twelve l/r-variants, named like their structural connectives without
# the dot, two per operation in the order of LG_OPS; then the 18 binary
# symbols of an instance.
_VARIANTS = tuple(v[1:] for sym in LG_OPS for v in GROUP_OF["." + sym][1:])
_BINARY = LG_OPS + _VARIANTS

# Each binary symbol's signature, read from its structural connective: the
# carrier its values lie in, and per argument whether it ranges over the
# positive collage (P then Pd) or the negative one (Nd then N).  `_BASE`
# names the operation a variant belongs to, and an operation itself.
_SIG = {sym: (_carrier(STRUCT_SIG["." + sym][0]),
              tuple(pol for pol, _ in STRUCT_SIG["." + sym][1]))
        for sym in _BINARY}
_BASE = {sym: GROUP_OF["." + sym][0][1:] for sym in _BINARY}

# Each shift map's source and target carrier, in FiniteFPLG's field order.
_SHIFTS = {sh: (_carrier(Sort(*STRUCT_SIG["." + sh][1][0])),
                _carrier(STRUCT_SIG["." + sh][0]))
           for sh in ("up", "upl", "dn", "dnr")}


# interpretable (precedent tag, succedent tag) pairs and their sequent kinds:
# every sort pair of a sequent whose kind is derivable
_KIND_BY_TAGS = {(_carrier(x), _carrier(y)): sequent_kind(x, y)
                 for x, y in product((PP, PS, NP, NS), repeat=2)
                 if (x.positive or not y.positive) and sequent_kind(x, y) not in UNDERIVABLE_KINDS}
_COLLAGE_TAGS = frozenset((("P", "Nd"), ("P", "N"), ("Pd", "N")))


class InstanceView(NamedTuple):
    """Lookup tables derived from an instance; see `FiniteFPLG.view`."""
    tag: dict         # element -> tag of the first carrier holding it
    tables: dict      # connective -> its shift map or binary table
    relations: dict   # interpretable kind -> (shift applied to the left or None, pairs)
    truth: dict       # (x, y) -> whether the relation of their tags holds


@dataclass(frozen=True)
class FiniteFPLG:
    """Four carriers, the shift maps, the weakening relations and the tables.
    Treat an instance as immutable once built: `view` is derived on first
    use and cached on it, so later changes to a table would go unseen."""
    name: str
    P: FinitePoset
    Pd: FinitePoset
    N: FinitePoset
    Nd: FinitePoset
    up: dict = field(hash=False)       # P  -> Nd
    upl: dict = field(hash=False)      # Pd -> N
    dn: dict = field(hash=False)       # N  -> Pd
    dnr: dict = field(hash=False)      # Nd -> P
    wr_shifted_pos: frozenset = frozenset()   # P x Pd
    wr_pure: frozenset = frozenset()           # P x N
    wr_shifted_neg: frozenset = frozenset()    # Nd x N
    ops: dict = field(default_factory=dict, hash=False)       # over the collages
    variants: dict = field(default_factory=dict, hash=False)

    # -- derived structure ---------------------------------------------------

    def poset(self, tag: str) -> FinitePoset:
        return getattr(self, tag)

    def table(self, sym: str) -> dict | None:
        """The table of one of the 18 binary symbols, None if it is missing."""
        return (self.ops if sym in LG_OPS else self.variants).get(sym)

    def ring_pos(self) -> FinitePoset:
        return collage(self.P, self.Pd, self.wr_shifted_pos)

    def ring_neg(self) -> FinitePoset:
        return collage(self.Nd, self.N, self.wr_shifted_neg)

    @cached_property
    def view(self) -> InstanceView:
        """Tags, tables and relations resolved once.  A missing table is an
        empty one, and `truth` leaves out the pairs a partial shift map cannot
        decide, so lookups fail per assignment and never here."""
        tag = {}
        for t in reversed(TAGS):
            tag.update(dict.fromkeys(self.poset(t).elements, t))
        tables = {"up": self.up, ".up": self.up, "dn": self.dn, ".dn": self.dn,
                  ".upl": self.upl, ".dnr": self.dnr}
        for sym in _BINARY:
            tables["." + sym] = self.table(sym) or {}
        for sym in LG_OPS:
            tables[sym] = tables["." + sym]
        relations = {"r": (None, self.P.leq), "r.": (None, self.wr_shifted_pos),
                     "r:": (None, self.Pd.leq), "b": (None, self.N.leq),
                     "b_": (None, self.wr_shifted_neg), "b:": (None, self.Nd.leq),
                     "n": (None, self.wr_pure), "n_": (self.upl, self.N.leq),
                     "n.": (self.up, self.Nd.leq)}
        truth = {}
        for (s, t), kind in _KIND_BY_TAGS.items():
            shift, holds = relations[kind]
            left = [x for x in tag if tag[x] == s and (shift is None or x in shift)]
            right = [y for y in tag if tag[y] == t]
            truth.update(((x, y), (x if shift is None else shift[x], y) in holds)
                         for x in left for y in right)
        return InstanceView(tag, tables, relations, truth)

    def eqql(self, p, nd) -> bool:
        """P x Nd, represented by the outer shift adjunction."""
        return self.Nd.le(self.up[p], nd)

    def preceqq(self, pd, n) -> bool:
        """Pd x N, represented by the inner shift adjunction."""
        return self.N.le(self.upl[pd], n)

    def hvd(self, a, b) -> bool:
        """The collage weakening relation ring-pos -> ring-neg."""
        view = self.view
        return (view.tag[a], view.tag[b]) in _COLLAGE_TAGS and view.truth[a, b]


def check_fplg_axioms(a: FiniteFPLG) -> list[str]:
    """Exhaustive verification of the definition plus the collage equalities."""
    bad: list[str] = []
    carriers = {t: a.poset(t) for t in TAGS}
    seen = set()
    for t in TAGS:
        bad += [f"{t}: {m}" for m in carriers[t].check()]
        if seen & set(carriers[t].elements):
            bad.append(f"carrier {t} overlaps another carrier")
        seen |= set(carriers[t].elements)
    if bad:
        return bad

    def monotone(m, src: FinitePoset, tgt: FinitePoset, name: str):
        for x in src.elements:
            if x not in m or m[x] not in tgt.elements:
                bad.append(f"{name} not total at {x!r}")
                return
        extra = _first_outside(m, src.elements)
        if extra is not None:
            bad.append(f"{name} is defined outside its domain at {extra!r}")
            return
        for x, y in src.leq:
            if not tgt.le(m[x], m[y]):
                bad.append(f"{name} not monotone at {x!r},{y!r}")

    for sh, (src, tgt) in _SHIFTS.items():
        monotone(getattr(a, sh), carriers[src], carriers[tgt], sh)
    if bad:
        return bad

    for p, nd in product(a.P.elements, a.Nd.elements):
        if a.Nd.le(a.up[p], nd) != a.P.le(p, a.dnr[nd]):
            bad.append(f"outer shift adjunction fails at {p!r},{nd!r}")
    for pd, n in product(a.Pd.elements, a.N.elements):
        if a.N.le(a.upl[pd], n) != a.Pd.le(pd, a.dn[n]):
            bad.append(f"inner shift adjunction fails at {pd!r},{n!r}")

    if not is_weakening_relation(a.wr_shifted_pos, a.P, a.Pd):
        bad.append("the P-Pd relation is not a weakening relation")
    if not is_weakening_relation(a.wr_pure, a.P, a.N):
        bad.append("the P-N relation is not a weakening relation")
    if not is_weakening_relation(a.wr_shifted_neg, a.Nd, a.N):
        bad.append("the Nd-N relation is not a weakening relation")

    for p, n in product(a.P.elements, a.N.elements):
        r1 = (a.up[p], n) in a.wr_shifted_neg
        r2 = (p, n) in a.wr_pure
        r3 = (p, a.dn[n]) in a.wr_shifted_pos
        if not (r1 == r2 == r3):
            bad.append(f"shift intro/elim law fails at {p!r},{n!r}")
    if bad:
        return bad

    # composition equalities on the collage square
    for p, n in product(a.P.elements, a.N.elements):
        via_pd = any((p, pd) in a.wr_shifted_pos and a.preceqq(pd, n)
                     for pd in a.Pd.elements)
        via_nd = any(a.eqql(p, nd) and (nd, n) in a.wr_shifted_neg
                     for nd in a.Nd.elements)
        direct = (p, n) in a.wr_pure
        if not (via_pd == direct == via_nd):
            bad.append(f"collage composition equality fails at {p!r},{n!r}")

    rp, rn = a.ring_pos(), a.ring_neg()
    bad += [f"ring-pos: {m}" for m in rp.check()]
    bad += [f"ring-neg: {m}" for m in rn.check()]

    ring = {True: rp.elements, False: rn.elements}
    tables = {}
    for sym, (tgt, (left, right)) in _SIG.items():
        table = tables[sym] = a.table(sym)
        if table is None:
            bad.append(f"missing {'operation' if sym in LG_OPS else 'variant'} {sym}")
            continue
        cells = list(product(ring[left], ring[right]))
        targets = set(carriers[tgt].elements)
        for cell in cells:
            if table.get(cell) not in targets:
                bad.append(f"{sym} not total into {tgt} at {cell!r}")
                return bad
        extra = _first_outside(table, cells)
        if extra is not None:
            bad.append(f"{sym} is defined outside its domain at {extra!r}")
            return bad
    if bad:
        return bad

    # The laws, each evaluated column-wise over every assignment of its
    # variables.  Within a collage the order is the collage's, and from the
    # positive collage to the negative one it is hvd: both are `truth`,
    # which holds every pair that a law compares.
    truth = a.view.truth
    for pols, clauses in RESIDUATION_LAWS:
        cols = tuple(zip(*product(*(ring[pol] for pol in pols))))
        verdicts = []
        for conn, i, j, k, left in clauses:
            values = map(tables[conn[1:]].__getitem__, zip(cols[i], cols[j]))
            pairs = zip(values, cols[k]) if left else zip(cols[k], values)
            verdicts.append(list(map(truth.__getitem__, pairs)))
        if not verdicts[0] == verdicts[1] == verdicts[2]:
            syms = ", ".join(conn[1:] for conn, *_ in clauses)
            bad += [f"adjunction of {syms} fails at {row!r}"
                    for row, v1, v2, v3 in zip(zip(*cols), *verdicts) if not v1 == v2 == v3]
    return bad


def _first_outside(keys, domain):
    """The first of `keys` that is not in `domain`, or None."""
    domain = set(domain)
    return next((k for k in keys if k not in domain), None)


# ---------------------------------------------------------------------------
# The two constructions


def from_lg(g: LGAlgebra, name: str = "from-lg") -> FiniteFPLG:
    """Four tagged copies, identity shifts, relations read off the order."""
    bad = g.check()
    if bad:
        raise AlgebraError("seed is not an LG-algebra: " + bad[0])

    def lift(t1, t2=None):
        t2 = t2 or t1
        return frozenset(((x, t1), (y, t2)) for (x, y) in g.poset.leq)

    posets = {t: FinitePoset(tuple((x, t) for x in g.poset.elements), lift(t))
              for t in TAGS}
    ring = {True: posets["P"].elements + posets["Pd"].elements,
            False: posets["Nd"].elements + posets["N"].elements}
    tables = {sym: {((x, tx), (y, ty)): (g.op(_BASE[sym], x, y), tgt)
                    for (x, tx) in ring[left] for (y, ty) in ring[right]}
              for sym, (tgt, (left, right)) in _SIG.items()}
    return FiniteFPLG(name, *posets.values(), *_identity_shifts(posets),
                      lift("P", "Pd"), lift("P", "N"), lift("Nd", "N"),
                      *_split(tables))


def _identity_shifts(carriers: dict) -> list:
    """The four shift maps that keep each value, in FiniteFPLG's field order."""
    return [{x: (x[0], tgt) for x in carriers[src].elements}
            for src, tgt in _SHIFTS.values()]


def _split(tables: dict) -> tuple:
    """The operations' and the variants' tables of a dict of all 18."""
    return {sym: tables[sym] for sym in LG_OPS}, {v: tables[v] for v in _VARIANTS}


def to_lg(a: FiniteFPLG) -> LGAlgebra:
    """Pre-order on the pure carriers via the collage relation, quotiented."""
    carrier = a.P.elements + a.N.elements

    def plus(x):
        return x if x in a.P.elements else a.dn[x]

    def minus(x):
        return x if x in a.N.elements else a.up[x]

    pre = {(x, y) for x in carrier for y in carrier if a.hvd(plus(x), minus(y))}
    classes: list[tuple] = []
    cls_of = {}
    for x in carrier:
        for i, cl in enumerate(classes):
            r = cl[0]
            if (x, r) in pre and (r, x) in pre:
                classes[i] = cl + (x,)
                cls_of[x] = i
                break
        else:
            cls_of[x] = len(classes)
            classes.append((x,))
    names = tuple(f"c{i}" for i in range(len(classes)))
    leq = frozenset((names[cls_of[x]], names[cls_of[y]]) for (x, y) in pre)
    poset = FinitePoset(names, leq)

    def cast(x, positive):
        return plus(x) if positive else minus(x)

    ops = {sym: {} for sym in LG_OPS}
    for sym in LG_OPS:
        _, (sl, sr) = _SIG[sym]
        for x, y in product(carrier, carrier):
            v = names[cls_of[a.ops[sym][(cast(x, sl), cast(y, sr))]]]
            # well-definedness on representatives is implied by
            # monotonicity; verify
            if ops[sym].setdefault((names[cls_of[x]], names[cls_of[y]]), v) != v:
                raise AlgebraError(f"{sym} is not well-defined on the quotient")
    alg = LGAlgebra(poset, ops)
    bad = alg.check()
    if bad:
        raise AlgebraError("quotient is not an LG-algebra: " + bad[0])
    return alg


def lg_isomorphic(g1: LGAlgebra, g2: LGAlgebra) -> bool:
    """Brute-force isomorphism search; desk scale only."""
    e1, e2 = g1.poset.elements, g2.poset.elements
    if len(e1) != len(e2):
        return False
    from itertools import permutations
    for perm in permutations(e2):
        iso = dict(zip(e1, perm))
        if any(g1.poset.le(a, b) != g2.poset.le(iso[a], iso[b])
               for a in e1 for b in e1):
            continue
        if all(iso[g1.op(s, a, b)] == g2.op(s, iso[a], iso[b])
               for s in LG_OPS for a in e1 for b in e1):
            return True
    return False


# ---------------------------------------------------------------------------
# Interpretation


def atoms_of(seq: Sequent | Structure) -> list:
    """The distinct atoms of a sequent or structure, in order of first
    occurrence."""
    return list(dict.fromkeys([x.atom for x in formula_nodes(seq) if x.conn is None]))


def valuations(a: FiniteFPLG, atoms):
    """Every assignment of atoms: positive atoms into P, negative into N."""
    pools = [a.P.elements if at.positive else a.N.elements for at in atoms]
    for combo in product(*pools):
        yield {(at.name, at.positive): v for at, v in zip(atoms, combo)}


def _values(x, tables, leaf) -> tuple:
    """Values of a structure, formula or pattern over a batch of assignments.

    A leaf structure is looked through to its formula.  `leaf` gives the
    column of an atom formula or a metavariable: one value per assignment.
    A node maps its table over the columns of its arguments, so every
    connective is resolved once per batch; a missing entry raises KeyError.
    """
    if x.__class__ is Structure and x.conn is None:
        x = x.leaf
    if not getattr(x, "args", ()):
        return leaf(x)
    cols = [_values(y, tables, leaf) for y in x.args]
    look = tables.get(x.conn, {}).__getitem__
    return tuple(map(look, cols[0] if len(cols) == 1 else zip(*cols)))


def _atom_leaf(cols):
    """The leaf function of `_values` for terms whose atoms take the values
    in `cols`, a column per atom key."""
    return lambda x: cols[x.atom.name, x.atom.positive]


def _truths(kind: str, a: FiniteFPLG, pre, suc, leaf) -> list[bool]:
    """`interpret` of `pre |- suc`, a sequent of the given kind, over a batch
    of valuations."""
    view = a.view
    if kind not in view.relations:
        raise AlgebraError(f"no weakening relation interprets kind {kind!r}")
    shift, holds = view.relations[kind]
    left = _values(pre, view.tables, leaf)
    right = _values(suc, view.tables, leaf)
    if shift is not None:
        left = map(shift.__getitem__, left)
    return [pair in holds for pair in zip(left, right)]


def interpret(seq: Sequent, a: FiniteFPLG, v) -> bool:
    """Truth of the sequent under the valuation; structural connectives are
    interpreted exactly like their operational counterparts.  The three
    admissible-but-underivable kinds have no interpreting relation."""
    leaf = _atom_leaf({key: (x,) for key, x in v.items()})
    return _truths(seq.kind, a, seq.pre, seq.suc, leaf)[0]


# ---------------------------------------------------------------------------
# Rule soundness


@dataclass
class SoundnessReport:
    rule: str
    checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def _sweeper(rule: Directed):
    """Straight-line code for the element sweep of `rule` on an instance: the
    number of assignments checked and the violations.

    The assignments are the product of the metavariables' carriers, in
    sorted-name order.  Each sequent's truth is one nested `dict.get`
    expression over the assignment, with each connective's table bound once
    per call.  A missing entry, or a pair of no interpretable kind, gives
    None, which propagates to the root and never counts as a violation.  The
    premises are evaluated only on the assignments whose conclusion is
    False."""
    names = sorted(rule.var_sorts)
    index = {name: f"v{i}" for i, name in enumerate(names)}
    looks: dict = {}            # connective -> the local bound to its table's get

    def term(pat) -> str:
        cls = pat.__class__
        if cls is SVar or cls is FVar or cls is AVar:
            return index[pat.name]
        if (cls is not SNode and cls is not FNode) or not pat.args:
            raise ValueError(f"cannot evaluate the pattern {pat!r}")
        look = looks.setdefault(pat.conn, f"g{len(looks)}")
        args = [term(p) for p in pat.args]
        return f"{look}({args[0] if len(args) == 1 else '(' + ', '.join(args) + ')'})"

    def truth(sp: SeqPat) -> str:
        return f"t(({term(sp.pre)}, {term(sp.suc)}))"

    conc = truth(rule.schema.conclusion)
    prems = "".join(f" and {truth(sp)} is True" for sp in rule.schema.premises)
    lines = ["def sweep(a):", " view = a.view", " t = view.truth.get"]
    lines += [f" {look} = view.tables.get({conn!r}, {{}}).get" for conn, look in looks.items()]
    for i, name in enumerate(names):
        pol, shifted = rule.var_sorts[name]
        tags = [tag for tag, sh in zip(("P", "Pd") if pol else ("N", "Nd"), (False, True))
                if shifted is None or shifted is sh]
        lines.append(f" p{i} = {' + '.join(f'a.{tag}.elements' for tag in tags)}")
    row = "".join(v + ", " for v in index.values()).rstrip()
    pools = "product(" + ", ".join(f"p{i}" for i in range(len(names))) + ")"
    env = "{" + ", ".join(f"{name!r}: {v}" for name, v in index.items()) + "}"
    lines += [f" conc = [{conc} for ({row}) in {pools}]",
              " if False not in conc: return len(conc), []",
              f" return len(conc), [{env} for c, ({row}) in zip(conc, {pools})"
              f" if c is False{prems}]"]
    exec("\n".join(lines), {"product": product}, scope := {})
    return scope["sweep"]


def check_rule_soundness(rule, a: FiniteFPLG) -> SoundnessReport:
    """Premises valid implies conclusion valid, for every element assignment.

    Structures denote elements, so sweeping metavariables over the carriers
    covers every instantiation shape; assignments whose premises or conclusion
    land on an uninterpretable kind, or on a missing table entry, are vacuous
    and skipped.  Violations are listed in product order, as dicts keyed by
    the sorted metavariable names.
    """
    if isinstance(rule, str):
        rule = REGISTRY[rule]
    if rule.sweep is None:
        rule.sweep = _sweeper(rule)
    return SoundnessReport(rule.name, *rule.sweep(a))


@lru_cache(maxsize=8)
def _template_structures(atoms: tuple, depth: int) -> tuple:
    """What a template sweep's metavariables range over, built once per
    (atoms, depth): the structures of at most `depth` levels over `atoms`,
    without the l/r-variants and shift adjoints."""
    return tuple(iter_structures(atoms, depth, include_variants=False))


def check_rule_soundness_templates(rule, a: FiniteFPLG, atoms, depth: int = 2,
                                   cap: int = 12000) -> SoundnessReport:
    """Template-level sweep: metavariables range over generated structures of
    bounded depth, then every valuation of the atoms is tested.

    A combination of structures, taken in product order, is skipped if the
    rule does not instantiate on it; otherwise each valuation of its atoms is
    one check, and a combination whose sequents fall on a kind with no
    interpreting relation is counted but not judged.  The cap is checked
    before each combination, so the sweep stops at the first one reached
    after `cap` checks and may end above it: diamond reports 12,008.

    Combinations are evaluated in groups, by their signature: the tuple of
    their structures' sorts.  The signature alone decides whether a
    combination instantiates and the kind of each sequent, since every pooled
    term is a Structure and the term constructors read nothing of their
    arguments but sort and class.  So each signature is instantiated once,
    and each group is evaluated column-wise, with one `_truths` call per
    schema over the concatenated rows of its members.  Violations are listed
    in product order, then in valuation order.
    """
    if cap < 0:
        raise ValueError(f"cap must not be negative, got {cap}")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    if isinstance(rule, str):
        rule = REGISTRY[rule]
    varspec = rule.var_sorts
    names = sorted(varspec)
    all_structs = _template_structures(tuple(atoms), depth)
    pools = []
    for n in names:
        pol, sh = varspec[n]
        pool = [st for st in all_structs
                if st.sort.positive == pol and (sh is None or st.sort.shifted == sh)]
        if rule.klass == "axiom" or n in rule.formula_vars:
            pool = [st for st in pool if st.conn is None]
        pools.append(pool)
    schemas = (*rule.schema.premises, rule.schema.conclusion)
    # The atoms of an instance, in order of first occurrence, are those of its
    # structures in the order their variables first occur at the schemas'
    # leaves: conclusion first, then the premises, as `atoms_of` reads them.
    # The keys of `conc_vars`/`prem_vars` are in that order.
    order = [names.index(n) for n in
             dict.fromkeys([*rule.conc_vars, *(n for p in rule.prem_vars for n in p)])]
    atom_keys = {}  # id of a pooled structure -> its atoms' keys, in order
    tables = a.view.tables
    kinds_of = {}   # signature -> the schemas' kinds, or None if it does not instantiate
    # atom keys -> (the keys, every valuation of those atoms as a row, the
    # atom leaf of those rows, {id of a pooled, so live, structure: its values})
    by_atoms = {}
    groups = {}     # signature -> [(combination index, combination, its by_atoms entry)]
    checked = 0
    for index, combo in enumerate(product(*pools)):
        if checked >= cap:
            break
        sig = tuple([id(st.sort) for st in combo])
        if sig not in kinds_of:
            env = dict(zip(names, combo))
            try:
                kinds_of[sig] = tuple(instantiate_sequent(sp, env).kind for sp in schemas)
            except (KeyError, ValueError):
                kinds_of[sig] = None
        if kinds_of[sig] is None:
            continue
        merged = []
        for i in order:
            st = combo[i]
            if id(st) not in atom_keys:
                atom_keys[id(st)] = [(at.name, at.positive) for at in atoms_of(st)]
            merged += atom_keys[id(st)]
        keys = tuple(dict.fromkeys(merged))
        vals = by_atoms.get(keys)
        if vals is None:
            rows = list(product(*[a.P.elements if pos else a.N.elements for _, pos in keys]))
            vals = by_atoms[keys] = (keys, rows,
                                     _atom_leaf(dict(zip(keys, zip(*rows)))), {})
        checked += len(vals[1])
        groups.setdefault(sig, []).append((index, combo, vals))

    found = []    # (combination index, valuation index, violation)
    for sig, members in groups.items():
        cols = {}

        def leaf(var):
            """The rows of the structures bound to `var`, member after member;
            each instantiated sequent is the pattern with its structures at
            the leaves."""
            if var.name not in cols:
                i = names.index(var.name)
                col = cols[var.name] = []
                for _, combo, (_, _, atom_leaf, values) in members:
                    st = combo[i]
                    if id(st) not in values:
                        values[id(st)] = _values(st, tables, atom_leaf)
                    col += values[id(st)]
            return cols[var.name]

        try:
            *pv, cv = [_truths(kind, a, sp.pre, sp.suc, leaf)
                       for kind, sp in zip(kinds_of[sig], schemas)]
        except AlgebraError:
            continue
        bad = [r for r, c in enumerate(cv) if not c and all(p[r] for p in pv)]
        if not bad:
            continue
        starts = list(accumulate((len(rows) for _, _, (_, rows, _, _) in members), initial=0))
        for r in bad:
            m = bisect_right(starts, r) - 1
            index, combo, (keys, rows, _, _) = members[m]
            found.append((index, r - starts[m],
                          (dict(zip(names, combo)), dict(zip(keys, rows[r - starts[m]])))))
    found.sort(key=lambda x: x[:2])
    return SoundnessReport(rule.name, checked, [v for _, _, v in found])


# ---------------------------------------------------------------------------
# Builtins and random instance generation


def render_algebra(a: FiniteFPLG) -> str:
    """Line-oriented tabular text; elements are written tag:value."""
    def el(x):
        return f"{x[1]}:{x[0]}"

    lines = [f"%name {a.name}"]
    for t in TAGS:
        p = a.poset(t)
        lines.append(f"%carrier {t}: " + " ".join(el(x) for x in p.elements))
        lines.append(f"%le {t}: " + " ".join(f"{el(x)}<={el(y)}" for x, y in sorted(p.leq)))
    for sh in _SHIFTS:
        lines.append(f"%map {sh}: " + " ".join(
            f"{el(k)}->{el(v)}" for k, v in sorted(getattr(a, sh).items())))
    for name, r in (("shifted-pos", a.wr_shifted_pos), ("pure", a.wr_pure),
                    ("shifted-neg", a.wr_shifted_neg)):
        lines.append(f"%wr {name}: " + " ".join(f"{el(x)}<={el(y)}" for x, y in sorted(r)))
    for sym in _BINARY:
        lines.append(f"{'%op' if sym in LG_OPS else '%var'} {sym}: " + " ".join(
            f"{el(x)},{el(y)}->{el(v)}" for (x, y), v in sorted(a.table(sym).items())))
    return "\n".join(lines) + "\n"


# The token shape of each line kind of the algebra file, as text and as a
# pattern, and the symbols a line of the kind may name, one line each.  An
# element is tag:value, and each element of a token gives a (tag, value)
# pair of groups.
_ELEMENT = r"([^\s:,<=>]+):([^\s,<=>]+)"
_ENTRY = {
    "%carrier": ("tag:value", re.compile(_ELEMENT)),
    "%le": ("x<=y", re.compile(f"{_ELEMENT}<={_ELEMENT}")),
    "%wr": ("x<=y", re.compile(f"{_ELEMENT}<={_ELEMENT}")),
    "%map": ("x->y", re.compile(f"{_ELEMENT}->{_ELEMENT}")),
    "%op": ("x,y->z", re.compile(f"{_ELEMENT},{_ELEMENT}->{_ELEMENT}")),
    "%var": ("x,y->z", re.compile(f"{_ELEMENT},{_ELEMENT}->{_ELEMENT}")),
}
_SYMBOLS = {"%carrier": TAGS, "%le": TAGS, "%map": tuple(_SHIFTS),
            "%wr": ("shifted-pos", "pure", "shifted-neg"), "%op": LG_OPS, "%var": _VARIANTS}


def parse_algebra(text: str) -> FiniteFPLG:
    def groups(kind: str, body: str):
        """The groups of each token of a line; a malformed token raises."""
        shape, pattern = _ENTRY[kind]
        for tok in body.split():
            m = pattern.fullmatch(tok)
            if m is None:
                raise AlgebraError(f"line {ln}: bad {kind} entry {tok!r}, expected {shape}")
            yield m.groups()

    name = "parsed"
    found: dict[str, dict] = {kind: {} for kind in _ENTRY}     # kind -> symbol -> entry
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, body = line.partition(":")
        body = body.strip()
        kind, _, arg = head.partition(" ")
        arg = arg.strip()
        if kind == "%name":
            name = (arg + " " + body).strip()
            continue
        if kind not in _ENTRY:
            raise AlgebraError(f"bad line in algebra file: {line!r}")
        if arg not in _SYMBOLS[kind]:
            raise AlgebraError(f"line {ln}: unknown {kind} symbol {arg!r}")
        if arg in found[kind]:
            raise AlgebraError(f"line {ln}: a second {kind} {arg} line")
        rows = list(groups(kind, body))
        if kind == "%carrier":
            entry = tuple((v, t) for t, v in rows)
            if len(set(entry)) < len(entry):
                raise AlgebraError(f"line {ln}: %carrier {arg} lists an element twice")
        elif kind in ("%le", "%wr"):
            entry = frozenset(((v1, t1), (v2, t2)) for t1, v1, t2, v2 in rows)
        elif kind == "%map":
            entry = {(v1, t1): (v2, t2) for t1, v1, t2, v2 in rows}
        else:
            entry = {((v1, t1), (v2, t2)): (v3, t3) for t1, v1, t2, v2, t3, v3 in rows}
        if len(entry) < len(rows) and kind in ("%map", "%op", "%var"):
            keys = [row[:-2] for row in rows]     # a table's argument groups, one per entry
            twice = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise AlgebraError(f"line {ln}: {kind} {arg} has a second entry for "
                               + ",".join(map(":".join, zip(twice[::2], twice[1::2]))))
        found[kind][arg] = entry
    for section in ("%carrier", "%le", "%map", "%wr"):
        missing = [w for w in _SYMBOLS[section] if w not in found[section]]
        if missing:
            raise AlgebraError(f"algebra file has no {section} {missing[0]} line")
    carriers, les, maps, wrs = (found[k] for k in ("%carrier", "%le", "%map", "%wr"))
    return FiniteFPLG(name, *(FinitePoset(carriers[t], les[t]) for t in TAGS),
                      *(maps[sh] for sh in _SHIFTS),
                      wrs["shifted-pos"], wrs["pure"], wrs["shifted-neg"],
                      found["%op"], found["%var"])


def builtin(name: str) -> FiniteFPLG:
    if name == "chain2":
        return from_lg(lg_from_lattice(chain_poset(2)), "chain2")
    if name == "chain3":
        return from_lg(lg_from_lattice(chain_poset(3)), "chain3")
    if name == "diamond":
        return from_lg(lg_from_lattice(diamond_poset()), "diamond")
    raise AlgebraError(f"unknown builtin {name!r}")


def _renamed(poset: FinitePoset, prefix: str) -> FinitePoset:
    """The poset with its i-th element renamed prefix + i."""
    new = {x: f"{prefix}{i}" for i, x in enumerate(poset.elements)}
    return FinitePoset(tuple(new.values()),
                       frozenset((new[x], new[y]) for x, y in poset.leq))


def _retag(poset: FinitePoset, tag: str) -> FinitePoset:
    return FinitePoset(tuple((x, tag) for x in poset.elements),
                       frozenset(((x, tag), (y, tag)) for (x, y) in poset.leq))


def _compatible_wrs(p: FinitePoset, q: FinitePoset, rng):
    """Up to five weakening relations p -> q: up-closed unions of principal
    blocks."""
    pairs = [(x, y) for x in p.elements for y in q.elements]
    out = []
    for _ in range(60):
        seed = [pr for pr in pairs if rng.random() < 0.4]
        # the up-closure of the seed, in one step as both orders are transitive
        rel = frozenset((x2, y2) for x, y in seed
                        for x2 in p.elements if p.le(x2, x)
                        for y2 in q.elements if q.le(y, y2))
        if rel not in out:
            out.append(rel)
        if len(out) >= 5:
            break
    return out


def _fused_instances(p_seed: FinitePoset, n_seed: FinitePoset, w, rng):
    """Up to three instances, named "fused", whose shifted carriers mirror
    the opposite pure carrier.

    The two collages coincide with the collage of the seed relation, and the
    variants coincide with the base operations up to retagging, so a full
    enumeration over the small product tables is feasible.
    """
    carriers = {"P": _retag(p_seed, "P"), "Pd": _retag(n_seed, "Pd"),
                "N": _retag(n_seed, "N"), "Nd": _retag(p_seed, "Nd")}
    P_el, N_el = carriers["P"].elements, carriers["N"].elements
    rp, rn = P_el + carriers["Pd"].elements, carriers["Nd"].elements + N_el
    wr_sp = frozenset(((x, "P"), (y, "Pd")) for (x, y) in w)
    wr_pn = frozenset(((x, "P"), (y, "N")) for (x, y) in w)
    wr_sn = frozenset(((x, "Nd"), (y, "N")) for (x, y) in w)

    # The pairs on which hvd holds: P below Nd as in the positive seed, P
    # below N as in w, Pd below N as in the negative seed.
    below = {((x, "P"), (y, "Nd")) for x, y in p_seed.leq}
    below.update(((x, "P"), (y, "N")) for x, y in w)
    below.update(((x, "Pd"), (y, "N")) for x, y in n_seed.leq)

    cells_p, cells_n = list(product(rp, rp)), list(product(rn, rn))
    cells_pn, cells_np = list(product(rp, rn)), list(product(rn, rp))

    def tables(cells, values):            # all of them, or 3000 random ones
        n = len(values)
        count = n ** len(cells)
        idxs = range(count) if count <= 3000 else (rng.randrange(count) for _ in range(3000))
        for i in idxs:
            t = {}
            for c in cells:
                t[c] = values[i % n]
                i //= n
            yield t

    # The residual solver.  A residual's value at a cell is the first
    # candidate whose profile, the elements of the other collage that hvd
    # relates it to, is the set the adjunction asks for there: N candidates
    # by what lies below them, P candidates by what lies above them.
    by_below, by_above = {}, {}
    for m in N_el:
        by_below.setdefault(frozenset(x for x in rp if (x, m) in below), m)
    for p in P_el:
        by_above.setdefault(frozenset(n for n in rn if (p, n) in below), p)

    def solve(cells, wanted, candidates):
        """The table of each cell's candidate for `wanted(*cell)`, or None
        if some cell has none."""
        table = {}
        for cell in cells:
            value = candidates.get(frozenset(wanted(*cell)))
            if value is None:
                return None
            table[cell] = value
        return table

    def residuals(prod):
        """prod with both residuals into N, or None."""
        under = solve(cells_pn, lambda x, n: (y for y in rp if (prod[x, y], n) in below),
                      by_below)
        over = under and solve(cells_np, lambda n, y: (x for x in rp if (prod[x, y], n) in below),
                               by_below)
        return over and (prod, under, over)

    def coresiduals(plus):
        """plus with both co-residuals into P, or None."""
        osl = solve(cells_pn, lambda x, n: (m for m in rn if (x, plus[m, n]) in below),
                    by_above)
        obsl = osl and solve(cells_np, lambda m, x: (n for n in rn if (x, plus[m, n]) in below),
                             by_above)
        return obsl and (plus, osl, obsl)

    def from_under(under):
        """The product of a residual table, with both residuals, if it gives
        that residual back."""
        prod = solve(cells_p, lambda x, y: (n for n in rn if (y, under[x, n]) in below),
                     by_above)
        triple = prod and residuals(prod)
        return triple if triple and triple[1] == under else None

    def from_oslash(osl):
        """The coproduct of a co-residual table, with both co-residuals, if
        it gives that co-residual back."""
        plus = solve(cells_n, lambda m, n: (x for x in rp if (osl[x, n], m) in below),
                     by_below)
        triple = plus and coresiduals(plus)
        return triple if triple and triple[1] == osl else None

    def triples(cells, values, derive):
        """The first three triples derived from the candidate tables."""
        found = []
        for t in tables(cells, values):
            triple = derive(t)
            if triple:
                found.append(triple)
            if len(found) >= 3:
                break
        return found

    # Enumerate the smaller of the two carriers a family's tables could map to.
    prods = (triples(cells_p, P_el, residuals) if len(P_el) <= len(N_el)
             else triples(cells_pn, N_el, from_under))
    plusses = (triples(cells_n, N_el, coresiduals) if len(N_el) <= len(P_el)
               else triples(cells_pn, P_el, from_oslash))
    rng.shuffle(prods)
    rng.shuffle(plusses)

    # A variant reads its base's table, taking an argument whose polarity
    # differs from the base's across the value-preserving isomorphism of
    # the two collages, and lands in its own carrier.
    ring = {True: rp, False: rn}
    across = {"P": "Nd", "Nd": "P", "Pd": "N", "N": "Pd"}
    shapes = []
    for v in _VARIANTS:
        tgt, pols = _SIG[v]
        flips = [pol != base_pol for pol, base_pol in zip(pols, _SIG[_BASE[v]][1])]
        cells = [(cell, tuple((x[0], across[x[1]]) if flip else x
                              for x, flip in zip(cell, flips)))
                 for cell in product(ring[pols[0]], ring[pols[1]])]
        shapes.append((v, _BASE[v], tgt, cells))
    out = []
    for prod_triple, plus_triple in zip(prods, plusses):
        ops = dict(zip(("*", "\\", "/", "(+)", "(/)", "(\\)"), prod_triple + plus_triple))
        variants = {v: {cell: (ops[base][at][0], tgt) for cell, at in cells}
                    for v, base, tgt, cells in shapes}
        inst = FiniteFPLG("fused", *carriers.values(), *_identity_shifts(carriers),
                          wr_sp, wr_pn, wr_sn, ops, variants)
        if not check_fplg_axioms(inst):
            out.append(inst)
        if len(out) >= 3:
            break
    return out


_DUAL_TAG = {"P": "N", "Pd": "Nd", "N": "P", "Nd": "Pd"}


def dual_instance(a: FiniteFPLG) -> FiniteFPLG:
    """Order-reversing dual: polarities swap and orders reverse; each shift
    map and table becomes that of its `infty` image, a table with its
    arguments swapped."""
    def rt(x):
        return (x[0], _DUAL_TAG[x[1]])

    def rev(poset: FinitePoset) -> FinitePoset:
        return FinitePoset(tuple(rt(x) for x in poset.elements),
                           frozenset((rt(y), rt(x)) for (x, y) in poset.leq))

    def revmap(m):
        return {rt(k): rt(v) for k, v in m.items()}

    def revrel(rel):
        return frozenset((rt(y), rt(x)) for (x, y) in rel)

    def swap(table, tag):
        return {(rt(y), rt(x)): (v[0], tag) for ((x, y), v) in table.items()}

    def image(sym):
        return _INFTY["." + sym][0][1:]

    tables = {image(sym): swap(a.table(sym), _SIG[image(sym)][0]) for sym in _BINARY}
    return FiniteFPLG(a.name + "-dual", *(rev(a.poset(_DUAL_TAG[t])) for t in TAGS),
                      *(revmap(getattr(a, image(sh))) for sh in _SHIFTS),
                      revrel(a.wr_shifted_neg), revrel(a.wr_pure),
                      revrel(a.wr_shifted_pos), *_split(tables))


def random_instances(count: int, seed: int = 0) -> list[FiniteFPLG]:
    """Mixed bag of validated instances with carriers of size <= 3."""
    rng = random.Random(seed)
    out: list[FiniteFPLG] = [builtin("chain2"), builtin("chain3"),
                             from_lg(lg_from_lattice(chain_poset(1)), "chain1")]
    # seeds: the chains of 1 to 3 elements, the 2-element antichain, V and its dual
    posets = [chain_poset(1, "a"), chain_poset(2, "a"), chain_poset(3, "a"),
              poset_from_pairs(("a0", "a1"), ()),
              poset_from_pairs(("a0", "a1", "a2"), {("a0", "a1"), ("a0", "a2")}),
              poset_from_pairs(("a0", "a1", "a2"), {("a0", "a2"), ("a1", "a2")})]
    shapes = [(p, n) for p in posets for n in posets if len(p.elements) + len(n.elements) <= 4]
    rng.shuffle(shapes)
    for p_seed, n_seed in shapes:
        p2, n2 = _renamed(p_seed, "p"), _renamed(n_seed, "n")
        for w in _compatible_wrs(p2, n2, rng):
            for inst in _fused_instances(p2, n2, w, rng):
                named = replace(inst, name=f"fused-{len(out)}")
                out.append(named)
                dual = dual_instance(named)
                if not check_fplg_axioms(dual):
                    out.append(dual)
            if len(out) >= count:
                return out[:count]
    i = 0
    while len(out) < count:
        out.append(from_lg(lg_from_lattice(chain_poset(2, f"r{i}.")),
                           f"chain2-copy{i}"))
        i += 1
    return out[:count]
