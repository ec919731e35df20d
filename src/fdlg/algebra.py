"""Finite fully polarized models and brute-force soundness checking.

A finite instance is four posets with four heterogeneous shift maps, three
primitive weakening relations, six binary operations on the two collage
posets and their twelve l/r-variants.  Everything the definition demands is
checked exhaustively; the relations that the definition says are represented
by an adjunction are derived, not stored.

Carriers are tagged pairs (value, tag) with tags P, Pd, N, Nd so the four
sorts stay disjoint.
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, islice, product
from typing import NamedTuple

from .syntax import (Structure, Sequent, STRUCT_OF_OP, formula_nodes,
                     iter_structures)
from .rules import REGISTRY, instantiate_sequent


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
    """a' <= a, a R b, b <= b'  implies  a' R b'."""
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
        for a, b, c in product(es, es, es):
            r1 = le(b, self.op("\\", a, c))
            r2 = le(self.op("*", a, b), c)
            r3 = le(a, self.op("/", c, b))
            if not (r1 == r2 == r3):
                bad.append(f"product residuation fails at {(a, b, c)!r}")
            g1 = le(self.op("(/)", c, b), a)
            g2 = le(c, self.op("(+)", a, b))
            g3 = le(self.op("(\\)", a, c), b)
            if not (g1 == g2 == g3):
                bad.append(f"coproduct residuation fails at {(a, b, c)!r}")
        return bad


def lg_from_lattice(poset: FinitePoset) -> LGAlgebra:
    """Meet/join with their residuals and co-residuals, when they all exist."""
    es = poset.elements
    le = poset.le

    def meet(a, b):
        lower = [c for c in es if le(c, a) and le(c, b)]
        tops = [c for c in lower if all(le(d, c) for d in lower)]
        if not tops:
            raise AlgebraError(f"no meet of {a!r},{b!r}")
        return tops[0]

    def join(a, b):
        upper = [c for c in es if le(a, c) and le(b, c)]
        bots = [c for c in upper if all(le(c, d) for d in upper)]
        if not bots:
            raise AlgebraError(f"no join of {a!r},{b!r}")
        return bots[0]

    ops = {sym: {} for sym in LG_OPS}
    for a, b in product(es, es):
        ops["*"][(a, b)] = meet(a, b)
        ops["(+)"][(a, b)] = join(a, b)
    for a, c in product(es, es):
        under = [b for b in es if le(ops["*"][(a, b)], c)]
        tops = [b for b in under if all(le(d, b) for d in under)]
        if not tops:
            raise AlgebraError("no residual; the lattice is not residuated")
        ops["\\"][(a, c)] = tops[0]
    for c, b in product(es, es):
        ops["/"][(c, b)] = ops["\\"][(b, c)]
    for c, b in product(es, es):
        over = [a for a in es if le(c, ops["(+)"][(a, b)])]
        bots = [a for a in over if all(le(a, d) for d in over)]
        if not bots:
            raise AlgebraError("no co-residual")
        ops["(/)"][(c, b)] = bots[0]
    for a, c in product(es, es):
        over = [b for b in es if le(c, ops["(+)"][(a, b)])]
        bots = [b for b in over if all(le(b, d) for d in over)]
        if not bots:
            raise AlgebraError("no co-residual")
        ops["(\\)"][(a, c)] = bots[0]
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

_VARIANTS = ("*l", "*r", "(+)l", "(+)r", "\\l", "\\r", "/l", "/r",
             "(/)l", "(/)r", "(\\)l", "(\\)r")

# output carrier per operation
_OP_TARGET = {"*": "P", "(/)": "P", "(\\)": "P", "(+)": "N", "\\": "N", "/": "N"}
_VAR_TARGET = {v: ("Nd" if v[0] in "*(" and not v.startswith("(+)") else "Pd")
               for v in _VARIANTS}


# interpretable (precedent tag, succedent tag) pairs and their sequent kinds
_KIND_BY_TAGS = {
    ("P", "P"): "r", ("P", "Pd"): "r.", ("Pd", "Pd"): "r:",
    ("N", "N"): "b", ("Nd", "N"): "b_", ("Nd", "Nd"): "b:",
    ("P", "N"): "n", ("Pd", "N"): "n_", ("P", "Nd"): "n.",
}
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
        return {"P": self.P, "Pd": self.Pd, "N": self.N, "Nd": self.Nd}[tag]

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
        for sym in LG_OPS:
            tables[sym] = tables[STRUCT_OF_OP[sym]] = self.ops.get(sym, {})
        for v in _VARIANTS:
            tables["." + v] = self.variants.get(v, {})
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
        for x, y in src.leq:
            if not tgt.le(m[x], m[y]):
                bad.append(f"{name} not monotone at {x!r},{y!r}")

    monotone(a.up, a.P, a.Nd, "up")
    monotone(a.upl, a.Pd, a.N, "upl")
    monotone(a.dn, a.N, a.Pd, "dn")
    monotone(a.dnr, a.Nd, a.P, "dnr")
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

    for sym in LG_OPS:
        table = a.ops.get(sym)
        if table is None:
            bad.append(f"missing operation {sym}")
            continue
        left = rp.elements if sym in ("*", "(/)", "\\") else rn.elements
        right = {"*": rp, "(/)": rn, "(\\)": rp,
                 "(+)": rn, "\\": rn, "/": rp}[sym].elements
        tgt = carriers[_OP_TARGET[sym]].elements
        for x, y in product(left, right):
            if (x, y) not in table or table[(x, y)] not in tgt:
                bad.append(f"{sym} not total into {_OP_TARGET[sym]} at {(x, y)!r}")
                return bad
    if bad:
        return bad

    hvd = a.hvd
    for p_, q_ in product(rp.elements, rp.elements):
        for n_ in rn.elements:
            r1 = hvd(q_, a.ops["\\"][(p_, n_)])
            r2 = hvd(a.ops["*"][(p_, q_)], n_)
            r3 = hvd(p_, a.ops["/"][(n_, q_)])
            if not (r1 == r2 == r3):
                bad.append(f"product adjunction fails at {(p_, q_, n_)!r}")
    for p_ in rp.elements:
        for m_, n_ in product(rn.elements, rn.elements):
            g1 = hvd(a.ops["(/)"][(p_, n_)], m_)
            g2 = hvd(p_, a.ops["(+)"][(m_, n_)])
            g3 = hvd(a.ops["(\\)"][(m_, p_)], n_)
            if not (g1 == g2 == g3):
                bad.append(f"coproduct adjunction fails at {(p_, m_, n_)!r}")
    if bad:
        return bad

    for v in _VARIANTS:
        if v not in a.variants:
            bad.append(f"missing variant {v}")
    if bad:
        return bad

    lep, len_ = rp.le, rn.le
    P_, N_ = rp.elements, rn.elements
    va, ops = a.variants, a.ops
    for p_, q_, r_ in product(P_, P_, P_):
        if not (lep(q_, va["\\r"][(p_, r_)])
                == lep(ops["*"][(p_, q_)], r_)
                == lep(p_, va["/l"][(r_, q_)])):
            bad.append(f"variant adjunction (product, pos) fails at {(p_, q_, r_)!r}")
            return bad
    for l_, m_, n_ in product(N_, N_, N_):
        if not (len_(va["(/)l"][(l_, n_)], m_)
                == len_(l_, ops["(+)"][(m_, n_)])
                == len_(va["(\\)r"][(m_, l_)], n_)):
            bad.append(f"variant adjunction (coproduct, neg) fails at {(l_, m_, n_)!r}")
            return bad
    for q_, l_, n_ in product(P_, N_, N_):
        if not (lep(q_, va["\\l"][(l_, n_)])
                == len_(va["*l"][(l_, q_)], n_)
                == len_(l_, ops["/"][(n_, q_)])):
            bad.append(f"variant adjunction (mixed under) fails at {(q_, l_, n_)!r}")
            return bad
    for p_, r_, m_ in product(P_, P_, N_):
        if not (len_(va["(/)r"][(p_, r_)], m_)
                == lep(p_, va["(+)r"][(m_, r_)])
                == lep(ops["(\\)"][(m_, p_)], r_)):
            bad.append(f"variant adjunction (mixed co-under) fails at {(p_, r_, m_)!r}")
            return bad
    for l_, p_, n_ in product(N_, P_, N_):
        if not (len_(l_, ops["\\"][(p_, n_)])
                == len_(va["*r"][(p_, l_)], n_)
                == lep(p_, va["/r"][(n_, l_)])):
            bad.append(f"variant adjunction (mixed over) fails at {(l_, p_, n_)!r}")
            return bad
    for p_, r_, n_ in product(P_, P_, N_):
        if not (lep(ops["(/)"][(p_, n_)], r_)
                == lep(p_, va["(+)l"][(r_, n_)])
                == len_(va["(\\)l"][(r_, p_)], n_)):
            bad.append(f"variant adjunction (mixed co-over) fails at {(p_, r_, n_)!r}")
            return bad
    return bad


# ---------------------------------------------------------------------------
# The two constructions


def from_lg(g: LGAlgebra, name: str = "from-lg") -> FiniteFPLG:
    """Four tagged copies, identity shifts, relations read off the order."""
    bad = g.check()
    if bad:
        raise AlgebraError("seed is not an LG-algebra: " + bad[0])

    def tagd(t):
        return tuple((x, t) for x in g.poset.elements)

    def lift(t1, t2=None):
        t2 = t2 or t1
        return frozenset(((x, t1), (y, t2)) for (x, y) in g.poset.leq)

    posets = {t: FinitePoset(tagd(t), lift(t)) for t in TAGS}
    up = {(x, "P"): (x, "Nd") for x in g.poset.elements}
    upl = {(x, "Pd"): (x, "N") for x in g.poset.elements}
    dn = {(x, "N"): (x, "Pd") for x in g.poset.elements}
    dnr = {(x, "Nd"): (x, "P") for x in g.poset.elements}

    ring_pos = posets["P"].elements + posets["Pd"].elements
    ring_neg = posets["Nd"].elements + posets["N"].elements
    ops = {}
    for sym in LG_OPS:
        left = ring_pos if sym in ("*", "(/)", "\\") else ring_neg
        right = {"*": ring_pos, "(/)": ring_neg, "(\\)": ring_pos,
                 "(+)": ring_neg, "\\": ring_neg, "/": ring_pos}[sym]
        tgt = _OP_TARGET[sym]
        ops[sym] = {((x, tx), (y, ty)): (g.op(sym, x, y), tgt)
                    for (x, tx) in left for (y, ty) in right}
    variants = {}
    for v in _VARIANTS:
        base = v[:-1]
        tgt = _VAR_TARGET[v]
        lefts = {"*l": ring_neg, "*r": ring_pos, "(+)l": ring_pos, "(+)r": ring_neg,
                 "\\l": ring_neg, "\\r": ring_pos, "/l": ring_pos, "/r": ring_neg,
                 "(/)l": ring_neg, "(/)r": ring_pos, "(\\)l": ring_pos, "(\\)r": ring_neg}
        rights = {"*l": ring_pos, "*r": ring_neg, "(+)l": ring_neg, "(+)r": ring_pos,
                  "\\l": ring_neg, "\\r": ring_pos, "/l": ring_pos, "/r": ring_neg,
                  "(/)l": ring_neg, "(/)r": ring_pos, "(\\)l": ring_pos, "(\\)r": ring_neg}
        variants[v] = {((x, tx), (y, ty)): (g.op(base, x, y), tgt)
                       for (x, tx) in lefts[v] for (y, ty) in rights[v]}
    inst = FiniteFPLG(name, posets["P"], posets["Pd"], posets["N"], posets["Nd"],
                      up, upl, dn, dnr,
                      lift("P", "Pd"), lift("P", "N"), lift("Nd", "N"),
                      ops, variants)
    return inst


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

    sides = {"*": (True, True), "(/)": (True, False), "(\\)": (False, True),
             "(+)": (False, False), "\\": (True, False), "/": (False, True)}
    ops = {sym: {} for sym in LG_OPS}
    for sym in LG_OPS:
        sl, sr = sides[sym]
        for x, y in product(carrier, carrier):
            v = a.ops[sym][(cast(x, sl), cast(y, sr))]
            ops[sym][(names[cls_of[x]], names[cls_of[y]])] = names[cls_of[v]]
    # well-definedness on representatives is implied by monotonicity; verify
    for sym in LG_OPS:
        sl, sr = sides[sym]
        for x, y in product(carrier, carrier):
            v = a.ops[sym][(cast(x, sl), cast(y, sr))]
            if ops[sym][(names[cls_of[x]], names[cls_of[y]])] != names[cls_of[v]]:
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


def _values(x, tables, leaf, strict: bool) -> tuple:
    """Values of a term, formula or pattern over a batch of assignments.

    `leaf` gives the column of a leaf: one value per assignment.  A node maps
    its table over the columns of its arguments, so every connective is
    resolved once per batch.  Strict lookups raise KeyError on a missing
    entry; the others yield None, which then propagates to the root.
    """
    if not getattr(x, "args", ()):
        return leaf(x)
    cols = [_values(y, tables, leaf, strict) for y in x.args]
    table = tables.get(x.conn, {})
    look = table.__getitem__ if strict else table.get
    return tuple(map(look, cols[0] if len(cols) == 1 else zip(*cols)))


def _atom_leaf(tables, cols):
    """The leaf function of `_values` for terms whose atoms take the values
    in `cols`, a column per atom key."""
    def leaf(x):
        if isinstance(x, Structure):
            x = x.leaf
            if x.conn is not None:
                return _values(x, tables, leaf, True)
        return cols[(x.atom.name, x.atom.positive)]
    return leaf


def _truths(kind: str, a: FiniteFPLG, pre, suc, leaf) -> list[bool]:
    """`interpret` of `pre |- suc`, a sequent of the given kind, over a batch
    of valuations."""
    view = a.view
    if kind not in view.relations:
        raise AlgebraError(f"no weakening relation interprets kind {kind!r}")
    shift, holds = view.relations[kind]
    left = _values(pre, view.tables, leaf, True)
    right = _values(suc, view.tables, leaf, True)
    if shift is not None:
        left = map(shift.__getitem__, left)
    return [pair in holds for pair in zip(left, right)]


def interpret(seq: Sequent, a: FiniteFPLG, v) -> bool:
    """Truth of the sequent under the valuation; structural connectives are
    interpreted exactly like their operational counterparts.  The three
    admissible-but-underivable kinds have no interpreting relation."""
    leaf = _atom_leaf(a.view.tables, {key: (x,) for key, x in v.items()})
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


def check_rule_soundness(rule, a: FiniteFPLG, max_checks: int = 0) -> SoundnessReport:
    """Premises valid implies conclusion valid, for every element assignment.

    Structures denote elements, so sweeping metavariables over the carriers
    covers every instantiation shape; assignments whose premises or conclusion
    land on an uninterpretable kind are vacuous and skipped.
    """
    if isinstance(rule, str):
        rule = REGISTRY[rule]
    varspec = rule.var_sorts
    names = sorted(varspec)
    pools = []
    for n in names:
        pol, sh = varspec[n]
        pure, shifted = (a.P, a.Pd) if pol else (a.N, a.Nd)
        pools.append((pure.elements if sh is not True else ()) +
                     (shifted.elements if sh is not False else ()))
    combos = list(islice(product(*pools), max_checks or None))
    if not combos:
        return SoundnessReport(rule.name, 0, [])
    view = a.view
    cols = dict(zip(names, zip(*combos)))

    def leaf(var):
        return cols[var.name]

    def truths(sp):
        """Per assignment: True, False, or None (missing entry, no relation)."""
        return map(view.truth.get, zip(_values(sp.pre, view.tables, leaf, False),
                                       _values(sp.suc, view.tables, leaf, False)))

    conc = list(truths(rule.schema.conclusion))
    if False not in conc:   # no assignment can violate the rule
        return SoundnessReport(rule.name, len(combos), [])
    prems = [truths(sp) for sp in rule.schema.premises]
    violations = [dict(zip(names, combo)) for combo, c, *ps in zip(combos, conc, *prems)
                  if c is False and all(p is True for p in ps)]
    return SoundnessReport(rule.name, len(combos), violations)


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
                                     _atom_leaf(tables, dict(zip(keys, zip(*rows)))), {})
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
                        values[id(st)] = _values(st, tables, atom_leaf, True)
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
    for name, m in (("up", a.up), ("upl", a.upl), ("dn", a.dn), ("dnr", a.dnr)):
        lines.append(f"%map {name}: " + " ".join(f"{el(k)}->{el(v)}" for k, v in sorted(m.items())))
    for name, r in (("shifted-pos", a.wr_shifted_pos), ("pure", a.wr_pure),
                    ("shifted-neg", a.wr_shifted_neg)):
        lines.append(f"%wr {name}: " + " ".join(f"{el(x)}<={el(y)}" for x, y in sorted(r)))
    for sym in LG_OPS:
        lines.append(f"%op {sym}: " + " ".join(
            f"{el(x)},{el(y)}->{el(v)}" for (x, y), v in sorted(a.ops[sym].items())))
    for v in _VARIANTS:
        lines.append(f"%var {v}: " + " ".join(
            f"{el(x)},{el(y)}->{el(w)}" for (x, y), w in sorted(a.variants[v].items())))
    return "\n".join(lines) + "\n"


# The token shape of each line kind of the algebra file, as text and as a
# pattern.  An element is tag:value, and each element of a token gives a
# (tag, value) pair of groups.
_ELEMENT = r"([^\s:,<=>]+):([^\s,<=>]+)"
_ENTRY = {
    "%carrier": ("tag:value", re.compile(_ELEMENT)),
    "%le": ("x<=y", re.compile(f"{_ELEMENT}<={_ELEMENT}")),
    "%wr": ("x<=y", re.compile(f"{_ELEMENT}<={_ELEMENT}")),
    "%map": ("x->y", re.compile(f"{_ELEMENT}->{_ELEMENT}")),
    "%op": ("x,y->z", re.compile(f"{_ELEMENT},{_ELEMENT}->{_ELEMENT}")),
    "%var": ("x,y->z", re.compile(f"{_ELEMENT},{_ELEMENT}->{_ELEMENT}")),
}


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
    carriers: dict[str, tuple] = {}
    les: dict[str, frozenset] = {}
    maps: dict[str, dict] = {}
    wrs: dict[str, frozenset] = {}
    ops: dict[str, dict] = {}
    variants: dict[str, dict] = {}
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
        rows = groups(kind, body)
        if kind == "%carrier":
            carriers[arg] = tuple((v, t) for t, v in rows)
        elif kind in ("%le", "%wr"):
            (les if kind == "%le" else wrs)[arg] = frozenset(
                ((v1, t1), (v2, t2)) for t1, v1, t2, v2 in rows)
        elif kind == "%map":
            maps[arg] = {(v1, t1): (v2, t2) for t1, v1, t2, v2 in rows}
        else:
            (ops if kind == "%op" else variants)[arg] = {
                ((v1, t1), (v2, t2)): (v3, t3) for t1, v1, t2, v2, t3, v3 in rows}
    for section, found, wanted in (("%carrier", carriers, TAGS), ("%le", les, TAGS),
                                   ("%map", maps, ("up", "upl", "dn", "dnr")),
                                   ("%wr", wrs, ("shifted-pos", "pure", "shifted-neg"))):
        missing = [w for w in wanted if w not in found]
        if missing:
            raise AlgebraError(f"algebra file has no {section} {missing[0]} line")
    posets = {t: FinitePoset(carriers[t], les[t]) for t in TAGS}
    return FiniteFPLG(name, posets["P"], posets["Pd"], posets["N"], posets["Nd"],
                      maps["up"], maps["upl"], maps["dn"], maps["dnr"],
                      wrs["shifted-pos"], wrs["pure"], wrs["shifted-neg"],
                      ops, variants)


def builtin(name: str) -> FiniteFPLG:
    if name == "chain2":
        return from_lg(lg_from_lattice(chain_poset(2)), "chain2")
    if name == "chain3":
        return from_lg(lg_from_lattice(chain_poset(3)), "chain3")
    if name == "diamond":
        return from_lg(lg_from_lattice(diamond_poset()), "diamond")
    raise AlgebraError(f"unknown builtin {name!r}")


def _small_posets(max_size: int):
    out = [chain_poset(1, "a"), chain_poset(2, "a"), chain_poset(3, "a")]
    if max_size >= 2:
        out.append(poset_from_pairs(("a0", "a1"), ()))          # antichain
    if max_size >= 3:
        out.append(poset_from_pairs(("a0", "a1", "a2"), {("a0", "a1"), ("a0", "a2")}))
        out.append(poset_from_pairs(("a0", "a1", "a2"), {("a0", "a2"), ("a1", "a2")}))
    return [p for p in out if len(p.elements) <= max_size]


def _retag(poset: FinitePoset, tag: str) -> FinitePoset:
    return FinitePoset(tuple((x, tag) for x in poset.elements),
                       frozenset(((x, tag), (y, tag)) for (x, y) in poset.leq))


def _compatible_wrs(p: FinitePoset, q: FinitePoset, rng, limit=6):
    """Some weakening relations p -> q: up-closed unions of principal blocks."""
    pairs = [(x, y) for x in p.elements for y in q.elements]
    found = set()
    out = []
    for _ in range(60):
        seed = {pr for pr in pairs if rng.random() < 0.4}
        rel = set(seed)
        changed = True
        while changed:
            changed = False
            for (x, y) in list(rel):
                for x2 in p.elements:
                    if p.le(x2, x):
                        for y2 in q.elements:
                            if q.le(y, y2) and (x2, y2) not in rel:
                                rel.add((x2, y2))
                                changed = True
        fr = frozenset(rel)
        if fr not in found:
            found.add(fr)
            out.append(fr)
        if len(out) >= limit:
            break
    return out


def _derive_residual_triple(ring_p, ring_n, hvd, P_el, N_el, left_table):
    """Given a product table into P, derive both residuals into N, or None."""
    prod, under, over = left_table, {}, {}
    for x, n in product(ring_p.elements, ring_n.elements):
        want = {y for y in ring_p.elements if hvd(prod[(x, y)], n)}
        cands = [m for m in N_el if {y for y in ring_p.elements if hvd(y, m)} == want]
        if not cands:
            return None
        under[(x, n)] = cands[0]
    for n, y in product(ring_n.elements, ring_p.elements):
        want = {x for x in ring_p.elements if hvd(prod[(x, y)], n)}
        cands = [m for m in N_el if {x for x in ring_p.elements if hvd(x, m)} == want]
        if not cands:
            return None
        over[(n, y)] = cands[0]
    return prod, under, over


def _derive_triple_from_under(ring_p, ring_n, hvd, P_el, N_el, under_table):
    """Given a residual table into N, derive the product and the other
    residual, then re-derive the residual for consistency."""
    under, prod = under_table, {}
    for x, y in product(ring_p.elements, ring_p.elements):
        want = {n for n in ring_n.elements if hvd(y, under[(x, n)])}
        cands = [p for p in P_el
                 if {n for n in ring_n.elements if hvd(p, n)} == want]
        if not cands:
            return None
        prod[(x, y)] = cands[0]
    triple = _derive_residual_triple(ring_p, ring_n, hvd, P_el, N_el, prod)
    if triple is None:
        return None
    if triple[1] != under:
        return None
    return triple


def _derive_cotriple_from_oslash(ring_p, ring_n, hvd, P_el, N_el, osl_table):
    """Given a co-residual table into P, derive the coproduct and the rest."""
    osl, plus = osl_table, {}
    for m, n in product(ring_n.elements, ring_n.elements):
        want = {x for x in ring_p.elements if hvd(osl[(x, n)], m)}
        cands = [v for v in N_el
                 if {x for x in ring_p.elements if hvd(x, v)} == want]
        if not cands:
            return None
        plus[(m, n)] = cands[0]
    triple = _derive_coresidual_triple(ring_p, ring_n, hvd, P_el, N_el, plus)
    if triple is None:
        return None
    if triple[1] != osl:
        return None
    return triple


def _derive_coresidual_triple(ring_p, ring_n, hvd, P_el, N_el, plus_table):
    """Given a coproduct table into N, derive both co-residuals into P."""
    plus, osl, obsl = plus_table, {}, {}
    for x, n in product(ring_p.elements, ring_n.elements):
        want = {m for m in ring_n.elements if hvd(x, plus[(m, n)])}
        cands = [p for p in P_el if {m for m in ring_n.elements if hvd(p, m)} == want]
        if not cands:
            return None
        osl[(x, n)] = cands[0]
    for m, x in product(ring_n.elements, ring_p.elements):
        want = {n for n in ring_n.elements if hvd(x, plus[(m, n)])}
        cands = [p for p in P_el if {n for n in ring_n.elements if hvd(p, n)} == want]
        if not cands:
            return None
        obsl[(m, x)] = cands[0]
    return plus, osl, obsl


def _fused_instances(p_seed: FinitePoset, n_seed: FinitePoset, w, rng,
                     cap: int, name: str):
    """Instances whose shifted carriers mirror the opposite pure carrier.

    The two collages coincide with the collage of the seed relation, and the
    variants coincide with the base operations up to retagging, so a full
    enumeration over the small product tables is feasible.
    """
    P = _retag(p_seed, "P")
    N = _retag(n_seed, "N")
    Pd = _retag(n_seed, "Pd")
    Nd = _retag(p_seed, "Nd")
    up = {(x, "P"): (x, "Nd") for x in p_seed.elements}
    dnr = {(x, "Nd"): (x, "P") for x in p_seed.elements}
    dn = {(x, "N"): (x, "Pd") for x in n_seed.elements}
    upl = {(x, "Pd"): (x, "N") for x in n_seed.elements}
    wr_sp = frozenset(((x, "P"), (y, "Pd")) for (x, y) in w)
    wr_pn = frozenset(((x, "P"), (y, "N")) for (x, y) in w)
    wr_sn = frozenset(((x, "Nd"), (y, "N")) for (x, y) in w)

    ring_p = collage(P, Pd, wr_sp)
    ring_n = collage(Nd, N, wr_sn)

    # The pairs on which hvd holds: P below Nd as in the positive seed, P
    # below N as in w, Pd below N as in the negative seed.
    below = {((x, "P"), (y, "Nd")) for x, y in p_seed.leq}
    below.update(((x, "P"), (y, "N")) for x, y in w)
    below.update(((x, "Pd"), (y, "N")) for x, y in n_seed.leq)

    def hvd(a, b):
        return (a, b) in below

    P_el, N_el = P.elements, N.elements
    cells_p = list(product(ring_p.elements, ring_p.elements))
    cells_n = list(product(ring_n.elements, ring_n.elements))

    def tables(cells, values, limit=3000):
        count = len(values) ** len(cells)
        idxs = range(count) if count <= limit else \
            (rng.randrange(count) for _ in range(limit))
        for i in idxs:
            t = {}
            k = i
            for c in cells:
                t[c] = values[k % len(values)]
                k //= len(values)
            yield t

    cells_pn = list(product(ring_p.elements, ring_n.elements))
    out = []
    prods = []
    if len(P_el) <= len(N_el):
        gen = ((_derive_residual_triple(ring_p, ring_n, hvd, P_el, N_el, c))
               for c in tables(cells_p, P_el))
    else:
        gen = ((_derive_triple_from_under(ring_p, ring_n, hvd, P_el, N_el, c))
               for c in tables(cells_pn, N_el))
    for triple in gen:
        if triple:
            prods.append(triple)
        if len(prods) >= max(2, cap):
            break
    plusses = []
    if len(N_el) <= len(P_el):
        gen = ((_derive_coresidual_triple(ring_p, ring_n, hvd, P_el, N_el, c))
               for c in tables(cells_n, N_el))
    else:
        gen = ((_derive_cotriple_from_oslash(ring_p, ring_n, hvd, P_el, N_el, c))
               for c in tables(cells_pn, P_el))
    for triple in gen:
        if triple:
            plusses.append(triple)
        if len(plusses) >= max(2, cap):
            break
    # value-preserving isomorphisms between the two (isomorphic) collages
    iso_np = {("Nd", "P"), ("N", "Pd")}

    def to_pos(x):
        v, t = x
        return (v, {"Nd": "P", "N": "Pd"}[t])

    def to_neg(x):
        v, t = x
        return (v, {"P": "Nd", "Pd": "N"}[t])

    rng.shuffle(prods)
    rng.shuffle(plusses)
    for (prod_t, under, over), (plus_t, osl, obsl) in zip(prods, plusses):
        ops = {"*": prod_t, "\\": under, "/": over,
               "(+)": plus_t, "(/)": osl, "(\\)": obsl}

        def variant(base_table, arg0_iso, arg1_iso, keys0, keys1, tag):
            t = {}
            for x in keys0:
                for y in keys1:
                    bx = to_pos(x) if arg0_iso == "pos" else (
                        to_neg(x) if arg0_iso == "neg" else x)
                    by = to_pos(y) if arg1_iso == "pos" else (
                        to_neg(y) if arg1_iso == "neg" else y)
                    t[(x, y)] = (base_table[(bx, by)][0], tag)
            return t

        rp_el, rn_el = ring_p.elements, ring_n.elements
        variants = {
            # product family: outputs land in the shifted-negative carrier
            "*l": variant(prod_t, "pos", None, rn_el, rp_el, "Nd"),
            "*r": variant(prod_t, None, "pos", rp_el, rn_el, "Nd"),
            "(/)l": variant(osl, "pos", None, rn_el, rn_el, "Nd"),
            "(/)r": variant(osl, None, "neg", rp_el, rp_el, "Nd"),
            "(\\)l": variant(obsl, "neg", None, rp_el, rp_el, "Nd"),
            "(\\)r": variant(obsl, None, "pos", rn_el, rn_el, "Nd"),
            # coproduct family: outputs land in the shifted-positive carrier
            "(+)l": variant(plus_t, "neg", None, rp_el, rn_el, "Pd"),
            "(+)r": variant(plus_t, None, "neg", rn_el, rp_el, "Pd"),
            "\\l": variant(under, "pos", None, rn_el, rn_el, "Pd"),
            "\\r": variant(under, None, "neg", rp_el, rp_el, "Pd"),
            "/l": variant(over, "neg", None, rp_el, rp_el, "Pd"),
            "/r": variant(over, None, "pos", rn_el, rn_el, "Pd"),
        }
        inst = FiniteFPLG(name, P, Pd, N, Nd, up, upl, dn, dnr,
                          wr_sp, wr_pn, wr_sn, ops, variants)
        if not check_fplg_axioms(inst):
            out.append(inst)
        if len(out) >= cap:
            break
    return out


_DUAL_TAG = {"P": "N", "Pd": "Nd", "N": "P", "Nd": "Pd"}


def dual_instance(a: FiniteFPLG) -> FiniteFPLG:
    """Order-reversing dual: polarities swap, orders reverse, the operation
    families trade places with arguments flipped."""
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

    ops = {"*": swap(a.ops["(+)"], "P"), "(+)": swap(a.ops["*"], "N"),
           "\\": swap(a.ops["(/)"], "N"), "(/)": swap(a.ops["\\"], "P"),
           "/": swap(a.ops["(\\)"], "N"), "(\\)": swap(a.ops["/"], "P")}
    variants = {"\\l": swap(a.variants["(/)r"], "Pd"),
                "\\r": swap(a.variants["(/)l"], "Pd"),
                "/l": swap(a.variants["(\\)r"], "Pd"),
                "/r": swap(a.variants["(\\)l"], "Pd"),
                "*l": swap(a.variants["(+)r"], "Nd"),
                "*r": swap(a.variants["(+)l"], "Nd"),
                "(+)l": swap(a.variants["*r"], "Pd"),
                "(+)r": swap(a.variants["*l"], "Pd"),
                "(/)l": swap(a.variants["\\r"], "Nd"),
                "(/)r": swap(a.variants["\\l"], "Nd"),
                "(\\)l": swap(a.variants["/r"], "Nd"),
                "(\\)r": swap(a.variants["/l"], "Nd")}
    return FiniteFPLG(a.name + "-dual",
                      rev(a.N), rev(a.Nd), rev(a.P), rev(a.Pd),
                      revmap(a.dn), revmap(a.dnr), revmap(a.up), revmap(a.upl),
                      revrel(a.wr_shifted_neg), revrel(a.wr_pure),
                      revrel(a.wr_shifted_pos), ops, variants)


def random_instances(count: int, seed: int = 0) -> list[FiniteFPLG]:
    """Mixed bag of validated instances with carriers of size <= 3."""
    rng = random.Random(seed)
    out: list[FiniteFPLG] = [builtin("chain2"), builtin("chain3"),
                             from_lg(lg_from_lattice(chain_poset(1)), "chain1")]
    shapes = [(p, n) for p in _small_posets(3) for n in _small_posets(3)
              if len(p.elements) + len(n.elements) <= 4]
    rng.shuffle(shapes)
    for p_seed, n_seed in shapes:
        p2 = FinitePoset(tuple("p" + str(i) for i, _ in enumerate(p_seed.elements)),
                         frozenset(("p" + str(p_seed.elements.index(a)),
                                    "p" + str(p_seed.elements.index(b)))
                                   for (a, b) in p_seed.leq))
        n2 = FinitePoset(tuple("n" + str(i) for i, _ in enumerate(n_seed.elements)),
                         frozenset(("n" + str(n_seed.elements.index(a)),
                                    "n" + str(n_seed.elements.index(b)))
                                   for (a, b) in n_seed.leq))
        for w in _compatible_wrs(p2, n2, rng, limit=5):
            got = _fused_instances(p2, n2, w, rng, cap=3, name="fused")
            for inst in got:
                named = FiniteFPLG(f"fused-{len(out)}", inst.P, inst.Pd,
                                   inst.N, inst.Nd, inst.up, inst.upl,
                                   inst.dn, inst.dnr, inst.wr_shifted_pos,
                                   inst.wr_pure, inst.wr_shifted_neg,
                                   inst.ops, inst.variants)
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
