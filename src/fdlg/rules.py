"""Rule schemas of the focused display calculus.

Each schema is a template over metavariables.  Overloaded purity ("ring"
metavariables) is expressed by leaving the purity constraint open, so the
instantiation of a logical rule against concrete sequents is deterministic.
Invertible rules (display postulates and the two structural shift rules) are
registered in both directions; the inverse of NAME is NAME + "'".

The logical rules are generated from the operational signature (`OP_SIG`,
`FAMILY`, `ORDER_TYPE`), and the binary display postulates from the
residuation laws (`syntax.RESIDUATION_LAWS`); the axioms, the cuts, the shift
display postulates and the structural shift rules are written out.  The rule
classes and sets are read off the schemas.  `orbit` walks a display orbit;
search walks its goals' orbits with it, and `display_chain` reads off the
orbit of a sample sequent the display moves that translation saturation and
the cut reductions make.  `fits`, `backward` and `identify` tell every other
layer which rules a node or a sequent instantiates; apart from them only
`kernel.apply_rule_forward` matches a premise pattern.

Each sequent pattern is compiled on its first use into two straight-line
functions, kept on it: a matcher and a builder of instances.  A formula
pattern at a structure position looks through a leaf to its formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import count

from .syntax import (FAMILY, GROUP_OF, OP_SIG, RESIDUATION_LAWS, STRUCT_OF_OP, STRUCT_SHIFTS,
                     STRUCT_SIG, VARIANT_STRUCTS, Formula, Structure, Sequent, _ANTITONE,
                     display_side, fatom, leaf, signed_nodes, skeleton)


# ---------------------------------------------------------------------------
# Patterns


@dataclass(frozen=True)
class SVar:
    name: str
    positive: bool
    shifted: bool | None = None   # None accepts both purities


@dataclass(frozen=True)
class FVar:
    """Matches a formula leaf and binds the formula."""
    name: str
    positive: bool
    shifted: bool | None = None


@dataclass(frozen=True)
class AVar:
    """Matches an atomic formula leaf."""
    name: str
    positive: bool


@dataclass(frozen=True)
class SNode:
    conn: str
    args: tuple


@dataclass(frozen=True)
class FNode:
    """Matches a formula leaf whose root is an operational connective."""
    conn: str
    args: tuple


@dataclass(frozen=True)
class SeqPat:
    pre: object
    suc: object

    # The compiled matcher and builder, made on first use and kept on the
    # pattern, out of its pickled and copied state.
    match = cached_property(lambda self: _matcher(self))
    build = cached_property(lambda self: _builder(self))

    def __getstate__(self) -> dict:
        return {"pre": self.pre, "suc": self.suc}


@dataclass(frozen=True)
class RuleSchema:
    name: str
    klass: str                    # axiom | cut | translation | tonicity | shift | struct | dp
    premises: tuple[SeqPat, ...]
    conclusion: SeqPat
    inverse: str | None = None
    uses_variants: bool = False   # mentions an l/r-variant or shift adjoint


class MatchFail(Exception):
    pass


def _raise(error: Exception):
    raise error


_SCOPE = {"S": Structure, "F": Formula, "Q": Sequent, "MatchFail": MatchFail, "fail": _raise}


def _define(source: str):
    """The function `source` defines over _SCOPE."""
    exec(source, _SCOPE, scope := {})
    return scope.popitem()[1]


def _matcher(sp: SeqPat):
    """Straight-line code that matches `sp`: it checks and binds the nodes of
    the precedent and then the succedent pattern depth-first, left to right,
    so a failed match leaves the bindings made before it.  SVar and SNode
    stand only at structure positions.  A formula pattern (FVar, AVar, FNode)
    looks through a leaf structure to its formula and fails on any other
    structure.  A metavariable bound before must be bound to an equal term."""
    lines, temps = ["def match(seq, env):"], count()
    local: dict = {}            # metavariable -> the local it was bound from

    def term(pat, x: str, formula: bool) -> None:
        cls = pat.__class__
        if formula and (cls is SVar or cls is SNode) or cls not in (SVar, SNode, FVar, AVar, FNode):
            lines.append(" raise MatchFail")
            return
        if not formula and cls is not SVar and cls is not SNode:
            lines.extend((f" if {x}.conn is not None: raise MatchFail", f" {x} = {x}.leaf"))
        if cls is SNode or cls is FNode:
            lines.append(f" if {x}.conn != {pat.conn!r}: raise MatchFail")
            arity = len((OP_SIG if cls is FNode else STRUCT_SIG).get(pat.conn, (0, ()))[1])
            args = [f"t{next(temps)}" for _ in pat.args[:arity]]
            if args:
                lines.append(f" {''.join(a + ', ' for a in args)}= {x}.args"
                             + ("" if len(args) == arity else f"[:{len(args)}]"))
            for p, a in zip(pat.args, args):
                term(p, a, cls is FNode)
            return
        if cls is AVar:
            test = f"{x}.conn is not None or {x}.atom.positive != {pat.positive}"
        else:
            test = f"(s := {x}.sort).positive != {pat.positive}" + (
                "" if pat.shifted is None else f" or s.shifted != {pat.shifted}")
        b = local.setdefault(pat.name, x)
        if b == x:
            lines.append(f" b = env.get({pat.name!r})")
            test += f" or b is not None and b is not {x} and b != {x}"
        else:
            test += f" or {b} is not {x} and {b} != {x}"
        lines.extend((f" if {test}: raise MatchFail", f" env[{pat.name!r}] = {x}"))

    for side in ("pre", "suc"):
        lines.append(f" t_{side} = seq.{side}")
        term(getattr(sp, side), f"t_{side}", False)
    return _define("\n".join(lines))


def _builder(sp: SeqPat):
    """One expression that builds the sequent `sp` denotes under `env`, its
    terms constructed depth-first, left to right; a formula pattern at a
    structure position gives a leaf, and a formula metavariable bound to a
    leaf gives its formula."""
    def term(pat, formula: bool) -> str:
        cls = pat.__class__
        if cls is SVar and not formula:
            return f"env[{pat.name!r}]"
        if cls is SNode and not formula:
            return f"S({pat.conn!r}, None, ({''.join(term(p, False) + ', ' for p in pat.args)}))"
        if cls is FNode:
            x = f"F({pat.conn!r}, None, ({''.join(term(p, True) + ', ' for p in pat.args)}))"
        elif cls is FVar or cls is AVar:
            x = f"(v.leaf if (v := env[{pat.name!r}]).__class__ is S else v)"
        else:
            error = f"cannot instantiate {pat!r}" + (" as a formula" if formula else "")
            return f"fail(ValueError({error!r}))"
        return x if formula else f"S(None, {x})"
    return _define(f"def build(env):\n return Q({term(sp.pre, False)}, {term(sp.suc, False)})")


def match_sequent(pat: SeqPat, seq: Sequent, env: dict) -> None:
    pat.match(seq, env)


def instantiate_sequent(pat: SeqPat, env: dict) -> Sequent:
    return pat.build(env)


# ---------------------------------------------------------------------------
# Variable occurrence maps (for threading positions through rules)

Pos = tuple[str, tuple[int, ...]]     # ('pre'|'suc', path)


def _leaves(pat, path: tuple[int, ...] = ()):
    """(path, metavariable) for every metavariable leaf of a pattern."""
    if isinstance(pat, (SNode, FNode)):
        for i, p in enumerate(pat.args):
            yield from _leaves(p, path + (i,))
    else:
        yield path, pat


def _seq_var_paths(sp: SeqPat) -> dict[str, Pos]:
    """Metavariable -> its last occurrence in a sequent pattern."""
    return {var.name: (side, path) for side in ("pre", "suc")
            for path, var in _leaves(getattr(sp, side))}


class Directed:
    """A rule schema with its occurrence maps, compiled once."""

    def __init__(self, schema: RuleSchema):
        self.schema = schema
        self.name = schema.name
        self.klass = schema.klass
        self.arity = len(schema.premises)
        self.conc_vars = _seq_var_paths(schema.conclusion)
        self.prem_vars = [_seq_var_paths(p) for p in schema.premises]
        # threads[side]: (path, (premise index, premise side, premise path)
        # or None) per conclusion metavariable on that side, in conc_vars
        # order, read off its first premise occurrence.  Leaves of one side are
        # never prefixes of each other, so one entry at most covers a position.
        self.threads = {side: tuple(
            (path, next(((i, *pv[var]) for i, pv in enumerate(self.prem_vars) if var in pv), None))
            for var, (vside, path) in self.conc_vars.items() if vside == side)
            for side in ("pre", "suc")}
        # each metavariable's sort at its last occurrence, premises first,
        # and the metavariables that bind formula leaves
        leaves = [var for sp in (*schema.premises, schema.conclusion)
                  for side in ("pre", "suc") for _, var in _leaves(getattr(sp, side))]
        self.var_sorts = {var.name: (var.positive, False if isinstance(var, AVar) else var.shifted)
                          for var in leaves}
        self.formula_vars = frozenset(var.name for var in leaves if not isinstance(var, SVar))

    @cached_property
    def pia(self) -> tuple:
        """(side, children) per operational connective of the conclusion
        pattern that is PIA under its static sign (precedent +, succedent -),
        in pre-order, walked by `syntax.signed_nodes` down to the
        metavariables; children holds (path, sign, premise target as in
        threads) for each of its metavariable arguments.  Read by the
        focalization check; computed on first use."""
        return tuple(
            (side, tuple((path + (i,), sign ^ flip, dict(self.threads[side])[path + (i,)])
                               for i, (arg, flip) in enumerate(zip(node.args, _ANTITONE[node.conn]))
                               if isinstance(arg, FVar)))
            for side, side_sign in (("pre", True), ("suc", False))
            for path, node, sign in signed_nodes(getattr(self.schema.conclusion, side), side_sign,
                                                 lambda p: isinstance(p, (SNode, FNode)))
            if isinstance(node, FNode) and not skeleton(node.conn, sign))

    def thread_up(self, pos: Pos):
        """Map a conclusion position to ('principal', None) or (i, premise pos).

        A position inside a metavariable occurrence threads to the premise
        holding that metavariable; anything on the template skeleton counts as
        introduced by the rule.
        """
        side, path = pos
        for vpath, target in self.threads[side]:
            if path[:len(vpath)] == vpath:
                if target is None:
                    return ("principal", None)   # absent from premises (axiom atoms)
                i, pside, ppath = target
                return (i, (pside, ppath + path[len(vpath):]))
        return ("principal", None)


# ---------------------------------------------------------------------------
# The rule inventory

_sv, _fv, _sp = SVar, FVar, SeqPat


def _seq(x, y, left: bool) -> SeqPat:
    """x |- y if `left`, else y |- x."""
    return SeqPat(x, y) if left else SeqPat(y, x)


_RULES: list[RuleSchema] = []


def _add(name, klass, premises, conclusion, inverse=None, uses_variants=False):
    _RULES.append(RuleSchema(name, klass, tuple(premises), conclusion,
                             inverse, uses_variants))


def _add_invertible(name, klass, premise, conclusion, uses_variants=False):
    _add(name, klass, [premise], conclusion, name + "'", uses_variants)
    _add(name + "'", klass, [conclusion], premise, name, uses_variants)


# Axioms
_add("p-Id", "axiom", [], _sp(AVar("a", True), AVar("a", True)))
_add("n-Id", "axiom", [], _sp(AVar("a", False), AVar("a", False)))

# Cuts: the four displayed combinations; anything else is an unknown rule.
_add("P-Cut", "cut",
     [_sp(_sv("X", True), _fv("A", True)), _sp(_fv("A", True), _sv("Y", True))],
     _sp(_sv("X", True), _sv("Y", True)))
_add("N-Cut", "cut",
     [_sp(_sv("G", False), _fv("A", False)), _sp(_fv("A", False), _sv("D", False))],
     _sp(_sv("G", False), _sv("D", False)))
_add("Pn-Cut", "cut",
     [_sp(_sv("X", True), _fv("A", True)), _sp(_fv("A", True), _sv("D", False))],
     _sp(_sv("X", True), _sv("D", False)))
_add("nN-Cut", "cut",
     [_sp(_sv("X", True), _fv("A", False)), _sp(_fv("A", False), _sv("D", False))],
     _sp(_sv("X", True), _sv("D", False)))


# Logical rules, two per operational connective, named from this table, _L
# before _R.  The translation rule turns the connective's structural
# counterpart into its formula; the tonicity rule builds the formula from
# premises that display its arguments, each on the side `display_side` gives
# it, and joins their other sides under the structural counterpart.  An
# F-connective's translation rule is on the left and its tonicity rule on the
# right, a G-connective's the other way round; the shifts' rules are a class
# of their own.
_LOGICAL_NAMES = {"*": "otimes", "(+)": "oplus", "(/)": "oslash", "(\\)": "obslash",
                  "\\": "under", "/": "over", "dn": "down", "up": "up"}


def _add_logical(op: str, name: str) -> None:
    conn, (_, specs) = STRUCT_OF_OP[op], OP_SIG[op]
    pols = [pol for pol, _ in specs]
    # Metavariables keep the names the rules were first written with: formulas
    # P, Q and N, M from the left, structures X, Y from the left and D, G from
    # the right, and the other side of a translation rule X or D.
    forms = tuple(_fv(("PQ" if pol else "NM")[pols[:i].count(pol)], pol, sh)
                  for i, (pol, sh) in enumerate(specs))
    structs = tuple(_sv("XY"[pols[:i].count(pol)] if pol else "DG"[pols[i + 1:].count(pol)],
                        pol, sh) for i, (pol, sh) in enumerate(specs))
    formula, left = FNode(op, forms), FAMILY[op] == "F"
    other = _sv("D", False) if left else _sv("X", True)
    klass = ("translation", "tonicity") if len(specs) == 2 else ("shift", "shift")
    rules = [(klass[0], [_seq(SNode(conn, forms), other, left)], _seq(formula, other, left)),
             (klass[1], [_seq(x, a, display_side(conn, i) == "pre")
                         for i, (x, a) in enumerate(zip(structs, forms))],
              _seq(SNode(conn, structs), formula, left))]
    for suffix, rule in zip(("_L", "_R"), rules if left else rules[::-1]):
        _add(name + suffix, *rule)


for _op, _name in _LOGICAL_NAMES.items():
    _add_logical(_op, _name)


# Binary display postulates.  Each residuation law (syntax.RESIDUATION_LAWS)
# is a chain of its three clause sequents, clause 1 to clause 0 to clause 2,
# but the (+)r law's runs from clause 2 to clause 1.  Each link of a chain is
# a postulate named dp(F-member,G-member), its premise the earlier clause; the
# primed name is the inverse.  The laws, named by their members, keep the
# order they were first written in, which fixes the order of search results;
# a law variable's metavariable is named by its shape (keyed by clause 0's
# group) and its polarity.
_DP_LAWS = ((".*", ".\\", "./"), (".*", ".\\r", "./l"), (".(+)", ".(/)l", ".(\\)r"),
            (".(+)", ".(/)", ".(\\)"), (".(+)r", ".(/)r", ".(\\)"), (".(+)l", ".(/)", ".(\\)l"),
            (".*r", ".\\", "./r"), (".*l", ".\\l", "./"))
_REVERSED_LAW = (".(+)r", ".(/)r", ".(\\)")
_DP_VARIABLES = {".*": ("XG", "YG", "ZD"), ".(+)": ("XS", "YG", "YD")}   # (positive, negative)


def _add_display_postulates(members: tuple, pols: tuple, clauses: tuple) -> None:
    names = _DP_VARIABLES[GROUP_OF[members[0]][0]]
    vs = [_sv(names[v][0 if pol else 1], pol) for v, pol in enumerate(pols)]
    seqs = [_seq(SNode(conn, (vs[i], vs[j])), vs[k], left) for conn, i, j, k, left in clauses]
    chain = (2, 0, 1) if members == _REVERSED_LAW else (1, 0, 2)
    for a, b in zip(chain, chain[1:]):
        f, g = sorted((members[a], members[b]), key=lambda c: FAMILY[c] != "F")
        _add_invertible(f"dp({f},{g})", "dp", seqs[a], seqs[b],
                        any(c in VARIANT_STRUCTS for c in members))


_LAW_OF = {tuple(conn for conn, *_ in clauses): (pols, clauses)
           for pols, clauses in RESIDUATION_LAWS}
for _members in _DP_LAWS:
    _add_display_postulates(_members, *_LAW_OF[_members])

_add_invertible("dp(.up,.dnr)", "dp",
                _sp(SNode(".up", (_sv("X", True, False),)), _sv("D", False, True)),
                _sp(_sv("X", True, False), SNode(".dnr", (_sv("D", False, True),))),
                uses_variants=True)
_add_invertible("dp(.up,.dn)", "dp",
                _sp(SNode(".up", (_sv("X", True, False),)), _sv("D", False, False)),
                _sp(_sv("X", True, False), SNode(".dn", (_sv("D", False, False),))))
_add_invertible("dp(.upl,.dn)", "dp",
                _sp(_sv("X", True, True), SNode(".dn", (_sv("D", False, False),))),
                _sp(SNode(".upl", (_sv("X", True, True),)), _sv("D", False, False)),
                uses_variants=True)

# Structural shift rules (invertible): s-down pairs a neutral sequent with a
# positive one, s-up with a negative one.
_add_invertible("s-down", "struct",
                _sp(_sv("X", True), _sv("D", False, False)),
                _sp(_sv("X", True), SNode(".dn", (_sv("D", False, False),))))
_add_invertible("s-up", "struct",
                _sp(_sv("X", True, False), _sv("D", False)),
                _sp(SNode(".up", (_sv("X", True, False),)), _sv("D", False)))


REGISTRY: dict[str, Directed] = {r.name: Directed(r) for r in _RULES}

# Enumeration order: axioms, translation, tonicity, shift logical, structural
# shift, display postulates, cuts; within a class, the inventory's order.
_CLASS_ORDER = ("axiom", "translation", "tonicity", "shift", "struct", "dp", "cut")
ORDERED_RULES: list[Directed] = sorted(REGISTRY.values(),
                                       key=lambda r: _CLASS_ORDER.index(r.klass))


def _structural(sp: SeqPat) -> str | None:
    """The structural connective at the root of a side of `sp`, if any."""
    return next((x.conn for x in (sp.pre, sp.suc) if isinstance(x, SNode)), None)


# Rules that introduce a formula principally, keyed by the side it lands on.
PRINCIPAL_LEFT = frozenset(r.name for r in _RULES if isinstance(r.conclusion.pre, FNode))
PRINCIPAL_RIGHT = frozenset(r.name for r in _RULES if isinstance(r.conclusion.suc, FNode))
# A logical rule translates the structural connective of its premise into a
# formula, or joins its premises under one in its conclusion (tonicity).
_LOGICAL = [r for r in _RULES if r.name in PRINCIPAL_LEFT | PRINCIPAL_RIGHT]
TRANSLATION_OF = {_structural(r.premises[0]): r.name for r in _LOGICAL
                  if _structural(r.conclusion) is None}
TRANSLATION_RULES = frozenset(TRANSLATION_OF.values())
TONICITY_RULES = frozenset(r.name for r in _LOGICAL) - TRANSLATION_RULES
SHIFT_DPS = frozenset(r.name for r in _RULES
                      if r.klass == "dp" and _structural(r.conclusion) in STRUCT_SHIFTS)
CUT_RULES = frozenset(r.name for r in _RULES if r.klass == "cut")
# The binary display postulates, and the display postulates of the variant-
# free fragment that search and the companion calculus work in: no variant,
# no shift.
_BINARY_DPS = frozenset(r for r in ORDERED_RULES if r.klass == "dp" and r.name not in SHIFT_DPS)
ORBIT_DPS = frozenset(r for r in _BINARY_DPS if not r.schema.uses_variants)


# Root-connective index.  The root key of a structure is its structural
# connective, the operational connective of its formula leaf, or "" for an
# atom leaf; structural connectives start with a dot, so the keys never clash.

def _root(st: Structure) -> str:
    if st.conn is not None:
        return st.conn
    return st.leaf.conn or ""


def _root_fits(pat, key: str) -> bool:
    """Whether a conclusion side pattern can match a structure with this root."""
    if isinstance(pat, SVar):
        return True
    if isinstance(pat, (SNode, FNode)):
        return pat.conn == key
    if isinstance(pat, AVar):
        return key == ""
    return not key.startswith(".")      # FVar: any formula leaf


@cache
def _candidates_at(pre: str, suc: str) -> tuple[Directed, ...]:
    return tuple(r for r in ORDERED_RULES
                 if _root_fits(r.schema.conclusion.pre, pre)
                 and _root_fits(r.schema.conclusion.suc, suc))


def candidates(seq: Sequent) -> tuple[Directed, ...]:
    """The rules of ORDERED_RULES, in order, whose conclusion roots fit `seq`.

    Every rule whose conclusion matches `seq` is among them.
    """
    return _candidates_at(_root(seq.pre), _root(seq.suc))


# ---------------------------------------------------------------------------
# Rule instances.  Every layer asks which rules a node or a goal instantiates:
# the kernel check, backward search, re-application after a mutation, the
# symmetry transform and the companion check.  These three functions are the
# only code that matches a rule's conclusion pattern; a premise pattern is
# matched only here and by kernel.apply_rule_forward.


def fits(rule: Directed, conclusion: Sequent, premises) -> bool:
    """Whether `rule` concludes `conclusion` from the premise derivations
    `premises` (anything with a `.conclusion`), as many as it takes."""
    if rule.arity != len(premises):
        return False
    env: dict = {}
    try:
        rule.schema.conclusion.match(conclusion, env)
        for pat, prem in zip(rule.schema.premises, premises):
            pat.match(prem.conclusion, env)
    except MatchFail:
        return False
    return True


def backward(seq: Sequent, admitted) -> list:
    """(rule, premise sequents) for each rule of the set `admitted` whose
    conclusion matches `seq`, in ORDERED_RULES order.  `admitted` holds no
    cut: every premise metavariable of any other rule occurs in its
    conclusion, so the match builds the premises."""
    out = []
    for rule in candidates(seq):
        if rule in admitted:
            env: dict = {}
            try:
                rule.schema.conclusion.match(seq, env)
            except MatchFail:
                continue
            out.append((rule, [p.build(env) for p in rule.schema.premises]))
    return out


def identify(conclusion: Sequent, premise_orders, hint: Directed | None = None):
    """(rule, premises) for the first rule that fits `conclusion` over one of
    `premise_orders`, tried in turn for each rule: `hint` first, then the
    candidates in order, looked up only if `hint` does not fit; None if no
    rule fits."""
    if hint is not None:
        for premises in premise_orders:
            if fits(hint, conclusion, premises):
                return hint, premises
    for rule in candidates(conclusion):
        for premises in premise_orders:
            if fits(rule, conclusion, premises):
                return rule, premises
    return None


# ---------------------------------------------------------------------------
# Display orbits.  By Belnap's display theorem, binary display postulates make
# any argument of a binary structural connective a whole side, and the
# sequents they reach from a sequent are its display orbit.  Backward search
# branches on the orbits of its goals; translation saturation and the cut
# reductions read their display moves off the orbits of sample sequents.


def orbit(goal: Sequent, step) -> list:
    """Display orbit of `goal`: list of (member, downward display path),
    breadth-first in the order `step` gives the steps.

    `step(seq)` lists the display steps of `seq` as (rule name, premise)
    pairs.  The path lists (rule, conclusion) pairs rebuilding the chain from
    the member down to `goal`.
    """
    seen = {goal}
    out = [(goal, [])]
    for seq, path in out:               # a queue: members are walked as found
        for name, prem in step(seq):
            if prem not in seen:
                seen.add(prem)
                out.append((prem, [(name, seq)] + path))
    return out


def _display(start: Sequent, targets: tuple) -> tuple:
    """The display moves, forward, along the first shortest path of binary
    display postulates from `start` to a sequent with one of `targets` as a
    whole side, and that sequent."""
    for seq, path in orbit(start, lambda seq: [(rule.name, prems[0]) for rule, prems
                                               in backward(seq, _BINARY_DPS)]):
        if seq.pre in targets or seq.suc in targets:
            return tuple(REGISTRY[name].schema.inverse for name, _ in reversed(path)), seq
    raise ValueError(f"no display postulates display {targets} in {start}")


@cache
def display_chain(conn: str, positive: bool, start: int | None, goals: tuple) -> tuple:
    """Display moves on a sample sequent: binary structural connective `conn`
    over distinct atom leaves, in the precedent if it is an F-connective and
    else in the succedent, against an atom leaf of polarity `positive`.  A
    residuation law's metavariables take either purity, so the moves depend
    on the residue's polarity only.  A part is argument i of `conn`, or with
    None the sample's structure of `conn`.  The moves are `_display`'s from
    the sequent displaying part `start` to one displaying a part of `goals`;
    returns them and that part."""
    args = tuple(leaf(fatom(f"a{i}", pol)) for i, (pol, _) in enumerate(STRUCT_SIG[conn][1]))
    rest = leaf(fatom("r", positive))
    whole = Structure(conn, None, args)
    sample = Sequent(whole, rest) if FAMILY[conn] == "F" else Sequent(rest, whole)
    parts = {None: whole, 0: args[0], 1: args[1]}
    seq = sample if start is None else _display(sample, (parts[start],))[1]
    moves, end = _display(seq, tuple(parts[g] for g in goals))
    return moves, next(g for g in goals if parts[g] in (end.pre, end.suc))
