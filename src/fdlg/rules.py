"""Rule schemas of the focused display calculus.

Each schema is a template over metavariables.  Overloaded purity ("ring"
metavariables) is expressed by leaving the purity constraint open, so the
instantiation of a logical rule against concrete sequents is deterministic.
Invertible rules (display postulates and the two structural shift rules) are
registered in both directions; the inverse of NAME is NAME + "'".

One matcher, `_match`, and one instantiation, `_inst`, walk a pattern over
formulas and structures alike: a formula pattern at a structure position
looks through a leaf to its formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .syntax import Formula, Structure, Sequent, leaf


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


def _match(pat, x, env: dict) -> None:
    """Match a structure or formula against a pattern, binding `env`.

    SVar and SNode stand only at structure positions.  A formula pattern
    (FVar, AVar, FNode) looks through a leaf structure to its formula and
    fails on any other structure."""
    cls = pat.__class__
    if cls is not SVar and cls is not SNode and x.__class__ is Structure:
        if x.conn is not None:
            raise MatchFail
        x = x.leaf
    if cls is SNode or cls is FNode:
        if x.conn != pat.conn:
            raise MatchFail
        for p, a in zip(pat.args, x.args):
            _match(p, a, env)
        return
    if cls is AVar:
        if x.conn is not None or x.atom.positive != pat.positive:
            raise MatchFail
    else:                               # SVar or FVar
        so = x.sort
        if so.positive != pat.positive or (pat.shifted is not None and so.shifted != pat.shifted):
            raise MatchFail
    bound = env.get(pat.name)
    if bound is not None and bound != x:
        raise MatchFail
    env[pat.name] = x


def _inst(pat, env: dict, formula: bool = False):
    """The structure a pattern denotes under `env`, or with `formula` the
    formula; a formula pattern at a structure position gives a leaf, and a
    formula metavariable bound to a leaf gives its formula."""
    cls = pat.__class__
    if cls is SVar:
        return env[pat.name]
    if cls is SNode:
        return Structure(pat.conn, None, tuple([_inst(p, env) for p in pat.args]))
    if cls is FNode:
        x = Formula(pat.conn, None, tuple([_inst(p, env, True) for p in pat.args]))
    elif cls is FVar or cls is AVar:
        x = env[pat.name]
        if x.__class__ is Structure:
            x = x.leaf
    else:
        raise ValueError(f"cannot instantiate {pat!r}")
    return x if formula else leaf(x)


def match_sequent(pat: SeqPat, seq: Sequent, env: dict) -> None:
    _match(pat.pre, seq.pre, env)
    _match(pat.suc, seq.suc, env)


def instantiate_sequent(pat: SeqPat, env: dict) -> Sequent:
    return Sequent(_inst(pat.pre, env), _inst(pat.suc, env))


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

    @property
    def arity(self) -> int:
        return len(self.schema.premises)

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

_sv = SVar
_fv = FVar


def _sp(pre, suc) -> SeqPat:
    return SeqPat(pre, suc)


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

# Logical rules.  Translation rules turn a structural connective into its
# operational counterpart; tonicity rules build a formula from displayed
# premises; the four shift rules are kept as their own class.
_add("otimes_L", "translation",
     [_sp(SNode(".*", (_fv("P", True), _fv("Q", True))), _sv("D", False))],
     _sp(FNode("*", (_fv("P", True), _fv("Q", True))), _sv("D", False)))
_add("otimes_R", "tonicity",
     [_sp(_sv("X", True), _fv("P", True)), _sp(_sv("Y", True), _fv("Q", True))],
     _sp(SNode(".*", (_sv("X", True), _sv("Y", True))),
         FNode("*", (_fv("P", True), _fv("Q", True)))))
_add("oplus_L", "tonicity",
     [_sp(_fv("N", False), _sv("G", False)), _sp(_fv("M", False), _sv("D", False))],
     _sp(FNode("(+)", (_fv("N", False), _fv("M", False))),
         SNode(".(+)", (_sv("G", False), _sv("D", False)))))
_add("oplus_R", "translation",
     [_sp(_sv("X", True), SNode(".(+)", (_fv("N", False), _fv("M", False))))],
     _sp(_sv("X", True), FNode("(+)", (_fv("N", False), _fv("M", False)))))
_add("oslash_L", "translation",
     [_sp(SNode(".(/)", (_fv("P", True), _fv("N", False))), _sv("D", False))],
     _sp(FNode("(/)", (_fv("P", True), _fv("N", False))), _sv("D", False)))
_add("oslash_R", "tonicity",
     [_sp(_sv("X", True), _fv("P", True)), _sp(_fv("N", False), _sv("D", False))],
     _sp(SNode(".(/)", (_sv("X", True), _sv("D", False))),
         FNode("(/)", (_fv("P", True), _fv("N", False)))))
_add("obslash_L", "translation",
     [_sp(SNode(".(\\)", (_fv("N", False), _fv("P", True))), _sv("D", False))],
     _sp(FNode("(\\)", (_fv("N", False), _fv("P", True))), _sv("D", False)))
_add("obslash_R", "tonicity",
     [_sp(_fv("N", False), _sv("D", False)), _sp(_sv("X", True), _fv("P", True))],
     _sp(SNode(".(\\)", (_sv("D", False), _sv("X", True))),
         FNode("(\\)", (_fv("N", False), _fv("P", True)))))
_add("under_L", "tonicity",
     [_sp(_sv("X", True), _fv("P", True)), _sp(_fv("N", False), _sv("D", False))],
     _sp(FNode("\\", (_fv("P", True), _fv("N", False))),
         SNode(".\\", (_sv("X", True), _sv("D", False)))))
_add("under_R", "translation",
     [_sp(_sv("X", True), SNode(".\\", (_fv("P", True), _fv("N", False))))],
     _sp(_sv("X", True), FNode("\\", (_fv("P", True), _fv("N", False)))))
_add("over_L", "tonicity",
     [_sp(_fv("N", False), _sv("D", False)), _sp(_sv("X", True), _fv("P", True))],
     _sp(FNode("/", (_fv("N", False), _fv("P", True))),
         SNode("./", (_sv("D", False), _sv("X", True)))))
_add("over_R", "translation",
     [_sp(_sv("X", True), SNode("./", (_fv("N", False), _fv("P", True))))],
     _sp(_sv("X", True), FNode("/", (_fv("N", False), _fv("P", True)))))
_add("down_L", "shift",
     [_sp(_fv("N", False, False), _sv("D", False, False))],
     _sp(FNode("dn", (_fv("N", False, False),)),
         SNode(".dn", (_sv("D", False, False),))))
_add("down_R", "shift",
     [_sp(_sv("X", True), SNode(".dn", (_fv("N", False, False),)))],
     _sp(_sv("X", True), FNode("dn", (_fv("N", False, False),))))
_add("up_L", "shift",
     [_sp(SNode(".up", (_fv("P", True, False),)), _sv("D", False))],
     _sp(FNode("up", (_fv("P", True, False),)), _sv("D", False)))
_add("up_R", "shift",
     [_sp(_sv("X", True, False), _fv("P", True, False))],
     _sp(SNode(".up", (_sv("X", True, False),)),
         FNode("up", (_fv("P", True, False),))))

# Display postulates.  The forward direction is premise-above-conclusion as
# displayed; the primed name is the inverse.
_add_invertible("dp(.*,.\\)", "dp",
                _sp(_sv("Y", True), SNode(".\\", (_sv("X", True), _sv("D", False)))),
                _sp(SNode(".*", (_sv("X", True), _sv("Y", True))), _sv("D", False)))
_add_invertible("dp(.*,./)", "dp",
                _sp(SNode(".*", (_sv("X", True), _sv("Y", True))), _sv("D", False)),
                _sp(_sv("X", True), SNode("./", (_sv("D", False), _sv("Y", True)))))
_add_invertible("dp(.*,.\\r)", "dp",
                _sp(_sv("Y", True), SNode(".\\r", (_sv("X", True), _sv("Z", True)))),
                _sp(SNode(".*", (_sv("X", True), _sv("Y", True))), _sv("Z", True)),
                uses_variants=True)
_add_invertible("dp(.*,./l)", "dp",
                _sp(SNode(".*", (_sv("X", True), _sv("Y", True))), _sv("Z", True)),
                _sp(_sv("X", True), SNode("./l", (_sv("Z", True), _sv("Y", True)))),
                uses_variants=True)
_add_invertible("dp(.(/)l,.(+))", "dp",
                _sp(SNode(".(/)l", (_sv("S", False), _sv("D", False))), _sv("G", False)),
                _sp(_sv("S", False), SNode(".(+)", (_sv("G", False), _sv("D", False)))),
                uses_variants=True)
_add_invertible("dp(.(\\)r,.(+))", "dp",
                _sp(_sv("S", False), SNode(".(+)", (_sv("G", False), _sv("D", False)))),
                _sp(SNode(".(\\)r", (_sv("G", False), _sv("S", False))), _sv("D", False)),
                uses_variants=True)
_add_invertible("dp(.(/),.(+))", "dp",
                _sp(SNode(".(/)", (_sv("X", True), _sv("D", False))), _sv("G", False)),
                _sp(_sv("X", True), SNode(".(+)", (_sv("G", False), _sv("D", False)))))
_add_invertible("dp(.(\\),.(+))", "dp",
                _sp(_sv("X", True), SNode(".(+)", (_sv("G", False), _sv("D", False)))),
                _sp(SNode(".(\\)", (_sv("G", False), _sv("X", True))), _sv("D", False)))
_add_invertible("dp(.(\\),.(+)r)", "dp",
                _sp(SNode(".(\\)", (_sv("G", False), _sv("X", True))), _sv("Y", True)),
                _sp(_sv("X", True), SNode(".(+)r", (_sv("G", False), _sv("Y", True)))),
                uses_variants=True)
_add_invertible("dp(.(/)r,.(+)r)", "dp",
                _sp(_sv("X", True), SNode(".(+)r", (_sv("G", False), _sv("Y", True)))),
                _sp(SNode(".(/)r", (_sv("X", True), _sv("Y", True))), _sv("G", False)),
                uses_variants=True)
_add_invertible("dp(.(/),.(+)l)", "dp",
                _sp(SNode(".(/)", (_sv("X", True), _sv("D", False))), _sv("Y", True)),
                _sp(_sv("X", True), SNode(".(+)l", (_sv("Y", True), _sv("D", False)))),
                uses_variants=True)
_add_invertible("dp(.(\\)l,.(+)l)", "dp",
                _sp(_sv("X", True), SNode(".(+)l", (_sv("Y", True), _sv("D", False)))),
                _sp(SNode(".(\\)l", (_sv("Y", True), _sv("X", True))), _sv("D", False)),
                uses_variants=True)
_add_invertible("dp(.*r,.\\)", "dp",
                _sp(_sv("G", False), SNode(".\\", (_sv("X", True), _sv("D", False)))),
                _sp(SNode(".*r", (_sv("X", True), _sv("G", False))), _sv("D", False)),
                uses_variants=True)
_add_invertible("dp(.*r,./r)", "dp",
                _sp(SNode(".*r", (_sv("X", True), _sv("G", False))), _sv("D", False)),
                _sp(_sv("X", True), SNode("./r", (_sv("D", False), _sv("G", False)))),
                uses_variants=True)
_add_invertible("dp(.*l,.\\l)", "dp",
                _sp(_sv("Y", True), SNode(".\\l", (_sv("G", False), _sv("D", False)))),
                _sp(SNode(".*l", (_sv("G", False), _sv("Y", True))), _sv("D", False)),
                uses_variants=True)
_add_invertible("dp(.*l,./)", "dp",
                _sp(SNode(".*l", (_sv("G", False), _sv("Y", True))), _sv("D", False)),
                _sp(_sv("G", False), SNode("./", (_sv("D", False), _sv("Y", True)))),
                uses_variants=True)
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

SHIFT_DPS = frozenset(n for n in REGISTRY
                      if n.startswith(("dp(.up", "dp(.dn", "dp(.upl")))

# Enumeration order: axioms, translation, tonicity, shift logical, structural
# shift, display postulates, cuts.
_CLASS_ORDER = ("axiom", "translation", "tonicity", "shift", "struct", "dp", "cut")
ORDERED_RULES: list[Directed] = sorted(
    REGISTRY.values(),
    key=lambda r: (_CLASS_ORDER.index(r.klass),
                   [x.name for x in _RULES].index(r.name)))

# Rules that introduce a formula principally, keyed by the side it lands on.
PRINCIPAL_RIGHT = frozenset(("otimes_R", "oslash_R", "obslash_R",
                             "oplus_R", "under_R", "over_R", "down_R", "up_R"))
PRINCIPAL_LEFT = frozenset(("otimes_L", "oslash_L", "obslash_L",
                            "oplus_L", "under_L", "over_L", "down_L", "up_L"))
TRANSLATION_RULES = frozenset(r.name for r in _RULES if r.klass == "translation") | \
    frozenset(("down_R", "up_L"))
TONICITY_RULES = frozenset(r.name for r in _RULES if r.klass == "tonicity") | \
    frozenset(("down_L", "up_R"))
CUT_RULES = frozenset(("P-Cut", "N-Cut", "Pn-Cut", "nN-Cut"))


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
