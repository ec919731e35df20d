"""The per-class matcher and all-rules reference scans.

`match_sequent` and `instantiate_sequent` are those of `fdlg.rules` as they
read before one `_match` and one `_inst` took either a formula or a
structure: a formula walk and a structure walk each, the structure walk
handing a leaf's formula to the formula walk.  `fdlg.rules` now compiles each
sequent pattern into a straight-line matcher and builder instead.
`test_rules_reference` requires both to fail or give equal bindings, and
equal instances, for every rule pattern, and to raise the same errors; the
scans below use this pair, so `test_rule_index` does not compare the live
matcher with itself.

`match_rule` is the node test of `fdlg.kernel` as it read before
`fdlg.rules.fits` served every layer, on this matcher.  The scans are the
backward expansion of `fdlg.kernel` and the display-orbit step of
`fdlg.search` as they read before rules were indexed: every rule of
ORDERED_RULES is tried against the sequent.  `test_rule_index` requires
`fdlg.rules.backward` and the search's steps to return the same lists in the
same order, and `reference_search` takes its expansions from
`backward_expansions`.  Likewise `identify_rule` and `reapply` try every rule
of REGISTRY, as the rule identification of `fdlg.kernel` and the
re-application of `fdlg.cutelim` did before they scanned only the candidate
rules; `test_kernel` and `test_cutelim` require the same rule to be picked.

`thread_up` is `Directed.thread_up` as it read before the rules compiled
their thread maps: it scans the conclusion's metavariables and then the
premises' on every call.  `check_strong_focalization` is the focalization
check as it read before it threaded each component from its root: it traces
every member from the end-sequent with `trace_to_intro`, itself built on this
`thread_up`.  `lowest_first` traces the same way but reports the lowest of
several interruptions, as the live check does.  `test_threading` and
`test_focalization` require the same answers.

`HAND_RULES`, `SATURATION` and `TONICITY_PREMISES` are the rule inventory of
`fdlg.rules` and the two tables of `fdlg.kernel` as they were typed by hand,
before they were generated from the signature and the residuation laws.
`test_generated_tables` requires the generated ones to equal them.
"""

from __future__ import annotations

from fdlg.cutelim import has_cut
from fdlg.focus import FocalizationReport, _formula_components, _formula_positions
from fdlg.kernel import Derivation, KernelError, apply_rule_forward, path_str
from fdlg.rules import (ORDERED_RULES, REGISTRY, SHIFT_DPS, TONICITY_RULES, AVar, FNode,
                        FVar, MatchFail, RuleSchema, SeqPat, SNode, SVar)
from fdlg.syntax import Formula, Sequent, Structure, leaf, render


def _match_formula(pat, fml: Formula, env: dict) -> None:
    if isinstance(pat, FVar):
        st = fml.sort
        if st.positive != pat.positive or (pat.shifted is not None and st.shifted != pat.shifted):
            raise MatchFail
        if pat.name in env and env[pat.name] != fml:
            raise MatchFail
        env[pat.name] = fml
        return
    if isinstance(pat, AVar):
        if fml.conn is not None or fml.atom.positive != pat.positive:
            raise MatchFail
        if pat.name in env and env[pat.name] != fml:
            raise MatchFail
        env[pat.name] = fml
        return
    if isinstance(pat, FNode):
        if fml.conn != pat.conn:
            raise MatchFail
        for p, a in zip(pat.args, fml.args):
            _match_formula(p, a, env)
        return
    raise MatchFail


def _match(pat, st: Structure, env: dict) -> None:
    if isinstance(pat, SVar):
        so = st.sort
        if so.positive != pat.positive or (pat.shifted is not None and so.shifted != pat.shifted):
            raise MatchFail
        if pat.name in env and env[pat.name] != st:
            raise MatchFail
        env[pat.name] = st
        return
    if isinstance(pat, (FVar, AVar, FNode)):
        if st.conn is not None:
            raise MatchFail
        _match_formula(pat, st.leaf, env)
        return
    if isinstance(pat, SNode):
        if st.conn != pat.conn:
            raise MatchFail
        for p, a in zip(pat.args, st.args):
            _match(p, a, env)
        return
    raise MatchFail


def _inst_formula(pat, env: dict) -> Formula:
    if isinstance(pat, (FVar, AVar)):
        v = env[pat.name]
        if isinstance(v, Structure):     # a formula var may hold a leaf binding
            v = v.leaf
        return v
    if isinstance(pat, FNode):
        return Formula(pat.conn, None, tuple(_inst_formula(p, env) for p in pat.args))
    raise ValueError(f"cannot instantiate {pat!r} as a formula")


def _inst(pat, env: dict) -> Structure:
    if isinstance(pat, SVar):
        return env[pat.name]
    if isinstance(pat, (FVar, AVar, FNode)):
        return leaf(_inst_formula(pat, env))
    if isinstance(pat, SNode):
        return Structure(pat.conn, None, tuple(_inst(p, env) for p in pat.args))
    raise ValueError(f"cannot instantiate {pat!r}")


def match_sequent(pat, seq, env: dict) -> None:
    _match(pat.pre, seq.pre, env)
    _match(pat.suc, seq.suc, env)


def instantiate_sequent(pat, env: dict):
    return Sequent(_inst(pat.pre, env), _inst(pat.suc, env))


def match_rule(name, conclusion, premises):
    """Environment instantiating rule `name` at the given node, or None."""
    rule = REGISTRY.get(name)
    if rule is None or rule.arity != len(premises):
        return None
    env: dict = {}
    try:
        match_sequent(rule.schema.conclusion, conclusion, env)
        for pat, prem in zip(rule.schema.premises, premises):
            match_sequent(pat, prem, env)
    except MatchFail:
        return None
    return env


def backward_expansions(goal, allow_variants=False):
    """(rule name, premises) for every non-cut rule concluding `goal`."""
    out = []
    for rule in ORDERED_RULES:
        if rule.klass == "cut":
            continue
        if not allow_variants and rule.schema.uses_variants:
            continue
        env: dict = {}
        try:
            match_sequent(rule.schema.conclusion, goal, env)
        except MatchFail:
            continue
        if rule.klass == "axiom":
            out.append((rule.name, []))
            continue
        try:
            prems = [instantiate_sequent(p, env) for p in rule.schema.premises]
        except KeyError:
            continue
        out.append((rule.name, prems))
    return out


def display_steps(seq, allow_variants):
    dps = [r for r in ORDERED_RULES if r.klass == "dp"
           and r.name not in SHIFT_DPS
           and (allow_variants or not r.schema.uses_variants)]
    out = []
    for rule in dps:
        env: dict = {}
        try:
            match_sequent(rule.schema.conclusion, seq, env)
            prem = instantiate_sequent(rule.schema.premises[0], env)
        except (MatchFail, KeyError):
            continue
        out.append((rule.name, prem))
    return out


def identify_rule(conclusion, premises):
    """(name, premise derivations in the order that fits) of the first rule
    of REGISTRY the node instantiates, trying both orders of two premises;
    None if no rule fits."""
    orders = [tuple(premises)]
    if len(premises) == 2:
        orders.append((premises[1], premises[0]))
    for name, rule in REGISTRY.items():
        if rule.arity != len(premises):
            continue
        for prems in orders:
            if match_rule(name, conclusion, [p.conclusion for p in prems]) is not None:
                return name, prems
    return None


def reapply(hint, premises, expected):
    """Name of the rule that re-applies over `premises` to give `expected`:
    the hint first, then every other rule; None if there is none."""
    prem_seqs = [p.conclusion for p in premises]
    for name in [hint] + [n for n in REGISTRY if n != hint]:
        if REGISTRY[name].arity != len(premises):
            continue
        try:
            conc = apply_rule_forward(name, prem_seqs)
        except KernelError:
            continue
        if conc == expected:
            return name
    return None


def thread_up(self, pos):
    """Map a conclusion position to ('principal', None) or (i, premise pos).

    A position inside a metavariable occurrence threads to the premise
    holding that metavariable; anything on the template skeleton counts as
    introduced by the rule.
    """
    side, path = pos
    for var, (vside, vpath) in self.conc_vars.items():
        if vside != side:
            continue
        if path[:len(vpath)] == vpath:
            rest = path[len(vpath):]
            for i, pv in enumerate(self.prem_vars):
                if var in pv:
                    pside, ppath = pv[var]
                    return (i, (pside, ppath + rest))
            return ("principal", None)   # var absent from premises (axiom atoms)
    return ("principal", None)


def trace_to_intro(node: Derivation, pos, path: tuple[int, ...] = ()):
    """Derivation path of the node whose rule introduced the occurrence."""
    path = list(path)
    while True:
        res = thread_up(REGISTRY[node.rule], pos)
        if res[0] == "principal":
            return tuple(path)
        i, pos = res
        path.append(i)
        node = node.premises[i]


def check_strong_focalization(d: Derivation) -> FocalizationReport:
    """Cut-free, and every PIA subtree of every formula is built by an
    uninterrupted tonicity section.

    Every formula occurring in a cut-free proof occurs inside the end-sequent
    (no rule erases material and signs are preserved along threads), so the
    check anchors on end-sequent occurrences.
    """
    if has_cut(d):
        return FocalizationReport(False, "proof contains a cut", "(root)")
    for (pos, fml, sign) in _formula_positions(d.conclusion):
        for kind, members in _formula_components(fml, sign):
            if kind != "pia" or not members:
                continue
            side, base = pos
            intro_paths = {}
            for fpath in members:
                node_path = trace_to_intro(d, (side, base + fpath))
                intro_paths[fpath] = node_path
            root_fpath = min(members, key=len)
            n0 = intro_paths[root_fpath]
            internal = set()
            for fpath, np in intro_paths.items():
                if np[:len(n0)] != n0:
                    return FocalizationReport(
                        False, "PIA subtree split across branches",
                        f"{render(fml)} at {path_str(np)}")
                for k in range(len(n0), len(np) + 1):
                    internal.add(np[:k])
            for np in internal:
                node = d
                for i in np:
                    node = node.premises[i]
                if node.rule not in TONICITY_RULES:
                    return FocalizationReport(
                        False,
                        f"PIA subtree of {render(fml)} interrupted by {node.rule}",
                        path_str(np))
    return FocalizationReport(True)


def lowest_first(d: Derivation) -> FocalizationReport:
    """The tracing of `check_strong_focalization`, with the live check's
    choice among several interruptions: members in pre-order, each one's
    nodes from the root's introduction up."""
    if has_cut(d):
        return check_strong_focalization(d)
    for ((side, base), fml, sign) in _formula_positions(d.conclusion):
        for kind, members in _formula_components(fml, sign):
            if kind != "pia" or not members:
                continue
            intro = {fpath: trace_to_intro(d, (side, base + fpath)) for fpath in members}
            n0 = intro[min(members)]
            for fpath in sorted(members):
                np = intro[fpath]
                for k in range(len(n0), len(np) + 1):
                    node = d
                    for i in np[:k]:
                        node = node.premises[i]
                    if node.rule not in TONICITY_RULES:
                        return FocalizationReport(
                            False, f"PIA subtree of {render(fml)} interrupted by {node.rule}",
                            path_str(np[:k]))
    return FocalizationReport(True)


# ---------------------------------------------------------------------------
# The hand-typed rule inventory and kernel tables

_sv = SVar
_fv = FVar


def _sp(pre, suc) -> SeqPat:
    return SeqPat(pre, suc)


HAND_RULES: list[RuleSchema] = []


def _add(name, klass, premises, conclusion, inverse=None, uses_variants=False):
    HAND_RULES.append(RuleSchema(name, klass, tuple(premises), conclusion,
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


# (side, root connective) -> (the rule that introduces its formula, and per
# argument to fold first: its index, the display moves that make it a whole
# side, and that side).  A structural shift's index is None: its s-* pair is
# taken even around a formula, while a binary connective's argument that is
# already a formula is left alone.  Each argument's fold is undone by the
# inverse moves in reverse order.
SATURATION = {
    ("suc", ".dn"): ("down_R", ((None, ("s-down'",), "suc"),)),
    ("suc", ".(+)"): ("oplus_R", ((0, ("dp(.(/),.(+))'",), "suc"),
                                  (1, ("dp(.(\\),.(+))",), "suc"))),
    ("suc", ".\\"): ("under_R", ((0, ("dp(.*,.\\)", "dp(.*,./)"), "pre"),
                                 (1, ("dp(.*,.\\)",), "suc"))),
    ("suc", "./"): ("over_R", ((1, ("dp(.*,./)'", "dp(.*,.\\)'"), "pre"),
                               (0, ("dp(.*,./)'",), "suc"))),
    ("pre", ".up"): ("up_L", ((None, ("s-up'",), "pre"),)),
    ("pre", ".*"): ("otimes_L", ((0, ("dp(.*,./)",), "pre"),
                                 (1, ("dp(.*,.\\)'",), "pre"))),
    ("pre", ".(/)"): ("oslash_L", ((0, ("dp(.(/),.(+))",), "pre"),
                                   (1, ("dp(.(/),.(+))", "dp(.(\\),.(+))"), "suc"))),
    ("pre", ".(\\)"): ("obslash_L", ((1, ("dp(.(\\),.(+))'",), "pre"),
                                     (0, ("dp(.(\\),.(+))'", "dp(.(/),.(+))'"), "suc"))),
}


# The six two-premise tonicity rules: the structural connective they join
# the premises' other sides with, and the side of each premise where its
# argument of the new formula stands.  The companion calculus's rules of the
# same names have the same rows (fdlg.translate), and the cut reductions read
# from them on which side of a smaller cut each premise stands (fdlg.cutelim).
TONICITY_PREMISES = {
    "otimes_R": (".*", ("suc", "suc")),
    "oslash_R": (".(/)", ("suc", "pre")),
    "obslash_R": (".(\\)", ("pre", "suc")),
    "oplus_L": (".(+)", ("pre", "pre")),
    "under_L": (".\\", ("suc", "pre")),
    "over_L": ("./", ("pre", "suc")),
}
