"""term-closure: building terms.

The height-6, size-12 forward closure over one positive and one negative atom
(criterion 6 of the acceptance suite), run by the benchmark's own loop over
`rules.match_sequent` and `rules.instantiate_sequent`; the standard sequent of
every member; and the bowtie and infty images of every depth-4 formula.
"""

from __future__ import annotations

from fdlg import kernel, rules, standardize
from fdlg.syntax import Atom, SortError, bowtie, infty, iter_formulas

from common import expect

MAX_HEIGHT = 6
MAX_SIZE = 12
FORMULA_DEPTH = 4
BATCH = 2000
UNDERIVABLE = frozenset(("r_", "b.", "n:"))
# Sizes of this workload at the calculus as defined; a change to them is a
# change of the calculus, not of speed.
EXPECTED_MEMBERS = 686
EXPECTED_MATCHES = 175768
EXPECTED_HITS = 18862
EXPECTED_FORMULAS = 38554


def _formula_size(x) -> int:
    return 1 + sum(_formula_size(a) for a in x.args)


def _size(x) -> int:
    if x.conn is None:
        return _formula_size(x.leaf)
    return 1 + sum(_size(a) for a in x.args)


def _formula_atoms(x, out: list) -> list:
    if x.conn is None:
        out.append(x.atom)
    for a in x.args:
        _formula_atoms(a, out)
    return out


def _atoms(x, out: list) -> list:
    """Atoms from left to right; standardization must keep them."""
    if x.conn is None:
        return _formula_atoms(x.leaf, out)
    for a in x.args:
        _atoms(a, out)
    return out


class Closure:
    """Forward closure state, one level per item."""

    def __init__(self, atoms, tracer):
        usable = [r for r in rules.ORDERED_RULES if r.klass != "cut"]
        self.unary = [r for r in usable if r.arity == 1]
        self.binary = [r for r in usable if r.arity == 2]
        self.atoms = atoms
        self.height: dict = {}
        self.frontier: list = []
        self.calls = 0
        self.hits = 0
        self.match = tracer.timed("rules.match", rules.match_sequent)
        self.instantiate = tracer.timed("rules.instantiate", rules.instantiate_sequent)

    def _match(self, pat, seq, env) -> bool:
        self.calls += 1
        try:
            self.match(pat, seq, env)
        except rules.MatchFail:
            return False
        self.hits += 1
        return True

    def _add(self, pat, env, level, new) -> None:
        try:
            seq = self.instantiate(pat, env)
        except (KeyError, SortError):
            return
        if sum(map(_size, (seq.pre, seq.suc))) <= MAX_SIZE and seq not in self.height:
            self.height[seq] = level
            new.append(seq)

    def seed(self) -> None:
        for a in self.atoms:
            name = "p-Id" if a.positive else "n-Id"
            self.height[kernel.apply_rule_forward(name, [], selector=a)] = 1
        self.frontier = list(self.height)

    def level(self, level: int) -> None:
        new: list = []
        for seq in self.frontier:
            for r in self.unary:
                env: dict = {}
                if self._match(r.schema.premises[0], seq, env):
                    self._add(r.schema.conclusion, env, level, new)
        known = list(self.height)
        for r in self.binary:
            first, second = r.schema.premises
            for s1 in self.frontier:
                env1: dict = {}
                if not self._match(first, s1, env1):
                    continue
                for s2 in known:
                    env = dict(env1)
                    if self._match(second, s2, env):
                        self._add(r.schema.conclusion, env, level, new)
                env2: dict = {}
                if not self._match(second, s1, env2):
                    continue
                for s2 in known:
                    if self.height[s2] == level:
                        continue
                    env = dict(env2)
                    if self._match(first, s2, env):
                        self._add(r.schema.conclusion, env, level, new)
        self.frontier = new


def setup(ctx):
    tag = ctx.tag()
    return Atom("p" + tag, True), Atom("n" + tag, False)


def _closure_level(tracer, closure: Closure, level: int):
    if level == 1:
        closure.seed()
    else:
        closure.level(level)
    if level < MAX_HEIGHT:
        return
    tracer.add("rules.match_calls", closure.calls)
    tracer.add("rules.match_hits", closure.hits)
    members = closure.height
    expect(len(members) == EXPECTED_MEMBERS, f"{len(members)} members")
    expect((closure.calls, closure.hits) == (EXPECTED_MATCHES, EXPECTED_HITS),
           f"{closure.calls} matches, {closure.hits} hits")
    expect(not any(s.kind in UNDERIVABLE for s in members), "an underivable kind was derived")


def _standardize(tracer, members):
    with tracer.span("standardize.standard"):
        images = [standardize.standard_sequent(s) for s in members]
        again = [standardize.standard_sequent(s) for s in images]
    expect(images == again, "standard_sequent is not idempotent")
    for s, t in zip(members, images):
        expect(_atoms(s.pre, []) == _atoms(t.pre, []) and _atoms(s.suc, []) == _atoms(t.suc, []),
               "standardization moved an atom")


def _enumerate(tracer, atoms, out: list):
    with tracer.span("syntax.enumerate"):
        out.extend(iter_formulas(atoms, FORMULA_DEPTH))
    tracer.add("syntax.formulas", len(out))
    expect(len(out) == EXPECTED_FORMULAS, f"{len(out)} formulas")
    expect(len(set(out)) == len(out), "a formula is enumerated twice")


def _symmetries(tracer, batch):
    with tracer.span("syntax.symmetry"):
        b = [bowtie(x) for x in batch]
        bb = [bowtie(x) for x in b]
        i = [infty(x) for x in batch]
        ii = [infty(x) for x in i]
    expect(bb == batch, "bowtie is not an involution")
    expect(ii == batch, "infty is not an involution")
    expect(all(x.sort == y.sort for x, y in zip(batch, b)), "bowtie changed a sort")
    expect(all(x.sort.positive != y.sort.positive for x, y in zip(batch, i)),
           "infty kept a polarity")


def run(atoms, p):
    tr = p.tracer
    closure = Closure(atoms, tr)
    for level in range(1, MAX_HEIGHT + 1):
        p.item(f"closure-{level}", _closure_level, tr, closure, level)
    p.item("standardize", _standardize, tr, list(closure.height))
    formulas: list = []
    p.item("enumerate", _enumerate, tr, atoms, formulas)
    for k in range(0, len(formulas), BATCH):
        p.item(f"symmetry-{k // BATCH}", _symmetries, tr, formulas[k:k + BATCH])
