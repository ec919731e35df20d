"""Backward focused proof search and lexicon-driven sentence parsing.

The search space is the minimal-proof fragment: cut-free, variant-free, no
shift display postulates (every derivable variant-free sequent has such a
proof).  Display postulates are invertible, so within a phase the search
explores the whole display orbit of the current goal breadth-first, by
`rules.orbit` over `rules.ORBIT_DPS`, and branches only on the non-display
expansions of its members, all matched by `rules.backward`; a per-branch
visited set keeps orbits and shift ping-pong from looping.

The orbit display postulates come in inverse pairs, so orbits are equivalence
classes: every member of an orbit has the same orbit.  One `prove` call gives
each class one bit of an int when its first orbit is built, and the visited
set is the int of the classes on the path.  The orbit of a goal and the steps
of a sequent (its display steps and other expansions) are pure functions of
it and are computed once per call.  Subgoal results are tabled for the call
under the completion rule of tabled resolution: a result depends on the path
only through the classes its search tested and through the depth bound, so it
is stored when the search tested no class on the path and no bound cut it, and
reused under a path that holds none of the classes it tested and a bound no
lower than the least one it needs.  All the tables die with the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from itertools import product

from .syntax import (Formula, Structure, Sequent, leaf, s as snode,
                     parse_formula, render, ParseError)
from .rules import ORBIT_DPS as _ORBIT_DPS, ORDERED_RULES, backward, orbit
from .kernel import Derivation


@dataclass
class SearchConfig:
    max_depth: int = 40
    max_solutions: int = 0          # 0 = no cap

    def __post_init__(self):
        for name, value in (("max_depth", self.max_depth),
                            ("max_solutions", self.max_solutions)):
            if value < 0:
                raise ValueError(f"{name} must not be negative, got {value}")


# The rules the search branches on: every cut-free, variant-free rule that is
# not a display postulate.
_EXPANDERS = frozenset(r for r in ORDERED_RULES if r.klass not in ("dp", "cut")
                       and not r.schema.uses_variants)
_ADMITTED = _ORBIT_DPS | _EXPANDERS


def _steps(seq: Sequent):
    """(display steps, expansions) of the rules concluding `seq`, in rule order.

    A display step is (rule, premise) for an orbit display postulate; an
    expansion is (rule, premise list) for a rule of `_EXPANDERS`.
    """
    display, expansions = [], []
    for rule, prems in backward(seq, _ADMITTED):
        if rule in _ORBIT_DPS:
            display.append((rule.name, prems[0]))
        else:
            expansions.append((rule.name, prems))
    return display, expansions


def _wrap_path(d: Derivation, path) -> Derivation:
    """Rebuild the dp chain below a subproof of an orbit member."""
    for rule, concl in path:
        d = Derivation(rule, concl, (d,))
    return d


class _Tables:
    """The state of one `prove` call: each sequent's steps, each goal's orbit
    and tabled result, and each orbit member's class bit."""

    __slots__ = ("steps", "orbits", "classes", "answers", "next_bit")

    def __init__(self):
        self.steps: dict = {}
        self.orbits: dict = {}
        self.classes: dict = {}
        self.answers: dict = {}
        self.next_bit = 1

    def display(self, seq: Sequent) -> list:
        """The display steps of `seq`; its `_steps` are kept in `steps`."""
        found = self.steps.get(seq)
        if found is None:
            found = self.steps[seq] = _steps(seq)
        return found[0]


def prove(goal: Sequent, cfg: SearchConfig | None = None) -> list[Derivation]:
    """All minimal proofs of `goal` up to the height bound.

    Complete for the minimal-proof search space within cfg.max_depth; an
    empty list means no proof was found within the bounds.  Only goals with
    no l/r-variant and no shift adjoint are covered: for any other, such as
    `p |- .dnr up p`, the list is empty even though the goal is derivable.
    max_solutions caps the returned list (the enumeration order is
    deterministic).  No proof comes twice: the members of an orbit are
    distinct, and a rule matches a conclusion in one way only.

    Each orbit and each sequent's steps are computed once per call, and a
    subgoal's result is reused wherever the path and the bound cannot change
    it; the proofs and their order are those of the untabled search.  Every
    table is dropped on return.
    """
    cfg = cfg or SearchConfig()
    sols = _prove(goal, cfg.max_depth, 0, _Tables())[0]
    return sols[:cfg.max_solutions] if cfg.max_solutions else sols


def _prove(goal: Sequent, depth: int, visited: int, tables: _Tables):
    """(proofs, reached, need) of `goal` within `depth`, off the classes in
    the bits of `visited`.

    `reached` ORs the class bits of every goal tested at or below this one.
    `need` is the least depth at which no bound skipped an orbit member or a
    subgoal; it exceeds `depth` exactly when one did.  The result is the same
    for any `visited` that shares no bit with `reached` and any depth of at
    least `need`, so it is tabled and reused under those conditions.
    """
    if depth <= 0:
        return [], 0, 1
    bit = tables.classes.get(goal)
    if bit is not None:
        if visited & bit:
            return [], bit, 1
        hit = tables.answers.get(goal)
        if hit is not None and hit[2] <= depth and not visited & hit[1]:
            return hit
    entries = tables.orbits.get(goal)
    if entries is None:
        entries = tables.orbits[goal] = orbit(goal, tables.display)
        if bit is None:
            bit = tables.next_bit
            tables.next_bit = bit << 1
            classes = tables.classes
            for member, _ in entries:
                classes[member] = bit
    blocked = visited | bit
    reached, need = bit, 1
    results: list[Derivation] = []
    for member, path in entries:
        cost = len(path) + 1
        if cost > need:
            need = cost
        if cost > depth:                # breadth-first: the rest cost more
            break
        for name, prems in tables.steps[member][1]:
            if not prems:
                results.append(_wrap_path(Derivation(name, member), path))
                continue
            sub_lists = []
            for prem in prems:
                subs, sub_reached, sub_need = _prove(prem, depth - cost, blocked, tables)
                reached |= sub_reached
                if cost + sub_need > need:
                    need = cost + sub_need
                if not subs:
                    break
                sub_lists.append(subs)
            else:
                for combo in product(*sub_lists):
                    results.append(_wrap_path(Derivation(name, member, tuple(combo)), path))
    out = results, reached, need
    if need <= depth and not visited & reached:
        tables.answers[goal] = out
    return out


# ---------------------------------------------------------------------------
# Lexicon and parsing-as-deduction


class LexiconError(ValueError):
    pass


@dataclass
class Lexicon:
    entries: dict[str, Formula] = field(default_factory=dict)
    neg_atoms: frozenset[str] = frozenset()

    @classmethod
    def from_text(cls, text: str) -> "Lexicon":
        """One `word := formula` per line; `%neg atom` declares a negative
        atom; `#` starts a comment."""
        neg: set[str] = set()
        raw: list[tuple[str, str]] = []
        for ln, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("%neg"):
                neg.update(line[4:].split())
                continue
            if ":=" not in line:
                raise LexiconError(f"line {ln}: expected `word := formula`")
            word, _, body = line.partition(":=")
            raw.append((word.strip(), body.strip()))
        entries = {}
        for word, body in raw:
            try:
                entries[word] = parse_formula(body, neg)
            except ParseError as e:
                raise LexiconError(f"entry for {word!r}: {e}") from None
        return cls(entries, frozenset(neg))

    def to_text(self) -> str:
        lines = [f"%neg {a}" for a in sorted(self.neg_atoms)]
        lines += [f"{w} := {render(fm)}" for w, fm in self.entries.items()]
        return "\n".join(lines) + "\n"


def _bracket(parts: list[Structure], shape) -> Structure:
    """Join the words by `shape`: nested pairs of word indices that name every
    word once, left to right; None means right-branching."""
    if shape is None:                          # right-branching default
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = snode(".*", p, out)
        return out
    order: list[int] = []

    def build(x) -> Structure:
        if isinstance(x, int) and not isinstance(x, bool):
            if not 0 <= x < len(parts):
                raise LexiconError(f"bracketing index {x} is out of range for "
                                   f"{len(parts)} word(s)")
            order.append(x)
            return parts[x]
        if isinstance(x, (list, tuple)) and len(x) == 2:
            return snode(".*", build(x[0]), build(x[1]))
        raise LexiconError(f"bracketing {x!r} is neither a word index nor a pair")

    out = build(shape)
    if order != list(range(len(parts))):
        raise LexiconError("bracketing must name every word once, left to right")
    return out


def sentence_sequent(words, lexicon: Lexicon, goal: Formula,
                     bracketing=None) -> Sequent:
    parts = []
    for w in words:
        if w not in lexicon.entries:
            raise LexiconError(f"unknown word {w!r}")
        parts.append(leaf(lexicon.entries[w]))
    if not parts:
        raise LexiconError("empty sentence")
    return Sequent(_bracket(parts, bracketing), leaf(goal))


def parse_sentence(words, lexicon: Lexicon, goal: Formula,
                   cfg: SearchConfig | None = None, bracketing=None):
    """Each returned derivation is a distinct reading of the sentence."""
    seq = sentence_sequent(words, lexicon, goal, bracketing)
    return prove(seq, cfg)
