"""Deterministic generators and the bounded forward enumeration used by the
property and acceptance tests, and a way to run a deeply recursive reference."""

from __future__ import annotations

import random
import sys
import threading

from fdlg.syntax import Atom, Formula, Structure, Sequent, SortError, leaf
from fdlg.rules import ORDERED_RULES, match_sequent, instantiate_sequent, MatchFail
from fdlg.kernel import (Derivation, KernelError, apply_rule_forward, derive, make_cut,
                         identity_expansion)
from fdlg.translate import FlgDerivation, apply_flg, TranslateError
from fdlg.corpus import GOAL
from fdlg.search import Lexicon, sentence_sequent

ATOMS_PN = (Atom("p", True), Atom("n", False))


def random_formula(rng: random.Random, depth: int, positive=None,
                   shifted=None) -> Formula:
    """A random well-sorted formula over p (positive) and n (negative)."""
    if shifted:
        positive = positive if positive is not None else rng.random() < 0.5
        inner = random_formula(rng, max(1, depth - 1), not positive, False)
        return Formula("dn" if positive else "up", None, (inner,))
    if depth <= 1 or rng.random() < 0.3:
        if positive is None:
            positive = rng.random() < 0.5
        return Formula(None, Atom("p" if positive else "n", positive))
    pols = {"*": (True, True), "(/)": (True, False), "(\\)": (False, True),
            "(+)": (False, False), "\\": (True, False), "/": (False, True)}
    conns_pos, conns_neg = ["*", "(/)", "(\\)"], ["(+)", "\\", "/"]
    if shifted is None:
        conns_pos, conns_neg = conns_pos + ["dn"], conns_neg + ["up"]
    conn = rng.choice(conns_pos if positive else conns_neg if positive is False
                      else conns_pos + conns_neg)
    if conn == "dn":
        return Formula("dn", None, (random_formula(rng, depth - 1, False, False),))
    if conn == "up":
        return Formula("up", None, (random_formula(rng, depth - 1, True, False),))
    l, r = pols[conn]
    return Formula(conn, None, (random_formula(rng, depth - 1, l),
                                random_formula(rng, depth - 1, r)))


def random_structure(rng: random.Random, depth: int,
                     include_variants: bool = False, positive=None,
                     shifted=None) -> Structure:
    from fdlg.syntax import STRUCT_SIG, VARIANT_STRUCTS, SHIFT_ADJOINTS, s as snode
    if depth <= 1 or rng.random() < 0.35:
        return leaf(random_formula(rng, max(1, depth), positive, shifted))
    conns = [c for c, (tgt, _) in STRUCT_SIG.items()
             if (include_variants or (c not in VARIANT_STRUCTS and c not in SHIFT_ADJOINTS))
             and (positive is None or tgt.positive == positive)
             and (shifted is None or tgt.shifted == shifted)]
    if not conns:
        return leaf(random_formula(rng, max(1, depth), positive, shifted))
    conn = rng.choice(conns)
    specs = STRUCT_SIG[conn][1]
    args = tuple(random_structure(rng, depth - 1, include_variants, pol, sh)
                 for (pol, sh) in specs)
    return snode(conn, *args)


# ---------------------------------------------------------------------------
# Forward enumeration of derivable sequents.
#
# Every sequent occurring in a derivation of height <= h is the conclusion of
# a subderivation of height <= h, so closing the axiom set forward under all
# rules enumerates exactly the sequents occurring in such derivations.  The
# closure is bounded by sequent size to stay finite.


def _seq_size(seq: Sequent) -> int:
    def sz_f(x):
        return 1 + sum(sz_f(a) for a in x.args)

    def sz(x):
        if x.conn is None:
            return sz_f(x.leaf)
        return 1 + sum(sz(a) for a in x.args)

    return sz(seq.pre) + sz(seq.suc)


def forward_closure(atoms=ATOMS_PN, max_height: int = 6, max_size: int = 8,
                    include_variants: bool = True):
    """Derivable sequents with their minimal derivation height."""
    rules = [r for r in ORDERED_RULES if r.klass != "cut"
             and (include_variants or not r.schema.uses_variants)]
    unary = [r for r in rules if r.arity == 1]
    tonicity2 = [r for r in rules if r.arity == 2]

    height: dict[Sequent, int] = {}
    for a in atoms:
        name = "p-Id" if a.positive else "n-Id"
        height[apply_rule_forward(name, [], selector=a)] = 1

    frontier = list(height)
    level = 1
    while frontier and level < max_height:
        level += 1
        new: list[Sequent] = []

        def add(seq):
            if _seq_size(seq) <= max_size and seq not in height:
                height[seq] = level
                new.append(seq)

        for seq in frontier:
            for r in unary:
                env: dict = {}
                try:
                    match_sequent(r.schema.premises[0], seq, env)
                    add(instantiate_sequent(r.schema.conclusion, env))
                except (MatchFail, KeyError, SortError):
                    continue
        known = list(height)
        for r in tonicity2:
            for s1 in frontier:
                env1: dict = {}
                try:
                    match_sequent(r.schema.premises[0], s1, env1)
                except MatchFail:
                    continue
                for s2 in known:
                    env = dict(env1)
                    try:
                        match_sequent(r.schema.premises[1], s2, env)
                        add(instantiate_sequent(r.schema.conclusion, env))
                    except (MatchFail, KeyError, SortError):
                        continue
                env2: dict = {}
                try:
                    match_sequent(r.schema.premises[1], s1, env2)
                except MatchFail:
                    continue
                for s2 in known:
                    if height[s2] == level:
                        continue
                    env = dict(env2)
                    try:
                        match_sequent(r.schema.premises[0], s2, env)
                        add(instantiate_sequent(r.schema.conclusion, env))
                    except (MatchFail, KeyError, SortError):
                        continue
        frontier = new
    return height


# ---------------------------------------------------------------------------
# Random cut-bearing proofs.  The cut formula is proved by identity expansion
# with the relevant side folded into a formula; the other premise is built by
# refocusing the same formula through the shift rules.


def _ext(d, rule):
    return Derivation(rule, apply_rule_forward(rule, [d.conclusion]), (d,))


def random_cut_proof(rng: random.Random, depth: int = 2) -> Derivation:
    from fdlg.kernel import saturate_translations
    a = random_formula(rng, depth)
    base = identity_expansion(leaf(a))
    if a.sort.positive:
        d1 = saturate_translations(base, "suc")          # lo(a) |- a
        if not a.sort.shifted:
            d2 = _ext(d1, "up_R")
            d2 = _ext(d2, "s-up'")
            d2 = saturate_translations(d2, "pre")        # a |- up a
        else:
            inner = identity_expansion(leaf(a.args[0]))  # N |- hi(N)
            d2 = _ext(inner, "down_L")
            d2 = _ext(d2, "s-down'")
            d2 = saturate_translations(d2, "suc")        # a |- N
        out = make_cut(d1, d2)
    elif not a.sort.shifted:
        d2 = saturate_translations(base, "pre")          # a |- hi(a)
        d1 = _ext(d2, "down_L")
        d1 = _ext(d1, "s-down'")
        d1 = saturate_translations(d1, "suc")            # dn a |- a
        out = make_cut(d1, d2)
    else:
        d1 = base                                        # .up lo(P) |- a
        d2 = saturate_translations(base, "pre")          # a |- a
        out = make_cut(d1, d2)
    # occasional invertible padding below the cut
    if rng.random() < 0.4 and out.conclusion.kind == "n":
        out = _ext(out, "s-down")
        if rng.random() < 0.5:
            out = _ext(out, "s-down'")
    return out


def interrupted_pia_proof() -> Derivation:
    """A display detour wedged between two tonicity steps, which splits the
    PIA construction of (p \\ n) / p: a checked proof that is not strongly
    focalized."""
    p, n = Atom("p", True), Atom("n", False)
    d = derive("under_L", derive("p-Id", selector=p), derive("n-Id", selector=n))
    d = derive("dp(.*r,.\\)", d)           # variant move inside the focused phase
    d = derive("dp(.*r,.\\)'", d)
    return derive("over_L", d, derive("p-Id", selector=p))


def interrupted_join_proof() -> Derivation:
    """up p (+) (q \\ m) |- (q .\\ up (q * p)) .(+) (q .\\ m), joined by
    oplus_L.  The first premise has a display detour inside the PIA subtree
    up (q * p) of its succedent; in the second, one wedged below under_L
    splits the PIA subtree that (+) and q \\ m form in the end-sequent.  The
    report, anchored on the end-sequent's precedent first, names the second
    premise, though the first interruption in pre-order lies in the first."""
    p, q, m = Atom("p", True), Atom("q", True), Atom("m", False)
    d1 = derive("otimes_R", derive("p-Id", selector=q), derive("p-Id", selector=p))
    for rule in ("dp(.*,./l)", "dp(.*,./l)'", "up_R", "s-up'", "dp(.*,.\\)'", "s-up", "up_L"):
        d1 = derive(rule, d1)                   # up p |- q .\ up (q * p)
    d2 = derive("under_L", derive("p-Id", selector=q), derive("n-Id", selector=m))
    d2 = derive("dp(.*r,.\\)'", derive("dp(.*r,.\\)", d2))
    return derive("oplus_L", d1, d2)


# ---------------------------------------------------------------------------
# Random derivations built forward by every non-cut rule.

ATOMS_PQNM = (Atom("p", True), Atom("q", True), Atom("n", False), Atom("m", False))


def random_derivations(rng: random.Random, count: int, max_size: int = 12) -> list[Derivation]:
    """`count` distinct derivations built forward, axioms first.  A step
    extends a random member of the pool by one of the unary non-cut rules
    that fit it, variants and shift postulates included, or joins random
    fitting members by a binary rule, keeping conclusions of at most
    `max_size` nodes.  Nothing steers the steps towards focalized proofs,
    so display moves and translations land inside PIA sections."""
    pool = [derive("p-Id" if a.positive else "n-Id", selector=a) for a in ATOMS_PQNM]
    seen = set(pool)
    unary = [r.name for r in ORDERED_RULES if r.arity == 1]
    binary = [r for r in ORDERED_RULES if r.arity == 2 and r.klass != "cut"]

    def fits(pat):
        out = []
        for d in rng.sample(pool, min(len(pool), 40)):
            try:
                match_sequent(pat, d.conclusion, {})
            except MatchFail:
                continue
            out.append(d)
        return out

    while len(pool) < count:
        if rng.random() < 0.3:
            rule = rng.choice(binary)
            left, right = (fits(pat) for pat in rule.schema.premises)
            if not left or not right:
                continue
            steps = [(rule.name, (rng.choice(left), rng.choice(right)))]
        else:
            d = rng.choice(pool)
            steps = [(name, (d,)) for name in unary]
            rng.shuffle(steps)
        for name, prems in steps:
            try:
                d = derive(name, *prems)
            except (KernelError, SortError):
                continue
            if _seq_size(d.conclusion) <= max_size and d not in seen:
                seen.add(d)
                pool.append(d)
            break
    return pool


# ---------------------------------------------------------------------------
# Random companion-calculus derivations, built forward.


def random_flg_derivation(rng: random.Random, max_depth: int = 6) -> FlgDerivation:
    def ax():
        at = Atom(*rng.choice((("p", True), ("n", False))))
        return FlgDerivation("Ax", apply_flg("Ax", [], selector=at))

    pool = [ax() for _ in range(3)]
    tonicity = ["otimes_R", "oslash_R", "obslash_R", "oplus_L", "under_L", "over_L"]
    unfocused = ["otimes_L", "oslash_L", "obslash_L", "oplus_R", "under_R", "over_R"]
    dps = ["dp(.*,.\\)", "dp(.*,./)", "dp(.(/),.(+))", "dp(.(\\),.(+))",
           "dp(.*,.\\)'", "dp(.*,./)'", "dp(.(/),.(+))'", "dp(.(\\),.(+))'"]
    for _ in range(max_depth * 3):
        kind = rng.random()
        try:
            if kind < 0.4:
                r = rng.choice(tonicity)
                l, rr = rng.choice(pool), rng.choice(pool)
                conc = apply_flg(r, [l.conclusion, rr.conclusion])
                pool.append(FlgDerivation(r, conc, (l, rr)))
            elif kind < 0.6:
                d = rng.choice(pool)
                r = rng.choice(["mu*", "mu~"] + unfocused + dps)
                conc = apply_flg(r, [d.conclusion])
                pool.append(FlgDerivation(r, conc, (d,)))
            else:
                pool.append(ax())
        except TranslateError:
            continue
    deep = [d for d in pool if _flg_height(d) <= max_depth]
    deep.sort(key=_flg_height)
    return deep[-1]


def _flg_height(d: FlgDerivation) -> int:
    return 1 + max((_flg_height(p) for p in d.premises), default=0)


def with_deep_stack(fn, *args):
    """fn(*args) in a thread with a 64 MiB stack and a recursion limit of
    20,000, for recursive references on derivations a few thousand deep."""
    out: list = []
    limit, size = sys.getrecursionlimit(), threading.stack_size(64 << 20)
    try:
        sys.setrecursionlimit(20_000)
        worker = threading.Thread(target=lambda: out.append(fn(*args)))
        worker.start()
        worker.join(timeout=120)
    finally:
        threading.stack_size(size)
        sys.setrecursionlimit(limit)
    assert not worker.is_alive(), "the call did not finish in 120 s"
    assert out, "the call raised"
    return out[0]


def document_nodes(doc: dict) -> list[tuple]:
    """(rule, conclusion, premise count) of a loaded exchange document's
    nodes, in pre-order; iterative."""
    out, stack = [], [doc]
    while stack:
        x = stack.pop()
        out.append((x["rule"], x["conclusion"], len(x["premises"])))
        stack.extend(reversed(x["premises"]))
    return out


def quantified_sentence(q: int, arity: int) -> Sequent:
    """q quantified noun phrases around a verb of `arity`, bracketed as
    (subject, ((verb, object1), object2) ...); ungrammatical unless q == arity."""
    lines, words = ["%neg s"], []

    def word(name, ty):
        words.append(name)
        lines.append(f"{name} := {ty}")
        return len(words) - 1

    def noun_phrase(i):
        return word(f"det{i}", "dn ((up np) / n)"), word(f"noun{i}", "n")

    verb = "np \\ s"
    for _ in range(arity - 1):
        verb = f"({verb}) / np"
    subject = noun_phrase(0)
    vp = word("verb", f"dn ({verb})")
    for i in range(1, q):
        vp = (vp, noun_phrase(i))
    return sentence_sequent(words, Lexicon.from_text("\n".join(lines)), GOAL,
                            (subject, vp))
