"""Golden corpus: the quantifier-scope sentence with its two readings, and
the worked cut-elimination input.

The sentence "everyone likes some teacher" is ambiguous between a wide-scope
universal and a wide-scope existential; the two minimal proofs of its goal
sequent differ in the order the quantifier entries are attacked.
"""

from __future__ import annotations

from .syntax import Atom, parse_formula
from .kernel import Derivation, derive
from .search import Lexicon

NEG_ATOMS = frozenset({"s"})

LEXICON_TEXT = """\
# noun phrases are positive, sentences negative
%neg s
everyone := (dn ((up np) / n)) * n
likes := dn ((np \\ s) / np)
some := dn ((up np) / n)
teacher := n
"""

LEXICON = Lexicon.from_text(LEXICON_TEXT)

SENTENCE = ("everyone", "likes", "some", "teacher")
GOAL = parse_formula("dn s", NEG_ATOMS)


def _ax(name: str, atom: str, positive: bool) -> Derivation:
    return derive(name, selector=Atom(atom, positive))


def _likes_section() -> Derivation:
    d = derive("under_L", _ax("p-Id", "np", True), _ax("n-Id", "s", False))
    d = derive("over_L", d, _ax("p-Id", "np", True))   # (np\s)/np |- (np .\ s) ./ np
    d = derive("down_L", d)
    d = derive("s-down'", d)                            # likes |- (np .\ s) ./ np
    return d


def _quantifier_section(body: Derivation, noun: str) -> Derivation:
    """up/over/down chain attacking a displayed np against `body`."""
    d = derive("s-up", body)
    d = derive("up_L", d)
    d = derive("over_L", d, _ax("p-Id", noun, True))
    d = derive("down_L", d)
    return derive("s-down'", d)


def reading_forall_exists() -> Derivation:
    """Universal wide scope: the everyone-entry is attacked first."""
    d = _likes_section()
    d = derive("dp(.*,./)'", d)        # likes .* np |- np .\ s
    d = derive("dp(.*,.\\)'", d)       # np |- likes .\ (np .\ s)     (object np)
    d = _quantifier_section(d, "n")  # some teacher
    d = derive("dp(.*,./)'", d)        # some .* teacher |- likes .\ (np .\ s)
    d = derive("dp(.*,.\\)", d)        # likes .* (some .* teacher) |- np .\ s
    d = derive("dp(.*,.\\)", d)        # np .* (...) |- s             (subject np out)
    d = derive("dp(.*,./)", d)         # np |- s ./ (likes .* (some .* teacher))
    d = _quantifier_section(d, "n")  # every one
    d = derive("dp(.*,./)'", d)        # every .* one |- s ./ (...)
    d = derive("otimes_L", d)          # everyone |- s ./ (...)
    d = derive("dp(.*,./)'", d)        # everyone .* (...) |- s
    d = derive("s-down", d)
    return derive("down_R", d)


def reading_exists_forall() -> Derivation:
    """Existential wide scope: the some-entry is attacked first."""
    d = _likes_section()
    d = derive("dp(.*,./)'", d)        # likes .* np |- np .\ s
    d = derive("dp(.*,.\\)", d)        # np .* (likes .* np) |- s     (subject np out)
    d = derive("dp(.*,./)", d)         # np |- s ./ (likes .* np)
    d = _quantifier_section(d, "n")  # every one
    d = derive("dp(.*,./)'", d)        # every .* one |- s ./ (likes .* np)
    d = derive("dp(.*,./)'", d)        # (every .* one) .* (likes .* np) |- s
    d = derive("dp(.*,.\\)'", d)       # likes .* np |- (every .* one) .\ s
    d = derive("dp(.*,.\\)'", d)       # np |- likes .\ ((every .* one) .\ s)
    d = _quantifier_section(d, "n")  # some teacher
    d = derive("dp(.*,./)'", d)        # some .* teacher |- likes .\ (...)
    d = derive("dp(.*,.\\)", d)        # likes .* (some .* teacher) |- (every .* one) .\ s
    d = derive("dp(.*,.\\)", d)        # (every .* one) .* (likes .* (some .* teacher)) |- s
    d = derive("dp(.*,./)", d)         # every .* one |- s ./ (...)
    d = derive("otimes_L", d)          # everyone |- s ./ (...)
    d = derive("dp(.*,./)'", d)        # everyone .* (...) |- s
    d = derive("s-down", d)
    return derive("down_R", d)


# ---------------------------------------------------------------------------
# The worked cut-elimination input: a cut on `dn n` whose right premise takes
# a redundant trip through the shift-adjoint postulate.


def cut_elim_example() -> Derivation:
    neg = {"n"}
    pid = _ax("p-Id", "p", True)
    nid = _ax("n-Id", "n", False)
    d = derive("under_L", pid, nid)      # p \ n |- p .\ n
    d = derive("down_L", d)
    d = derive("s-down'", d)
    d = derive("dp(.*,.\\)", d)          # p .* dn (p \ n) |- n
    d = derive("s-down", d)
    left = derive("down_R", d)           # p .* dn (p \ n) |- dn n

    d = derive("down_L", nid)            # dn n |- .dn n
    d = derive("down_R", d)              # dn n |- dn n
    d = derive("otimes_R", d, pid)       # dn n .* p |- dn n * p
    d = derive("up_R", d)
    d = derive("s-up'", d)
    d = derive("dp(.*,./)", d)           # dn n |- up (dn n * p) ./ p
    d = derive("s-down", d)
    d = derive("dp(.upl,.dn)", d)        # .upl dn n |- up (dn n * p) ./ p
    d = derive("dp(.upl,.dn)'", d)
    right = derive("s-down'", d)         # dn n |- up (dn n * p) ./ p

    return derive("Pn-Cut", left, right)


def cut_elim_parametric_result() -> Derivation:
    """End state of the parametric move alone: the cut has climbed to the
    uppermost occurrence of `dn n`, and the section below it is mutated."""
    pid = _ax("p-Id", "p", True)
    nid = _ax("n-Id", "n", False)
    d = derive("under_L", pid, nid)
    d = derive("down_L", d)
    d = derive("s-down'", d)
    d = derive("dp(.*,.\\)", d)
    d = derive("s-down", d)
    left = derive("down_R", d)           # p .* dn (p \ n) |- dn n

    top = derive("down_L", nid)          # dn n |- .dn n
    d = derive("P-Cut", left, top)       # p .* dn (p \ n) |- .dn n
    d = derive("down_R", d)              # ... |- dn n   (mutated refocus)
    d = derive("otimes_R", d, pid)
    d = derive("up_R", d)
    d = derive("s-up'", d)
    d = derive("dp(.*,./)", d)
    d = derive("s-down", d)
    d = derive("dp(.up,.dn)'", d)        # the adjoint postulate, mutated
    d = derive("dp(.up,.dn)", d)
    return derive("s-down'", d)
