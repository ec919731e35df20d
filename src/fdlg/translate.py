"""The companion focused calculus and the round-trip proof translations.

The mini-kernel implements exactly the rules the translations exercise: atomic
axioms, the six logical connective pairs, the focusing pair mu~ / mu* (each
with a positive and a negative instance, fixed by the polarity of the formula
whose focus changes), and the residuation postulates on unfocused sequents.

Polarization sends its formulas into the four-sorted language, shifts marking
every polarity mismatch; depolarization erases the shifts.  A sequent in the
image of polarization is called normal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (Formula, Structure, Sequent, Atom, leaf, f as fnode,
                     ParseError, SortError, parse_raw)
from .kernel import (Derivation, derive, iter_nodes, read_document, read_nodes,
                     rule_count)
from .focus import minimize_proof


class TranslateError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Companion-calculus syntax.  Its formulas are single-sorted (no purity
# discipline, no shifts), so they get their own node type.

_CONNS = ("*", "(+)", "\\", "/", "(/)", "(\\)")
_INPUT_CONNS = {".*": ("in", "in"), ".(/)": ("in", "out"), ".(\\)": ("out", "in")}
_OUTPUT_CONNS = {".(+)": ("out", "out"), ".\\": ("in", "out"), "./": ("out", "in")}


@dataclass(frozen=True)
class CFormula:
    conn: str | None
    atom: Atom | None = None
    args: tuple["CFormula", ...] = ()

    def __post_init__(self):
        if self.conn is None:
            if self.atom is None or self.args:
                raise TranslateError("atomic formula carries an atom and nothing else")
        elif self.conn not in _CONNS or len(self.args) != 2:
            raise TranslateError(f"bad companion formula head {self.conn!r}")

    def __repr__(self) -> str:
        return f"<{render_cformula(self)}>"


def catom(name: str, positive: bool = True) -> CFormula:
    return CFormula(None, Atom(name, positive))


def cf(conn: str, l: CFormula, r: CFormula) -> CFormula:
    return CFormula(conn, None, (l, r))


def render_cformula(a: CFormula) -> str:
    if a.conn is None:
        return a.atom.name
    l, r = a.args
    lt = f"({render_cformula(l)})" if l.conn is not None else render_cformula(l)
    rt = f"({render_cformula(r)})" if r.conn is not None else render_cformula(r)
    return f"{lt} {a.conn} {rt}"


def parse_cformula(text: str, neg_atoms=()) -> CFormula:
    return _raw_to_cformula(parse_raw(text), frozenset(neg_atoms))


def _raw_to_cformula(r, neg: frozenset[str]) -> CFormula:
    if isinstance(r, str):
        return catom(r, r not in neg)
    if r[0] not in _CONNS:
        raise ParseError(f"{r[0]!r} is not a companion formula connective")
    return cf(r[0], _raw_to_cformula(r[1], neg), _raw_to_cformula(r[2], neg))


def formula_polarity(a: CFormula) -> bool:
    """Positive iff the head is a product-family connective or a positive atom."""
    if a.conn is None:
        return a.atom.positive
    return a.conn in ("*", "(/)", "(\\)")


@dataclass(frozen=True)
class FStruct:
    conn: str | None
    leaf: CFormula | None = None
    args: tuple["FStruct", ...] = ()

    def __post_init__(self):
        if self.conn is None:
            if self.leaf is None:
                raise TranslateError("leaf must carry a formula")
        elif self.conn not in _INPUT_CONNS and self.conn not in _OUTPUT_CONNS:
            raise TranslateError(f"unknown companion connective {self.conn!r}")

    @property
    def side(self) -> str | None:
        """'in', 'out', or None for a bare formula leaf."""
        if self.conn is None:
            return None
        return "in" if self.conn in _INPUT_CONNS else "out"


def fleaf(a: CFormula) -> FStruct:
    return FStruct(None, a)


def fs(conn: str, l: FStruct, r: FStruct) -> FStruct:
    spec = _INPUT_CONNS.get(conn) or _OUTPUT_CONNS[conn]
    for arg, want in zip((l, r), spec):
        if arg.side is not None and arg.side != want:
            raise TranslateError(f"argument of {conn} on the wrong side")
    return FStruct(conn, None, (l, r))


@dataclass(frozen=True)
class FlgSequent:
    pre: FStruct
    suc: FStruct
    focus: str | None = None          # None | 'pre' | 'suc'

    def __post_init__(self):
        if self.pre.side == "out" or self.suc.side == "in":
            raise TranslateError("structure on the wrong side of the turnstile")
        if self.focus == "pre" and self.pre.conn is not None:
            raise TranslateError("only a formula can be in focus")
        if self.focus == "suc" and self.suc.conn is not None:
            raise TranslateError("only a formula can be in focus")
        if self.focus not in (None, "pre", "suc"):
            raise TranslateError("focus must be None, 'pre' or 'suc'")


@dataclass(frozen=True)
class FlgDerivation:
    rule: str
    conclusion: FlgSequent
    premises: tuple["FlgDerivation", ...] = ()


def render_fstruct(x: FStruct) -> str:
    if x.conn is None:
        a = render_cformula(x.leaf)
        return f"({a})" if x.leaf.conn is not None else a
    l, r = (render_fstruct(a) for a in x.args)
    lw = f"({l})" if x.args[0].conn is not None else l
    rw = f"({r})" if x.args[1].conn is not None else r
    return f"{lw} {x.conn} {rw}"


def render_flg_sequent(s: FlgSequent) -> str:
    pre, suc = render_fstruct(s.pre), render_fstruct(s.suc)
    if s.focus == "pre":
        pre = f"[{render_cformula(s.pre.leaf)}]"
    if s.focus == "suc":
        suc = f"[{render_cformula(s.suc.leaf)}]"
    return f"{pre} |- {suc}"


# ---------------------------------------------------------------------------
# Companion-calculus rules


def _formula(x: FStruct) -> CFormula:
    if x.conn is not None:
        raise TranslateError("expected a formula leaf")
    return x.leaf


def apply_flg(rule: str, premises, selector: Atom | None = None,
              side: str | None = None) -> FlgSequent:
    """Forward application in the companion calculus; unique conclusion.

    `side` disambiguates mu~ when both a positive precedent formula and a
    negative succedent formula could take the focus.
    """
    ps = [p.conclusion if isinstance(p, FlgDerivation) else p for p in premises]

    def arity(n):
        if len(ps) != n:
            raise TranslateError(f"{rule} takes {n} premise(s)")

    if rule == "Ax":
        arity(0)
        if selector is None:
            raise TranslateError("Ax needs an atom selector")
        a = fleaf(CFormula(None, selector))
        return (FlgSequent(a, a, "suc") if selector.positive
                else FlgSequent(a, a, "pre"))
    if rule == "mu*":
        arity(1)
        (s,) = ps
        if s.focus == "suc":
            if not formula_polarity(_formula(s.suc)):
                raise TranslateError("mu* defocuses a positive succedent formula")
            return FlgSequent(s.pre, s.suc, None)
        if s.focus == "pre":
            if formula_polarity(_formula(s.pre)):
                raise TranslateError("mu* defocuses a negative precedent formula")
            return FlgSequent(s.pre, s.suc, None)
        raise TranslateError("mu* needs a focused premise")
    if rule == "mu~":
        arity(1)
        (s,) = ps
        if s.focus is not None:
            raise TranslateError("mu~ needs an unfocused premise")
        pre_ok = s.pre.conn is None and formula_polarity(s.pre.leaf)
        suc_ok = s.suc.conn is None and not formula_polarity(s.suc.leaf)
        if side == "pre" or (side is None and pre_ok):
            if not pre_ok:
                raise TranslateError("precedent is not a positive formula")
            return FlgSequent(s.pre, s.suc, "pre")
        if suc_ok:
            return FlgSequent(s.pre, s.suc, "suc")
        raise TranslateError("mu~ focuses a positive precedent or negative succedent formula")

    if rule == "otimes_R":
        arity(2)
        l, r = ps
        if l.focus != "suc" or r.focus != "suc":
            raise TranslateError("otimes_R needs two right-focused premises")
        a, b = _formula(l.suc), _formula(r.suc)
        return FlgSequent(fs(".*", l.pre, r.pre), fleaf(cf("*", a, b)), "suc")
    if rule == "oslash_R":
        arity(2)
        l, r = ps
        if l.focus != "suc" or r.focus != "pre":
            raise TranslateError("oslash_R needs right- and left-focused premises")
        a, b = _formula(l.suc), _formula(r.pre)
        return FlgSequent(fs(".(/)", l.pre, r.suc), fleaf(cf("(/)", a, b)), "suc")
    if rule == "obslash_R":
        arity(2)
        l, r = ps
        if l.focus != "pre" or r.focus != "suc":
            raise TranslateError("obslash_R needs left- and right-focused premises")
        a, b = _formula(l.pre), _formula(r.suc)
        return FlgSequent(fs(".(\\)", l.suc, r.pre), fleaf(cf("(\\)", a, b)), "suc")
    if rule == "oplus_L":
        arity(2)
        l, r = ps
        if l.focus != "pre" or r.focus != "pre":
            raise TranslateError("oplus_L needs two left-focused premises")
        a, b = _formula(l.pre), _formula(r.pre)
        return FlgSequent(fleaf(cf("(+)", a, b)), fs(".(+)", l.suc, r.suc), "pre")
    if rule == "under_L":
        arity(2)
        l, r = ps
        if l.focus != "suc" or r.focus != "pre":
            raise TranslateError("under_L needs right- and left-focused premises")
        a, b = _formula(l.suc), _formula(r.pre)
        return FlgSequent(fleaf(cf("\\", a, b)), fs(".\\", l.pre, r.suc), "pre")
    if rule == "over_L":
        arity(2)
        l, r = ps
        if l.focus != "pre" or r.focus != "suc":
            raise TranslateError("over_L needs left- and right-focused premises")
        a, b = _formula(l.pre), _formula(r.suc)
        return FlgSequent(fleaf(cf("/", a, b)), fs("./", l.suc, r.pre), "pre")

    if rule in ("otimes_L", "oslash_L", "obslash_L"):
        arity(1)
        (s,) = ps
        conn = {"otimes_L": ".*", "oslash_L": ".(/)", "obslash_L": ".(\\)"}[rule]
        if s.focus is not None or s.pre.conn != conn:
            raise TranslateError(f"{rule} wants an unfocused {conn}-rooted precedent")
        a, b = (_formula(x) for x in s.pre.args)
        return FlgSequent(fleaf(cf(conn[1:], a, b)), s.suc, None)
    if rule in ("oplus_R", "under_R", "over_R"):
        arity(1)
        (s,) = ps
        conn = {"oplus_R": ".(+)", "under_R": ".\\", "over_R": "./"}[rule]
        if s.focus is not None or s.suc.conn != conn:
            raise TranslateError(f"{rule} wants an unfocused {conn}-rooted succedent")
        a, b = (_formula(x) for x in s.suc.args)
        return FlgSequent(s.pre, fleaf(cf(conn[1:], a, b)), None)

    if rule.startswith("dp("):
        arity(1)
        (s,) = ps
        if s.focus is not None:
            raise TranslateError("display postulates apply in neutral phases only")
        base, inv = (rule[:-1], True) if rule.endswith("'") else (rule, False)
        # (premise root side+conn, builder)
        moves = {
            ("dp(.*,.\\)", False): ("suc", ".\\",
                lambda q: FlgSequent(fs(".*", q.suc.args[0], q.pre), q.suc.args[1])),
            ("dp(.*,.\\)", True): ("pre", ".*",
                lambda q: FlgSequent(q.pre.args[1], fs(".\\", q.pre.args[0], q.suc))),
            ("dp(.*,./)", False): ("pre", ".*",
                lambda q: FlgSequent(q.pre.args[0], fs("./", q.suc, q.pre.args[1]))),
            ("dp(.*,./)", True): ("suc", "./",
                lambda q: FlgSequent(fs(".*", q.pre, q.suc.args[1]), q.suc.args[0])),
            ("dp(.(/),.(+))", False): ("pre", ".(/)",
                lambda q: FlgSequent(q.pre.args[0], fs(".(+)", q.suc, q.pre.args[1]))),
            ("dp(.(/),.(+))", True): ("suc", ".(+)",
                lambda q: FlgSequent(fs(".(/)", q.pre, q.suc.args[1]), q.suc.args[0])),
            ("dp(.(\\),.(+))", False): ("suc", ".(+)",
                lambda q: FlgSequent(fs(".(\\)", q.suc.args[0], q.pre), q.suc.args[1])),
            ("dp(.(\\),.(+))", True): ("pre", ".(\\)",
                lambda q: FlgSequent(q.pre.args[1], fs(".(+)", q.pre.args[0], q.suc))),
        }
        key = (base, inv)
        if key not in moves:
            raise TranslateError(f"unknown rule {rule!r}")
        where, conn, fn = moves[key]
        root = s.pre if where == "pre" else s.suc
        if root.conn != conn:
            raise TranslateError(f"{rule} wants a {conn}-rooted {where} side")
        try:
            return fn(s)
        except TranslateError:
            raise TranslateError(f"{rule} does not apply") from None
    raise TranslateError(f"unknown rule {rule!r}")


def check_flg(d: FlgDerivation) -> tuple[bool, str]:
    """Bottom-up schema check of a companion-calculus derivation."""
    for path, node in iter_nodes(d):
        try:
            if node.rule == "Ax":
                atom = node.conclusion.pre.leaf.atom if node.conclusion.pre.conn is None else None
                conc = apply_flg("Ax", [], selector=atom)
            elif node.rule == "mu~":
                conc = apply_flg("mu~", [p.conclusion for p in node.premises],
                                 side=node.conclusion.focus)
            else:
                conc = apply_flg(node.rule, [p.conclusion for p in node.premises])
        except (TranslateError, AttributeError) as e:
            return False, f"at {path}: {e}"
        if conc != node.conclusion:
            return False, f"at {path}: conclusion is not the {node.rule} instance"
    return True, "ok"


# Companion derivations have the same shape as fD.LG ones, so the kernel's
# iterative walks (iter_nodes, rule_count) serve both calculi.
flg_rule_count = rule_count


def logical_rule_count(d) -> int:
    """Applications of the six connective rules (either calculus)."""
    logical = {"otimes_L", "otimes_R", "oplus_L", "oplus_R", "oslash_L",
               "oslash_R", "obslash_L", "obslash_R", "under_L", "under_R",
               "over_L", "over_R"}
    return sum(1 for _, n in iter_nodes(d) if n.rule in logical)


# ---------------------------------------------------------------------------
# Polarization


def polarize_formula(a: CFormula, positive: bool) -> Formula:
    """Positive or negative polarization; pure iff the polarity matches."""
    if a.conn is None:
        base = Formula(None, a.atom)
        if positive:
            return base if a.atom.positive else fnode("dn", base)
        return fnode("up", base) if a.atom.positive else base
    l, r = a.args
    if a.conn == "*":
        body = fnode("*", polarize_formula(l, True), polarize_formula(r, True))
        return body if positive else fnode("up", body)
    if a.conn == "(/)":
        body = fnode("(/)", polarize_formula(l, True), polarize_formula(r, False))
        return body if positive else fnode("up", body)
    if a.conn == "(\\)":
        body = fnode("(\\)", polarize_formula(l, False), polarize_formula(r, True))
        return body if positive else fnode("up", body)
    if a.conn == "(+)":
        body = fnode("(+)", polarize_formula(l, False), polarize_formula(r, False))
        return fnode("dn", body) if positive else body
    if a.conn == "\\":
        body = fnode("\\", polarize_formula(l, True), polarize_formula(r, False))
        return fnode("dn", body) if positive else body
    if a.conn == "/":
        body = fnode("/", polarize_formula(l, False), polarize_formula(r, True))
        return fnode("dn", body) if positive else body
    raise TranslateError(f"not a companion-calculus formula: {a!r}")


def unpolarize_formula(x: Formula) -> CFormula:
    """Erase the shifts of a display-calculus formula."""
    if x.conn in ("up", "dn"):
        return unpolarize_formula(x.args[0])
    if x.conn is None:
        return CFormula(None, x.atom)
    return CFormula(x.conn, None, tuple(unpolarize_formula(a) for a in x.args))


_ARG_SIDES = {".*": (True, True), ".(/)": (True, False), ".(\\)": (False, True),
              ".(+)": (False, False), ".\\": (True, False), "./": (False, True)}


def polarize_structure(x: FStruct, positive: bool) -> Structure:
    if x.conn is None:
        return leaf(polarize_formula(x.leaf, positive))
    want = "in" if positive else "out"
    if x.side != want:
        raise TranslateError(f"{x.conn} cannot occur on this side")
    sides = _ARG_SIDES[x.conn]
    args = tuple(polarize_structure(a, s) for a, s in zip(x.args, sides))
    return Structure(x.conn, None, args)


def polarize_sequent(s: FlgSequent) -> Sequent:
    if s.focus == "suc":
        return Sequent(polarize_structure(s.pre, True),
                       leaf(polarize_formula(_formula(s.suc), True)))
    if s.focus == "pre":
        return Sequent(leaf(polarize_formula(_formula(s.pre), False)),
                       polarize_structure(s.suc, False))
    return Sequent(polarize_structure(s.pre, True), polarize_structure(s.suc, False))


def depolarize(x: Formula | Structure):
    """Erase the shifts; fails on structural shifts and variants."""
    if isinstance(x, Structure):
        if x.conn is None:
            return unpolarize_formula(x.leaf)
        if x.conn not in _ARG_SIDES:
            raise TranslateError(f"{x.conn} has no companion counterpart")
        return fs(x.conn, *(fleaf_or(depolarize(a)) for a in x.args))
    return unpolarize_formula(x)


def fleaf_or(v) -> FStruct:
    return v if isinstance(v, FStruct) else fleaf(v)


def flg_of_sequent(seq: Sequent) -> FlgSequent:
    """Inverse of polarize_sequent; raises unless `seq` is normal."""
    fam = seq.kind[0]
    if fam == "r":
        if seq.suc.conn is not None:
            raise TranslateError("a positive normal sequent focuses its succedent formula")
        out = FlgSequent(fleaf_or(depolarize(seq.pre)),
                         fleaf(unpolarize_formula(seq.suc.leaf)), "suc")
    elif fam == "b":
        if seq.pre.conn is not None:
            raise TranslateError("a negative normal sequent focuses its precedent formula")
        out = FlgSequent(fleaf(unpolarize_formula(seq.pre.leaf)),
                         fleaf_or(depolarize(seq.suc)), "pre")
    else:
        out = FlgSequent(fleaf_or(depolarize(seq.pre)),
                         fleaf_or(depolarize(seq.suc)), None)
    if polarize_sequent(out) != seq:
        raise TranslateError("sequent is not in the image of polarization")
    return out


def is_normal(seq: Sequent) -> bool:
    try:
        flg_of_sequent(seq)
        return True
    except (TranslateError, SortError):
        return False


# ---------------------------------------------------------------------------
# From the companion calculus into the display calculus

_SAME_NAME = {"otimes_L", "otimes_R", "oplus_L", "oplus_R", "oslash_L",
              "oslash_R", "obslash_L", "obslash_R", "under_L", "under_R",
              "over_L", "over_R"}


def _fd(rule: str, premises, expected: Sequent) -> Derivation:
    d = derive(rule, *premises)
    if d.conclusion != expected and expected is not None:
        raise TranslateError(f"{rule} image mismatch")
    return d


def translate_to_fdlg(d: FlgDerivation) -> Derivation:
    """Image of a checked companion derivation; ends in the polarized sequent."""
    ok, why = check_flg(d)
    if not ok:
        raise TranslateError(f"input does not check: {why}")
    return _to_fdlg(d)


def _to_fdlg(d: FlgDerivation) -> Derivation:
    target = polarize_sequent(d.conclusion)
    r = d.rule
    if r == "Ax":
        atom = d.conclusion.pre.leaf.atom
        return derive("p-Id" if atom.positive else "n-Id", selector=atom)
    if r in _SAME_NAME or r.startswith("dp("):
        prems = [_to_fdlg(p) for p in d.premises]
        return _fd(r, prems, target)
    if r == "mu*":
        sub = _to_fdlg(d.premises[0])
        if d.premises[0].conclusion.focus == "suc":
            step = _fd("up_R", [sub], None)
            return _fd("s-up'", [step], target)
        step = _fd("down_L", [sub], None)
        return _fd("s-down'", [step], target)
    if r == "mu~":
        sub = _to_fdlg(d.premises[0])
        if d.conclusion.focus == "pre":
            step = _fd("s-up", [sub], None)
            return _fd("up_L", [step], target)
        step = _fd("s-down", [sub], None)
        return _fd("down_R", [step], target)
    raise TranslateError(f"no image for rule {r!r}")


# ---------------------------------------------------------------------------
# From the display calculus back into the companion calculus

_PATTERNS = {
    ("s-down'", "down_L"): "defocus-neg",
    ("s-up'", "up_R"): "defocus-pos",
    ("down_R", "s-down"): "focus-neg",
    ("up_L", "s-up"): "focus-pos",
    ("down_R", "down_L"): "refocus-neg",
    ("up_L", "up_R"): "refocus-pos",
}


def classify_processing_sections(d: Derivation):
    """(node path, pattern) for each processing section of a minimal proof.

    A processing section is a two-rule block whose leaves and root are normal
    sequents; the dotted variants share a pattern name with their plain form,
    suffixed with '.' when the displayed side is shifted.
    """
    out = []
    consumed = set()
    for path, node in iter_nodes(d):
        if path in consumed:
            continue
        pair = (node.rule, node.premises[0].rule) if node.premises else None
        patt = _PATTERNS.get(pair)
        if patt is None:
            from .rules import REGISTRY
            if REGISTRY[node.rule].klass in ("shift", "struct"):
                raise TranslateError(
                    f"unmatched shift section at {path}: the proof is not minimal")
            continue
        consumed.add(path + (0,))
        if patt == "focus-neg" and node.conclusion.pre.sort.shifted:
            patt = "focus-neg."
        if patt == "focus-pos" and node.conclusion.suc.sort.shifted:
            patt = "focus-pos."
        out.append((path, patt))
    return out


def translate_to_flg(d: Derivation) -> FlgDerivation:
    """Companion image of a display-calculus proof of a normal sequent.

    Minimizes the input first; normal rules map to themselves and processing
    sections to one or two focusing moves.
    """
    d = minimize_proof(d)
    if not is_normal(d.conclusion):
        raise TranslateError("end-sequent is not normal")
    return _to_flg(d)


def _flg(rule: str, premises, expected: FlgSequent, selector=None) -> FlgDerivation:
    conc = apply_flg(rule, premises, selector=selector)
    if conc != expected:
        raise TranslateError(f"{rule} back-translation mismatch "
                             f"({render_flg_sequent(conc)} vs {render_flg_sequent(expected)})")
    return FlgDerivation(rule, conc, tuple(premises))


def _to_flg(d: Derivation) -> FlgDerivation:
    target = flg_of_sequent(d.conclusion)
    r = d.rule
    if r in ("p-Id", "n-Id"):
        atom = d.conclusion.pre.leaf.atom
        return _flg("Ax", [], target, selector=atom)
    pair = (r, d.premises[0].rule) if d.premises else None
    patt = _PATTERNS.get(pair)
    if patt is not None:
        inner = _to_flg(d.premises[0].premises[0])
        if patt in ("defocus-neg", "defocus-pos"):
            return _flg("mu*", [inner], target)
        if patt in ("focus-neg", "focus-pos"):
            return _flg("mu~", [inner], target)
        step = FlgDerivation("mu*", apply_flg("mu*", [inner]), (inner,))
        return _flg("mu~", [step], target)
    if r in _SAME_NAME or r.startswith("dp("):
        prems = [_to_flg(p) for p in d.premises]
        return _flg(r, prems, target)
    raise TranslateError(f"rule {r!r} has no companion image "
                         f"(unmatched section: input not minimal?)")


# ---------------------------------------------------------------------------
# Exchange format


def flg_to_json(d: FlgDerivation, neg_atoms) -> str:
    import json

    def node(x: FlgDerivation):
        return {"rule": x.rule,
                "conclusion": render_flg_sequent(x.conclusion),
                "premises": [node(p) for p in x.premises]}
    doc = {"calculus": "flg", "negAtoms": sorted(neg_atoms)}
    doc.update(node(d))
    return json.dumps(doc, indent=1)


def _raw_to_fstruct(r, neg: frozenset[str]) -> FStruct:
    if isinstance(r, str) or r[0] in _CONNS:
        return fleaf(_raw_to_cformula(r, neg))
    if r[0] not in _INPUT_CONNS and r[0] not in _OUTPUT_CONNS:
        raise ParseError(f"{r[0]!r} is not a companion-calculus connective")
    return fs(r[0], _raw_to_fstruct(r[1], neg), _raw_to_fstruct(r[2], neg))


def parse_flg_sequent(text: str, neg_atoms=()) -> FlgSequent:
    neg = frozenset(neg_atoms)
    left, _, right = text.partition("|-")
    left, right = left.strip(), right.strip()
    focus = None
    if left.startswith("[") and left.endswith("]"):
        focus = "pre"
        left = left[1:-1]
    if right.startswith("[") and right.endswith("]"):
        focus = "suc"
        right = right[1:-1]
    try:
        pre = _raw_to_fstruct(parse_raw(left), neg)
        suc = _raw_to_fstruct(parse_raw(right), neg)
        return FlgSequent(pre, suc, focus)
    except TranslateError as e:     # a structure on the wrong side, or in focus
        raise ParseError(str(e)) from None


def flg_from_json(text: str) -> tuple[FlgDerivation, frozenset[str]]:
    doc, neg = read_document(text)
    if doc.get("calculus") != "flg":
        raise ParseError('expected a "calculus": "flg" document')
    return read_nodes(doc, lambda rule, conclusion, premises: FlgDerivation(
        rule, parse_flg_sequent(conclusion, neg), premises)), neg
