"""The rule inventory, generated from the signature and the residuation laws,
and the display tables read off its display chains, against the hand-typed
inventory and tables kept in `reference_rules` and `reference_cutelim`; and
the connective tables that `syntax` derives from its eight operational
connectives, against the hand-typed tables they replaced."""

import os
import random
import subprocess
import sys

from hypothesis import given, settings, strategies as st

import reference_cutelim as ref_cutelim
import reference_rules as ref
import reference_translate as ref_translate
from fdlg import algebra, cli, cutelim, kernel, rules, syntax, translate
from fdlg.syntax import NP, NS, PP, PS, Sort, SortError, infty, s as snode

from gen import random_structure

SORTS = (PP, PS, NP, NS)


def test_registry_equals_the_hand_inventory():
    """Rule for rule: name, class, inverse, variant flag and patterns.  The
    metavariables keep their names too, since the soundness sweeps order
    their assignments by name."""
    assert [r.name for r in rules._RULES] == [r.name for r in ref.HAND_RULES]
    for got, want in zip(rules._RULES, ref.HAND_RULES):
        assert got == want, want.name
    assert list(rules.REGISTRY) == [r.name for r in ref.HAND_RULES]
    order = [r.name for r in sorted(ref.HAND_RULES, key=lambda r: rules._CLASS_ORDER.index(r.klass))]
    assert [r.name for r in rules.ORDERED_RULES] == order
    hand = {r.name: r for r in ref.HAND_RULES}
    assert rules.SHIFT_DPS == {"dp(.up,.dnr)", "dp(.up,.dnr)'", "dp(.up,.dn)", "dp(.up,.dn)'",
                               "dp(.upl,.dn)", "dp(.upl,.dn)'"}
    assert rules.CUT_RULES == {name for name, r in hand.items() if r.klass == "cut"}
    logical = [name for name, r in hand.items() if r.klass in ("translation", "tonicity", "shift")]
    assert rules.PRINCIPAL_LEFT == {name for name in logical if name.endswith("_L")}
    assert rules.PRINCIPAL_RIGHT == {name for name in logical if name.endswith("_R")}
    assert rules.TRANSLATION_RULES == {name for name, r in hand.items()
                                       if r.klass == "translation"} | {"down_R", "up_L"}
    assert rules.TONICITY_RULES == {name for name, r in hand.items()
                                    if r.klass == "tonicity"} | {"down_L", "up_R"}


def test_saturation_and_tonicity_tables_equal_the_hand_tables():
    assert kernel._SATURATION == ref.SATURATION
    assert kernel.TONICITY_PREMISES == ref.TONICITY_PREMISES


def test_unfocused_rules_and_cut_sides_equal_the_hand_tables():
    """The companion calculus's unfocused rules and display postulates and
    the cut reductions' premise sides, read off the rules, equal the
    literals they replaced."""
    assert translate._ROOTS == {
        "otimes_L": ("pre", ".*"), "oslash_L": ("pre", ".(/)"),
        "obslash_L": ("pre", ".(\\)"), "oplus_R": ("suc", ".(+)"),
        "under_R": ("suc", ".\\"), "over_R": ("suc", "./"),
        "dp(.*,.\\)": ("suc", ".\\"), "dp(.*,.\\)'": ("pre", ".*"),
        "dp(.*,./)": ("pre", ".*"), "dp(.*,./)'": ("suc", "./"),
        "dp(.(/),.(+))": ("pre", ".(/)"), "dp(.(/),.(+))'": ("suc", ".(+)"),
        "dp(.(\\),.(+))": ("suc", ".(+)"), "dp(.(\\),.(+))'": ("pre", ".(\\)")}
    assert kernel.TONICITY_SIDES == {
        **{rule: sides for rule, (_, sides) in ref.TONICITY_PREMISES.items()},
        "down_L": ("pre",), "up_R": ("suc",)}


def test_companion_rules_and_signature_equal_the_hand_tables():
    """The companion's table rules, read off the registry, and its signature,
    read off fD.LG's, equal the literals kept in `reference_translate`."""
    assert translate._LOGICAL_RULES | translate._ROOTS.keys() == set(ref_translate.TABLE_RULES)
    assert translate._LOGICAL_RULES == set(ref_translate.TABLE_RULES[:12])
    assert sorted(translate._CONNS) == sorted(ref_translate._CONNS)
    assert translate._ARG_SIDES == ref_translate._ARG_SIDES
    assert ({c for c in translate._ARG_SIDES if syntax.STRUCT_SIG[c][0].positive}
            == set(ref_translate._INPUT_CONNS))
    # a formula connective's argument polarities are its counterpart's, and
    # its own polarity is its sort's
    assert {c: (translate._ARG_SIDES[syntax.STRUCT_OF_OP[c]], syntax.OP_SIG[c][0].positive)
            for c in translate._CONNS} == ref_translate._POLARITY


def _row(shifts, conn, residue):
    return shifts.get((conn, residue)) or cutelim._binary_reduction(conn, residue)


def test_reduction_rows_equal_the_hand_tables():
    """Every row of the structural cut and of cut elimination, for each
    residue sort, with the hand table's variant names where the residue's
    sort is in the row's set."""
    for hand, shifts in ((ref_cutelim.REDUCTIONS, cutelim._SHIFT_REDUCTIONS),
                         (ref_cutelim.ELIMINATION, cutelim._SHIFT_ELIMINATIONS)):
        for conn, (variant_sorts, steps) in hand.items():
            for residue in SORTS:
                want = tuple(step if step.__class__ in (int, str) else step[residue in variant_sorts]
                             for step in steps)
                assert _row(shifts, conn, residue) == want, (conn, residue)


_PRINT_TABLES = """
from fdlg import cutelim, kernel, rules, translate
from fdlg.syntax import NP, NS, PP, PS
for r in rules.ORDERED_RULES:
    print(r.schema)
for name in ("SHIFT_DPS", "CUT_RULES", "PRINCIPAL_LEFT", "PRINCIPAL_RIGHT",
             "TRANSLATION_RULES", "TONICITY_RULES"):
    print(name, sorted(getattr(rules, name)))
print(rules.TRANSLATION_OF)
print(kernel.TONICITY_SIDES)
print(kernel.TONICITY_PREMISES)
print(kernel._SATURATION)
print(translate._ROOTS)
print(sorted(translate._LOGICAL_RULES), translate._CONNS, translate._ARG_SIDES)
for conn in rules.TRANSLATION_OF:
    for residue in (PP, PS, NP, NS):
        for shifts in (cutelim._SHIFT_REDUCTIONS, cutelim._SHIFT_ELIMINATIONS):
            print(shifts.get((conn, residue)) or cutelim._binary_reduction(conn, residue))
"""


def test_generated_tables_do_not_depend_on_the_hash_seed():
    """The rules' order and the generated tables come out the same bytes
    under two hash seeds, so no generator iterates over a set."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rules.__file__)))
    outs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        outs.append(subprocess.run([sys.executable, "-c", _PRINT_TABLES], env=env,
                                   capture_output=True, check=True).stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 64 + 6 + 6 + 8 * 4 * 2


# ---------------------------------------------------------------------------
# The connective tables of `syntax`, typed out by hand

_P, _N = (True, None), (False, None)
HAND_STRUCT_SIG = {
    ".*": (PP, (_P, _P)), ".(/)": (PP, (_P, _N)), ".(\\)": (PP, (_N, _P)),
    ".(+)": (NP, (_N, _N)), ".\\": (NP, (_P, _N)), "./": (NP, (_N, _P)),
    ".dn": (PS, ((False, False),)), ".dnr": (PP, ((False, True),)),
    ".up": (NS, ((True, False),)), ".upl": (NP, ((True, True),)),
    ".(+)l": (PS, (_P, _N)), ".(+)r": (PS, (_N, _P)),
    ".\\l": (PS, (_N, _N)), ".\\r": (PS, (_P, _P)),
    "./l": (PS, (_P, _P)), "./r": (PS, (_N, _N)),
    ".*l": (NS, (_N, _P)), ".*r": (NS, (_P, _N)),
    ".(/)l": (NS, (_N, _N)), ".(/)r": (NS, (_P, _P)),
    ".(\\)l": (NS, (_P, _P)), ".(\\)r": (NS, (_N, _N)),
}
HAND_FAMILY = {
    **dict.fromkeys(("*", "(/)", "(\\)", "up", ".*", ".*l", ".*r", ".(/)", ".(/)l", ".(/)r",
                     ".(\\)", ".(\\)l", ".(\\)r", ".up", ".upl"), "F"),
    **dict.fromkeys(("(+)", "\\", "/", "dn", ".(+)", ".(+)l", ".(+)r", ".\\", ".\\l", ".\\r",
                     "./", "./l", "./r", ".dn", ".dnr"), "G"),
}
HAND_ORDER_TYPE = {
    **dict.fromkeys(("*", ".*", ".*l", ".*r", "(+)", ".(+)", ".(+)l", ".(+)r"), (1, 1)),
    **dict.fromkeys(("\\", ".\\", ".\\l", ".\\r", "(\\)", ".(\\)", ".(\\)l", ".(\\)r"), ("d", 1)),
    **dict.fromkeys(("/", "./", "./l", "./r", "(/)", ".(/)", ".(/)l", ".(/)r"), (1, "d")),
    **dict.fromkeys(("up", "dn", ".up", ".upl", ".dn", ".dnr"), (1,)),
}
HAND_GROUPS = ((".*", ".*l", ".*r"), (".(+)", ".(+)l", ".(+)r"), (".\\", ".\\l", ".\\r"),
               ("./", "./l", "./r"), (".(/)", ".(/)l", ".(/)r"), (".(\\)", ".(\\)l", ".(\\)r"),
               (".up", ".upl"), (".dn", ".dnr"))
HAND_BOWTIE_PAIRS = (
    ("*", "*"), ("(+)", "(+)"), ("\\", "/"), ("(/)", "(\\)"), ("up", "up"), ("dn", "dn"),
    (".*", ".*"), (".(+)", ".(+)"), (".\\", "./"), (".(/)", ".(\\)"),
    (".up", ".up"), (".upl", ".upl"), (".dn", ".dn"), (".dnr", ".dnr"),
    (".\\l", "./r"), (".\\r", "./l"), (".*l", ".*r"), (".(+)l", ".(+)r"),
    (".(/)l", ".(\\)r"), (".(/)r", ".(\\)l"))
HAND_INFTY_PAIRS = (
    ("*", "(+)"), ("\\", "(/)"), ("/", "(\\)"), ("up", "dn"),
    (".*", ".(+)"), (".\\", ".(/)"), ("./", ".(\\)"), (".up", ".dn"), (".upl", ".dnr"),
    (".\\l", ".(/)r"), (".\\r", ".(/)l"), (".*l", ".(+)r"), (".*r", ".(+)l"),
    ("./l", ".(\\)r"), ("./r", ".(\\)l"))
HAND_KIND_BY_TAGS = {
    ("P", "P"): "r", ("P", "Pd"): "r.", ("Pd", "Pd"): "r:",
    ("N", "N"): "b", ("Nd", "N"): "b_", ("Nd", "Nd"): "b:",
    ("P", "N"): "n", ("Pd", "N"): "n_", ("P", "Nd"): "n.",
}
HAND_RULE_LATEX = {
    "p-Id": r"p\text{-Id}", "n-Id": r"n\text{-Id}",
    "otimes_L": r"\otimes_L", "otimes_R": r"\otimes_R",
    "oplus_L": r"\oplus_L", "oplus_R": r"\oplus_R",
    "oslash_L": r"\varoslash_L", "oslash_R": r"\varoslash_R",
    "obslash_L": r"\varobslash_L", "obslash_R": r"\varobslash_R",
    "under_L": r"\backslash_L", "under_R": r"\backslash_R",
    "over_L": r"/_L", "over_R": r"/_R",
    "down_L": r"\downarrow_L", "down_R": r"\downarrow_R",
    "up_L": r"\uparrow_L", "up_R": r"\uparrow_R",
    "s-down": r"\check{\downarrow}", "s-down'": r"\check{\downarrow}",
    "s-up": r"\hat{\uparrow}", "s-up'": r"\hat{\uparrow}",
    "P-Cut": r"\text{P-Cut}", "N-Cut": r"\text{N-Cut}",
    "Pn-Cut": r"\text{Pn-Cut}", "nN-Cut": r"\text{nN-Cut}",
}


def _hand_involution(pairs) -> dict:
    unary = {"up", "dn", ".up", ".upl", ".dn", ".dnr"}
    table = {}
    for c, d in pairs:
        table[c], table[d] = (d, c not in unary), (c, d not in unary)
    return table


def test_connective_tables_equal_the_hand_tables():
    """Each table that `syntax` derives from the eight operational
    connectives, with STRUCT_SIG in the key order `iter_structures` reads."""
    assert list(syntax.STRUCT_SIG.items()) == list(HAND_STRUCT_SIG.items())
    assert syntax.FAMILY == HAND_FAMILY
    assert syntax.ORDER_TYPE == HAND_ORDER_TYPE
    assert syntax.GROUP_OF == {t: g for g in HAND_GROUPS for t in g}
    assert syntax.STRUCT_OF_OP == {op: "." + op for op in syntax.OP_SIG}
    assert syntax._BOWTIE == _hand_involution(HAND_BOWTIE_PAIRS)
    assert syntax._INFTY == _hand_involution(HAND_INFTY_PAIRS)
    assert algebra._KIND_BY_TAGS == HAND_KIND_BY_TAGS
    assert cli._RULE_LATEX == HAND_RULE_LATEX
    assert set(cli._RULE_LATEX) == set(rules.REGISTRY) - {
        name for name, r in rules.REGISTRY.items() if r.klass == "dp"}


def test_sort_table_targets_are_the_module_sorts():
    """The constructors' sort lookup keys on the identity of the four module
    sorts, so every target it returns is one of them too."""
    targets = set(map(id, syntax._STRUCT_SORTS.values())) | set(map(id, syntax._OP_SORTS.values()))
    assert targets == set(map(id, SORTS))


def _sort_or_none(conn, args):
    try:
        return snode(conn, *args).sort
    except SortError:
        return None


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_a_variant_takes_one_argument_at_the_other_polarity(seed):
    """The l (r) variant of a binary connective accepts two structures iff
    the connective accepts them once argument 0 (1) is mapped by infty,
    which flips its polarity and keeps its purity; the variant's node then
    has the shifted sort of the other polarity."""
    rng = random.Random(seed)
    args = [random_structure(rng, 3, include_variants=True, positive=rng.random() < 0.5)
            for _ in range(2)]
    for conn in (".*", ".(/)", ".(\\)", ".(+)", ".\\", "./"):
        for i, side in enumerate("lr"):
            flipped = list(args)
            flipped[i] = infty(args[i])
            base = _sort_or_none(conn, flipped)
            want = None if base is None else Sort(not base.positive, True)
            assert _sort_or_none(conn + side, args) == want, (conn + side, args)
