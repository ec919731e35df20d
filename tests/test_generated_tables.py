"""The rule inventory, generated from the signature and the residuation laws,
and the display tables read off its display chains, against the hand-typed
inventory and tables kept in `reference_rules` and `reference_cutelim`."""

import os
import subprocess
import sys

import reference_cutelim as ref_cutelim
import reference_rules as ref
import reference_translate as ref_translate
from fdlg import cutelim, kernel, rules, translate
from fdlg.syntax import NP, NS, PP, PS

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
    assert translate._INPUT_CONNS == set(ref_translate._INPUT_CONNS)
    assert translate._ARG_SIDES == ref_translate._ARG_SIDES
    assert translate._POLARITY == ref_translate._POLARITY


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
print(sorted(translate._LOGICAL_RULES), translate._CONNS, translate._ARG_SIDES,
      translate._POLARITY, sorted(translate._INPUT_CONNS))
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
