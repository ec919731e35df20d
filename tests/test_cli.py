"""Exit codes and format round trips through the command line."""

import contextlib
import copy
import io
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from fdlg.cli import main
from fdlg.corpus import LEXICON_TEXT
from fdlg.kernel import derivation_to_json, derive
from fdlg.rules import REGISTRY
from fdlg.syntax import MAX_NESTING, Atom


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def test_prove_found():
    code, out, _ = run(["prove", "p |- p"])
    assert code == 0 and "p-Id" in out


def test_prove_not_found():
    code, _, err = run(["prove", "p * q |- p * q"])
    assert code == 1 and "no proof" in err


def test_usage_error():
    code, _, _ = run(["prove", "p |- # nonsense"])
    assert code == 2


def test_parser_is_built_once():
    """Each call of `main` parses with the one cached argument parser."""
    from fdlg.cli import build_parser
    parser = build_parser()
    assert run(["prove", "p |- p"])[0] == 0 and run(["prove", "p |- #"])[0] == 2
    assert build_parser() is parser


def test_check_and_focalization_roundtrip():
    code, out, _ = run(["prove", "p .* q |- p * q", "--json"])
    assert code == 0
    assert run(["check", "-"], stdin=out)[0] == 0
    assert run(["focalization", "-"], stdin=out)[0] == 0


def test_check_rejects_tampered_document():
    _, out, _ = run(["prove", "p .* q |- p * q", "--json"])
    doc = json.loads(out)
    doc["conclusion"] = "q .* p |- p * q"
    code, text, _ = run(["check", "-"], stdin=json.dumps(doc))
    assert code == 1 and "not an instance" in text


@pytest.mark.parametrize("command", ["focalization", "cutelim"])
def test_document_commands_reject_a_document_that_does_not_check(command):
    _, out, _ = run(["prove", "p .* q |- p * q", "--json"])
    doc = json.loads(out)
    doc["conclusion"] = "q .* p |- p * q"
    code, text, err = run([command, "-"], stdin=json.dumps(doc))
    assert code == 1 and "not an instance" in text + err
    assert (text if command == "cutelim" else err) == ""


def test_unreadable_input_path_is_a_usage_error(tmp_path):
    code, out, err = run(["check", str(tmp_path / "missing.json")])
    assert code == 2 and out == "" and _one_error_line(err) and "missing.json" in err


def test_standardize():
    code, out, _ = run(["standardize", "p * q |- p * q"])
    assert code == 0 and out.strip() == "p .* q |- p * q"


def test_parse_readings(tmp_path):
    lex = tmp_path / "sentence.lex"
    lex.write_text(LEXICON_TEXT)
    code, out, err = run(["parse", "everyone likes some teacher",
                          "--lexicon", str(lex), "--goal", "dn s", "--json"])
    assert code == 0
    assert "reading" in err
    docs = out.strip().split("\n{")
    assert len(docs) >= 2
    code, _, _ = run(["parse", "everyone likes some qux",
                      "--lexicon", str(lex), "--goal", "dn s"])
    assert code == 2
    code, out, err = run(["parse", "everyone likes", "--lexicon", str(lex), "--goal", "dn s"])
    assert (code, out, err) == (1, "", "no reading\n")


# The worked example freed of its cut: each node's rule and conclusion, its
# premises indented below it.
WORKED_EXAMPLE_RESULT = r"""
s-down': p .* dn (p \ n) |- up (dn n * p) ./ p
  dp(.up,.dn): p .* dn (p \ n) |- .dn (up (dn n * p) ./ p)
    dp(.up,.dn)': .up (p .* dn (p \ n)) |- up (dn n * p) ./ p
      s-down: p .* dn (p \ n) |- .dn (up (dn n * p) ./ p)
        dp(.*,./): p .* dn (p \ n) |- up (dn n * p) ./ p
          s-up': (p .* dn (p \ n)) .* p |- up (dn n * p)
            up_R: .up ((p .* dn (p \ n)) .* p) |- up (dn n * p)
              otimes_R: (p .* dn (p \ n)) .* p |- dn n * p
                down_R: p .* dn (p \ n) |- dn n
                  s-down: p .* dn (p \ n) |- .dn n
                    s-down': p .* dn (p \ n) |- n
                      s-down: p .* dn (p \ n) |- .dn n
                        dp(.*,.\): p .* dn (p \ n) |- n
                          s-down': dn (p \ n) |- p .\ n
                            down_L: dn (p \ n) |- .dn (p .\ n)
                              under_L: p \ n |- p .\ n
                                p-Id: p |- p
                                n-Id: n |- n
                p-Id: p |- p
"""


def _listed_document(listing: str, neg_atoms: list) -> str:
    """The exchange document of a derivation listed as above."""
    top = {"premises": []}
    open_nodes = [(-1, top)]            # (depth, node) along the current branch
    for line in listing.strip("\n").splitlines():
        depth = (len(line) - len(line.lstrip())) // 2
        rule, conclusion = line.strip().split(": ", 1)
        node = {"rule": rule, "conclusion": conclusion, "premises": []}
        while open_nodes[-1][0] >= depth:
            open_nodes.pop()
        open_nodes[-1][1]["premises"].append(node)
        open_nodes.append((depth, node))
    return json.dumps({"negAtoms": neg_atoms, **top["premises"][0]}, indent=1) + "\n"


def test_cutelim_roundtrip():
    from fdlg.corpus import cut_elim_example
    doc = derivation_to_json(cut_elim_example(), {"n"})
    code, out, err = run(["cutelim", "-", "--trace"], stdin=doc)
    assert code == 0
    assert err == ("parametric dn n mu(r.,b_)\n"
                   "principal dn n\n"
                   "mutated dp(.upl,.dn) -> dp(.up,.dn)' under mu(r.,b_)\n"
                   "mutated dp(.upl,.dn)' -> dp(.up,.dn) under mu(r.,b_)\n")
    assert out == _listed_document(WORKED_EXAMPLE_RESULT, ["n"])
    assert run(["check", "-"], stdin=out)[0] == 0


def test_translate_both_ways(fig_forall_exists):
    from fdlg.kernel import derivation_to_json
    doc = derivation_to_json(fig_forall_exists, {"s"})
    code, flg_doc, _ = run(["translate", "--to", "flg", "-"], stdin=doc)
    assert code == 0 and '"calculus": "flg"' in flg_doc
    code, back, _ = run(["translate", "--to", "fdlg", "-"], stdin=flg_doc)
    assert code == 0
    assert run(["check", "-"], stdin=back)[0] == 0


def test_soundness_builtin():
    code, out, _ = run(["soundness", "--algebra", "builtin:chain2"])
    assert code == 0
    assert all(line.endswith("ok") for line in out.strip().splitlines())


def test_latex_outputs():
    code, out, _ = run(["latex", "--sequent", "p |- dn n", "--neg", "n"])
    assert code == 0 and r"\dot{\Vdash}" in out
    _, proof_doc, _ = run(["prove", "p .* q |- p * q", "--json"])
    code, out, _ = run(["latex", "-"], stdin=proof_doc)
    assert code == 0 and r"\BIC" in out and r"\otimes_R" in out


def test_latex_rejects_what_it_would_ignore(tmp_path):
    """latex renders a document or a --sequent: --neg, even empty, with a
    document, and a document with --sequent, are usage errors."""
    _, proof_doc, _ = run(["prove", "p .* q |- p * q", "--json"])
    path = tmp_path / "proof.json"
    path.write_text(proof_doc)
    code, out, _ = run(["latex", str(path)])
    assert code == 0 and r"\otimes_R" in out
    for argv in (["latex", str(path), "--neg", "n"], ["latex", str(path), "--neg", ""],
                 ["latex", "--sequent", "p |- p", str(path)],
                 ["latex", "--sequent", "p |- p", "-"]):
        code, out, err = run(argv, stdin=proof_doc)
        assert code == 2 and out == "" and _one_error_line(err), argv


@pytest.mark.parametrize("argv, expected", [
    (["p .(+)l (n .*l p) |- n ./r m", "--neg", "n,m"],
     r"\mathit{p} \check{\oplus}_{\ell} (\mathit{n} \hat{\otimes}_{\ell} \mathit{p})"
     r" \Vvdash \mathit{n} \check{/}_{r} \mathit{m}"),
    ([".dnr up p |- .upl dn n", "--neg", "n"],
     r"\check{\downharpoonright} \uparrow \mathit{p} \vdash"
     r" \hat{\upharpoonleft} \downarrow \mathit{n}"),
    (["p .* (q * p) |- p * (q * p)", "--color"],
     r"\mathit{p} \hat{\otimes} (\mathit{q} \otimes \mathit{p}) \textcolor{red}{\vdash}"
     r" \mathit{p} \otimes (\mathit{q} \otimes \mathit{p})"),
    (["n .(+) m |- n (+) m", "--neg", "n,m", "--color"],
     r"\mathit{n} \check{\oplus} \mathit{m} \textcolor{blue}{\vdash} \mathit{n} \oplus \mathit{m}"),
    (["p |- n", "--neg", "n", "--color"], r"\mathit{p} \textcolor{black}{\vdash} \mathit{n}"),
])
def test_latex_sequent_exact(argv, expected):
    assert run(["latex", "--sequent"] + argv) == (0, expected + "\n", "")


@pytest.mark.parametrize("argv", [
    ["prove", "p |- p", "--max-solutions", "-1"],
    ["prove", "p |- p", "--max-depth", "-1"],
    ["parse", "everyone likes some teacher", "--goal", "dn s", "--max-solutions", "-1"],
    ["parse", "everyone likes some teacher", "--goal", "dn s", "--max-depth", "-1"],
])
def test_negative_search_bounds_are_usage_errors(tmp_path, argv):
    if argv[0] == "parse":
        lex = tmp_path / "sentence.lex"
        lex.write_text(LEXICON_TEXT)
        argv = argv + ["--lexicon", str(lex)]
    code, out, err = run(argv)
    assert code == 2 and out == "" and _one_error_line(err) and "negative" in err


def test_soundness_from_algebra_file(tmp_path):
    from fdlg.algebra import builtin, render_algebra
    path = tmp_path / "chain2.alg"
    path.write_text(render_algebra(builtin("chain2")))
    code, out, _ = run(["soundness", "--algebra", str(path)])
    assert code == 0 and "ok" in out


def test_soundness_incomplete_algebra_file(tmp_path):
    path = tmp_path / "x.alg"
    path.write_text("%name x\n")
    code, _, err = run(["soundness", "--algebra", str(path)])
    assert code == 2
    assert err.startswith("error: ") and "%carrier" in err and err.count("\n") == 1


def test_soundness_algebra_file_missing_operation(tmp_path):
    from fdlg.algebra import builtin, render_algebra
    path = tmp_path / "no-under.alg"
    path.write_text("".join(line + "\n" for line in render_algebra(builtin("chain2")).splitlines()
                            if not line.startswith("%op \\:")))
    code, _, err = run(["soundness", "--algebra", str(path)])
    assert code == 1
    assert err == "instance fails the axioms: missing operation \\\n"


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1


def test_soundness_malformed_algebra_entry(tmp_path):
    path = tmp_path / "bad-map.alg"
    path.write_text("%name bad\n%map up: P:0\n")
    code, _, err = run(["soundness", "--algebra", str(path)])
    assert code == 2 and _one_error_line(err)
    assert "line 2" in err and "%map" in err


@pytest.mark.parametrize("doc", [
    "[]",
    '{"format": "fdlg"}',
    '{"rule": "p-Id"}',
    '{"rule": "p-Id", "conclusion": "p |- p", "premises": {}}',
    '{"rule": "P-Cut", "conclusion": "p |- p", "premises": [1, 2]}',
    '{"negAtoms": "n", "rule": "p-Id", "conclusion": "p |- p"}',
    '{"calculus": "flg", "rule": "p-Id", "conclusion": "p |- p"}',
])
def test_check_malformed_document(doc):
    code, out, err = run(["check", "-"], stdin=doc)
    assert code == 2 and out == "" and _one_error_line(err)


@pytest.mark.parametrize("argv", [["focalization", "-"], ["cutelim", "-"], ["latex", "-"],
                                  ["translate", "--to", "flg", "-"]])
@pytest.mark.parametrize("doc", ['{"calculus": "flg", "rule": "p-Id", "conclusion": "p |- p"}',
                                 '{"calculus": "flg", "rule": "Ax", "conclusion": "[p] |- [p]"}'])
def test_display_calculus_commands_reject_a_companion_document(argv, doc):
    code, out, err = run(argv, stdin=doc)
    assert code == 2 and out == "" and _one_error_line(err)


@pytest.mark.parametrize("doc", [
    '{"rule": "nope", "conclusion": "p |- p"}',
    '{"rule": "P-Cut", "conclusion": "p |- p", "premises": ['
    '{"rule": "nope", "conclusion": "p |- p"}, {"rule": "nope", "conclusion": "p |- p"}]}',
])
def test_translate_to_flg_checks_the_document_first(doc):
    code, out, err = run(["translate", "--to", "flg", "-"], stdin=doc)
    assert code == 1 and out == "" and "unknown rule 'nope'" in err


def _nodes(node):
    yield node
    for premise in node.get("premises", []):
        yield from _nodes(premise)


_MUTANT_RULES = sorted(REGISTRY) + ["Ax", "mu*", "mu~", "nope"]


def _mutant(doc: dict, rng: random.Random) -> str:
    """`doc` with one node changed: its rule renamed, a premise dropped or
    duplicated, or its conclusion swapped with another node's."""
    doc = copy.deepcopy(doc)
    nodes = list(_nodes(doc))
    node = rng.choice(nodes)
    premises = node.setdefault("premises", [])
    kind = rng.randrange(4)
    if kind == 0:
        node["rule"] = rng.choice(_MUTANT_RULES)
    elif kind == 1 and premises:
        del premises[rng.randrange(len(premises))]
    elif kind == 2 and premises:
        premises.insert(rng.randrange(len(premises) + 1), copy.deepcopy(rng.choice(premises)))
    else:
        other = rng.choice(nodes)
        node["conclusion"], other["conclusion"] = other["conclusion"], node["conclusion"]
    return json.dumps(doc)


def test_document_commands_survive_mutated_documents(fig_forall_exists):
    """Seeded one-node mutants of the worked cut example, a corpus reading
    and the reading's companion image: every document command exits 0, 1 or
    2 on each, and no exception escapes it."""
    from fdlg.corpus import NEG_ATOMS, cut_elim_example
    reading = derivation_to_json(fig_forall_exists, NEG_ATOMS)
    docs = [json.loads(text) for text in (derivation_to_json(cut_elim_example(), {"n"}), reading,
                                          run(["translate", "--to", "flg", "-"], stdin=reading)[1])]
    rng = random.Random(1)
    for _ in range(300):
        text = _mutant(rng.choice(docs), rng)
        for argv in (["check", "-"], ["focalization", "-"], ["cutelim", "-", "--trace"],
                     ["translate", "--to", "flg", "-"], ["translate", "--to", "fdlg", "-"],
                     ["latex", "-"]):
            assert run(argv, stdin=text)[0] in (0, 1, 2), (argv, text)


@pytest.mark.parametrize("doc", [
    "[]",
    '{"calculus": "flg"}',
    '{"calculus": "flg", "rule": "Ax", "conclusion": "p |- p", "premises": 3}',
    '{"calculus": "flg", "rule": "Ax", "conclusion": "p * (up q) |- p"}',
    '{"calculus": "flg", "rule": "Ax", "conclusion": "up p |- p"}',
    '{"calculus": "flg", "rule": "Ax", "conclusion": ".dn p |- p"}',
    '{"calculus": "flg", "rule": "Ax", "conclusion": "p .dnr q |- p"}',
    '{"rule": "Ax", "conclusion": "p |- p"}',
    '{"calculus": "flg", "rule": "Ax", "conclusion": "p .\\\\ q |- p"}',
    '{"calculus": "flg", "rule": "Ax", "conclusion": "(p .\\\\ q) .* p |- p"}',
    '{"calculus": "flg", "rule": "Ax", "conclusion": "[p .* q] |- p"}',
    '{"calculus": "flg", "rule": "Ax", "conclusion": "[p] |- [p]"}',
])
def test_translate_malformed_flg_document(doc):
    code, out, err = run(["translate", "--to", "fdlg", "-"], stdin=doc)
    assert code == 2 and out == "" and _one_error_line(err)


def test_translate_rejects_axiom_with_premises():
    ax = '{"rule": "Ax", "conclusion": "p |- [p]", "premises": []}'
    doc = ('{"calculus": "flg", "rule": "Ax", "conclusion": "p |- [p]", '
           f'"premises": [{ax}, {ax}]}}')
    code, out, err = run(["translate", "--to", "fdlg", "-"], stdin=doc)
    assert code == 1 and out == "" and "Ax expects 0 premise(s), got 2" in err


@pytest.mark.parametrize("bracketing, message", [
    ("", "--bracketing '' is not JSON"),
    ("[0,", "--bracketing '[0,' is not JSON"),
    ("[0,5]", "out of range"),
    ("[0,[1]]", "neither"),
    ("[[0,1],[2,true]]", "neither"),
    ("[[0,1],[3,2]]", "every word once"),
    ("[[0,1],[2,2]]", "every word once"),
])
def test_parse_malformed_bracketing(tmp_path, bracketing, message):
    lex = tmp_path / "sentence.lex"
    lex.write_text(LEXICON_TEXT)
    code, out, err = run(["parse", "everyone likes some teacher", "--lexicon", str(lex),
                          "--goal", "dn s", "--bracketing", bracketing])
    assert code == 2 and out == "" and _one_error_line(err) and message in err


def test_parse_input_nested_too_deeply(tmp_path):
    """A sentence or bracketing deeper than a term may nest, or deeper than
    the JSON reader can read, is a usage error."""
    lex = tmp_path / "sentence.lex"
    lex.write_text(LEXICON_TEXT)
    args = ["parse", "--lexicon", str(lex), "--goal", "dn s"]
    deep = "[0," * (MAX_NESTING + 1) + "1" + "]" * (MAX_NESTING + 1)
    for argv, message in ((["everyone " * 2000], "bracketing nested more than"),
                          (["everyone", "--bracketing", deep], "bracketing nested more than"),
                          (["everyone", "--bracketing", "[" * 5000 + "]" * 5000],
                           "--bracketing nested too deeply")):
        code, out, err = run(args + argv)
        assert code == 2 and out == "" and _one_error_line(err) and message in err


def test_parse_explicit_bracketing(tmp_path):
    lex = tmp_path / "sentence.lex"
    lex.write_text(LEXICON_TEXT)
    args = ["parse", "everyone likes some teacher", "--lexicon", str(lex), "--goal", "dn s"]
    default = run(args)
    assert default[0] == 0
    assert run(args + ["--bracketing", "[0,[1,[2,3]]]"]) == default


def test_soundness_algebra_file_order_escapes_carrier(tmp_path):
    from fdlg.algebra import builtin, render_algebra
    path = tmp_path / "escape.alg"
    path.write_text(render_algebra(builtin("chain2")).replace("%le P: ", "%le P: P:0<=P:9 "))
    code, _, err = run(["soundness", "--algebra", str(path)])
    assert code == 1
    assert err.startswith("instance fails the axioms: P: relation escapes the carrier")


@pytest.mark.parametrize("argv", [
    ["check", "--json"], ["focalization", "--json"], ["standardize", "--json", "p |- p"],
    ["translate", "--to", "flg", "--json"], ["cutelim", "--json"],
    ["check", "--neg", "n"], ["focalization", "--neg", "n"],
    ["translate", "--to", "flg", "--neg", "n"], ["cutelim", "--neg", "n"],
])
def test_document_commands_take_no_json_or_neg(argv):
    code, out, _ = run(argv)
    assert code == 2 and out == ""


def _nested_term(depth):
    """A formula whose parentheses nest `depth` deep."""
    text = "p"
    for _ in range(depth - 1):
        text = f"(q * {text})"
    return f"({text})"


def _tall_document(premise_depth):
    """An n-Id leaf with premises nested `premise_depth` deep below the root,
    alternating s-down' and s-down over down_L."""
    d = derive("down_L", derive("n-Id", selector=Atom("n", False)))
    for _ in range(premise_depth - 1):
        d = derive("s-down" if d.rule == "s-down'" else "s-down'", d)
    return derivation_to_json(d, {"n"})


def test_term_at_nesting_limit():
    term = _nested_term(MAX_NESTING)
    code, out, _ = run(["standardize", f"{term} |- {term}"])
    assert code == 0 and out.count("q") == 2 * (MAX_NESTING - 1)
    code, out, err = run(["prove", f"({term}) |- p"])
    assert code == 2 and out == "" and _one_error_line(err) and "nested" in err


def test_document_at_nesting_limit():
    for command in (["check", "-"], ["focalization", "-"], ["cutelim", "-"]):
        assert run(command, stdin=_tall_document(MAX_NESTING))[0] == 0
        code, out, err = run(command, stdin=_tall_document(MAX_NESTING + 1))
        assert code == 2 and out == "" and _one_error_line(err) and "nested" in err


def test_document_too_deep_for_json():
    node = '{"rule": "p-Id", "conclusion": "p |- p"}'
    for _ in range(1500):
        node = f'{{"rule": "s-down", "conclusion": "p |- p", "premises": [{node}]}}'
    code, out, err = run(["check", "-"], stdin=node)
    assert code == 2 and out == "" and _one_error_line(err)


SRC = Path(__file__).resolve().parent.parent / "src"


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_isolated(argv, stdin=""):
    """The command line in a child process with a time and memory cap, so a
    reader that loops fails this test instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    proc = subprocess.run([sys.executable, "-m", "fdlg.cli", *argv], input=stdin,
                          env=env, capture_output=True, text=True, encoding="utf-8",
                          timeout=30, preexec_fn=_limit_memory)
    return proc.returncode, proc.stdout, proc.stderr


def test_prove_rejects_non_ascii_letter():
    code, out, err = run_isolated(["prove", "\u00e9 |- p"])
    assert (code, out) == (2, "")
    assert err == "error: unexpected character '\u00e9' at offset 0\n"


def test_check_rejects_non_ascii_letter_in_conclusion():
    doc = json.loads(derivation_to_json(derive("p-Id", selector=Atom("p", True)), ()))
    doc["conclusion"] = "p .* \u00e9 |- p"
    code, out, err = run_isolated(["check", "-"], stdin=json.dumps(doc))
    assert (code, out) == (2, "")
    assert err == "error: unexpected character '\u00e9' at offset 5\n"


def test_empty_sequent_and_bracketing_are_inputs(tmp_path):
    """An explicit empty --sequent or --bracketing is read as given, not as
    the option's absence: with stdin closed, latex does not fall back to
    reading a document, and parse does not fall back to the default
    bracketing."""
    code, out, err = run_isolated(["latex", "--sequent", ""])
    assert (code, out, err) == (2, "", "error: a sequent needs a |- turnstile\n")
    lex = tmp_path / "sentence.lex"
    lex.write_text(LEXICON_TEXT)
    code, out, err = run_isolated(["parse", "everyone likes some teacher", "--lexicon",
                                   str(lex), "--goal", "dn s", "--bracketing", ""])
    assert (code, out) == (2, "") and _one_error_line(err)


def test_focalization_reports_an_interrupted_pia_section():
    from gen import interrupted_pia_proof
    doc = derivation_to_json(interrupted_pia_proof(), ["n"])
    code, out, err = run(["focalization", "-"], stdin=doc)
    assert (code, err) == (1, "")
    assert out == "premises[0]: PIA subtree of (p \\ n) / p interrupted by dp(.*r,.\\)'\n"


def _chain2_text_with(edit):
    """chain2's algebra file with `edit` applied to each line."""
    from fdlg.algebra import builtin, render_algebra
    return "".join(edit(line) + "\n" for line in render_algebra(builtin("chain2")).splitlines())


def test_soundness_partial_variant_table(tmp_path):
    """A variant table with an entry missing fails the axioms on one line."""
    def drop_first_entry(line):
        head, _, body = line.partition(": ")
        return f"{head}: {body.split(' ', 1)[1]}" if head == "%var *l" else line
    path = tmp_path / "partial.alg"
    path.write_text(_chain2_text_with(drop_first_entry))
    code, out, err = run_isolated(["soundness", "--algebra", str(path)])
    assert (code, out) == (1, "") and "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("instance fails the axioms: *l not total into Nd at ")


def test_soundness_relation_outside_its_carriers(tmp_path):
    path = tmp_path / "outside.alg"
    path.write_text(_chain2_text_with(
        lambda line: line + " P:zz<=N:0" if line.startswith("%wr pure:") else line))
    code, out, err = run(["soundness", "--algebra", str(path)])
    assert (code, out) == (1, "")
    assert err == "instance fails the axioms: the P-N relation is not a weakening relation\n"


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("%carrier P: P:0 P:1", "%carrier P: P:0 P:1 P:1"),
     "line 2: %carrier P lists an element twice"),
    (lambda text: text + "%op bar: P:0,P:0->P:0\n", "unknown %op symbol 'bar'"),
    (lambda text: text + "%var foo: P:0,P:0->P:0\n", "unknown %var symbol 'foo'"),
    (lambda text: text + "%map zz: P:0->Nd:0\n", "unknown %map symbol 'zz'"),
    (lambda text: text + "%carrier Q: Q:0\n", "unknown %carrier symbol 'Q'"),
    (lambda text: text + "%order P: P:0<=P:1\n", "bad line in algebra file: '%order P: P:0<=P:1'"),
    (lambda text: "%op *: P:0,P:0->P:1\n" + text, "a second %op * line"),
    (lambda text: text.replace("%map up: P:0->Nd:0", "%map up: P:0->Nd:1 P:0->Nd:0"),
     "line 10: %map up has a second entry for P:0"),
    (lambda text: text.replace("%op *: P:0,P:0->P:0", "%op *: P:0,P:0->P:1 P:0,P:0->P:0"),
     "line 17: %op * has a second entry for P:0,P:0"),
])
def test_soundness_algebra_file_bad_symbol_line(tmp_path, edit, message):
    """A line that names no symbol of its kind, a second line for one, a
    carrier that lists an element twice, or a table line with two entries for
    one argument is an input error, not a table to drop or replace."""
    from fdlg.algebra import builtin, render_algebra
    path = tmp_path / "bad.alg"
    path.write_text(edit(render_algebra(builtin("chain2"))))
    code, out, err = run(["soundness", "--algebra", str(path)])
    assert (code, out) == (2, "") and _one_error_line(err) and message in err


def test_soundness_unknown_builtin():
    code, out, err = run(["soundness", "--algebra", "builtin:nope"])
    assert (code, out, err) == (2, "", "error: unknown builtin 'nope'\n")


def test_soundness_algebra_file_comments_and_blank_lines(tmp_path):
    """Comment lines and blank lines in an algebra file change nothing."""
    from fdlg.algebra import builtin, render_algebra
    lines = render_algebra(builtin("diamond")).splitlines()
    path = tmp_path / "commented.alg"
    path.write_text("# diamond\n\n" + "".join(f"{line}\n\n  # line {i}\n"
                                                 for i, line in enumerate(lines)))
    want = run(["soundness", "--algebra", "builtin:diamond"])
    assert want[0] == 0 and run(["soundness", "--algebra", str(path)]) == want


def test_soundness_on_empty_carriers(tmp_path):
    """An instance on empty carriers meets the axioms vacuously, and each
    rule is swept over no assignment."""
    from fdlg.algebra import chain_poset, from_lg, lg_from_lattice, render_algebra
    path = tmp_path / "empty.alg"
    path.write_text(render_algebra(from_lg(lg_from_lattice(chain_poset(0)))))
    code, out, err = run(["soundness", "--algebra", str(path)])
    assert (code, err) == (0, "")
    assert out == "".join(f"{name}: 0 checks, ok\n" for name in sorted(REGISTRY))


@pytest.mark.parametrize("lexicon, sentence, message", [
    ("w s\n", "w", "error: line 1: expected `word := formula`"),
    ("w := s *\n", "w", "error: entry for 'w': "),
    ("%negative s\nw := s\n", "w", "error: line 1: unknown directive '%negative'"),
    (LEXICON_TEXT, "", "error: empty sentence"),
])
def test_parse_input_errors(tmp_path, lexicon, sentence, message):
    """A lexicon line that is no entry or directive, an entry that does not
    parse, and an empty sentence are usage errors."""
    lex = tmp_path / "x.lex"
    lex.write_text(lexicon)
    code, out, err = run(["parse", sentence, "--lexicon", str(lex), "--goal", "dn s"])
    assert (code, out) == (2, "") and _one_error_line(err) and err.startswith(message)
