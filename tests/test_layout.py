"""`src/fdlg` holds the paper's constructions and what the program runs.

Every top-level public function and class of a `src/fdlg` module, and every
public method of its classes, must be used by the program: its name appears
as a whole word outside its own definition, in a `src/fdlg` module other than
`__init__.py` (its own included), a demo, a `perfbench` file or the CI
workflow. A name that `fdlg/__init__.py` exports passes, and so does a
construction of the paper listed below; a method passes by neither. A helper
that only the tests call belongs in `tests/`.
"""

import ast
import functools
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fdlg"

# Constructions of the paper that only the tests exercise, each with its reason.
PAPER = {
    "structural_cut": "the cut on a whole structure of the completeness argument",
    "transform_derivation": "the term symmetries pushed through derivations",
    "dual_instance": "the order-reversing dual of an FP.LG instance",
    "region": "the regions of the rule-topology diagram",
    "phase_edge_ok": "a rule application's conformance with the topology of rules",
    "principal_subtree": "the principal subtree of a standard sequent",
}


def _words(text: str) -> Counter:
    return Counter(re.findall(r"\w+", text))


def _public(nodes) -> list:
    """The public function and class definitions among `nodes`, as (name,
    first line, last line)."""
    return [(node.name, min([node.lineno] + [d.lineno for d in node.decorator_list]),
             node.end_lineno)
            for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


@functools.cache
def _definitions() -> dict:
    """Each module's text, its top-level public (name, first line, last line)
    and each class's public methods as (class.method, first line, last line)."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        body = ast.parse(text).body
        out[path] = text, _public(body), [
            (f"{cls.name}.{name}", start, end) for cls in body if isinstance(cls, ast.ClassDef)
            for name, start, end in _public(cls.body)]
    return out


def _exports() -> set:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names}


def test_every_public_src_name_has_a_program_caller():
    modules = {p: v for p, v in _definitions().items() if p.name != "__init__.py"}
    words = {p: _words(text) for p, (text, *_) in modules.items()}
    callers = sum((_words(p.read_text()) for d in ("demos", "perfbench")
                   for p in (ROOT / d).glob("*.py")),
                  _words((ROOT / ".github" / "workflows" / "tests.yml").read_text()))
    passes = _exports() | set(PAPER)
    uncalled = []
    for path, (text, defs, methods) in modules.items():
        lines = text.splitlines()
        for qualname, start, end in defs + methods:
            name = qualname.rpartition(".")[2]
            inside = _words("\n".join(lines[start - 1:end]))[name]
            if (qualname not in passes and not callers[name] and words[path][name] == inside
                    and not any(w[name] for p, w in words.items() if p != path)):
                uncalled.append(f"{path.stem}.{qualname}")
    assert uncalled == [], f"only the tests call {uncalled}; move or delete them"


def test_paper_names_are_defined_and_not_exported():
    defined = {name for _, defs, _ in _definitions().values() for name, _, _ in defs}
    assert set(PAPER) <= defined
    assert not set(PAPER) & _exports()
