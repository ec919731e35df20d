"""Command-line entry point.

Machine output goes to stdout, diagnostics to stderr.  Exit codes: 0 for
success / proof found / check ok, 1 for no proof / failed check, 2 for usage
or format errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .syntax import parse_sequent, parse_formula, render_sequent, render, _LATEX
from .kernel import (Derivation, check_derivation, derivation_to_json,
                     derivation_from_json, neg_atoms_of, iter_nodes, fold, KernelError)
from .standardize import standard_sequent, StandardizeError
from .focus import check_strong_focalization, MinimizeError
from .search import prove, parse_sentence, SearchConfig, Lexicon
from .cutelim import eliminate_cuts, CutElimError
from .translate import (translate_to_fdlg, translate_to_flg, flg_to_json,
                        flg_from_json, TranslateError)
from .algebra import builtin, parse_algebra, check_fplg_axioms, check_rule_soundness
from .rules import REGISTRY, _LOGICAL_NAMES


def _neg(args) -> frozenset[str]:
    return frozenset(x for x in (args.neg or "").split(",") if x)


def _read_doc(path: str | None) -> str:
    if path in (None, "-"):
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# Rule labels: a logical rule's is its connective's, a structural shift
# rule's its structural shift's.
_RULE_LATEX = {
    "p-Id": r"p\text{-Id}", "n-Id": r"n\text{-Id}",
    "P-Cut": r"\text{P-Cut}", "N-Cut": r"\text{N-Cut}",
    "Pn-Cut": r"\text{Pn-Cut}", "nN-Cut": r"\text{nN-Cut}",
    **{name + side: _LATEX[op] + side for op, name in _LOGICAL_NAMES.items()
       for side in ("_L", "_R")},
    **{f"s-{_LOGICAL_NAMES[op]}{prime}": _LATEX["." + op] for op in ("dn", "up")
       for prime in ("", "'")},
}


def latex_derivation(d: Derivation, color: bool = False) -> str:
    """bussproofs rendering of a derivation tree, in one post-order pass."""
    out: list[str] = []

    def step(node: Derivation, _) -> None:
        if not node.premises:
            out.append(r"\AXC{}")
        label = (_RULE_LATEX.get(node.rule)
                 or r"\texttt{" + node.rule.replace("\\", r"\backslash ") + "}")
        out.append(rf"\RL{{\footnotesize ${label}$}}")
        infer = r"\BIC" if len(node.premises) > 1 else r"\UIC"
        out.append(rf"{infer}{{${render(node.conclusion, 'latex', color)}$}}")

    fold(d, step)
    out.append(r"\DP")
    return "\n".join(out)


def _emit_proofs(proofs, neg, as_json: bool) -> None:
    for i, d in enumerate(proofs):
        if as_json:
            print(derivation_to_json(d, neg))
        else:
            print(f"# proof {i + 1}")
            for path, node in iter_nodes(d):
                print("  " * len(path) + f"{node.rule}: {render_sequent(node.conclusion)}")


def cmd_prove(args) -> int:
    neg = _neg(args)
    goal = parse_sequent(args.sequent, neg)
    cfg = SearchConfig(max_depth=args.max_depth, max_solutions=args.max_solutions)
    proofs = prove(goal, cfg)
    if not proofs:
        print("no proof", file=sys.stderr)
        return 1
    _emit_proofs(proofs, neg, args.json)
    return 0


def cmd_check(args) -> int:
    d, _ = derivation_from_json(_read_doc(args.file))
    report = check_derivation(d)
    print(report)
    return 0 if report.ok else 1


def cmd_focalization(args) -> int:
    d, _ = derivation_from_json(_read_doc(args.file))
    report = check_derivation(d)
    if not report.ok:
        print(report)
        return 1
    foc = check_strong_focalization(d)
    print(foc)
    return 0 if foc.ok else 1


def cmd_standardize(args) -> int:
    seq = parse_sequent(args.sequent, _neg(args))
    print(render_sequent(standard_sequent(seq)))
    return 0


def cmd_translate(args) -> int:
    text = _read_doc(args.file)
    if args.to == "fdlg":
        d, neg = flg_from_json(text)
        out = translate_to_fdlg(d)
        print(derivation_to_json(out, neg or neg_atoms_of(out)))
    else:
        d, neg = derivation_from_json(text)
        report = check_derivation(d)
        if not report.ok:
            print(report, file=sys.stderr)
            return 1
        out = translate_to_flg(d)
        print(flg_to_json(out, neg))
    return 0


def cmd_cutelim(args) -> int:
    d, neg = derivation_from_json(_read_doc(args.file))
    report = check_derivation(d)
    if not report.ok:
        print(report, file=sys.stderr)
        return 1
    trace: list[str] | None = [] if args.trace else None
    out = eliminate_cuts(d, trace)
    if trace:
        for line in trace:
            print(line, file=sys.stderr)
    print(derivation_to_json(out, neg))
    return 0


def cmd_parse(args) -> int:
    with open(args.lexicon, encoding="utf-8") as fh:
        lexicon = Lexicon.from_text(fh.read())
    goal = parse_formula(args.goal, lexicon.neg_atoms)
    words = args.sentence.split()
    bracketing = None
    if args.bracketing is not None:
        import json as _json
        try:
            bracketing = _json.loads(args.bracketing)
        except _json.JSONDecodeError as e:
            raise ValueError(f"--bracketing {args.bracketing!r} is not JSON: {e}") from None
        except RecursionError:
            raise ValueError("--bracketing nested too deeply") from None
    cfg = SearchConfig(max_depth=args.max_depth, max_solutions=args.max_solutions)
    readings = parse_sentence(words, lexicon, goal, cfg, bracketing)
    if not readings:
        print("no reading", file=sys.stderr)
        return 1
    print(f"# {len(readings)} reading(s)", file=sys.stderr)
    _emit_proofs(readings, lexicon.neg_atoms, args.json)
    return 0


def cmd_soundness(args) -> int:
    if args.algebra.startswith("builtin:"):
        alg = builtin(args.algebra.split(":", 1)[1])
    else:
        alg = parse_algebra(_read_doc(args.algebra))
    bad = check_fplg_axioms(alg)
    if bad:
        print(f"instance fails the axioms: {bad[0]}", file=sys.stderr)
        return 1
    violations = 0
    for name in sorted(REGISTRY):
        rep = check_rule_soundness(name, alg)
        status = "ok" if rep.ok else f"{len(rep.violations)} violation(s)"
        print(f"{name}: {rep.checked} checks, {status}")
        violations += len(rep.violations)
    return 0 if violations == 0 else 1


def cmd_latex(args) -> int:
    if args.sequent is not None:
        if args.file is not None:
            raise ValueError("latex takes a document or --sequent, not both")
        seq = parse_sequent(args.sequent, _neg(args))
        print(render(seq, "latex", color=args.color))
        return 0
    if args.neg is not None:
        raise ValueError("--neg applies to --sequent; a document names its negative atoms")
    d, _ = derivation_from_json(_read_doc(args.file))
    print(latex_derivation(d, color=args.color))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="fdlg",
                                 description="focused display Lambek-Grishin toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    # Commands that read a derivation document take its negative atoms from
    # the document, so only the sequent commands take --neg.
    def sequent_args(p):
        p.add_argument("--neg", default="", help="comma-separated negative atoms")
        p.add_argument("sequent", help="sequent text, e.g. 'p .* q |- p * q'")

    def file_arg(p):
        p.add_argument("file", nargs="?", default="-",
                       help="derivation document (default: stdin)")

    p = sub.add_parser("prove", help="backward focused proof search")
    sequent_args(p)
    p.add_argument("--json", action="store_true", help="emit the exchange format")
    p.add_argument("--max-depth", type=int, default=40)
    p.add_argument("--max-solutions", type=int, default=0)
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("check", help="re-check a derivation document")
    file_arg(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("focalization", help="strong-focalization report")
    file_arg(p)
    p.set_defaults(fn=cmd_focalization)

    p = sub.add_parser("standardize", help="standard sequent of a sequent")
    sequent_args(p)
    p.set_defaults(fn=cmd_standardize)

    p = sub.add_parser("translate", help="translate a proof between the calculi")
    file_arg(p)
    p.add_argument("--to", choices=("fdlg", "flg"), required=True)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("cutelim", help="eliminate cuts from a derivation")
    file_arg(p)
    p.add_argument("--trace", action="store_true",
                   help="one line per move on stderr")
    p.set_defaults(fn=cmd_cutelim)

    p = sub.add_parser("parse", help="parsing-as-deduction over a lexicon")
    p.add_argument("sentence", help="space-separated words")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--bracketing",
                   help="nested JSON list of word indices; default right-branching")
    p.add_argument("--max-depth", type=int, default=40)
    p.add_argument("--max-solutions", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("soundness", help="validity sweep of every rule")
    p.add_argument("--algebra", default="builtin:chain2",
                   help="file or builtin:{chain2,chain3,diamond}")
    p.set_defaults(fn=cmd_soundness)

    p = sub.add_parser("latex", help="LaTeX for a sequent or a derivation")
    p.add_argument("--neg", help="comma-separated negative atoms of --sequent")
    p.add_argument("--color", action="store_true", help="colored turnstiles")
    p.add_argument("--sequent", help="render a sequent instead of a document")
    p.add_argument("file", nargs="?", help="derivation document (default: stdin)")
    p.set_defaults(fn=cmd_latex)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (KernelError, MinimizeError, CutElimError, TranslateError,
            StandardizeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:     # usage, format and file errors
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
