"""Proof kernel, focused proof search and proof translations for the focused
display Lambek-Grishin calculus, with finite fully polarized models."""

from .syntax import (Atom, Formula, Structure, Sequent, Sort, SortError,
                     ParseError, parse_formula, parse_structure, parse_sequent,
                     render, render_sequent, sort_of, bowtie, infty)
from .kernel import (Derivation, check_derivation, apply_rule_forward,
                     identity_expansion, saturate_translations,
                     derivation_to_json, derivation_from_json)
from .standardize import ftom, ftoM, standard_sequent
from .focus import (signed_tree, classify_phase, check_strong_focalization,
                    entry_exit_points, minimize_proof)
from .search import SearchConfig, Lexicon, prove, parse_sentence
from .cutelim import Mutation, MUTATIONS, mutate_sequent, eliminate_cuts
from .translate import (FlgDerivation, translate_to_fdlg, translate_to_flg,
                        classify_processing_sections, is_normal)
from .algebra import (FinitePoset, FiniteFPLG, LGAlgebra, collage, from_lg,
                      to_lg, interpret, check_fplg_axioms, check_rule_soundness,
                      builtin, random_instances)

__version__ = "0.1.0"
