import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fdlg.corpus import (reading_forall_exists, reading_exists_forall,
                         cut_elim_example, cut_elim_parametric_result,
                         golden_sequents, LEXICON, SENTENCE, GOAL)
from fdlg.algebra import builtin, random_instances

from gen import forward_closure


@pytest.fixture(scope="session")
def fig_forall_exists():
    return reading_forall_exists()


@pytest.fixture(scope="session")
def fig_exists_forall():
    return reading_exists_forall()


@pytest.fixture(scope="session")
def chain2():
    return builtin("chain2")


@pytest.fixture(scope="session")
def diamond():
    return builtin("diamond")


@pytest.fixture(scope="session")
def corpus_sequents():
    return golden_sequents()


# Expensive inputs that more than one test reads; built once per session.

@pytest.fixture(scope="session")
def random50():
    return random_instances(50, seed=101)


@pytest.fixture(scope="session")
def closure6():
    """The height-6, size-12 forward closure, variants included."""
    return forward_closure(max_height=6, max_size=12, include_variants=True)
