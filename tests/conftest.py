import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import pytest

from effc.core import TForallDirt, TForallSkel, TForallTy, TQual

TESTS = pathlib.Path(__file__).parent
CORPUS = TESTS / "corpus"
CORPUS_BAD = TESTS / "corpus_bad"
GOLDEN = TESTS / "golden"


def qualifiers(scheme) -> list:
    """The constraints that qualify a let scheme, a quantified value type."""
    out = []
    while isinstance(scheme, (TForallSkel, TForallTy, TForallDirt, TQual)):
        if isinstance(scheme, TQual):
            out.append(scheme.constraint)
        scheme = scheme.body
    return out


@pytest.fixture(scope="session")
def corpus_paths():
    return sorted(CORPUS.glob("*.eff"))


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN
