import dataclasses
import os
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import pytest

from effc import exeff, infer, lex, noeff, skeleff, source  # noqa: F401  (every module with node classes)
from effc.core import NODES, TForallDirt, TForallSkel, TForallTy, TQual

TESTS = pathlib.Path(__file__).parent
CORPUS = TESTS / "corpus"
CORPUS_BAD = TESTS / "corpus_bad"
GOLDEN = TESTS / "golden"
SRC = TESTS.parent / "src"


def guard(cls: type) -> None:
    """Make the node class `cls` raise `dataclasses.FrozenInstanceError` on
    any attribute store through the class once its field is set (so after
    construction, since `__init__` sets each field once), on any store of a
    name that is not a field, and on any delete, as a frozen dataclass does.
    `object.__setattr__`, which sets the summaries of `traverse`, passes."""
    fields = frozenset(f.name for f in dataclasses.fields(cls))

    def __setattr__(self, name, value):
        if name not in fields or name in self.__dict__:
            raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r} of {cls.__name__}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r} of {cls.__name__}")

    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__


# Node classes are plain dataclasses, immutable by convention (`core.node`);
# the whole test session runs with every one of them guarded.
for _cls in NODES:
    guard(_cls)


def subprocess_env(**extra) -> dict:
    """The environment for running effc in a subprocess: `src` first on
    PYTHONPATH, as pytest puts it first on the tests' `sys.path`."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


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


def read_digests(path) -> dict:
    """A digest file's lines `<sha256>  <program> <key>`, as {(program, key): sha256}."""
    out = {}
    for line in path.read_text().splitlines():
        digest, name, key = line.split()
        out[name, key] = digest
    return out


def write_digests(path, digests: dict) -> None:
    """Rewrite a digest file with `digests` in the file's own line order, new
    keys last, so that a regeneration diff shows only the digests that
    changed."""
    kept = [k for k in read_digests(path) if k in digests] if path.exists() else []
    known = set(kept)
    keys = kept + [k for k in digests if k not in known]
    path.write_text("".join(f"{digests[k]}  {k[0]} {k[1]}\n" for k in keys))
