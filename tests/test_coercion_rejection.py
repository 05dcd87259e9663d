"""Each rejection branch of the coercion checkers fires on a hand-built
ill-kinded coercion, with its own message."""

import re

import pytest

from effc import exeff, noeff
from effc.core import Base, Context, EMPTY_DIRT, TypecheckError
from paper_examples import tick_tock_signature

UNIT = exeff.CoBaseRefl(Base.UNIT)
N_UNIT = exeff.CoBaseRefl(Base.UNIT)
EMPTY = exeff.CoDirtRefl(EMPTY_DIRT)

CASES = {
    # A value coercion where a computation coercion belongs, and back.
    "arrow": (
        exeff.typecheck_coercion,
        exeff.CoArrow(UNIT, UNIT),
        "ill-kinded arrow coercion",
    ),
    "handler": (
        exeff.typecheck_coercion,
        exeff.CoHandler(UNIT, UNIT),
        "ill-kinded handler coercion",
    ),
    "dirt-extension": (
        exeff.typecheck_coercion,
        exeff.CoOpUnion("Tick", UNIT),
        "ill-kinded dirt-extension coercion",
    ),
    "computation": (
        exeff.typecheck_coercion,
        exeff.CoComp(EMPTY, EMPTY),
        "ill-kinded computation coercion",
    ),
    "handler-domain": (
        noeff.typecheck_noeff_coercion,
        exeff.CoHandler(N_UNIT, noeff.NCoComp(N_UNIT)),
        "handler coercion domain must relate computation types",
    ),
    "handler-codomain": (
        noeff.typecheck_noeff_coercion,
        exeff.CoHandler(noeff.NCoComp(N_UNIT), N_UNIT),
        "handler coercion codomain must relate computation types",
    ),
    "handler-to-function": (
        noeff.typecheck_noeff_coercion,
        noeff.NCoHandToFun(N_UNIT, N_UNIT),
        "handler-to-function coercion codomain must consume a computation",
    ),
    "function-to-handler": (
        noeff.typecheck_noeff_coercion,
        noeff.NCoFunToHand(N_UNIT, N_UNIT),
        "function-to-handler coercion codomain must produce a computation",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_ill_kinded_coercion_is_rejected_with_its_message(name):
    check, co, message = CASES[name]
    with pytest.raises(TypecheckError, match=f"^{re.escape(message)}$"):
        check(Context(tick_tock_signature()), co)
