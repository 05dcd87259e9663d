"""The typing context the ExEff, SkelEff and NoEff checkers share: each
checker rejects a variable of every sort it binds that is not in scope, an
operation the signature does not declare, and a handler that lists an
operation twice."""

import re
from functools import partial

import pytest

from effc import exeff, noeff, skeleff
from effc.core import (
    Base,
    Context,
    CoVar,
    DirtVar,
    EffError,
    SkelBase,
    SkelVar,
    TBase,
    TermVar,
    TyVar,
    UnknownOperation,
    dirt_var,
    skeleton,
)
from paper_examples import tick_tock_signature

T_UNIT = TBase(Base.UNIT)
SK_UNIT = SkelBase(Base.UNIT)
N_UNIT = TBase(Base.UNIT)

# calculus -> (its checker, its context over the declared operations)
CHECKERS = {
    "exeff": (exeff.typecheck_comp, Context),
    "skeleff": (skeleff.typecheck_sk, lambda sig: Context(sig.map(partial(skeleton, {})))),
    "noeff": (noeff.typecheck_noeff, lambda sig: Context(sig.map(noeff.elab_vty))),
}

x = TermVar(1, "x")
z = TermVar(99, "z")
s99, a99, d99, w99 = SkelVar(99), TyVar(99), DirtVar(99), CoVar(99)

# what is out of scope -> the diagnostic
MESSAGES = {
    "skeleton": "unbound skeleton variable s99",
    "type": "unbound type variable a99",
    "dirt": "unbound dirt variable d99",
    "coercion": "unbound coercion variable w99",
    "term": "unbound variable z",
    "operation": "unknown operation: Bogus",
}

# (calculus, what is out of scope, term)
E, M = exeff, noeff
UNBOUND = [
    ("exeff", "skeleton", E.CReturn(E.ETyAbs(TyVar(1), s99, E.EUnit()))),
    ("exeff", "type", E.CReturn(E.EAbs(x, a99, E.CReturn(E.EVar(x))))),
    ("exeff", "dirt", E.CReturn(E.EDirtApp(E.EDirtAbs(DirtVar(1), E.EUnit()), dirt_var(d99)))),
    ("exeff", "coercion", E.CReturn(E.ECast(E.EUnit(), E.CoVarRef(w99)))),
    ("exeff", "term", E.CReturn(E.EVar(z))),
    ("exeff", "operation", E.COp("Bogus", E.EUnit(), x, T_UNIT, E.CReturn(E.EUnit()))),
    ("skeleff", "skeleton", E.CReturn(E.EAbs(x, s99, E.CReturn(E.EVar(x))))),
    ("skeleff", "skeleton", E.CReturn(E.ESkelApp(E.ESkelAbs(SkelVar(5), E.EUnit()), s99))),
    ("skeleff", "term", E.CReturn(E.EVar(z))),
    ("skeleff", "operation", E.COp("Bogus", E.EUnit(), x, SK_UNIT, E.CReturn(E.EUnit()))),
    ("noeff", "type", E.EAbs(x, a99, E.EVar(x))),
    ("noeff", "coercion", E.ECast(E.EUnit(), E.CoVarRef(w99))),
    ("noeff", "term", E.EVar(z)),
    ("noeff", "operation", E.COp("Bogus", E.EUnit(), x, N_UNIT, M.MReturn(E.EUnit()))),
]


@pytest.mark.parametrize(
    "calculus, sort, term",
    UNBOUND,
    ids=[f"{c}-{s}-{i}" for i, (c, s, _) in enumerate(UNBOUND)],
)
def test_checkers_reject_what_is_not_in_scope(calculus, sort, term):
    check, context = CHECKERS[calculus]
    with pytest.raises(EffError, match=re.escape(MESSAGES[sort])):
        check(context(tick_tock_signature()), term)


def test_unknown_operation_is_one_error_in_every_calculus():
    for calculus, sort, term in UNBOUND:
        if sort == "operation":
            check, context = CHECKERS[calculus]
            with pytest.raises(UnknownOperation):
                check(context(tick_tock_signature()), term)


def test_checkers_reject_a_handler_listing_an_operation_twice():
    k = TermVar(2, "k")
    ticks = {
        "exeff": E.OpClause("Tick", z, k, E.CReturn(E.EUnit())),
        "skeleff": E.OpClause("Tick", z, k, E.CReturn(E.EUnit())),
        "noeff": E.OpClause("Tick", z, k, M.MReturn(E.EUnit())),
    }
    handlers = {
        "exeff": E.CReturn(E.EHandler(x, T_UNIT, E.CReturn(E.EVar(x)), (ticks["exeff"],) * 2)),
        "skeleff": E.CReturn(E.EHandler(x, SK_UNIT, E.CReturn(E.EVar(x)), (ticks["skeleff"],) * 2)),
        "noeff": E.EHandler(x, N_UNIT, M.MReturn(E.EVar(x)), (ticks["noeff"],) * 2),
    }
    for calculus, term in handlers.items():
        check, context = CHECKERS[calculus]
        with pytest.raises(EffError, match="handler lists operation Tick twice"):
            check(context(tick_tock_signature()), term)
