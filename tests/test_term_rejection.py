"""Each rejection branch of the term checkers fires on a hand-built ill-typed
term, with its own message: ExEff's `typecheck_value` and `typecheck_comp`,
SkelEff's `typecheck_sk` and NoEff's `typecheck_noeff`; so does each of
NoEff elaboration's, on a coercion whose recorded constraint has no pure
counterpart.  Inference only builds well-typed terms, so nothing else
reaches these branches."""

import re
from functools import partial

import pytest

from effc import exeff, noeff, skeleff
from effc.core import (
    Base,
    CompSub,
    CompType,
    CoVar,
    Context,
    DirtSub,
    ElaborationError,
    EMPTY_DIRT,
    SKEL_INT,
    SKEL_UNIT,
    T_INT,
    T_UNIT,
    TermVar,
    THandler,
    TyVar,
    TySub,
    TypecheckError,
    dirt,
    skeleton,
)
from paper_examples import tick_tock_signature

X, Y, P, K = (TermVar(i, n) for i, n in enumerate("xypk"))
UNIT, ONE = exeff.EUnit(), exeff.EInt(1)
UNIT_REFL = exeff.CoBaseRefl(Base.UNIT)
INT_REFL = exeff.CoBaseRefl(Base.INT)


def handler(ty, ret, clause_body):
    """`handler { return x -> ret, Tick p k -> clause_body }`, with `x : ty`."""
    return exeff.EHandler(X, ty, ret, (exeff.OpClause("Tick", P, K, clause_body),))


def exeff_value(t):
    return exeff.typecheck_value(Context(tick_tock_signature()), t)


def exeff_comp(t):
    return exeff.typecheck_comp(Context(tick_tock_signature()), t)


def skeleff_check(t):
    return skeleff.typecheck_sk(Context(tick_tock_signature().map(partial(skeleton, {}))), t)


def noeff_check(t):
    return noeff.typecheck_noeff(Context(tick_tock_signature().map(noeff.elab_vty)), t)


RET = exeff.CReturn
W = CoVar(0)
WIDEN_TICK = exeff.CoComp(UNIT_REFL, exeff.CoEmpty(dirt(["Tick"])))  # Unit ! {} <= Unit ! {Tick}

CASES = {
    # ExEff values
    "exeff-handler-clause": (
        exeff_value,
        handler(T_UNIT, RET(exeff.EVar(X)), RET(ONE)),
        "handler clause for Tick has a different type than the return clause",
    ),
    "exeff-skeleton-application": (
        exeff_value,
        exeff.ESkelApp(UNIT, SKEL_UNIT),
        "skeleton application of a non-skeleton-polymorphic value",
    ),
    "exeff-type-application": (
        exeff_value,
        exeff.ETyApp(UNIT, T_UNIT),
        "type application of a non-type-polymorphic value",
    ),
    "exeff-type-application-skeleton": (
        exeff_value,
        exeff.ETyApp(exeff.ETyAbs(TyVar(0), SKEL_INT, UNIT), T_UNIT),
        "type application instantiates at the wrong skeleton",
    ),
    "exeff-dirt-application": (
        exeff_value,
        exeff.EDirtApp(UNIT, EMPTY_DIRT),
        "dirt application of a non-dirt-polymorphic value",
    ),
    "exeff-coercion-application": (
        exeff_value,
        exeff.ECoApp(UNIT, UNIT_REFL),
        "coercion application of a non-qualified value",
    ),
    "exeff-coercion-application-constraint": (
        exeff_value,
        exeff.ECoApp(exeff.ECoAbs(W, TySub(T_UNIT, T_UNIT), UNIT), INT_REFL),
        "coercion application witnesses the wrong constraint",
    ),
    "exeff-value-cast": (
        exeff_value,
        exeff.ECast(UNIT, WIDEN_TICK),
        "value cast by a non-value coercion",
    ),
    # ExEff computations
    "exeff-application": (
        exeff_comp,
        exeff.CApp(UNIT, UNIT),
        "application of a non-function value",
    ),
    "exeff-application-argument": (
        exeff_comp,
        exeff.CApp(exeff.EAbs(X, T_INT, RET(exeff.EVar(X))), UNIT),
        "function applied to an argument of the wrong type",
    ),
    "exeff-do-dirts": (
        exeff_comp,
        exeff.CDo(X, RET(UNIT), exeff.CCast(RET(UNIT), WIDEN_TICK)),
        "do-sequence branches draw from different dirts",
    ),
    "exeff-operation-argument": (
        exeff_comp,
        exeff.COp("Tick", ONE, Y, T_UNIT, RET(UNIT)),
        "operation Tick applied to an argument of the wrong type",
    ),
    "exeff-operation-continuation": (
        exeff_comp,
        exeff.COp("Tick", UNIT, Y, T_INT, RET(UNIT)),
        "operation Tick continuation binder annotation mismatch",
    ),
    "exeff-handle": (
        exeff_comp,
        exeff.CHandle(UNIT, RET(UNIT)),
        "with-handle applied to a non-handler value",
    ),
    "exeff-handle-body": (
        exeff_comp,
        exeff.CHandle(exeff.EHandler(X, T_UNIT, RET(exeff.EVar(X))), RET(ONE)),
        "handled computation does not match the handler's input type",
    ),
    "exeff-computation-cast": (
        exeff_comp,
        exeff.CCast(RET(UNIT), UNIT_REFL),
        "computation cast by a non-computation coercion",
    ),
    # SkelEff
    "skeleff-handler-clause": (
        skeleff_check,
        handler(SKEL_UNIT, RET(exeff.EVar(X)), RET(ONE)),
        "handler clause for Tick disagrees with the return clause",
    ),
    "skeleff-skeleton-application": (
        skeleff_check,
        exeff.ESkelApp(UNIT, SKEL_UNIT),
        "type application of a non-polymorphic value",
    ),
    "skeleff-application": (
        skeleff_check,
        exeff.CApp(UNIT, UNIT),
        "application of a non-function",
    ),
    "skeleff-application-argument": (
        skeleff_check,
        exeff.CApp(exeff.EAbs(X, SKEL_INT, RET(exeff.EVar(X))), UNIT),
        "argument type mismatch",
    ),
    "skeleff-operation-argument": (
        skeleff_check,
        exeff.COp("Tick", ONE, Y, SKEL_UNIT, RET(UNIT)),
        "operation Tick argument type mismatch",
    ),
    "skeleff-operation-continuation": (
        skeleff_check,
        exeff.COp("Tick", UNIT, Y, SKEL_INT, RET(UNIT)),
        "operation Tick continuation annotation mismatch",
    ),
    "skeleff-handle": (
        skeleff_check,
        exeff.CHandle(UNIT, RET(UNIT)),
        "with-handle applied to a non-handler",
    ),
    "skeleff-handle-body": (
        skeleff_check,
        exeff.CHandle(exeff.EHandler(X, SKEL_UNIT, RET(exeff.EVar(X))), RET(ONE)),
        "handled computation type mismatch",
    ),
    # NoEff
    "noeff-application": (
        noeff_check,
        exeff.CApp(UNIT, UNIT),
        "application of a non-function term",
    ),
    "noeff-application-argument": (
        noeff_check,
        exeff.CApp(exeff.EAbs(X, T_INT, noeff.MReturn(exeff.EVar(X))), UNIT),
        "argument type mismatch",
    ),
    "noeff-type-application": (
        noeff_check,
        exeff.ETyApp(UNIT, T_UNIT),
        "type application of a non-polymorphic term",
    ),
    "noeff-coercion-application": (
        noeff_check,
        exeff.ECoApp(UNIT, UNIT_REFL),
        "coercion application of a non-qualified term",
    ),
    "noeff-coercion-application-constraint": (
        noeff_check,
        exeff.ECoApp(exeff.ECoAbs(W, TySub(T_UNIT, T_UNIT), UNIT), INT_REFL),
        "coercion application witnesses the wrong constraint",
    ),
    "noeff-handler-clause": (
        noeff_check,
        handler(T_UNIT, noeff.MReturn(exeff.EVar(X)), noeff.MReturn(ONE)),
        "handler clause for Tick disagrees with the return clause",
    ),
    "noeff-operation-argument": (
        noeff_check,
        exeff.COp("Tick", ONE, Y, T_UNIT, noeff.MReturn(UNIT)),
        "operation Tick argument type mismatch",
    ),
    "noeff-operation-continuation": (
        noeff_check,
        exeff.COp("Tick", UNIT, Y, T_INT, noeff.MReturn(UNIT)),
        "operation Tick continuation annotation mismatch",
    ),
    "noeff-do-head": (
        noeff_check,
        exeff.CDo(X, UNIT, noeff.MReturn(UNIT)),
        "do-sequence head must be a computation",
    ),
    "noeff-do-body": (
        noeff_check,
        exeff.CDo(X, noeff.MReturn(UNIT), UNIT),
        "do-sequence body must be a computation",
    ),
    "noeff-handle": (
        noeff_check,
        exeff.CHandle(UNIT, noeff.MReturn(UNIT)),
        "with-handle applied to a non-handler term",
    ),
    "noeff-handle-body": (
        noeff_check,
        exeff.CHandle(exeff.EHandler(X, T_UNIT, noeff.MReturn(exeff.EVar(X))), noeff.MReturn(ONE)),
        "handled term does not match the handler input type",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_ill_typed_term_is_rejected_with_its_message(name):
    check, term, message = CASES[name]
    with pytest.raises(TypecheckError, match=f"^{re.escape(message)}$"):
        check(term)


# NoEff elaboration reads each coercion's constraint from the ExEff
# derivation; a constraint that no well-typed core term gives the coercion
# has no pure counterpart.
TICK = dirt(["Tick"])


def _handler_ty(in_dirt):
    return THandler(CompType(T_UNIT, in_dirt), CompType(T_UNIT, EMPTY_DIRT))


ELABORATION_CASES = {
    "dirt-coercion-variable": (
        exeff.CoVarRef(W),
        DirtSub(EMPTY_DIRT, TICK),
        "dirt coercion variable has no pure-language counterpart",
    ),
    "impure-to-pure": (
        exeff.CoComp(UNIT_REFL, exeff.CoDirtRefl(TICK)),
        CompSub(CompType(T_UNIT, TICK), CompType(T_UNIT, EMPTY_DIRT)),
        "computation coercion from impure to pure dirt",
    ),
    "handler-codomain": (
        exeff.CoHandler(UNIT_REFL, UNIT_REFL),
        TySub(_handler_ty(TICK), _handler_ty(TICK)),
        "handler coercion codomain must be a computation coercion",
    ),
    "handler-to-function-components": (
        exeff.CoHandler(UNIT_REFL, UNIT_REFL),
        TySub(_handler_ty(TICK), _handler_ty(EMPTY_DIRT)),
        "handler coercion components must be computation coercions",
    ),
    "function-to-handler": (
        exeff.CoHandler(UNIT_REFL, UNIT_REFL),
        TySub(_handler_ty(EMPTY_DIRT), _handler_ty(TICK)),
        "handler coercion from pure input to impure input contradicts contravariance",
    ),
}


@pytest.mark.parametrize("name", list(ELABORATION_CASES))
def test_a_coercion_without_pure_counterpart_is_rejected_by_elaboration(name):
    co, constraint, message = ELABORATION_CASES[name]
    derived = exeff.Derivation(tick_tock_signature())
    derived[id(co)] = constraint
    with pytest.raises(ElaborationError, match=f"^{re.escape(message)}$"):
        noeff.elab_co(derived, co)
