"""Effect-erased backend: System F plus term-level operations and handlers.

Types here are the skeletons of the core language.  Erasure drops coercions,
casts, and all type/dirt/coercion binders and applications, keeping only
skeleton binders and applications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import exeff
from .core import (
    Base,
    Context,
    FuelExhausted,
    SkelArrow,
    SkelBase,
    SkelForall,
    SkelHandler,
    SkelVar,
    Skeleton,
    TermVar,
    TypecheckError,
    UnboundVariable,
    clause_ops,
    skeleton,
)
from .exeff import Subst, wf_bound
from .traverse import (
    Reduction,
    alpha_eq,
    contractions,
    handle_op,
    subst_term,
    substitute,
)

# ---------------------------------------------------------------------------
# Syntax


@dataclass(frozen=True)
class SVar:
    var: TermVar


@dataclass(frozen=True)
class SUnit:
    pass


@dataclass(frozen=True)
class SInt:
    value: int


@dataclass(frozen=True)
class SAbs:
    var: TermVar
    ty: Skeleton
    body: "SkComp"


@dataclass(frozen=True)
class SOpClause:
    op: str
    param: TermVar
    kont: TermVar
    body: "SkComp"


@dataclass(frozen=True)
class SHandler:
    ret_var: TermVar
    ret_ty: Skeleton
    ret_body: "SkComp"
    clauses: tuple[SOpClause, ...] = ()

    scope = "ret_body"  # the return binder does not reach the operation clauses


@dataclass(frozen=True)
class SSkelAbs:
    var: SkelVar
    body: "SkValue"


@dataclass(frozen=True)
class SSkelApp:
    val: "SkValue"
    skel: Skeleton


SkValue = Union[SVar, SUnit, SInt, SAbs, SHandler, SSkelAbs, SSkelApp]


@dataclass(frozen=True)
class SApp:
    fn: SkValue
    arg: SkValue


@dataclass(frozen=True)
class SLet:
    var: TermVar
    val: SkValue
    body: "SkComp"


@dataclass(frozen=True)
class SReturn:
    val: SkValue


@dataclass(frozen=True)
class SOp:
    op: str
    arg: SkValue
    var: TermVar
    var_ty: Skeleton
    body: "SkComp"


@dataclass(frozen=True)
class SDo:
    var: TermVar
    first: "SkComp"
    second: "SkComp"


@dataclass(frozen=True)
class SHandle:
    handler: SkValue
    body: "SkComp"


SkComp = Union[SApp, SLet, SReturn, SOp, SDo, SHandle]

_VALUE_NODES = (SVar, SUnit, SInt, SAbs, SHandler, SSkelAbs, SSkelApp)


# ---------------------------------------------------------------------------
# Erasure


def erase_value(sub: dict, v: exeff.Value) -> SkValue:
    if isinstance(v, exeff.EVar):
        return SVar(v.var)
    if isinstance(v, exeff.EUnit):
        return SUnit()
    if isinstance(v, exeff.EInt):
        return SInt(v.value)
    if isinstance(v, exeff.ECast):
        return erase_value(sub, v.val)
    if isinstance(v, exeff.EAbs):
        return SAbs(v.var, skeleton(sub, v.ty), erase_comp(sub, v.body))
    if isinstance(v, exeff.EHandler):
        return SHandler(
            v.ret_var,
            skeleton(sub, v.ret_ty),
            erase_comp(sub, v.ret_body),
            tuple(SOpClause(c.op, c.param, c.kont, erase_comp(sub, c.body)) for c in v.clauses),
        )
    if isinstance(v, exeff.ESkelAbs):
        return SSkelAbs(v.var, erase_value(sub, v.body))
    if isinstance(v, exeff.ESkelApp):
        return SSkelApp(erase_value(sub, v.val), v.skel)
    if isinstance(v, exeff.ETyAbs):
        return erase_value({**sub, v.var.id: v.skel}, v.body)
    if isinstance(v, exeff.ETyApp):
        return erase_value(sub, v.val)
    if isinstance(v, exeff.EDirtAbs):
        return erase_value(sub, v.body)
    if isinstance(v, exeff.EDirtApp):
        return erase_value(sub, v.val)
    if isinstance(v, exeff.ECoAbs):
        return erase_value(sub, v.body)
    if isinstance(v, exeff.ECoApp):
        return erase_value(sub, v.val)
    raise TypeError(v)


def erase_comp(sub: dict, c: exeff.Comp) -> SkComp:
    if isinstance(c, exeff.CApp):
        return SApp(erase_value(sub, c.fn), erase_value(sub, c.arg))
    if isinstance(c, exeff.CLet):
        return SLet(c.var, erase_value(sub, c.val), erase_comp(sub, c.body))
    if isinstance(c, exeff.CReturn):
        return SReturn(erase_value(sub, c.val))
    if isinstance(c, exeff.COp):
        return SOp(c.op, erase_value(sub, c.arg), c.var, skeleton(sub, c.var_ty), erase_comp(sub, c.body))
    if isinstance(c, exeff.CDo):
        return SDo(c.var, erase_comp(sub, c.first), erase_comp(sub, c.second))
    if isinstance(c, exeff.CHandle):
        return SHandle(erase_value(sub, c.handler), erase_comp(sub, c.body))
    if isinstance(c, exeff.CCast):
        return erase_comp(sub, c.comp)
    raise TypeError(c)


# ---------------------------------------------------------------------------
# Typing


def typecheck_sk(env: Context, term) -> Skeleton:
    if isinstance(term, _VALUE_NODES):
        return _typecheck_sk_value(env, term)
    return _typecheck_sk_comp(env, term)


def _typecheck_sk_value(env: Context, v: SkValue) -> Skeleton:
    if isinstance(v, SVar):
        try:
            return env.term[v.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound variable {v.var.name}") from None
    if isinstance(v, SUnit):
        return SkelBase(Base.UNIT)
    if isinstance(v, SInt):
        return SkelBase(Base.INT)
    if isinstance(v, SAbs):
        wf_bound(env, v.ty)
        return SkelArrow(v.ty, _typecheck_sk_comp(env.bind(v.var, v.ty), v.body))
    if isinstance(v, SHandler):
        wf_bound(env, v.ret_ty)
        out = _typecheck_sk_comp(env.bind(v.ret_var, v.ret_ty), v.ret_body)
        clause_ops(v.clauses)
        for cl in v.clauses:
            op = env.sig.lookup(cl.op)
            cl_env = env.bind(cl.param, op.param).bind(cl.kont, SkelArrow(op.result, out))
            got = _typecheck_sk_comp(cl_env, cl.body)
            if not alpha_eq(got, out):
                raise TypecheckError(f"handler clause for {cl.op} disagrees with the return clause")
        return SkelHandler(v.ret_ty, out)
    if isinstance(v, SSkelAbs):
        return SkelForall(v.var, _typecheck_sk_value(env.bind(v.var), v.body))
    if isinstance(v, SSkelApp):
        fn = _typecheck_sk_value(env, v.val)
        if not isinstance(fn, SkelForall):
            raise TypecheckError("type application of a non-polymorphic value")
        wf_bound(env, v.skel)
        return substitute(Subst.one_skel(fn.var, v.skel), fn.body)
    raise TypeError(v)


def _typecheck_sk_comp(env: Context, c: SkComp) -> Skeleton:
    if isinstance(c, SApp):
        fn = _typecheck_sk_value(env, c.fn)
        if not isinstance(fn, SkelArrow):
            raise TypecheckError("application of a non-function")
        arg = _typecheck_sk_value(env, c.arg)
        if not alpha_eq(arg, fn.dom):
            raise TypecheckError("argument type mismatch")
        return fn.cod
    if isinstance(c, SLet):
        t = _typecheck_sk_value(env, c.val)
        return _typecheck_sk_comp(env.bind(c.var, t), c.body)
    if isinstance(c, SReturn):
        return _typecheck_sk_value(env, c.val)
    if isinstance(c, SOp):
        op = env.sig.lookup(c.op)
        arg = _typecheck_sk_value(env, c.arg)
        if not alpha_eq(arg, op.param):
            raise TypecheckError(f"operation {c.op} argument type mismatch")
        if not alpha_eq(c.var_ty, op.result):
            raise TypecheckError(f"operation {c.op} continuation annotation mismatch")
        return _typecheck_sk_comp(env.bind(c.var, op.result), c.body)
    if isinstance(c, SDo):
        t1 = _typecheck_sk_comp(env, c.first)
        return _typecheck_sk_comp(env.bind(c.var, t1), c.second)
    if isinstance(c, SHandle):
        h = _typecheck_sk_value(env, c.handler)
        if not isinstance(h, SkelHandler):
            raise TypecheckError("with-handle applied to a non-handler")
        body = _typecheck_sk_comp(env, c.body)
        if not alpha_eq(body, h.dom):
            raise TypecheckError("handled computation type mismatch")
        return h.cod
    raise TypeError(c)


# ---------------------------------------------------------------------------
# Operational semantics


def is_value_result_sk(v) -> bool:
    return isinstance(v, (SUnit, SInt, SAbs, SHandler, SSkelAbs))


def is_comp_result_sk(c) -> bool:
    if isinstance(c, SReturn):
        return is_value_result_sk(c.val)
    return isinstance(c, SOp) and is_value_result_sk(c.arg)


def _heads(value) -> dict:
    """The head rule of each class, for a notion of value: results when
    stepping, results or variables when normalizing open terms."""

    def skel_beta(v: SSkelApp):
        if type(v.val) is SSkelAbs:
            return substitute(Subst.one_skel(v.val.var, v.skel), v.val.body)

    def app_beta(c: SApp):
        if type(c.fn) is SAbs and value(c.arg):
            return subst_term(c.arg, c.fn.var, c.fn.body)

    def let_beta(c: SLet):
        if value(c.val):
            return subst_term(c.val, c.var, c.body)

    def do(c: SDo):
        first = c.first
        if type(first) is SReturn and value(first.val):
            return subst_term(first.val, c.var, c.second)
        if type(first) is SOp and value(first.arg):
            return SOp(first.op, first.arg, first.var, first.var_ty, SDo(c.var, first.body, c.second))

    def handle(c: SHandle):
        h, body = c.handler, c.body
        if type(h) is not SHandler:
            return None
        if type(body) is SReturn and value(body.val):
            return subst_term(body.val, h.ret_var, h.ret_body)
        if type(body) is SOp and value(body.arg):
            return handle_op(h, body, SHandle, SAbs)

    return {
        SSkelApp: skel_beta,
        SApp: app_beta,
        SLet: let_beta,
        SDo: do,
        SHandle: handle,
    }


_STEP_HEADS = _heads(is_value_result_sk)

RULES = {
    **{cls: () for cls in (SVar, SUnit, SInt, SAbs, SHandler, SOpClause, SSkelAbs)},
    SSkelApp: ("val", _STEP_HEADS[SSkelApp]),
    SApp: ("fn", ("arg", "fn", is_value_result_sk), _STEP_HEADS[SApp]),
    SLet: ("val", _STEP_HEADS[SLet]),
    SReturn: ("val",),
    SOp: ("arg",),
    SDo: ("first", _STEP_HEADS[SDo]),
    SHandle: ("handler", ("body", "handler", is_value_result_sk), _STEP_HEADS[SHandle]),
}

REDUCTION = Reduction(
    RULES, is_comp_result_sk, lambda c: "stuck erased computation (metatheory violation)"
)

# One deterministic step; None when the term is a result.
step_sk = REDUCTION.step


def eval_sk(c: SkComp, fuel: int = 100_000):
    result, steps, _ = REDUCTION.run(c, fuel)
    return result, steps


# ---------------------------------------------------------------------------
# Full normalization and the congruence-closure check

# The congruence closure of the step relation is decided by normalizing both
# sides everywhere, including under binders: without recursion the calculus
# terminates, and values are effect-free, so contracting a redex under a
# binder or with an unreduced value argument preserves meaning.

# Open normalization: variables stand for values.
_OPEN_HEADS = _heads(lambda v: is_value_result_sk(v) or type(v) is SVar)


def _contract(t):
    head = _OPEN_HEADS.get(type(t))
    return None if head is None else head(t)


def normalize_full(term, fuel: int = 100_000, rng=None):
    """Reduce until no redex remains anywhere, including under binders.

    Contracts the first redex in pre-order, or one that `rng` picks among all
    of them."""
    steps = 0
    while True:
        if rng is None:
            nxt = next(contractions(term, _contract), None)
        else:
            succ = list(contractions(term, _contract))
            nxt = rng.choice(succ) if succ else None
        if nxt is None:
            return term
        term = nxt
        steps += 1
        if steps > fuel:
            raise FuelExhausted(f"normalization exceeded {fuel} steps")


# The benchmark's harness reads this name.
alpha_eq_sk = alpha_eq


def congruent(a, b, fuel: int = 100_000) -> bool:
    """Whether `a` and `b` are related by the congruence closure of stepping.

    Decided by full normalization; sound because the calculus terminates.
    Fuel exhaustion propagates as an error (indeterminate), never as False.
    """
    return alpha_eq(normalize_full(a, fuel), normalize_full(b, fuel))
