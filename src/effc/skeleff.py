"""Effect-erased backend: System F plus term-level operations and handlers.

A SkelEff term is an ExEff term of the fragment `FORMS`, with skeletons
where the annotations held types.  Erasure drops coercions, casts, and all
type/dirt/coercion binders and applications, keeping only skeleton binders
and applications.  The fragment has its own typing rules and its own step
relation.
"""

from __future__ import annotations

from . import exeff
from .core import (
    Context,
    FuelExhausted,
    SKEL_INT,
    SKEL_UNIT,
    SkelArrow,
    SkelForall,
    SkelHandler,
    Skeleton,
    TypecheckError,
    UnboundVariable,
    clause_ops,
    skeleton,
)
from .exeff import (
    CApp,
    CDo,
    CHandle,
    CLet,
    COp,
    CReturn,
    EAbs,
    EHandler,
    EInt,
    ESkelAbs,
    ESkelApp,
    EUnit,
    EVar,
    OpClause,
    Single,
    Subst,
    wf_bound,
)
from .traverse import (
    CLOSED,
    FREE,
    Closed,
    Reduction,
    alpha_eq,
    contractions,
    handle_op,
    instantiate,
    subst_term,
    substitute,
)

# The node classes of SkelEff terms.  The annotations of `EAbs`, `EHandler`
# and `COp` hold skeletons.
FORMS = (EVar, EUnit, EInt, EAbs, EHandler, OpClause, ESkelAbs, ESkelApp, CApp, CLet, CReturn, COp, CDo, CHandle)


# ---------------------------------------------------------------------------
# Erasure


# A closed node (summary 0, see `traverse.Closed`) has one erasure under
# every `sub`, since no type variable is free in it; the node keeps it.


def erase_value(sub: dict, v: exeff.Value) -> exeff.Value:
    if isinstance(v, (EVar, EUnit, EInt)):
        return v  # nothing to erase
    memo = getattr(v, CLOSED, None)
    if memo is not None and memo.erased is not None:
        return memo.erased
    if isinstance(v, exeff.ECast):
        out = erase_value(sub, v.val)
    elif isinstance(v, EAbs):
        out = EAbs(v.var, skeleton(sub, v.ty), erase_comp(sub, v.body))
    elif isinstance(v, EHandler):
        out = EHandler(
            v.ret_var,
            skeleton(sub, v.ret_ty),
            erase_comp(sub, v.ret_body),
            tuple(OpClause(c.op, c.param, c.kont, erase_comp(sub, c.body)) for c in v.clauses),
        )
    elif isinstance(v, ESkelAbs):
        out = ESkelAbs(v.var, erase_value(sub, v.body))
    elif isinstance(v, ESkelApp):
        out = ESkelApp(erase_value(sub, v.val), v.skel)
    elif isinstance(v, exeff.ETyAbs):
        out = erase_value({**sub, v.var.id: v.skel}, v.body)
    elif isinstance(v, (exeff.ETyApp, exeff.EDirtApp, exeff.ECoApp)):
        out = erase_value(sub, v.val)
    elif isinstance(v, (exeff.EDirtAbs, exeff.ECoAbs)):
        out = erase_value(sub, v.body)
    else:
        raise TypeError(v)
    if memo is not None:
        memo.erased = out
    elif getattr(v, FREE, None) == 0:
        object.__setattr__(v, CLOSED, Closed(None, None, out))
    return out


def erase_comp(sub: dict, c: exeff.Comp) -> exeff.Comp:
    memo = getattr(c, CLOSED, None)
    if memo is not None and memo.erased is not None:
        return memo.erased
    if isinstance(c, CApp):
        out = CApp(erase_value(sub, c.fn), erase_value(sub, c.arg))
    elif isinstance(c, CLet):
        out = CLet(c.var, erase_value(sub, c.val), erase_comp(sub, c.body))
    elif isinstance(c, CReturn):
        out = CReturn(erase_value(sub, c.val))
    elif isinstance(c, COp):
        out = COp(c.op, erase_value(sub, c.arg), c.var, skeleton(sub, c.var_ty), erase_comp(sub, c.body))
    elif isinstance(c, CDo):
        out = CDo(c.var, erase_comp(sub, c.first), erase_comp(sub, c.second))
    elif isinstance(c, CHandle):
        out = CHandle(erase_value(sub, c.handler), erase_comp(sub, c.body))
    elif isinstance(c, exeff.CCast):
        out = erase_comp(sub, c.comp)
    else:
        raise TypeError(c)
    if memo is not None:
        memo.erased = out
    elif getattr(c, FREE, None) == 0:
        object.__setattr__(c, CLOSED, Closed(None, None, out))
    return out


# ---------------------------------------------------------------------------
# Typing


def typecheck_sk(env: Context, t) -> Skeleton:
    """The skeleton of a SkelEff value or computation.  A node outside
    `FORMS`, such as a cast, raises TypeError."""
    if isinstance(t, EVar):
        try:
            return env.term[t.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound variable {t.var.name}") from None
    if isinstance(t, EUnit):
        return SKEL_UNIT
    if isinstance(t, EInt):
        return SKEL_INT
    if isinstance(t, EAbs):
        wf_bound(env, t.ty)
        return SkelArrow(t.ty, typecheck_sk(env.bind(t.var, t.ty), t.body))
    if isinstance(t, EHandler):
        wf_bound(env, t.ret_ty)
        out = typecheck_sk(env.bind(t.ret_var, t.ret_ty), t.ret_body)
        clause_ops(t.clauses)
        for cl in t.clauses:
            op = env.sig.lookup(cl.op)
            cl_env = env.bind(cl.param, op.param).bind(cl.kont, SkelArrow(op.result, out))
            got = typecheck_sk(cl_env, cl.body)
            if not alpha_eq(got, out):
                raise TypecheckError(f"handler clause for {cl.op} disagrees with the return clause")
        return SkelHandler(t.ret_ty, out)
    if isinstance(t, ESkelAbs):
        return SkelForall(t.var, typecheck_sk(env.bind(t.var), t.body))
    if isinstance(t, ESkelApp):
        fn = typecheck_sk(env, t.val)
        if not isinstance(fn, SkelForall):
            raise TypecheckError("type application of a non-polymorphic value")
        wf_bound(env, t.skel)
        return substitute(Subst.one_skel(fn.var, t.skel), fn.body)
    if isinstance(t, CApp):
        fn = typecheck_sk(env, t.fn)
        if not isinstance(fn, SkelArrow):
            raise TypecheckError("application of a non-function")
        arg = typecheck_sk(env, t.arg)
        if not alpha_eq(arg, fn.dom):
            raise TypecheckError("argument type mismatch")
        return fn.cod
    if isinstance(t, CLet):
        ty = typecheck_sk(env, t.val)
        return typecheck_sk(env.bind(t.var, ty), t.body)
    if isinstance(t, CReturn):
        return typecheck_sk(env, t.val)
    if isinstance(t, COp):
        op = env.sig.lookup(t.op)
        arg = typecheck_sk(env, t.arg)
        if not alpha_eq(arg, op.param):
            raise TypecheckError(f"operation {t.op} argument type mismatch")
        if not alpha_eq(t.var_ty, op.result):
            raise TypecheckError(f"operation {t.op} continuation annotation mismatch")
        return typecheck_sk(env.bind(t.var, op.result), t.body)
    if isinstance(t, CDo):
        t1 = typecheck_sk(env, t.first)
        return typecheck_sk(env.bind(t.var, t1), t.second)
    if isinstance(t, CHandle):
        h = typecheck_sk(env, t.handler)
        if not isinstance(h, SkelHandler):
            raise TypecheckError("with-handle applied to a non-handler")
        body = typecheck_sk(env, t.body)
        if not alpha_eq(body, h.dom):
            raise TypecheckError("handled computation type mismatch")
        return h.cod
    raise TypeError(f"{type(t).__name__} is not a SkelEff form")


# ---------------------------------------------------------------------------
# Operational semantics


def is_value_result_sk(v) -> bool:
    return isinstance(v, (EUnit, EInt, EAbs, EHandler, ESkelAbs))


def is_comp_result_sk(c) -> bool:
    if isinstance(c, CReturn):
        return is_value_result_sk(c.val)
    return isinstance(c, COp) and is_value_result_sk(c.arg)


def _heads(value) -> dict:
    """The head rule of each class, for a notion of value: results when
    stepping, results or variables when normalizing open terms."""

    def skel_beta(v: ESkelApp):
        if type(v.val) is ESkelAbs:
            return instantiate(Single(v.val.var, v.skel), v.val.body)

    def app_beta(c: CApp):
        if type(c.fn) is EAbs and value(c.arg):
            return subst_term(c.arg, c.fn.var, c.fn.body)

    def let_beta(c: CLet):
        if value(c.val):
            return subst_term(c.val, c.var, c.body)

    def do(c: CDo):
        first = c.first
        if type(first) is CReturn and value(first.val):
            return subst_term(first.val, c.var, c.second)
        if type(first) is COp and value(first.arg):
            return COp(first.op, first.arg, first.var, first.var_ty, CDo(c.var, first.body, c.second))

    def handle(c: CHandle):
        h, body = c.handler, c.body
        if type(h) is not EHandler:
            return None
        if type(body) is CReturn and value(body.val):
            return subst_term(body.val, h.ret_var, h.ret_body)
        if type(body) is COp and value(body.arg):
            return handle_op(h, body, CHandle, EAbs)

    return {
        ESkelApp: skel_beta,
        CApp: app_beta,
        CLet: let_beta,
        CDo: do,
        CHandle: handle,
    }


_STEP_HEADS = _heads(is_value_result_sk)

RULES = {
    **dict.fromkeys(FORMS, ()),
    ESkelApp: ("val", _STEP_HEADS[ESkelApp]),
    CApp: ("fn", ("arg", "fn", is_value_result_sk), _STEP_HEADS[CApp]),
    CLet: ("val", _STEP_HEADS[CLet]),
    CReturn: ("val",),
    COp: ("arg",),
    CDo: ("first", _STEP_HEADS[CDo]),
    CHandle: ("handler", ("body", "handler", is_value_result_sk), _STEP_HEADS[CHandle]),
}

REDUCTION = Reduction(
    RULES, is_comp_result_sk, lambda c: "stuck erased computation (metatheory violation)"
)

# One deterministic step; None when the term is a result.
step_sk = REDUCTION.step


def eval_sk(c: exeff.Comp, fuel: int = 100_000):
    result, steps, _ = REDUCTION.run(c, fuel)
    return result, steps


# ---------------------------------------------------------------------------
# Full normalization and the congruence-closure check

# The congruence closure of the step relation is decided by normalizing both
# sides everywhere, including under binders: without recursion the calculus
# terminates, and values are effect-free, so contracting a redex under a
# binder or with an unreduced value argument preserves meaning.

# Open normalization: variables stand for values.
_OPEN_HEADS = _heads(lambda v: is_value_result_sk(v) or type(v) is EVar)


def _contract(t):
    head = _OPEN_HEADS.get(type(t))
    return None if head is None else head(t)


def normalize_full(term, fuel: int = 100_000):
    """Reduce until no redex remains anywhere, including under binders,
    contracting the first redex in pre-order."""
    steps = 0
    while True:
        nxt = next(contractions(term, _contract), None)
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

    True at once when `b` is alpha-equal to `a` (reflexivity) or to
    `step_sk(a)` (one step of the relation the closure closes): both pairs
    are in the closure by definition.  Every other pair is decided by full
    normalization; sound because the calculus terminates.  Fuel exhaustion
    propagates as an error (indeterminate), never as False.
    """
    if alpha_eq(a, b):
        return True
    nxt = step_sk(a)
    if nxt is not None and alpha_eq(nxt, b):
        return True
    return alpha_eq(normalize_full(a, fuel), normalize_full(b, fuel))
