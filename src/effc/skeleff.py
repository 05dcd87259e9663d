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
    CompType,
    FuelExhausted,
    Signature,
    SkelBase,
    SkelVar,
    Skeleton,
    StuckTerm,
    TermVar,
    TypecheckError,
    UnboundVariable,
    ValueType,
)
from .exeff import Subst
from .traverse import alpha_eq, subst_term, substitute

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
    clauses: tuple = ()

    scope = "ret_body"  # the return binder does not reach the operation clauses

    def clause_for(self, op: str):
        for cl in self.clauses:
            if cl.op == op:
                return cl
        return None


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


def erase_vty(sub: dict, t: ValueType) -> Skeleton:
    from .core import TArrow, TBase, THandler, TForallDirt, TForallSkel, TForallTy, TQual, TyVar
    from .core import SkelArrow, SkelForall, SkelHandler

    if isinstance(t, TyVar):
        try:
            return sub[t.id]
        except KeyError:
            raise TypecheckError(f"erasure: free type variable a{t.id} not covered") from None
    if isinstance(t, TBase):
        return SkelBase(t.base)
    if isinstance(t, TArrow):
        return SkelArrow(erase_vty(sub, t.dom), erase_cty(sub, t.cod))
    if isinstance(t, THandler):
        return SkelHandler(erase_cty(sub, t.dom), erase_cty(sub, t.cod))
    if isinstance(t, TForallSkel):
        return SkelForall(t.var, erase_vty(sub, t.body))
    if isinstance(t, TForallTy):
        return erase_vty({**sub, t.var.id: t.skel}, t.body)
    if isinstance(t, TForallDirt):
        return erase_vty(sub, t.body)
    if isinstance(t, TQual):
        return erase_vty(sub, t.body)
    raise TypeError(t)


def erase_cty(sub: dict, c: CompType) -> Skeleton:
    return erase_vty(sub, c.val)


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
        return SAbs(v.var, erase_vty(sub, v.ty), erase_comp(sub, v.body))
    if isinstance(v, exeff.EHandler):
        return SHandler(
            v.ret_var,
            erase_vty(sub, v.ret_ty),
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
        return SOp(c.op, erase_value(sub, c.arg), c.var, erase_vty(sub, c.var_ty), erase_comp(sub, c.body))
    if isinstance(c, exeff.CDo):
        return SDo(c.var, erase_comp(sub, c.first), erase_comp(sub, c.second))
    if isinstance(c, exeff.CHandle):
        return SHandle(erase_value(sub, c.handler), erase_comp(sub, c.body))
    if isinstance(c, exeff.CCast):
        return erase_comp(sub, c.comp)
    raise TypeError(c)


def erase_env(env: exeff.TypeEnv) -> "SkEnv":
    out = SkEnv(env.sig)
    out.skel_vars = frozenset(env.skel_vars)
    sub = dict(env.ty_vars)
    out.term_vars = {vid: erase_vty(sub, t) for vid, t in env.term_vars.items()}
    return out


_EX_VALUE_NODES = (
    exeff.EVar, exeff.EUnit, exeff.EInt, exeff.EAbs, exeff.EHandler,
    exeff.ESkelAbs, exeff.ESkelApp, exeff.ETyAbs, exeff.ETyApp,
    exeff.EDirtAbs, exeff.EDirtApp, exeff.ECoAbs, exeff.ECoApp, exeff.ECast,
)


def erase(sub: dict, subject):
    """Erase any core entity to its effect-free counterpart."""
    if isinstance(subject, exeff.TypeEnv):
        return erase_env(subject)
    if isinstance(subject, CompType):
        return erase_cty(sub, subject)
    if isinstance(subject, exeff._COMP_NODES):
        return erase_comp(sub, subject)
    if isinstance(subject, _EX_VALUE_NODES):
        return erase_value(sub, subject)
    return erase_vty(sub, subject)


# ---------------------------------------------------------------------------
# Typing


class SkEnv:
    def __init__(self, sig: Signature):
        self.sig = sig
        self.skel_vars: frozenset = frozenset()
        self.term_vars: dict = {}

    def _copy(self) -> "SkEnv":
        out = SkEnv(self.sig)
        out.skel_vars = self.skel_vars
        out.term_vars = self.term_vars
        return out

    def with_skel(self, v: SkelVar) -> "SkEnv":
        out = self._copy()
        out.skel_vars = self.skel_vars | {v.id}
        return out

    def with_term(self, v: TermVar, t: Skeleton) -> "SkEnv":
        out = self._copy()
        out.term_vars = {**self.term_vars, v.id: t}
        return out

    def op_sig(self, op: str):
        sig = self.sig.lookup(op)
        return erase_vty({}, sig.param), erase_vty({}, sig.result)


def typecheck_sk(env: SkEnv, term) -> Skeleton:
    if isinstance(term, _VALUE_NODES):
        return _typecheck_sk_value(env, term)
    return _typecheck_sk_comp(env, term)


def _typecheck_sk_value(env: SkEnv, v: SkValue) -> Skeleton:
    from .core import SkelArrow, SkelForall, SkelHandler

    if isinstance(v, SVar):
        try:
            return env.term_vars[v.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound variable {v.var.name}") from None
    if isinstance(v, SUnit):
        return SkelBase(Base.UNIT)
    if isinstance(v, SInt):
        return SkelBase(Base.INT)
    if isinstance(v, SAbs):
        return SkelArrow(v.ty, _typecheck_sk_comp(env.with_term(v.var, v.ty), v.body))
    if isinstance(v, SHandler):
        out = _typecheck_sk_comp(env.with_term(v.ret_var, v.ret_ty), v.ret_body)
        for cl in v.clauses:
            p, r = env.op_sig(cl.op)
            cl_env = env.with_term(cl.param, p).with_term(cl.kont, SkelArrow(r, out))
            got = _typecheck_sk_comp(cl_env, cl.body)
            if not alpha_eq(got, out):
                raise TypecheckError(f"handler clause for {cl.op} disagrees with the return clause")
        return SkelHandler(v.ret_ty, out)
    if isinstance(v, SSkelAbs):
        return SkelForall(v.var, _typecheck_sk_value(env.with_skel(v.var), v.body))
    if isinstance(v, SSkelApp):
        fn = _typecheck_sk_value(env, v.val)
        if not isinstance(fn, SkelForall):
            raise TypecheckError("type application of a non-polymorphic value")
        return substitute(Subst.one_skel(fn.var, v.skel), fn.body)
    raise TypeError(v)


def _typecheck_sk_comp(env: SkEnv, c: SkComp) -> Skeleton:
    from .core import SkelArrow, SkelHandler

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
        return _typecheck_sk_comp(env.with_term(c.var, t), c.body)
    if isinstance(c, SReturn):
        return _typecheck_sk_value(env, c.val)
    if isinstance(c, SOp):
        p, r = env.op_sig(c.op)
        arg = _typecheck_sk_value(env, c.arg)
        if not alpha_eq(arg, p):
            raise TypecheckError(f"operation {c.op} argument type mismatch")
        if not alpha_eq(c.var_ty, r):
            raise TypecheckError(f"operation {c.op} continuation annotation mismatch")
        return _typecheck_sk_comp(env.with_term(c.var, r), c.body)
    if isinstance(c, SDo):
        t1 = _typecheck_sk_comp(env, c.first)
        return _typecheck_sk_comp(env.with_term(c.var, t1), c.second)
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


def step_sk(term):
    """One deterministic head step; None when the term is a result."""
    if isinstance(term, _VALUE_NODES):
        return _step_sk_value(term)
    return _step_sk_comp(term)


def _step_sk_value(v: SkValue):
    if isinstance(v, SSkelApp):
        inner = _step_sk_value(v.val)
        if inner is not None:
            return SSkelApp(inner, v.skel)
        if isinstance(v.val, SSkelAbs):
            return substitute(Subst.one_skel(v.val.var, v.skel), v.val.body)
    return None


def _step_sk_comp(c: SkComp):
    if isinstance(c, SApp):
        fn = _step_sk_value(c.fn)
        if fn is not None:
            return SApp(fn, c.arg)
        if is_value_result_sk(c.fn):
            arg = _step_sk_value(c.arg)
            if arg is not None:
                return SApp(c.fn, arg)
            if isinstance(c.fn, SAbs) and is_value_result_sk(c.arg):
                return subst_term(c.arg, c.fn.var, c.fn.body)
        return None
    if isinstance(c, SLet):
        val = _step_sk_value(c.val)
        if val is not None:
            return SLet(c.var, val, c.body)
        if is_value_result_sk(c.val):
            return subst_term(c.val, c.var, c.body)
        return None
    if isinstance(c, SReturn):
        val = _step_sk_value(c.val)
        return None if val is None else SReturn(val)
    if isinstance(c, SOp):
        arg = _step_sk_value(c.arg)
        return None if arg is None else SOp(c.op, arg, c.var, c.var_ty, c.body)
    if isinstance(c, SDo):
        first = _step_sk_comp(c.first)
        if first is not None:
            return SDo(c.var, first, c.second)
        if isinstance(c.first, SReturn) and is_value_result_sk(c.first.val):
            return subst_term(c.first.val, c.var, c.second)
        if isinstance(c.first, SOp) and is_value_result_sk(c.first.arg):
            op = c.first
            return SOp(op.op, op.arg, op.var, op.var_ty, SDo(c.var, op.body, c.second))
        return None
    if isinstance(c, SHandle):
        h = _step_sk_value(c.handler)
        if h is not None:
            return SHandle(h, c.body)
        if is_value_result_sk(c.handler):
            body = _step_sk_comp(c.body)
            if body is not None:
                return SHandle(c.handler, body)
            if not isinstance(c.handler, SHandler):
                return None
            hd = c.handler
            if isinstance(c.body, SReturn) and is_value_result_sk(c.body.val):
                return subst_term(c.body.val, hd.ret_var, hd.ret_body)
            if isinstance(c.body, SOp) and is_value_result_sk(c.body.arg):
                op = c.body
                clause = hd.clause_for(op.op)
                if clause is None:
                    return SOp(op.op, op.arg, op.var, op.var_ty, SHandle(c.handler, op.body))
                kont = SAbs(op.var, op.var_ty, SHandle(c.handler, op.body))
                out = subst_term(op.arg, clause.param, clause.body)
                return subst_term(kont, clause.kont, out)
        return None
    raise TypeError(c)


def eval_sk(c: SkComp, fuel: int = 100_000):
    steps = 0
    while True:
        if is_comp_result_sk(c):
            return c, steps
        nxt = _step_sk_comp(c)
        if nxt is None:
            raise StuckTerm("stuck erased computation (metatheory violation)", c)
        c = nxt
        steps += 1
        if steps > fuel:
            raise FuelExhausted(f"evaluation exceeded {fuel} steps")


# ---------------------------------------------------------------------------
# Full normalization and the congruence-closure check

# The congruence closure of the step relation is decided by normalizing both
# sides everywhere, including under binders: without recursion the calculus
# terminates, and values are effect-free, so contracting a redex under a
# binder or with an unreduced value argument preserves meaning.


def _successors(term) -> list:
    """All single-redex contractions of `term`, anywhere in the tree."""
    out = []

    def value_ok(v) -> bool:
        # Open normalization: variables stand for values.
        return is_value_result_sk(v) or isinstance(v, SVar)

    def rebuild_children(t, rec):
        if isinstance(t, (SVar, SUnit, SInt)):
            return
        if isinstance(t, SAbs):
            rec(t.body, lambda b: SAbs(t.var, t.ty, b))
        elif isinstance(t, SHandler):
            rec(t.ret_body, lambda b: SHandler(t.ret_var, t.ret_ty, b, t.clauses))
            for i, cl in enumerate(t.clauses):
                def mk(b, i=i, cl=cl):
                    cls = list(t.clauses)
                    cls[i] = SOpClause(cl.op, cl.param, cl.kont, b)
                    return SHandler(t.ret_var, t.ret_ty, t.ret_body, tuple(cls))
                rec(cl.body, mk)
        elif isinstance(t, SSkelAbs):
            rec(t.body, lambda b: SSkelAbs(t.var, b))
        elif isinstance(t, SSkelApp):
            rec(t.val, lambda b: SSkelApp(b, t.skel))
        elif isinstance(t, SApp):
            rec(t.fn, lambda b: SApp(b, t.arg))
            rec(t.arg, lambda b: SApp(t.fn, b))
        elif isinstance(t, SLet):
            rec(t.val, lambda b: SLet(t.var, b, t.body))
            rec(t.body, lambda b: SLet(t.var, t.val, b))
        elif isinstance(t, SReturn):
            rec(t.val, lambda b: SReturn(b))
        elif isinstance(t, SOp):
            rec(t.arg, lambda b: SOp(t.op, b, t.var, t.var_ty, t.body))
            rec(t.body, lambda b: SOp(t.op, t.arg, t.var, t.var_ty, b))
        elif isinstance(t, SDo):
            rec(t.first, lambda b: SDo(t.var, b, t.second))
            rec(t.second, lambda b: SDo(t.var, t.first, b))
        elif isinstance(t, SHandle):
            rec(t.handler, lambda b: SHandle(b, t.body))
            rec(t.body, lambda b: SHandle(t.handler, b))
        else:
            raise TypeError(t)

    def contract(t):
        if isinstance(t, SSkelApp) and isinstance(t.val, SSkelAbs):
            return substitute(Subst.one_skel(t.val.var, t.skel), t.val.body)
        if isinstance(t, SApp) and isinstance(t.fn, SAbs) and value_ok(t.arg):
            return subst_term(t.arg, t.fn.var, t.fn.body)
        if isinstance(t, SLet) and value_ok(t.val):
            return subst_term(t.val, t.var, t.body)
        if isinstance(t, SDo) and isinstance(t.first, SReturn) and value_ok(t.first.val):
            return subst_term(t.first.val, t.var, t.second)
        if isinstance(t, SDo) and isinstance(t.first, SOp) and value_ok(t.first.arg):
            op = t.first
            return SOp(op.op, op.arg, op.var, op.var_ty, SDo(t.var, op.body, t.second))
        if isinstance(t, SHandle) and isinstance(t.handler, SHandler):
            hd = t.handler
            if isinstance(t.body, SReturn) and value_ok(t.body.val):
                return subst_term(t.body.val, hd.ret_var, hd.ret_body)
            if isinstance(t.body, SOp) and value_ok(t.body.arg):
                op = t.body
                clause = hd.clause_for(op.op)
                if clause is None:
                    return SOp(op.op, op.arg, op.var, op.var_ty, SHandle(t.handler, op.body))
                kont = SAbs(op.var, op.var_ty, SHandle(t.handler, op.body))
                out = subst_term(op.arg, clause.param, clause.body)
                return subst_term(kont, clause.kont, out)
        return None

    def walk(t, wrap):
        c = contract(t)
        if c is not None:
            out.append(wrap(c))
        rebuild_children(t, lambda sub, mk: walk(sub, lambda b: wrap(mk(b))))

    walk(term, lambda b: b)
    return out


def normalize_full(term, fuel: int = 100_000, rng=None):
    """Reduce until no redex remains anywhere, including under binders."""
    steps = 0
    while True:
        succ = _successors(term)
        if not succ:
            return term
        term = rng.choice(succ) if rng is not None else succ[0]
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
