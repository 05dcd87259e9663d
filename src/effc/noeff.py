"""Pure-language backend: types track whether effects happen, not which.

Terms form a single syntactic sort.  Handlers always take computations to
computations; four coercion forms (handler/function bridges, return and
unsafe) let the elaboration from the explicitly-typed core bridge between
pure and conservatively-impure views of polymorphic code.  The unsafe
coercion is the single source of stuckness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import exeff
from .core import (
    Base,
    CompSub,
    CompType,
    CoVar,
    Dirt,
    DirtSub,
    DirtVar,
    ElaborationError,
    Signature,
    SkelArrow,
    SkelBase,
    SkelForall,
    SkelHandler,
    TArrow,
    TBase,
    THandler,
    TForallDirt,
    TForallSkel,
    TForallTy,
    TQual,
    TermVar,
    TyVar,
    TySub,
    TypecheckError,
    UnboundVariable,
    ValueType,
)
from .exeff import (
    CoArrow,
    CoBaseRefl,
    CoComp,
    CoDirtRefl,
    CoEmpty,
    CoForallDirt,
    CoForallSkel,
    CoForallTy,
    CoHandler,
    CoOpUnion,
    CoQual,
    CoTyRefl,
    CoVarRef,
    Subst,
)
from .traverse import (
    Reduction,
    alpha_eq,
    free_vars,
    handle_op,
    subst_hook,
    subst_term,
    substitute,
)


def nonempty_dirt(d: Dirt) -> bool:
    """Conservative non-emptiness: dirt variables count as non-empty."""
    return bool(d.ops) or d.tail is not None


# ---------------------------------------------------------------------------
# Types and coercion types


@dataclass(frozen=True)
class NBase:
    base: Base


@dataclass(frozen=True)
class NArrow:
    dom: "NType"
    cod: "NType"


@dataclass(frozen=True)
class NHandler:
    dom: "NType"
    cod: "NType"


@dataclass(frozen=True)
class NQual:
    constraint: "NSub"
    body: "NType"


@dataclass(frozen=True)
class NComp:
    body: "NType"


@dataclass(frozen=True)
class NForall:
    var: TyVar
    body: "NType"


NType = Union[TyVar, NBase, NArrow, NHandler, NQual, NComp, NForall]


@dataclass(frozen=True)
class NSub:
    lhs: NType
    rhs: NType


N_UNIT = NBase(Base.UNIT)


# ---------------------------------------------------------------------------
# Coercions


@dataclass(frozen=True)
class NCoVar:
    var: CoVar


@dataclass(frozen=True)
class NCoBaseRefl:
    base: Base


@dataclass(frozen=True)
class NCoTyRefl:
    var: TyVar


@dataclass(frozen=True)
class NCoArrow:
    dom: "NCoercion"
    cod: "NCoercion"


@dataclass(frozen=True)
class NCoHandler:
    dom: "NCoercion"
    cod: "NCoercion"


@dataclass(frozen=True)
class NCoHandToFun:
    dom: "NCoercion"
    cod: "NCoercion"


@dataclass(frozen=True)
class NCoFunToHand:
    dom: "NCoercion"
    cod: "NCoercion"


@dataclass(frozen=True)
class NCoForall:
    var: TyVar
    body: "NCoercion"


@dataclass(frozen=True)
class NCoQual:
    constraint: NSub
    body: "NCoercion"


@dataclass(frozen=True)
class NCoComp:
    body: "NCoercion"


@dataclass(frozen=True)
class NCoReturn:
    body: "NCoercion"


@dataclass(frozen=True)
class NCoUnsafe:
    body: "NCoercion"


NCoercion = Union[
    NCoVar, NCoBaseRefl, NCoTyRefl, NCoArrow, NCoHandler, NCoHandToFun,
    NCoFunToHand, NCoForall, NCoQual, NCoComp, NCoReturn, NCoUnsafe,
]


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class MVar:
    var: TermVar


@dataclass(frozen=True)
class MUnit:
    pass


@dataclass(frozen=True)
class MInt:
    value: int


@dataclass(frozen=True)
class MAbs:
    var: TermVar
    ty: NType
    body: "NTerm"


@dataclass(frozen=True)
class MApp:
    fn: "NTerm"
    arg: "NTerm"


@dataclass(frozen=True)
class MTyAbs:
    var: TyVar
    body: "NTerm"


@dataclass(frozen=True)
class MTyApp:
    fn: "NTerm"
    ty: NType


@dataclass(frozen=True)
class MCoAbs:
    var: CoVar
    constraint: NSub
    body: "NTerm"


@dataclass(frozen=True)
class MCoApp:
    fn: "NTerm"
    co: NCoercion


@dataclass(frozen=True)
class MCast:
    term: "NTerm"
    co: NCoercion


@dataclass(frozen=True)
class MReturn:
    term: "NTerm"


@dataclass(frozen=True)
class MOpClause:
    op: str
    param: TermVar
    kont: TermVar
    body: "NTerm"


@dataclass(frozen=True)
class MHandler:
    ret_var: TermVar
    ret_ty: NType
    ret_body: "NTerm"
    clauses: tuple[MOpClause, ...] = ()

    scope = "ret_body"  # the return binder does not reach the operation clauses

    def clause_for(self, op: str):
        for cl in self.clauses:
            if cl.op == op:
                return cl
        return None


@dataclass(frozen=True)
class MLet:
    var: TermVar
    val: "NTerm"
    body: "NTerm"


@dataclass(frozen=True)
class MOp:
    op: str
    arg: "NTerm"
    var: TermVar
    var_ty: NType
    body: "NTerm"


@dataclass(frozen=True)
class MDo:
    var: TermVar
    first: "NTerm"
    second: "NTerm"


@dataclass(frozen=True)
class MHandle:
    handler: "NTerm"
    body: "NTerm"


NTerm = Union[
    MVar, MUnit, MInt, MAbs, MApp, MTyAbs, MTyApp, MCoAbs, MCoApp, MCast,
    MReturn, MHandler, MLet, MOp, MDo, MHandle,
]


# ---------------------------------------------------------------------------
# Reflexivity


def refl_nty(a: NType) -> NCoercion:
    if isinstance(a, TyVar):
        return NCoTyRefl(a)
    if isinstance(a, NBase):
        return NCoBaseRefl(a.base)
    if isinstance(a, NArrow):
        return NCoArrow(refl_nty(a.dom), refl_nty(a.cod))
    if isinstance(a, NHandler):
        return NCoHandler(NCoComp(refl_nty(a.dom)), NCoComp(refl_nty(a.cod)))
    if isinstance(a, NQual):
        return NCoQual(a.constraint, refl_nty(a.body))
    if isinstance(a, NComp):
        return NCoComp(refl_nty(a.body))
    if isinstance(a, NForall):
        return NCoForall(a.var, refl_nty(a.body))
    raise TypeError(a)


@subst_hook(NCoTyRefl)
def _subst_nco_ty_refl(s: Subst, co: NCoTyRefl) -> NCoercion:
    return refl_nty(s.ty[co.var.id]) if co.var.id in s.ty else co


# ---------------------------------------------------------------------------
# Typing


class NEnv:
    def __init__(self, sig: dict):
        self.sig = sig  # op name -> (param NType, result NType)
        self.ty_vars: frozenset = frozenset()
        self.term_vars: dict = {}
        self.co_vars: dict = {}

    def _copy(self) -> "NEnv":
        out = NEnv(self.sig)
        out.ty_vars = self.ty_vars
        out.term_vars = self.term_vars
        out.co_vars = self.co_vars
        return out

    def with_ty(self, v: TyVar) -> "NEnv":
        out = self._copy()
        out.ty_vars = self.ty_vars | {v.id}
        return out

    def with_term(self, v: TermVar, t: NType) -> "NEnv":
        out = self._copy()
        out.term_vars = {**self.term_vars, v.id: t}
        return out

    def with_co(self, v: CoVar, ct: NSub) -> "NEnv":
        out = self._copy()
        out.co_vars = {**self.co_vars, v.id: ct}
        return out

    def op_sig(self, op: str):
        try:
            return self.sig[op]
        except KeyError:
            raise TypecheckError(f"unknown operation: {op}") from None


def elab_signature(sig: Signature) -> dict:
    env = exeff.TypeEnv(sig)
    out = {}
    for name in sig.names():
        op = sig.ops[name]
        out[name] = (elab_vty(env, op.param)[1], elab_vty(env, op.result)[1])
    return out


def wf_nty(env: NEnv, a: NType) -> None:
    if isinstance(a, TyVar):
        if a.id not in env.ty_vars:
            raise TypecheckError(f"unbound type variable a{a.id}")
    elif isinstance(a, NBase):
        pass
    elif isinstance(a, (NArrow, NHandler)):
        wf_nty(env, a.dom)
        wf_nty(env, a.cod)
    elif isinstance(a, NQual):
        wf_nty(env, a.constraint.lhs)
        wf_nty(env, a.constraint.rhs)
        wf_nty(env, a.body)
    elif isinstance(a, NComp):
        wf_nty(env, a.body)
    elif isinstance(a, NForall):
        wf_nty(env.with_ty(a.var), a.body)
    else:
        raise TypeError(a)


def typecheck_noeff(env: NEnv, t: NTerm) -> NType:
    if isinstance(t, MVar):
        try:
            return env.term_vars[t.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound variable {t.var.name}") from None
    if isinstance(t, MUnit):
        return NBase(Base.UNIT)
    if isinstance(t, MInt):
        return NBase(Base.INT)
    if isinstance(t, MAbs):
        wf_nty(env, t.ty)
        return NArrow(t.ty, typecheck_noeff(env.with_term(t.var, t.ty), t.body))
    if isinstance(t, MApp):
        fn = typecheck_noeff(env, t.fn)
        if not isinstance(fn, NArrow):
            raise TypecheckError("application of a non-function term")
        arg = typecheck_noeff(env, t.arg)
        if not alpha_eq(arg, fn.dom):
            raise TypecheckError("argument type mismatch")
        return fn.cod
    if isinstance(t, MTyAbs):
        return NForall(t.var, typecheck_noeff(env.with_ty(t.var), t.body))
    if isinstance(t, MTyApp):
        fn = typecheck_noeff(env, t.fn)
        if not isinstance(fn, NForall):
            raise TypecheckError("type application of a non-polymorphic term")
        wf_nty(env, t.ty)
        return substitute(Subst.one_ty(fn.var, t.ty), fn.body)
    if isinstance(t, MCoAbs):
        wf_nty(env, t.constraint.lhs)
        wf_nty(env, t.constraint.rhs)
        body = typecheck_noeff(env.with_co(t.var, t.constraint), t.body)
        return NQual(t.constraint, body)
    if isinstance(t, MCoApp):
        fn = typecheck_noeff(env, t.fn)
        if not isinstance(fn, NQual):
            raise TypecheckError("coercion application of a non-qualified term")
        got = typecheck_noeff_coercion(env, t.co)
        if not alpha_eq(got, fn.constraint):
            raise TypecheckError("coercion application witnesses the wrong constraint")
        return fn.body
    if isinstance(t, MCast):
        subj = typecheck_noeff(env, t.term)
        ct = typecheck_noeff_coercion(env, t.co)
        if not alpha_eq(ct.lhs, subj):
            raise TypecheckError("cast coercion's source type differs from the subject's type")
        return ct.rhs
    if isinstance(t, MReturn):
        return NComp(typecheck_noeff(env, t.term))
    if isinstance(t, MHandler):
        wf_nty(env, t.ret_ty)
        out = typecheck_noeff(env.with_term(t.ret_var, t.ret_ty), t.ret_body)
        if not isinstance(out, NComp):
            raise TypecheckError("handler return clause must produce a computation")
        for cl in t.clauses:
            p, r = env.op_sig(cl.op)
            cl_env = env.with_term(cl.param, p).with_term(cl.kont, NArrow(r, out))
            got = typecheck_noeff(cl_env, cl.body)
            if not alpha_eq(got, out):
                raise TypecheckError(f"handler clause for {cl.op} disagrees with the return clause")
        return NHandler(t.ret_ty, out.body)
    if isinstance(t, MLet):
        a = typecheck_noeff(env, t.val)
        return typecheck_noeff(env.with_term(t.var, a), t.body)
    if isinstance(t, MOp):
        p, r = env.op_sig(t.op)
        arg = typecheck_noeff(env, t.arg)
        if not alpha_eq(arg, p):
            raise TypecheckError(f"operation {t.op} argument type mismatch")
        if not alpha_eq(t.var_ty, r):
            raise TypecheckError(f"operation {t.op} continuation annotation mismatch")
        body = typecheck_noeff(env.with_term(t.var, r), t.body)
        if not isinstance(body, NComp):
            raise TypecheckError("operation continuation must produce a computation")
        return body
    if isinstance(t, MDo):
        first = typecheck_noeff(env, t.first)
        if not isinstance(first, NComp):
            raise TypecheckError("do-sequence head must be a computation")
        second = typecheck_noeff(env.with_term(t.var, first.body), t.second)
        if not isinstance(second, NComp):
            raise TypecheckError("do-sequence body must be a computation")
        return second
    if isinstance(t, MHandle):
        h = typecheck_noeff(env, t.handler)
        if not isinstance(h, NHandler):
            raise TypecheckError("with-handle applied to a non-handler term")
        body = typecheck_noeff(env, t.body)
        if not alpha_eq(body, NComp(h.dom)):
            raise TypecheckError("handled term does not match the handler input type")
        return NComp(h.cod)
    raise TypeError(t)


def typecheck_noeff_coercion(env: NEnv, co: NCoercion) -> NSub:
    if isinstance(co, NCoVar):
        try:
            return env.co_vars[co.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound coercion variable w{co.var.id}") from None
    if isinstance(co, NCoBaseRefl):
        t = NBase(co.base)
        return NSub(t, t)
    if isinstance(co, NCoTyRefl):
        if co.var.id not in env.ty_vars:
            raise TypecheckError(f"unbound type variable a{co.var.id}")
        return NSub(co.var, co.var)
    if isinstance(co, NCoArrow):
        dom = typecheck_noeff_coercion(env, co.dom)
        cod = typecheck_noeff_coercion(env, co.cod)
        return NSub(NArrow(dom.rhs, cod.lhs), NArrow(dom.lhs, cod.rhs))
    if isinstance(co, NCoHandler):
        dom = typecheck_noeff_coercion(env, co.dom)
        cod = typecheck_noeff_coercion(env, co.cod)
        if not (isinstance(dom.lhs, NComp) and isinstance(dom.rhs, NComp)):
            raise TypecheckError("handler coercion domain must relate computation types")
        if not (isinstance(cod.lhs, NComp) and isinstance(cod.rhs, NComp)):
            raise TypecheckError("handler coercion codomain must relate computation types")
        return NSub(
            NHandler(dom.rhs.body, cod.lhs.body), NHandler(dom.lhs.body, cod.rhs.body)
        )
    if isinstance(co, NCoHandToFun):
        dom = typecheck_noeff_coercion(env, co.dom)
        cod = typecheck_noeff_coercion(env, co.cod)
        if not isinstance(cod.lhs, NComp):
            raise TypecheckError("handler-to-function coercion codomain must consume a computation")
        return NSub(NHandler(dom.rhs, cod.lhs.body), NArrow(dom.lhs, cod.rhs))
    if isinstance(co, NCoFunToHand):
        dom = typecheck_noeff_coercion(env, co.dom)
        cod = typecheck_noeff_coercion(env, co.cod)
        if not isinstance(cod.rhs, NComp):
            raise TypecheckError("function-to-handler coercion codomain must produce a computation")
        return NSub(NArrow(dom.rhs, cod.lhs), NHandler(dom.lhs, cod.rhs.body))
    if isinstance(co, NCoForall):
        body = typecheck_noeff_coercion(env.with_ty(co.var), co.body)
        return NSub(NForall(co.var, body.lhs), NForall(co.var, body.rhs))
    if isinstance(co, NCoQual):
        wf_nty(env, co.constraint.lhs)
        wf_nty(env, co.constraint.rhs)
        body = typecheck_noeff_coercion(env, co.body)
        return NSub(NQual(co.constraint, body.lhs), NQual(co.constraint, body.rhs))
    if isinstance(co, NCoComp):
        body = typecheck_noeff_coercion(env, co.body)
        return NSub(NComp(body.lhs), NComp(body.rhs))
    if isinstance(co, NCoReturn):
        body = typecheck_noeff_coercion(env, co.body)
        return NSub(body.lhs, NComp(body.rhs))
    if isinstance(co, NCoUnsafe):
        body = typecheck_noeff_coercion(env, co.body)
        return NSub(NComp(body.lhs), body.rhs)
    raise TypeError(co)


# ---------------------------------------------------------------------------
# Type elaboration from the explicitly-typed core


def elab_vty(env: exeff.TypeEnv, t: ValueType) -> tuple:
    """Elaborate a core value type; returns (skeleton, NoEff type)."""
    if isinstance(t, TyVar):
        try:
            return env.ty_vars[t.id], t
        except KeyError:
            raise ElaborationError(f"unbound type variable a{t.id}") from None
    if isinstance(t, TBase):
        return SkelBase(t.base), NBase(t.base)
    if isinstance(t, TArrow):
        sk1, a = elab_vty(env, t.dom)
        sk2, b = elab_cty(env, t.cod)
        return SkelArrow(sk1, sk2), NArrow(a, b)
    if isinstance(t, THandler):
        sk1, a = elab_cty_parts(env, t.dom)
        sk2, b = elab_cty(env, t.cod)
        if not nonempty_dirt(t.dom.dirt):
            # Handlers whose input is pure elaborate to functions.
            return SkelHandler(sk1, sk2), NArrow(a, b)
        _, bval = elab_vty(env, t.cod.val)
        return SkelHandler(sk1, sk2), NHandler(a, bval)
    if isinstance(t, TForallSkel):
        sk, a = elab_vty(env.with_skel(t.var), t.body)
        return SkelForall(t.var, sk), a
    if isinstance(t, TForallTy):
        sk, a = elab_vty(env.with_ty(t.var, t.skel), t.body)
        return sk, NForall(t.var, a)
    if isinstance(t, TForallDirt):
        sk, a = elab_vty(env.with_dirt(t.var), t.body)
        return sk, a
    if isinstance(t, TQual):
        ct = t.constraint
        if isinstance(ct, DirtSub):
            return elab_vty(env, t.body)
        sk1, b1 = elab_vty(env, ct.lhs)
        sk2, b2 = elab_vty(env, ct.rhs)
        sk, a = elab_vty(env, t.body)
        return sk, NQual(NSub(b1, b2), a)
    raise TypeError(t)


def elab_cty_parts(env: exeff.TypeEnv, c: CompType) -> tuple:
    """(skeleton, value-part elaboration) of a computation type."""
    return elab_vty(env, c.val)


def elab_cty(env: exeff.TypeEnv, c: CompType) -> tuple:
    sk, a = elab_vty(env, c.val)
    if nonempty_dirt(c.dirt):
        return sk, NComp(a)
    return sk, a


def from_impure_vty(env: exeff.TypeEnv, t: ValueType, delta, inst: Dirt) -> NCoercion:
    if isinstance(t, TBase):
        return NCoBaseRefl(t.base)
    if isinstance(t, TyVar):
        return NCoTyRefl(t)
    if isinstance(t, TArrow):
        return NCoArrow(to_impure_vty(env, t.dom, delta, inst), from_impure_cty(env, t.cod, delta, inst))
    if isinstance(t, THandler):
        d_in = t.dom.dirt
        inst_in = exeff.subst_dirt(Subst.one_dirt(delta, inst), d_in)
        if not nonempty_dirt(d_in):
            return NCoArrow(
                to_impure_vty(env, t.dom.val, delta, inst),
                from_impure_cty(env, t.cod, delta, inst),
            )
        if nonempty_dirt(inst_in):
            return NCoHandler(
                to_impure_cty(env, t.dom, delta, inst),
                NCoComp(from_impure_vty(env, t.cod.val, delta, inst)),
            )
        # The input dirt was exactly the instantiated variable and the
        # instantiation is empty: bridge handler to function.
        d_out = exeff.subst_dirt(Subst.one_dirt(delta, inst), t.cod.dirt)
        arg = to_impure_vty(env, t.dom.val, delta, inst)
        res = from_impure_vty(env, t.cod.val, delta, inst)
        if nonempty_dirt(d_out):
            return NCoHandToFun(arg, NCoComp(res))
        return NCoHandToFun(arg, NCoUnsafe(res))
    if isinstance(t, TForallSkel):
        return from_impure_vty(env.with_skel(t.var), t.body, delta, inst)
    if isinstance(t, TForallTy):
        return NCoForall(t.var, from_impure_vty(env.with_ty(t.var, t.skel), t.body, delta, inst))
    if isinstance(t, TForallDirt):
        return from_impure_vty(env.with_dirt(t.var), t.body, delta, inst)
    if isinstance(t, TQual):
        ct = t.constraint
        if isinstance(ct, DirtSub):
            return from_impure_vty(env, t.body, delta, inst)
        if delta in free_vars(ct, DirtVar):
            raise ElaborationError(
                "constraint qualifier mentions the instantiated dirt variable"
            )
        _, b1 = elab_vty(env, ct.lhs)
        _, b2 = elab_vty(env, ct.rhs)
        return NCoQual(NSub(b1, b2), from_impure_vty(env, t.body, delta, inst))
    raise TypeError(t)


def from_impure_cty(env: exeff.TypeEnv, c: CompType, delta, inst: Dirt) -> NCoercion:
    d = c.dirt
    if not nonempty_dirt(d):
        return from_impure_vty(env, c.val, delta, inst)
    inst_d = exeff.subst_dirt(Subst.one_dirt(delta, inst), d)
    if nonempty_dirt(inst_d):
        return NCoComp(from_impure_vty(env, c.val, delta, inst))
    return NCoUnsafe(from_impure_vty(env, c.val, delta, inst))


def to_impure_vty(env: exeff.TypeEnv, t: ValueType, delta, inst: Dirt) -> NCoercion:
    if isinstance(t, TBase):
        return NCoBaseRefl(t.base)
    if isinstance(t, TyVar):
        return NCoTyRefl(t)
    if isinstance(t, TArrow):
        return NCoArrow(from_impure_vty(env, t.dom, delta, inst), to_impure_cty(env, t.cod, delta, inst))
    if isinstance(t, THandler):
        d_in = t.dom.dirt
        inst_in = exeff.subst_dirt(Subst.one_dirt(delta, inst), d_in)
        if not nonempty_dirt(d_in):
            return NCoArrow(
                from_impure_vty(env, t.dom.val, delta, inst),
                to_impure_cty(env, t.cod, delta, inst),
            )
        if nonempty_dirt(inst_in):
            return NCoHandler(
                from_impure_cty(env, t.dom, delta, inst),
                NCoComp(to_impure_vty(env, t.cod.val, delta, inst)),
            )
        d_out = exeff.subst_dirt(Subst.one_dirt(delta, inst), t.cod.dirt)
        arg = from_impure_vty(env, t.dom.val, delta, inst)
        res = to_impure_vty(env, t.cod.val, delta, inst)
        if nonempty_dirt(d_out):
            return NCoFunToHand(arg, NCoComp(res))
        return NCoFunToHand(arg, NCoReturn(res))
    if isinstance(t, TForallSkel):
        return to_impure_vty(env.with_skel(t.var), t.body, delta, inst)
    if isinstance(t, TForallTy):
        return NCoForall(t.var, to_impure_vty(env.with_ty(t.var, t.skel), t.body, delta, inst))
    if isinstance(t, TForallDirt):
        return to_impure_vty(env.with_dirt(t.var), t.body, delta, inst)
    if isinstance(t, TQual):
        ct = t.constraint
        if isinstance(ct, DirtSub):
            return to_impure_vty(env, t.body, delta, inst)
        if delta in free_vars(ct, DirtVar):
            raise ElaborationError(
                "constraint qualifier mentions the instantiated dirt variable"
            )
        _, b1 = elab_vty(env, ct.lhs)
        _, b2 = elab_vty(env, ct.rhs)
        return NCoQual(NSub(b1, b2), to_impure_vty(env, t.body, delta, inst))
    raise TypeError(t)


def to_impure_cty(env: exeff.TypeEnv, c: CompType, delta, inst: Dirt) -> NCoercion:
    d = c.dirt
    if not nonempty_dirt(d):
        return to_impure_vty(env, c.val, delta, inst)
    inst_d = exeff.subst_dirt(Subst.one_dirt(delta, inst), d)
    if nonempty_dirt(inst_d):
        return NCoComp(to_impure_vty(env, c.val, delta, inst))
    return NCoReturn(to_impure_vty(env, c.val, delta, inst))


# ---------------------------------------------------------------------------
# Coercion elaboration


def elab_coercion(env: exeff.TypeEnv, co: exeff.Coercion) -> tuple:
    """Elaborate a core coercion; returns (its core constraint type, NoEff coercion)."""
    ct = exeff.typecheck_coercion(env, co)
    return ct, _elab_co(env, co, ct)


def _elab_co(env: exeff.TypeEnv, co: exeff.Coercion, ct) -> NCoercion:
    if isinstance(co, CoVarRef):
        if not isinstance(ct, TySub):
            raise ElaborationError("dirt coercion variable has no pure-language counterpart")
        return NCoVar(co.var)
    if isinstance(co, CoBaseRefl):
        return NCoBaseRefl(co.base)
    if isinstance(co, CoTyRefl):
        return NCoTyRefl(co.var)
    if isinstance(co, CoArrow):
        dom_ct = exeff.typecheck_coercion(env, co.dom)
        cod_ct = exeff.typecheck_coercion(env, co.cod)
        return NCoArrow(_elab_co(env, co.dom, dom_ct), _elab_co(env, co.cod, cod_ct))
    if isinstance(co, CoHandler):
        return _elab_handler_co(env, co, ct)
    if isinstance(co, CoForallSkel):
        body_ct = exeff.typecheck_coercion(env.with_skel(co.var), co.body)
        return _elab_co(env.with_skel(co.var), co.body, body_ct)
    if isinstance(co, CoForallTy):
        inner_env = env.with_ty(co.var, co.skel)
        body_ct = exeff.typecheck_coercion(inner_env, co.body)
        return NCoForall(co.var, _elab_co(inner_env, co.body, body_ct))
    if isinstance(co, CoForallDirt):
        inner_env = env.with_dirt(co.var)
        body_ct = exeff.typecheck_coercion(inner_env, co.body)
        return _elab_co(inner_env, co.body, body_ct)
    if isinstance(co, CoQual):
        body_ct = exeff.typecheck_coercion(env, co.body)
        body = _elab_co(env, co.body, body_ct)
        if isinstance(co.constraint, DirtSub):
            return body
        _, b1 = elab_vty(env, co.constraint.lhs)
        _, b2 = elab_vty(env, co.constraint.rhs)
        return NCoQual(NSub(b1, b2), body)
    if isinstance(co, CoComp):
        assert isinstance(ct, CompSub)
        d1, d2 = ct.lhs.dirt, ct.rhs.dirt
        val_ct = exeff.typecheck_coercion(env, co.val)
        val = _elab_co(env, co.val, val_ct)
        if not nonempty_dirt(d1) and not nonempty_dirt(d2):
            return val
        if not nonempty_dirt(d1):
            return NCoReturn(val)
        if nonempty_dirt(d2):
            return NCoComp(val)
        raise ElaborationError("computation coercion from impure to pure dirt")
    if isinstance(co, (CoDirtRefl, CoEmpty, CoOpUnion)):
        raise ElaborationError("dirt coercion in a value position cannot be elaborated")
    raise TypeError(co)


def _elab_handler_co(env: exeff.TypeEnv, co: CoHandler, ct: TySub) -> NCoercion:
    src, tgt = ct.lhs, ct.rhs
    assert isinstance(src, THandler) and isinstance(tgt, THandler)
    d_src_in, d_tgt_in = src.dom.dirt, tgt.dom.dirt
    dom_ct = exeff.typecheck_coercion(env, co.dom)
    cod_ct = exeff.typecheck_coercion(env, co.cod)
    if not nonempty_dirt(d_src_in) and not nonempty_dirt(d_tgt_in):
        return NCoArrow(_elab_co(env, co.dom, dom_ct), _elab_co(env, co.cod, cod_ct))
    if nonempty_dirt(d_src_in) and nonempty_dirt(d_tgt_in):
        if not isinstance(co.cod, CoComp):
            raise ElaborationError("handler coercion codomain must be a computation coercion")
        val_ct = exeff.typecheck_coercion(env, co.cod.val)
        return NCoHandler(
            _elab_co(env, co.dom, dom_ct),
            NCoComp(_elab_co(env, co.cod.val, val_ct)),
        )
    if nonempty_dirt(d_src_in) and not nonempty_dirt(d_tgt_in):
        # Handler-typed source, function-typed target.
        if not (isinstance(co.dom, CoComp) and isinstance(co.cod, CoComp)):
            raise ElaborationError("handler coercion components must be computation coercions")
        arg_ct = exeff.typecheck_coercion(env, co.dom.val)
        res_ct = exeff.typecheck_coercion(env, co.cod.val)
        arg = _elab_co(env, co.dom.val, arg_ct)
        res = _elab_co(env, co.cod.val, res_ct)
        if nonempty_dirt(tgt.cod.dirt):
            return NCoHandToFun(arg, NCoComp(res))
        return NCoHandToFun(arg, NCoUnsafe(res))
    raise ElaborationError(
        "handler coercion from pure input to impure input contradicts contravariance"
    )


# ---------------------------------------------------------------------------
# Value and computation elaboration

# The elaboration is type-directed; each function re-derives the subject's
# core type because several rules branch on dirt emptiness that is invisible
# in the term itself.


def elab_value(env: exeff.TypeEnv, v: exeff.Value) -> tuple:
    """Elaborate a core value; returns (its core type, NoEff term)."""
    if isinstance(v, exeff.EVar):
        try:
            return env.term_vars[v.var.id], MVar(v.var)
        except KeyError:
            raise UnboundVariable(f"unbound variable {v.var.name}") from None
    if isinstance(v, exeff.EUnit):
        return TBase(Base.UNIT), MUnit()
    if isinstance(v, exeff.EInt):
        return TBase(Base.INT), MInt(v.value)
    if isinstance(v, exeff.EAbs):
        _, a = elab_vty(env, v.ty)
        cty, body = elab_comp(env.with_term(v.var, v.ty), v.body)
        return TArrow(v.ty, cty), MAbs(v.var, a, body)
    if isinstance(v, exeff.EHandler):
        return _elab_handler(env, v)
    if isinstance(v, exeff.ESkelAbs):
        t, body = elab_value(env.with_skel(v.var), v.body)
        return TForallSkel(v.var, t), body
    if isinstance(v, exeff.ESkelApp):
        t, body = elab_value(env, v.val)
        if not isinstance(t, TForallSkel):
            raise ElaborationError("skeleton application of a non-polymorphic value")
        return substitute(Subst.one_skel(t.var, v.skel), t.body), body
    if isinstance(v, exeff.ETyAbs):
        t, body = elab_value(env.with_ty(v.var, v.skel), v.body)
        return TForallTy(v.var, v.skel, t), MTyAbs(v.var, body)
    if isinstance(v, exeff.ETyApp):
        t, body = elab_value(env, v.val)
        if not isinstance(t, TForallTy):
            raise ElaborationError("type application of a non-polymorphic value")
        _, a = elab_vty(env, v.ty)
        return substitute(Subst.one_ty(t.var, v.ty), t.body), MTyApp(body, a)
    if isinstance(v, exeff.EDirtAbs):
        t, body = elab_value(env.with_dirt(v.var), v.body)
        return TForallDirt(v.var, t), body
    if isinstance(v, exeff.EDirtApp):
        t, body = elab_value(env, v.val)
        if not isinstance(t, TForallDirt):
            raise ElaborationError("dirt application of a non-polymorphic value")
        co = from_impure_vty(env.with_dirt(t.var), t.body, t.var, v.dirt)
        out_ty = substitute(Subst.one_dirt(t.var, v.dirt), t.body)
        return out_ty, MCast(body, co)
    if isinstance(v, exeff.ECoAbs):
        t, body = elab_value(env.with_co(v.var, v.constraint), v.body)
        if isinstance(v.constraint, DirtSub):
            return TQual(v.constraint, t), body
        _, b1 = elab_vty(env, v.constraint.lhs)
        _, b2 = elab_vty(env, v.constraint.rhs)
        return TQual(v.constraint, t), MCoAbs(v.var, NSub(b1, b2), body)
    if isinstance(v, exeff.ECoApp):
        t, body = elab_value(env, v.val)
        if not isinstance(t, TQual):
            raise ElaborationError("coercion application of a non-qualified value")
        if isinstance(t.constraint, DirtSub):
            exeff.typecheck_coercion(env, v.co)
            return t.body, body
        _, nco = elab_coercion(env, v.co)
        return t.body, MCoApp(body, nco)
    if isinstance(v, exeff.ECast):
        t, body = elab_value(env, v.val)
        ct, nco = elab_coercion(env, v.co)
        if not isinstance(ct, TySub):
            raise ElaborationError("value cast by a non-value coercion")
        return ct.rhs, MCast(body, nco)
    raise TypeError(v)


def _elab_handler(env: exeff.TypeEnv, v: exeff.EHandler) -> tuple:
    out_cty = exeff.typecheck_comp(env.with_term(v.ret_var, v.ret_ty), v.ret_body)
    ops = frozenset(cl.op for cl in v.clauses)
    in_dirt = Dirt(out_cty.dirt.ops | ops, out_cty.dirt.tail)
    h_ty = THandler(CompType(v.ret_ty, in_dirt), out_cty)
    _, a_in = elab_vty(env, v.ret_ty)
    _, b_out = elab_vty(env, out_cty.val)

    if not nonempty_dirt(in_dirt):
        # Pure input: the handler becomes a plain function on the return value.
        _, t_r = elab_comp(env.with_term(v.ret_var, v.ret_ty), v.ret_body)
        return h_ty, MAbs(v.ret_var, a_in, t_r)

    if not nonempty_dirt(out_cty.dirt):
        # Impure input but pure output: clause bodies elaborate pure, so wrap
        # them in return and strip the spurious return from continuations.
        _, t_r = elab_comp(env.with_term(v.ret_var, v.ret_ty), v.ret_body)
        clauses = []
        for cl in v.clauses:
            sig = env.sig.lookup(cl.op)
            _, a2 = elab_vty(env, sig.result)
            k_ty = TArrow(sig.result, out_cty)
            cl_env = env.with_term(cl.param, sig.param).with_term(cl.kont, k_ty)
            _, t_op = elab_comp(cl_env, cl.body)
            bridge = MCast(MVar(cl.kont), NCoArrow(refl_nty(a2), NCoUnsafe(refl_nty(b_out))))
            t_op = subst_term(bridge, cl.kont, t_op)
            clauses.append(MOpClause(cl.op, cl.param, cl.kont, MReturn(t_op)))
        return h_ty, MHandler(v.ret_var, a_in, MReturn(t_r), tuple(clauses))

    # Impure input and output: structural elaboration.
    _, t_r = elab_comp(env.with_term(v.ret_var, v.ret_ty), v.ret_body)
    clauses = []
    for cl in v.clauses:
        sig = env.sig.lookup(cl.op)
        k_ty = TArrow(sig.result, out_cty)
        cl_env = env.with_term(cl.param, sig.param).with_term(cl.kont, k_ty)
        _, t_op = elab_comp(cl_env, cl.body)
        clauses.append(MOpClause(cl.op, cl.param, cl.kont, t_op))
    return h_ty, MHandler(v.ret_var, a_in, t_r, tuple(clauses))


def elab_comp(env: exeff.TypeEnv, c: exeff.Comp) -> tuple:
    """Elaborate a core computation; returns (its core type, NoEff term)."""
    if isinstance(c, exeff.CApp):
        fn_ty, t1 = elab_value(env, c.fn)
        if not isinstance(fn_ty, TArrow):
            raise ElaborationError("application of a non-function value")
        _, t2 = elab_value(env, c.arg)
        return fn_ty.cod, MApp(t1, t2)
    if isinstance(c, exeff.CLet):
        val_ty, t1 = elab_value(env, c.val)
        cty, t2 = elab_comp(env.with_term(c.var, val_ty), c.body)
        return cty, MLet(c.var, t1, t2)
    if isinstance(c, exeff.CReturn):
        t, body = elab_value(env, c.val)
        return CompType(t, exeff.EMPTY_DIRT), body
    if isinstance(c, exeff.COp):
        sig = env.sig.lookup(c.op)
        _, t_v = elab_value(env, c.arg)
        _, b = elab_vty(env, sig.result)
        cty, t_c = elab_comp(env.with_term(c.var, c.var_ty), c.body)
        return cty, MOp(c.op, t_v, c.var, b, t_c)
    if isinstance(c, exeff.CDo):
        first_ty, t1 = elab_comp(env, c.first)
        cty, t2 = elab_comp(env.with_term(c.var, first_ty.val), c.second)
        if nonempty_dirt(first_ty.dirt):
            return cty, MDo(c.var, t1, t2)
        return cty, MLet(c.var, t1, t2)
    if isinstance(c, exeff.CHandle):
        h_ty, t_v = elab_value(env, c.handler)
        if not isinstance(h_ty, THandler):
            raise ElaborationError("with-handle applied to a non-handler value")
        _, t_c = elab_comp(env, c.body)
        if not nonempty_dirt(h_ty.dom.dirt):
            return h_ty.cod, MApp(t_v, t_c)
        if nonempty_dirt(h_ty.cod.dirt):
            return h_ty.cod, MHandle(t_v, t_c)
        _, b = elab_vty(env, h_ty.cod.val)
        return h_ty.cod, MCast(MHandle(t_v, t_c), NCoUnsafe(refl_nty(b)))
    if isinstance(c, exeff.CCast):
        _, t = elab_comp(env, c.comp)
        ct, nco = elab_coercion(env, c.co)
        if not isinstance(ct, CompSub):
            raise ElaborationError("computation cast by a non-computation coercion")
        return ct.rhs, MCast(t, nco)
    raise TypeError(c)


# ---------------------------------------------------------------------------
# Operational semantics

_VALUE_CAST_HEADS = (NCoArrow, NCoHandler, NCoHandToFun, NCoFunToHand, NCoForall, NCoQual)


_VALUES = (MUnit, MInt, MAbs, MTyAbs, MCoAbs, MHandler)


def is_value_noeff(t: NTerm) -> bool:
    while True:
        cls = type(t)
        if cls in _VALUES:
            return True
        if cls is MCast:
            if not isinstance(t.co, _VALUE_CAST_HEADS):
                return False
            t = t.term
        elif cls is MReturn:
            t = t.term
        elif cls is MOp:
            t = t.arg
        else:
            return False


# Per class, the evaluation positions and head rules in the order
# `traverse.Reduction` tries them.


def _app(t: MApp):
    fn, arg = t.fn, t.arg
    if not (is_value_noeff(fn) and is_value_noeff(arg)):
        return None
    if type(fn) is MAbs:
        return subst_term(arg, fn.var, fn.body)
    if type(fn) is MCast and type(fn.co) is NCoArrow:
        return MCast(MApp(fn.term, MCast(arg, fn.co.dom)), fn.co.cod)
    if type(fn) is MCast and type(fn.co) is NCoHandToFun:
        return MCast(MHandle(fn.term, MReturn(MCast(arg, fn.co.dom))), fn.co.cod)
    return None


def _ty_app(t: MTyApp):
    f = t.fn
    if type(f) is MTyAbs:
        return substitute(Subst.one_ty(f.var, t.ty), f.body)
    if type(f) is MCast and type(f.co) is NCoForall and is_value_noeff(f):
        return MCast(MTyApp(f.term, t.ty), substitute(Subst.one_ty(f.co.var, t.ty), f.co.body))
    return None


def _co_app(t: MCoApp):
    f = t.fn
    if type(f) is MCoAbs:
        return substitute(Subst.one_co(f.var, t.co), f.body)
    if type(f) is MCast and type(f.co) is NCoQual and is_value_noeff(f):
        return MCast(MCoApp(f.term, t.co), f.co.body)
    return None


def _let(t: MLet):
    if is_value_noeff(t.val):
        return subst_term(t.val, t.var, t.body)


def _do(t: MDo):
    first = t.first
    if type(first) is MReturn and is_value_noeff(first):
        return subst_term(first.term, t.var, t.second)
    if type(first) is MOp and is_value_noeff(first):
        return MOp(first.op, first.arg, first.var, first.var_ty, MDo(t.var, first.body, t.second))
    return None


def _handle(t: MHandle):
    h, body = t.handler, t.body
    if not (is_value_noeff(h) and is_value_noeff(body)):
        return None
    if type(h) is MHandler:
        if type(body) is MReturn:
            return subst_term(body.term, h.ret_var, h.ret_body)
        if type(body) is MOp:
            return handle_op(h, body, MHandle, MAbs)
        return None
    if type(h) is MCast and type(h.co) is NCoHandler:
        return MCast(MHandle(h.term, MCast(body, h.co.dom)), h.co.cod)
    if type(h) is MCast and type(h.co) is NCoFunToHand:
        if type(body) is MReturn:
            return MCast(MApp(h.term, MCast(body.term, h.co.dom)), h.co.cod)
        if type(body) is MOp:
            return MOp(body.op, body.arg, body.var, body.var_ty, MHandle(h, body.body))
    return None


def _cast(t: MCast):
    term, co = t.term, t.co
    if not is_value_noeff(term):
        return None
    if type(co) is NCoBaseRefl:
        return term
    if type(co) is NCoComp:
        if type(term) is MReturn:
            return MReturn(MCast(term.term, co.body))
        if type(term) is MOp:
            return MOp(term.op, term.arg, term.var, term.var_ty, MCast(term.body, co))
        return None
    if type(co) is NCoReturn:
        return MReturn(MCast(term, co.body))
    if type(co) is NCoUnsafe and type(term) is MReturn:
        return MCast(term.term, co.body)
    return None  # unsafe over an operation call: stuck


RULES = {
    **{cls: () for cls in (MVar, MOpClause, *_VALUES)},
    MApp: ("fn", ("arg", "fn", is_value_noeff), _app),
    MTyApp: ("fn", _ty_app),
    MCoApp: ("fn", _co_app),
    MLet: ("val", _let),
    MReturn: ("term",),
    MOp: ("arg",),
    MDo: ("first", _do),
    MHandle: ("handler", ("body", "handler", is_value_noeff), _handle),
    MCast: ("term", _cast),
}

# ---------------------------------------------------------------------------
# Stuck-term classification


class StuckClass:
    NOT_STUCK = "not stuck"
    HEAD = "unsafe coercion applied to an operation"
    CONTEXT = "stuck term in evaluation context"


def classify_stuck(t: NTerm) -> str:
    """Match the stuck-term grammar: an unsafe coercion over an operation
    call, at the top or in an evaluation position."""
    todo = [(t, StuckClass.HEAD)]
    while todo:
        u, found = todo.pop()
        if type(u) is MCast and type(u.co) is NCoUnsafe and type(u.term) is MOp and is_value_noeff(u.term):
            return found
        todo.extend((kid, StuckClass.CONTEXT) for kid in REDUCTION.positions(u))
    return StuckClass.NOT_STUCK


REDUCTION = Reduction(RULES, is_value_noeff, lambda t: f"stuck term: {classify_stuck(t)}")

# One deterministic step; None when `t` is a value or stuck.
step_noeff = REDUCTION.step


def eval_noeff(t: NTerm, fuel: int = 100_000):
    """Evaluate to a value; raises StuckTerm with a classification if stuck."""
    result, steps, _ = REDUCTION.run(t, fuel)
    return result, steps
