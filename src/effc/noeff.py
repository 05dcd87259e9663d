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
    CompType,
    Context,
    CoVar,
    Dirt,
    DirtSub,
    DirtVar,
    ElaborationError,
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
    clause_ops,
)
from .exeff import (
    CoArrow,
    CoBaseRefl,
    CoComp,
    CoHandler,
    CoTyRefl,
    CoVarRef,
    Subst,
    wf_bound,
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
    NCoFunToHand, NCoQual, NCoComp, NCoReturn, NCoUnsafe,
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
    raise TypeError(a)


@subst_hook(NCoTyRefl)
def _subst_nco_ty_refl(s: Subst, co: NCoTyRefl) -> NCoercion:
    return refl_nty(s.ty[co.var.id]) if co.var.id in s.ty else co


# ---------------------------------------------------------------------------
# Typing


def typecheck_noeff(env: Context, t: NTerm) -> NType:
    if isinstance(t, MVar):
        try:
            return env.term[t.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound variable {t.var.name}") from None
    if isinstance(t, MUnit):
        return NBase(Base.UNIT)
    if isinstance(t, MInt):
        return NBase(Base.INT)
    if isinstance(t, MAbs):
        wf_bound(env, t.ty)
        return NArrow(t.ty, typecheck_noeff(env.bind(t.var, t.ty), t.body))
    if isinstance(t, MApp):
        fn = typecheck_noeff(env, t.fn)
        if not isinstance(fn, NArrow):
            raise TypecheckError("application of a non-function term")
        arg = typecheck_noeff(env, t.arg)
        if not alpha_eq(arg, fn.dom):
            raise TypecheckError("argument type mismatch")
        return fn.cod
    if isinstance(t, MTyAbs):
        return NForall(t.var, typecheck_noeff(env.bind(t.var), t.body))
    if isinstance(t, MTyApp):
        fn = typecheck_noeff(env, t.fn)
        if not isinstance(fn, NForall):
            raise TypecheckError("type application of a non-polymorphic term")
        wf_bound(env, t.ty)
        return substitute(Subst.one_ty(fn.var, t.ty), fn.body)
    if isinstance(t, MCoAbs):
        wf_bound(env, t.constraint)
        body = typecheck_noeff(env.bind(t.var, t.constraint), t.body)
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
        wf_bound(env, t.ret_ty)
        out = typecheck_noeff(env.bind(t.ret_var, t.ret_ty), t.ret_body)
        if not isinstance(out, NComp):
            raise TypecheckError("handler return clause must produce a computation")
        clause_ops(t.clauses)
        for cl in t.clauses:
            op = env.sig.lookup(cl.op)
            cl_env = env.bind(cl.param, op.param).bind(cl.kont, NArrow(op.result, out))
            got = typecheck_noeff(cl_env, cl.body)
            if not alpha_eq(got, out):
                raise TypecheckError(f"handler clause for {cl.op} disagrees with the return clause")
        return NHandler(t.ret_ty, out.body)
    if isinstance(t, MLet):
        a = typecheck_noeff(env, t.val)
        return typecheck_noeff(env.bind(t.var, a), t.body)
    if isinstance(t, MOp):
        op = env.sig.lookup(t.op)
        arg = typecheck_noeff(env, t.arg)
        if not alpha_eq(arg, op.param):
            raise TypecheckError(f"operation {t.op} argument type mismatch")
        if not alpha_eq(t.var_ty, op.result):
            raise TypecheckError(f"operation {t.op} continuation annotation mismatch")
        body = typecheck_noeff(env.bind(t.var, op.result), t.body)
        if not isinstance(body, NComp):
            raise TypecheckError("operation continuation must produce a computation")
        return body
    if isinstance(t, MDo):
        first = typecheck_noeff(env, t.first)
        if not isinstance(first, NComp):
            raise TypecheckError("do-sequence head must be a computation")
        second = typecheck_noeff(env.bind(t.var, first.body), t.second)
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


def typecheck_noeff_coercion(env: Context, co: NCoercion) -> NSub:
    if isinstance(co, NCoVar):
        try:
            return env.co[co.var.id]
        except KeyError:
            raise UnboundVariable(f"unbound coercion variable w{co.var.id}") from None
    if isinstance(co, NCoBaseRefl):
        t = NBase(co.base)
        return NSub(t, t)
    if isinstance(co, NCoTyRefl):
        wf_bound(env, co.var)
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
    if isinstance(co, NCoQual):
        wf_bound(env, co.constraint)
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


def elab_vty(t: ValueType) -> NType:
    """The NoEff type of a core value type: skeleton and dirt binders and
    dirt qualifiers vanish, and a dirt only says whether a computation type
    is impure."""
    if isinstance(t, TyVar):
        return t
    if isinstance(t, TBase):
        return NBase(t.base)
    if isinstance(t, TArrow):
        return NArrow(elab_vty(t.dom), elab_cty(t.cod))
    if isinstance(t, THandler):
        if t.dom.dirt.is_empty():
            # Handlers whose input is pure elaborate to functions.
            return NArrow(elab_vty(t.dom.val), elab_cty(t.cod))
        return NHandler(elab_vty(t.dom.val), elab_vty(t.cod.val))
    if isinstance(t, (TForallSkel, TForallDirt)):
        return elab_vty(t.body)
    if isinstance(t, TForallTy):
        return NForall(t.var, elab_vty(t.body))
    if isinstance(t, TQual):
        if isinstance(t.constraint, DirtSub):
            return elab_vty(t.body)
        return NQual(elab_constraint(t.constraint), elab_vty(t.body))
    raise TypeError(t)


def elab_cty(c: CompType) -> NType:
    a = elab_vty(c.val)
    return a if c.dirt.is_empty() else NComp(a)


def elab_constraint(ct: TySub) -> NSub:
    return NSub(elab_vty(ct.lhs), elab_vty(ct.rhs))


def bridge(t: Union[ValueType, CompType], delta: DirtVar, inst: Dirt, from_impure: bool) -> NCoercion:
    """The coercion between the elaboration of `t`, where the dirt variable
    `delta` counts as impure, and that of `t` with `delta` instantiated to
    `inst`: from the first to the second when `from_impure`, else back.  The
    direction flips at arrow and handler domains, and picks the bridge out of
    an instantiated-pure computation: unsafe going in, return coming back."""

    def comp(d: Dirt, val: NCoercion) -> NCoercion:
        # The value part's bridge inside a computation of impure dirt `d`.
        if not exeff.subst_dirt(Subst.one_dirt(delta, inst), d).is_empty():
            return NCoComp(val)
        return NCoUnsafe(val) if from_impure else NCoReturn(val)

    if isinstance(t, CompType):
        val = bridge(t.val, delta, inst, from_impure)
        return val if t.dirt.is_empty() else comp(t.dirt, val)
    if isinstance(t, TBase):
        return NCoBaseRefl(t.base)
    if isinstance(t, TyVar):
        return NCoTyRefl(t)
    if isinstance(t, TArrow):
        return NCoArrow(
            bridge(t.dom, delta, inst, not from_impure),
            bridge(t.cod, delta, inst, from_impure),
        )
    if isinstance(t, THandler):
        if t.dom.dirt.is_empty():
            return NCoArrow(
                bridge(t.dom.val, delta, inst, not from_impure),
                bridge(t.cod, delta, inst, from_impure),
            )
        if not exeff.subst_dirt(Subst.one_dirt(delta, inst), t.dom.dirt).is_empty():
            return NCoHandler(
                bridge(t.dom, delta, inst, not from_impure),
                NCoComp(bridge(t.cod.val, delta, inst, from_impure)),
            )
        # The input dirt was exactly the instantiated variable and the
        # instantiation is empty: bridge between handler and function.
        arg = bridge(t.dom.val, delta, inst, not from_impure)
        res = comp(t.cod.dirt, bridge(t.cod.val, delta, inst, from_impure))
        return NCoHandToFun(arg, res) if from_impure else NCoFunToHand(arg, res)
    if isinstance(t, (TForallSkel, TForallDirt)):
        return bridge(t.body, delta, inst, from_impure)
    if isinstance(t, TQual):
        ct = t.constraint
        if isinstance(ct, DirtSub):
            return bridge(t.body, delta, inst, from_impure)
        if delta in free_vars(ct, DirtVar):
            raise ElaborationError(
                "constraint qualifier mentions the instantiated dirt variable"
            )
        return NCoQual(elab_constraint(ct), bridge(t.body, delta, inst, from_impure))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Elaboration on the ExEff typing derivation

# The elaboration is type-directed, and several rules branch on dirt
# emptiness that is invisible in the term itself.  It reads the types it
# branches on from the derivation the ExEff checker recorded for the term
# (`exeff.derive`), keyed by node identity.


def elab_co(derived: exeff.Derivation, co: exeff.Coercion) -> NCoercion:
    if isinstance(co, CoVarRef):
        if not isinstance(derived.of(co), TySub):
            raise ElaborationError("dirt coercion variable has no pure-language counterpart")
        return NCoVar(co.var)
    if isinstance(co, CoBaseRefl):
        return NCoBaseRefl(co.base)
    if isinstance(co, CoTyRefl):
        return NCoTyRefl(co.var)
    if isinstance(co, CoArrow):
        return NCoArrow(elab_co(derived, co.dom), elab_co(derived, co.cod))
    if isinstance(co, CoHandler):
        return _elab_handler_co(derived, co)
    if isinstance(co, CoComp):
        ct = derived.of(co)
        d1, d2 = ct.lhs.dirt, ct.rhs.dirt
        val = elab_co(derived, co.val)
        if d1.is_empty() and d2.is_empty():
            return val
        if d1.is_empty():
            return NCoReturn(val)
        if not d2.is_empty():
            return NCoComp(val)
        raise ElaborationError("computation coercion from impure to pure dirt")
    raise TypeError(co)


def _elab_handler_co(derived: exeff.Derivation, co: CoHandler) -> NCoercion:
    ct = derived.of(co)
    d_src_in, d_tgt_in = ct.lhs.dom.dirt, ct.rhs.dom.dirt
    if d_src_in.is_empty() and d_tgt_in.is_empty():
        return NCoArrow(elab_co(derived, co.dom), elab_co(derived, co.cod))
    if not d_src_in.is_empty() and not d_tgt_in.is_empty():
        if not isinstance(co.cod, CoComp):
            raise ElaborationError("handler coercion codomain must be a computation coercion")
        return NCoHandler(elab_co(derived, co.dom), NCoComp(elab_co(derived, co.cod.val)))
    if not d_src_in.is_empty() and d_tgt_in.is_empty():
        # Handler-typed source, function-typed target.
        if not (isinstance(co.dom, CoComp) and isinstance(co.cod, CoComp)):
            raise ElaborationError("handler coercion components must be computation coercions")
        arg = elab_co(derived, co.dom.val)
        res = elab_co(derived, co.cod.val)
        if not ct.rhs.cod.dirt.is_empty():
            return NCoHandToFun(arg, NCoComp(res))
        return NCoHandToFun(arg, NCoUnsafe(res))
    raise ElaborationError(
        "handler coercion from pure input to impure input contradicts contravariance"
    )


def elab_value(derived: exeff.Derivation, v: exeff.Value) -> NTerm:
    if isinstance(v, exeff.EVar):
        return MVar(v.var)
    if isinstance(v, exeff.EUnit):
        return MUnit()
    if isinstance(v, exeff.EInt):
        return MInt(v.value)
    if isinstance(v, exeff.EAbs):
        return MAbs(v.var, elab_vty(v.ty), elab_comp(derived, v.body))
    if isinstance(v, exeff.EHandler):
        return _elab_handler(derived, v)
    if isinstance(v, (exeff.ESkelAbs, exeff.EDirtAbs)):
        return elab_value(derived, v.body)
    if isinstance(v, exeff.ESkelApp):
        return elab_value(derived, v.val)
    if isinstance(v, exeff.ETyAbs):
        return MTyAbs(v.var, elab_value(derived, v.body))
    if isinstance(v, exeff.ETyApp):
        return MTyApp(elab_value(derived, v.val), elab_vty(v.ty))
    if isinstance(v, exeff.EDirtApp):
        t = derived.of(v.val)
        return MCast(elab_value(derived, v.val), bridge(t.body, t.var, v.dirt, True))
    if isinstance(v, exeff.ECoAbs):
        body = elab_value(derived, v.body)
        if isinstance(v.constraint, DirtSub):
            return body
        return MCoAbs(v.var, elab_constraint(v.constraint), body)
    if isinstance(v, exeff.ECoApp):
        body = elab_value(derived, v.val)
        if isinstance(derived.of(v.co), DirtSub):
            return body
        return MCoApp(body, elab_co(derived, v.co))
    if isinstance(v, exeff.ECast):
        return MCast(elab_value(derived, v.val), elab_co(derived, v.co))
    raise TypeError(v)


def _elab_handler(derived: exeff.Derivation, v: exeff.EHandler) -> NTerm:
    h_ty = derived.of(v)
    a_in = elab_vty(v.ret_ty)
    t_r = elab_comp(derived, v.ret_body)
    if h_ty.dom.dirt.is_empty():
        # Pure input: the handler becomes a plain function on the return value.
        return MAbs(v.ret_var, a_in, t_r)

    if h_ty.cod.dirt.is_empty():
        # Impure input but pure output: clause bodies elaborate pure, so wrap
        # them in return and strip the spurious return from continuations.
        b_out = elab_vty(h_ty.cod.val)
        clauses = []
        for cl in v.clauses:
            a2 = elab_vty(derived.sig.lookup(cl.op).result)
            t_op = elab_comp(derived, cl.body)
            bridge_k = MCast(MVar(cl.kont), NCoArrow(refl_nty(a2), NCoUnsafe(refl_nty(b_out))))
            t_op = subst_term(bridge_k, cl.kont, t_op)
            clauses.append(MOpClause(cl.op, cl.param, cl.kont, MReturn(t_op)))
        return MHandler(v.ret_var, a_in, MReturn(t_r), tuple(clauses))

    # Impure input and output: structural elaboration.
    clauses = []
    for cl in v.clauses:
        clauses.append(MOpClause(cl.op, cl.param, cl.kont, elab_comp(derived, cl.body)))
    return MHandler(v.ret_var, a_in, t_r, tuple(clauses))


def elab_comp(derived: exeff.Derivation, c: exeff.Comp) -> NTerm:
    if isinstance(c, exeff.CApp):
        return MApp(elab_value(derived, c.fn), elab_value(derived, c.arg))
    if isinstance(c, exeff.CLet):
        return MLet(c.var, elab_value(derived, c.val), elab_comp(derived, c.body))
    if isinstance(c, exeff.CReturn):
        return elab_value(derived, c.val)
    if isinstance(c, exeff.COp):
        t_v = elab_value(derived, c.arg)
        return MOp(c.op, t_v, c.var, elab_vty(c.var_ty), elab_comp(derived, c.body))
    if isinstance(c, exeff.CDo):
        t1 = elab_comp(derived, c.first)
        t2 = elab_comp(derived, c.second)
        if not derived.of(c.first).dirt.is_empty():
            return MDo(c.var, t1, t2)
        return MLet(c.var, t1, t2)
    if isinstance(c, exeff.CHandle):
        h_ty = derived.of(c.handler)
        t_v = elab_value(derived, c.handler)
        t_c = elab_comp(derived, c.body)
        if h_ty.dom.dirt.is_empty():
            return MApp(t_v, t_c)
        if not h_ty.cod.dirt.is_empty():
            return MHandle(t_v, t_c)
        return MCast(MHandle(t_v, t_c), NCoUnsafe(refl_nty(elab_vty(h_ty.cod.val))))
    if isinstance(c, exeff.CCast):
        return MCast(elab_comp(derived, c.comp), elab_co(derived, c.co))
    raise TypeError(c)


# ---------------------------------------------------------------------------
# Operational semantics

_VALUE_CAST_HEADS = (NCoArrow, NCoHandler, NCoHandToFun, NCoFunToHand, NCoQual)


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
